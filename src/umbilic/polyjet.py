"""Exact multivariate polynomial, truncated-jet, and radial-series algebra.

Everything here is exact.  A polynomial keeps integer numerators over one
positive common denominator, in lowest terms, and reads its coefficients
back as ``fractions.Fraction``; the arithmetic itself runs on Python ints.
A monomial carries two parts: spatial exponents in the coordinates
x_1..x_n, and powers of named scalar parameters (the mean curvature ``H``,
generic coefficient symbols, ...).  Parameters never count toward the
spatial degree used for truncation and homogeneity, so identities proved by
these classes hold as polynomial identities in the parameters.

Three layers:

  MultiPoly        sparse exact polynomial, the coefficient workhorse
  Jet              a MultiPoly truncated at total spatial degree D
  SphericalSeries  canonical sums of r^m * P(x) with P homogeneous and
                   |x|^2-free, graded by total order m + deg P; this is the
                   ring where divisions by |x|^2-like quantities live, both
                   for expansions near a point (orders bounded above) and
                   near infinity (orders bounded below)

Every product runs through one kernel, `MultiPoly.mul_truncated`, with an
optional degree cap read from a grading by degree that each polynomial
computes once, on first use; every unit power (1 + s)^e of a jet or a
series is one binomial series, `_binomial_series`.

Inside a polynomial a monomial's spatial exponents are one packed int (see
`pack_exponent`): the total degree in the top field, then x_1, ..., x_n in
fields of FIELD_BITS bits.  Multiplying two monomials adds their ints, the
degree is one shift, and int order is the grlex order of the exponents.  A
total degree of 2**FIELD_BITS or more would carry out of its field, so a
constructor or product that reaches one raises ValueError instead.  The
public mappings (`MultiPoly.terms`, the constructors, JSON) use exponent
tuples.
"""

from __future__ import annotations

import itertools
import math
import operator
import zlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

# A parameter monomial: sorted tuple of (name, power), power >= 1.
Params = Tuple[Tuple[str, int], ...]
# Full monomial key: (spatial exponent tuple of length n, parameter monomial).
Exponent = Tuple[int, ...]
Key = Tuple[Exponent, Params]
# The same key inside a polynomial: (packed exponent, parameter monomial).
Packed = Tuple[int, Params]

_NO_PARAMS: Params = ()

FIELD_BITS = 16  # width of each field of a packed exponent
_FIELD = 1 << FIELD_BITS  # the first degree that does not fit a field
_MASK = _FIELD - 1

_gcd = math.gcd
_set = object.__setattr__


def pack_exponent(e: Exponent, n: int) -> int:
    """The packed int of x_1^e_1 ... x_n^e_n: fields of FIELD_BITS bits
    holding, from the top, the total degree, then e_1, ..., e_n.  Raises
    ValueError for a tuple not of length n, a negative exponent, or a total
    degree of 2**FIELD_BITS or more, which would carry into the next field."""
    if len(e) != n:
        raise ValueError(f"exponent {tuple(e)} has length {len(e)}, not n={n}")
    k = d = 0
    for ei in e:
        ei = operator.index(ei)
        if ei < 0:
            raise ValueError(f"negative exponent in {tuple(e)}")
        k = k << FIELD_BITS | ei
        d += ei
    if d >= _FIELD:
        raise ValueError(f"total degree {d} does not fit a {FIELD_BITS}-bit field")
    return d << n * FIELD_BITS | k


def unpack_exponent(k: int, n: int) -> Exponent:
    """The exponent tuple of a packed int in n variables."""
    return tuple(k >> (n - 1 - i) * FIELD_BITS & _MASK for i in range(n))


def _var_key(n: int, i: int) -> int:
    """The packed exponent of x_(i+1): a one in its field and in the degree's."""
    if not 0 <= i < n:
        raise ValueError(f"variable index {i} out of range for n={n}")
    return 1 << n * FIELD_BITS | 1 << (n - 1 - i) * FIELD_BITS


def _merge_params(a: Params, b: Params) -> Params:
    """Product of two nonempty parameter monomials."""
    out: Dict[str, int] = dict(a)
    for name, k in b:
        out[name] = out.get(name, 0) + k
    return tuple(sorted(out.items()))


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"exact coefficient required, got {type(c).__name__}")


def _poly(n: int, num: Dict[Packed, int], den: int) -> "MultiPoly":
    """A polynomial from numerators and denominator already in lowest terms."""
    p = object.__new__(MultiPoly)
    _set(p, "n", n)
    _set(p, "num", num)
    _set(p, "den", den)
    _set(p, "_terms", None)
    _set(p, "_by_degree", None)
    return p


def _lowest(n: int, num: Dict[Packed, int], den: int) -> "MultiPoly":
    """A polynomial from nonzero numerators over den > 0, reduced by one gcd."""
    if not num:
        return _poly(n, num, 1)
    g = _gcd(den, *num.values())
    if g != 1:
        num = {k: c // g for k, c in num.items()}
        den //= g
    return _poly(n, num, den)


class MultiPoly:
    """Sparse exact polynomial in n spatial variables plus named parameters.

    ``num`` maps packed keys (`pack_exponent` of the spatial exponents,
    parameter monomial) to nonzero integer numerators over the one
    denominator ``den`` > 0, with gcd(den, numerators) = 1: equal
    polynomials have equal representations.  ``terms`` is the read-only
    {(exponent tuple, params): Fraction} view of the same coefficients.
    Instances are immutable; every operation returns a new polynomial in
    lowest terms.

    ``MultiPoly(n, terms)`` takes a {(exponent tuple, params): Fraction or
    int} mapping, drops zero coefficients and rejects inexact ones with
    ``TypeError``.  An exponent tuple not of length n, or one whose total
    degree does not fit a packed field (2**FIELD_BITS or more), raises
    ``ValueError``, and so does a product that would reach such a degree.
    """

    __slots__ = ("n", "num", "den", "_terms", "_by_degree")

    def __init__(self, n: int, terms: Optional[Mapping[Key, Fraction]] = None):
        coeffs = {k: _as_fraction(c) for k, c in (terms or {}).items()}
        coeffs = {(pack_exponent(e, n), p): c for (e, p), c in coeffs.items() if c}
        den = math.lcm(1, *(c.denominator for c in coeffs.values()))
        # Each coefficient is in lowest terms, so these are too.
        _set(self, "n", n)
        _set(self, "num", {k: c.numerator * (den // c.denominator) for k, c in coeffs.items()})
        _set(self, "den", den)
        _set(self, "_terms", None)
        _set(self, "_by_degree", None)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    __delattr__ = __setattr__

    @property
    def terms(self) -> Mapping[Key, Fraction]:
        """The coefficients as a read-only {key: Fraction} mapping."""
        if self._terms is None:
            n, den = self.n, self.den
            terms = {(unpack_exponent(k, n), p): Fraction(c, den) for (k, p), c in self.num.items()}
            _set(self, "_terms", MappingProxyType(terms))
        return self._terms

    # -- constructors -------------------------------------------------------

    @staticmethod
    def make(n: int, terms: Mapping[Key, Fraction]) -> "MultiPoly":
        return MultiPoly(n, terms)

    @staticmethod
    def zero(n: int) -> "MultiPoly":
        return _poly(n, {}, 1)

    @staticmethod
    def const(n: int, c) -> "MultiPoly":
        c = _as_fraction(c)
        if c == 0:
            return MultiPoly.zero(n)
        return _poly(n, {(0, _NO_PARAMS): c.numerator}, c.denominator)

    @staticmethod
    def var(n: int, i: int) -> "MultiPoly":
        return _poly(n, {(_var_key(n, i), _NO_PARAMS): 1}, 1)

    @staticmethod
    def param(n: int, name: str, power: int = 1) -> "MultiPoly":
        return _poly(n, {(0, ((name, power),)): 1}, 1)

    @staticmethod
    def x_norm_sq(n: int) -> "MultiPoly":
        """The radial polynomial |x|^2 = x_1^2 + ... + x_n^2."""
        return _poly(n, {(2 * _var_key(n, i), _NO_PARAMS): 1 for i in range(n)}, 1)

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        if not other.num:
            return self
        if not self.num:
            return other
        da, db = self.den, other.den
        g = _gcd(da, db)
        fa, fb = db // g, da // g
        out = dict(self.num) if fa == 1 else {k: c * fa for k, c in self.num.items()}
        b = other.num if fb == 1 else {k: c * fb for k, c in other.num.items()}
        get = out.get
        for k, c in b.items():
            s = get(k, 0) + c
            if s:
                out[k] = s
            else:
                del out[k]
        return _lowest(self.n, out, da * fa)

    def __neg__(self) -> "MultiPoly":
        return _poly(self.n, {k: -c for k, c in self.num.items()}, self.den)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return self._product(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def mul_truncated(self, other: "MultiPoly", max_degree: Optional[int] = None) -> "MultiPoly":
        """The product, truncated at total spatial degree max_degree unless
        that is None: the one product kernel, which `*` calls as `_product`
        (so a wrapper put on this name from outside sees each product once).
        A cap walks other's degree grading and stops at the first degree past
        it, so discarded term pairs are never formed; no cap walks other's
        terms as one group, in their order, and builds no grading.  A product
        of two monomials is the sum of their packed ints; unless a cap below
        2**FIELD_BITS bounds every product's degree, the operands' top
        degrees must add up to less than that."""
        self._check(other)
        shift = self.n * FIELD_BITS
        if (max_degree is None or max_degree >= _FIELD) and self.num and other.num:
            top = (max(self.num)[0] >> shift) + (max(other.num)[0] >> shift)
            if top >= _FIELD:
                raise ValueError(f"product degree {top} does not fit a {FIELD_BITS}-bit field")
        groups = ((0, other.num),) if max_degree is None else other._grading().items()
        out: Dict[Packed, int] = {}
        get = out.get
        for (ka, pa), ca in self.num.items():
            room = 0 if max_degree is None else max_degree - (ka >> shift)
            for db, group in groups:
                if db > room:
                    break
                for (kb, pb), cb in group.items():
                    k = (ka + kb, _merge_params(pa, pb) if pa and pb else pa or pb)
                    v = get(k)
                    if v is None:
                        out[k] = ca * cb
                    else:
                        s = v + ca * cb
                        if s:
                            out[k] = s
                        else:
                            del out[k]
        return _lowest(self.n, out, self.den * other.den)

    _product = mul_truncated

    def scale(self, c) -> "MultiPoly":
        c = _as_fraction(c)
        if c == 0:
            return MultiPoly.zero(self.n)
        p = c.numerator
        return _lowest(self.n, {k: p * v for k, v in self.num.items()}, self.den * c.denominator)

    def __pow__(self, k: int) -> "MultiPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiPoly)
            and self.n == other.n
            and self.den == other.den
            and self.num == other.num
        )

    def __hash__(self):
        return hash((self.n, self.den, frozenset(self.num.items())))

    # -- structure queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _grading(self) -> Dict[int, Dict[Packed, int]]:
        """The numerators bucketed by total spatial degree (a key's top
        field), in ascending degree and each bucket in term order, built on
        first use.  The least and greatest keys bound the degrees, so a
        homogeneous polynomial's one bucket is ``num`` itself, found without
        a pass over its terms in Python."""
        if self._by_degree is None:
            num, shift = self.num, self.n * FIELD_BITS
            lo = min(num)[0] >> shift if num else None
            if lo is not None and lo == max(num)[0] >> shift:
                buckets = {lo: num}
            else:
                buckets = {}
                for k, c in num.items():
                    buckets.setdefault(k[0] >> shift, {})[k] = c
                buckets = dict(sorted(buckets.items()))
            _set(self, "_by_degree", buckets)
        return self._by_degree

    def degree(self) -> int:
        """Maximal total spatial degree; -1 for the zero polynomial."""
        return max(self._grading(), default=-1)

    def is_homogeneous(self) -> bool:
        return len(self._grading()) <= 1

    def homogeneous_part(self, d: int) -> "MultiPoly":
        return _lowest(self.n, self._grading().get(d, {}), self.den)

    def homogeneous_parts(self) -> Dict[int, "MultiPoly"]:
        grading = self._grading()
        if len(grading) == 1:
            return {d: self for d in grading}
        parts = {}
        for d, t in grading.items():
            part = parts[d] = _lowest(self.n, t, self.den)
            _set(part, "_by_degree", {d: part.num})
        return parts

    def _grlex_terms(self) -> List[Tuple[Key, Fraction]]:
        """The terms by degree, then exponents, then parameters: the order
        of the packed keys."""
        n, den = self.n, self.den
        return [((unpack_exponent(k, n), p), Fraction(c, den))
                for (k, p), c in sorted(self.num.items())]

    def truncate(self, max_degree: int) -> "MultiPoly":
        if self.degree() <= max_degree:
            return self
        bound = max_degree + 1 << self.n * FIELD_BITS  # the first packed key of degree > max_degree
        kept = {k: c for k, c in self.num.items() if k[0] < bound}
        return _lowest(self.n, kept, self.den)

    def constant_term(self) -> Fraction:
        """Coefficient of the parameter-free constant monomial."""
        return Fraction(self.num.get((0, _NO_PARAMS), 0), self.den)

    def param_names(self) -> set:
        names = set()
        for (_, p) in self.num:
            names.update(name for name, _ in p)
        return names

    # -- calculus ------------------------------------------------------------

    def diff(self, i: int) -> "MultiPoly":
        n = self.n
        step = _var_key(n, i)
        shift = (n - 1 - i) * FIELD_BITS
        out: Dict[Packed, int] = {}
        for (k, p), c in self.num.items():
            e = k >> shift & _MASK
            if e:
                out[(k - step, p)] = c * e
        return _lowest(n, out, self.den)

    def grad(self) -> List["MultiPoly"]:
        return [self.diff(i) for i in range(self.n)]

    def laplacian(self) -> "MultiPoly":
        out = MultiPoly.zero(self.n)
        for i in range(self.n):
            out = out + self.diff(i).diff(i)
        return out

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        if not self.num:
            return "0"
        bits = []
        for (e, p), c in self._grlex_terms():
            mono = [f"x{i+1}^{k}" if k > 1 else f"x{i+1}" for i, k in enumerate(e) if k]
            mono += [f"{nm}^{k}" if k > 1 else nm for nm, k in p]
            body = "*".join(mono) if mono else "1"
            bits.append(f"({c})*{body}")
        return " + ".join(bits)


# -- exact division ----------------------------------------------------------


def poly_divexact(P: MultiPoly) -> Optional[MultiPoly]:
    """Exact quotient P / |x|^2, or None when |x|^2 does not divide P.

    |x|^2 is monic of degree 2 in x_1, so dividing by it eliminates
    x_1^2 = |x|^2 - (x_2^2 + ... + x_n^2) from the top power of x_1 down:
    a term c x_1^a m with a >= 2 moves c x_1^(a-2) m into the quotient and
    leaves -c x_1^(a-2) x_j^2 m, j >= 2, in the power a - 2.  The remainder
    has x_1-degree below 2 and is zero exactly when |x|^2 divides P.
    Parameters ride in the keys and numerators stay over P's denominator.
    On packed keys the quotient term is the key minus x_1^2's, and moving
    x_1^2 to x_j^2 adds a fixed offset that leaves the degree field alone.
    """
    n = P.n
    x1_shift = (n - 1) * FIELD_BITS
    drop = 2 * _var_key(n, 0)
    moves = [2 * _var_key(n, j) - drop for j in range(1, n)]
    by_power: Dict[int, Dict[Packed, int]] = {}
    for key, c in P.num.items():
        by_power.setdefault(key[0] >> x1_shift & _MASK, {})[key] = c
    quotient: Dict[Packed, int] = {}
    for a in range(max(by_power, default=0), 1, -1):
        lower = by_power.setdefault(a - 2, {})
        get = lower.get
        for (e, p), c in by_power.pop(a, {}).items():
            quotient[(e - drop, p)] = c
            for m in moves:
                k = (e + m, p)
                s = get(k, 0) - c
                if s:
                    lower[k] = s
                else:
                    del lower[k]
    if any(by_power.values()):
        return None
    return _lowest(n, quotient, P.den)


# -- the isotropic cone test -----------------------------------------------------
#
# If |x|^2 divides P, then P vanishes wherever |x|^2 does.  Since |x|^2 is
# primitive, Gauss's lemma makes the quotient of P's integer numerators an
# integer polynomial too, so the numerators vanish modulo a prime at every
# point of the cone |x|^2 = 0 over that prime field, whatever values the
# parameters take.  A nonzero value therefore proves non-divisibility; only
# a zero is left to the exact division (Schwartz, J. ACM 27, 1980: a
# polynomial that does not vanish on the cone is zero at a generic cone
# point with probability of the order of its degree over the prime).

CONE_PRIME = 1_000_000_009  # prime and = 1 (mod 4), so the cone has points besides 0


def _crc(text: str) -> int:
    return zlib.crc32(text.encode())


class _Cone(dict):
    """A fixed point of |x|^2 = 0 mod CONE_PRIME with no zero coordinate,
    and the values there of the monomials met so far, keyed by packed
    exponent (`pack_exponent`).

    The point is the second meeting point of the cone with the line through
    (1, i, 0, ..., 0), i^2 = -1, in a direction w drawn from the CRC of a
    label: v + t w with t = -2 (v . w) / (w . w).  For n = 1 the cone is
    the origin alone.

    The memo is unbounded: it holds one entry per distinct monomial met,
    at most C(n + d, n) up to degree d.  Criterion 8 of the acceptance
    gate (n = 9, degree <= 7) meets 11,368 of those 11,440."""

    def __init__(self, n: int):
        super().__init__()
        if n < 2:
            self.point = (0,) * n
            return
        p = CONE_PRIME
        g = 2
        while pow(g, (p - 1) // 2, p) != p - 1:
            g += 1
        v = [1, pow(g, (p - 1) // 4, p)] + [0] * (n - 2)
        salt = 0
        while True:
            w = [_crc(f"cone {n} {salt} {j}") % p for j in range(n)]
            vw = sum(a * b for a, b in zip(v, w)) % p
            ww = sum(b * b for b in w) % p
            if vw and ww:
                t = -2 * vw * pow(ww, -1, p) % p
                self.point = tuple((a + t * b) % p for a, b in zip(v, w))
                if all(self.point):
                    return
            salt += 1

    def __missing__(self, k: int) -> int:
        e = unpack_exponent(k, len(self.point))
        v = self[k] = math.prod(pow(a, ei, CONE_PRIME) for a, ei in zip(self.point, e)) % CONE_PRIME
        return v


@lru_cache(maxsize=None)
def _cone(n: int) -> _Cone:
    return _Cone(n)


@lru_cache(maxsize=None)  # one entry per parameter monomial: 3,567 in criterion 8
def _params_value(params: Params) -> int:
    """A parameter monomial mod CONE_PRIME, each name at a fixed value
    taken from its CRC (not from the salted built-in hash)."""
    v = 1
    for name, k in params:
        v = v * pow(_crc(f"param {name}"), k, CONE_PRIME)
    return v % CONE_PRIME


def cone_value(P: MultiPoly) -> int:
    """P's integer numerators at the fixed cone point for P.n, with each
    parameter at a fixed value of its name, modulo CONE_PRIME.  Nonzero
    proves that |x|^2 does not divide P."""
    values = _cone(P.n)
    total = 0
    for (k, params), c in P.num.items():
        v = c * values[k]
        if params:
            v *= _params_value(params)
        total += v
    return total % CONE_PRIME


def extract_radial_factors(P: MultiPoly) -> Tuple[int, MultiPoly]:
    """Write P = |x|^(2k) * P' with P' not divisible by |x|^2; return (k, P').

    Each division is attempted only when P vanishes at the cone point."""
    if P.is_zero:
        return 0, P
    k = 0
    while cone_value(P) == 0:
        q = poly_divexact(P)
        if q is None:
            break
        P = q
        k += 1
    return k, P


# -- truncated jets ------------------------------------------------------------


def _binomial_series(one, s, exponent):
    """(1 + s)^exponent = sum_k C(e, k) s^k for a jet or series s with no
    order-0 part, ``one`` the unit of its ring.  The coefficient runs along
    as C(e, k + 1) = C(e, k) (e - k)/(k + 1); the sum stops at the first
    zero power of s, which the truncation of the ring makes finite."""
    e = _as_fraction(exponent)
    out = power = one
    c = Fraction(1)
    for k in itertools.count():
        power = power * s
        if power.is_zero:
            return out
        c = c * (e - k) / (k + 1)
        out = out + power * c


@dataclass(frozen=True)
class Jet:
    """A polynomial truncated at total spatial degree ``order``.

    The ring operations agree with operations on the represented smooth
    function modulo O(|x|^(order+1)).  ``Jet(poly, order)`` truncates poly
    if its degree exceeds order; the ring operations, whose results never
    do, skip that degree pass.
    """

    poly: MultiPoly
    order: int

    def __post_init__(self):
        object.__setattr__(self, "poly", self.poly.truncate(self.order))

    @property
    def n(self) -> int:
        return self.poly.n

    @staticmethod
    def of(poly: MultiPoly, order: int) -> "Jet":
        return _jet(poly.truncate(order), order)

    @staticmethod
    def const(n: int, c, order: int) -> "Jet":
        return Jet(MultiPoly.const(n, c), order)

    def _check(self, other: "Jet") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        if self.order != other.order:
            raise ValueError(f"truncation mismatch: {self.order} vs {other.order}")

    def __add__(self, other: "Jet") -> "Jet":
        self._check(other)
        return _jet(self.poly + other.poly, self.order)

    def __sub__(self, other: "Jet") -> "Jet":
        self._check(other)
        return _jet(self.poly - other.poly, self.order)

    def __neg__(self) -> "Jet":
        return _jet(-self.poly, self.order)

    def __mul__(self, other):
        if isinstance(other, Jet):
            self._check(other)
            return _jet(self.poly.mul_truncated(other.poly, self.order), self.order)
        return _jet(self.poly.scale(other), self.order)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Jet)
            and self.order == other.order
            and self.poly == other.poly
        )

    def __hash__(self):
        return hash((self.poly, self.order))

    @property
    def is_zero(self) -> bool:
        return self.poly.is_zero

    def diff(self, i: int) -> "Jet":
        # Differentiation loses one certified order.
        return _jet(self.poly.diff(i), self.order - 1)

    def rejet(self, order: int) -> "Jet":
        return _jet(self.poly.truncate(order), order)

    def power_unit(self, exponent) -> "Jet":
        """Binomial series (1 + s)^exponent for a jet 1 + s; exponent rational."""
        one = Jet.const(self.n, 1, self.order)
        s = self - one
        if 0 in s.poly._grading():
            raise ValueError("jet is not a unit with constant part 1")
        return _binomial_series(one, s, exponent)

    def __repr__(self) -> str:
        return f"Jet[D={self.order}]({self.poly!r})"


def _jet(poly: MultiPoly, order: int) -> Jet:
    """A jet of a polynomial already of degree <= order, without the
    degree pass of `Jet.__post_init__`.  Every ring operation builds its
    result here: sums, negatives, scalings and truncated products of jets
    of one order, derivatives and truncations cannot exceed their order."""
    j = object.__new__(Jet)
    _set(j, "poly", poly)
    _set(j, "order", order)
    return j


# -- spherical series ----------------------------------------------------------

# Canonical storage: tuple of (m, P) entries sorted by (total order, m) where
# total order = m + deg P, each P spatially homogeneous and not divisible by
# |x|^2, at most one entry per (total order, parity of m).


@dataclass(frozen=True)
class SphericalSeries:
    """Canonical formal sum of r^m * P(x) graded by total order m + deg P.

    A term (m, P) with P homogeneous of degree d represents the function
    r^(m+d) * P(theta) on rays; the grading by w = m + d is the order of
    vanishing at the origin (w > 0) or decay at infinity (w < 0).  The window
    [order_min, order_max] (either end may be None = unbounded) states which
    orders the series is certified to; arithmetic intersects windows.
    """

    n: int
    terms: Tuple[Tuple[int, MultiPoly], ...]
    order_min: Optional[int] = None
    order_max: Optional[int] = None

    # -- construction --------------------------------------------------------

    @staticmethod
    def canonicalize(
        n: int,
        raw: Iterable[Tuple[int, MultiPoly]],
        order_min: Optional[int] = None,
        order_max: Optional[int] = None,
    ) -> "SphericalSeries":
        """Normal form: split into homogeneous parts, extract |x|^2 factors,
        merge same-order same-parity terms, apply the window."""
        buckets: Dict[Tuple[int, int], List[Tuple[int, MultiPoly]]] = {}
        for m, P in raw:
            if P.is_zero:
                continue
            for d, Pd in P.homogeneous_parts().items():
                w = m + d
                if order_min is not None and w < order_min:
                    continue
                if order_max is not None and w > order_max:
                    continue
                buckets.setdefault((w, m & 1), []).append((m, Pd))
        out: List[Tuple[int, int, MultiPoly]] = []
        r2 = None
        for (w, _parity), entries in buckets.items():
            m0 = min(m for m, _ in entries)
            merged = MultiPoly.zero(n)
            for m, P in entries:
                if m == m0:
                    merged = merged + P
                else:
                    if r2 is None:
                        r2 = MultiPoly.x_norm_sq(n)
                    merged = merged + P * r2 ** ((m - m0) // 2)
            if merged.is_zero:
                continue
            k, core = extract_radial_factors(merged)
            out.append((w, m0 + 2 * k, core))
        out.sort(key=lambda t: t[:2])
        return SphericalSeries(n, tuple((m, P) for _, m, P in out), order_min, order_max)

    @staticmethod
    def zero(n: int, order_min=None, order_max=None) -> "SphericalSeries":
        return SphericalSeries(n, (), order_min, order_max)

    @staticmethod
    def from_poly(P: MultiPoly, order_min=None, order_max=None) -> "SphericalSeries":
        return SphericalSeries.canonicalize(P.n, [(0, P)], order_min, order_max)

    @staticmethod
    def from_term(
        m: int, P: MultiPoly, order_min=None, order_max=None
    ) -> "SphericalSeries":
        return SphericalSeries.canonicalize(P.n, [(m, P)], order_min, order_max)

    @staticmethod
    def one(n: int, order_min=None, order_max=None) -> "SphericalSeries":
        return SphericalSeries.from_poly(MultiPoly.const(n, 1), order_min, order_max)

    # -- window plumbing -----------------------------------------------------

    @staticmethod
    def _combine_windows(a: "SphericalSeries", b: "SphericalSeries"):
        mins = [w for w in (a.order_min, b.order_min) if w is not None]
        maxs = [w for w in (a.order_max, b.order_max) if w is not None]
        return (max(mins) if mins else None, min(maxs) if maxs else None)

    def with_window(self, order_min=None, order_max=None) -> "SphericalSeries":
        return SphericalSeries.canonicalize(self.n, self.terms, order_min, order_max)

    # -- ring structure ------------------------------------------------------

    def _check(self, other: "SphericalSeries") -> None:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")

    def __add__(self, other: "SphericalSeries") -> "SphericalSeries":
        self._check(other)
        lo, hi = self._combine_windows(self, other)
        return SphericalSeries.canonicalize(
            self.n, list(self.terms) + list(other.terms), lo, hi
        )

    def __neg__(self) -> "SphericalSeries":
        return SphericalSeries(
            self.n,
            tuple((m, -P) for m, P in self.terms),
            self.order_min,
            self.order_max,
        )

    def __sub__(self, other: "SphericalSeries") -> "SphericalSeries":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, SphericalSeries):
            self._check(other)
            lo, hi = self._combine_windows(self, other)
            raw = []
            for m1, P1 in self.terms:
                w1 = m1 + P1.degree()
                for m2, P2 in other.terms:
                    w = w1 + m2 + P2.degree()
                    if lo is not None and w < lo:
                        continue
                    if hi is not None and w > hi:
                        continue
                    raw.append((m1 + m2, P1 * P2))
            return SphericalSeries.canonicalize(self.n, raw, lo, hi)
        if isinstance(other, MultiPoly):
            return self * SphericalSeries.from_poly(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self * other

    def scale(self, c) -> "SphericalSeries":
        c = _as_fraction(c)
        if c == 0:
            return SphericalSeries.zero(self.n, self.order_min, self.order_max)
        return SphericalSeries(
            self.n,
            tuple((m, P.scale(c)) for m, P in self.terms),
            self.order_min,
            self.order_max,
        )

    def shift(self, k: int) -> "SphericalSeries":
        """Multiply by r^k (k may be negative)."""
        return SphericalSeries(
            self.n,
            tuple((m + k, P) for m, P in self.terms),
            None if self.order_min is None else self.order_min + k,
            None if self.order_max is None else self.order_max + k,
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SphericalSeries)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.terms))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def orders(self) -> List[int]:
        return sorted({m + P.degree() for m, P in self.terms})

    def leading_order(self, at_infinity: bool = False) -> Optional[int]:
        os = self.orders()
        if not os:
            return None
        return os[-1] if at_infinity else os[0]

    # -- units ---------------------------------------------------------------

    def power_unit(self, exponent, at_infinity: bool = False) -> "SphericalSeries":
        """Binomial series for (r^m0 * (1 + s))^exponent, r^m0 the term at the
        dominant end; needs unit leading coefficient 1."""
        e = _as_fraction(exponent)
        if not self.terms:
            raise ValueError("zero series is not invertible")
        w0 = self.leading_order(at_infinity)
        lead = [(m, P) for m, P in self.terms if m + P.degree() == w0]
        if len(lead) != 1 or lead[0][1].degree() != 0:
            raise ValueError("leading term is not a constant multiple of r^m")
        m0, P0 = lead[0]
        if P0.constant_term() != 1 or len(P0.num) != 1:
            raise ValueError("power_unit requires unit leading coefficient 1")
        if at_infinity and self.order_min is None:
            raise ValueError("series at infinity needs a finite order_min")
        if not at_infinity and self.order_max is None:
            raise ValueError("series at the origin needs a finite order_max")
        shift_total = e * m0
        if shift_total.denominator != 1:
            raise ValueError("fractional radial power in result")
        u = self.shift(-m0)
        one = SphericalSeries.one(self.n, u.order_min, u.order_max)
        return _binomial_series(one, u - one, e).shift(int(shift_total))

    # -- grading and calculus --------------------------------------------------

    def coefficient(self, order: int) -> "SphericalSeries":
        """The angular coefficient at a total order, as an order-0 series."""
        picked = [
            (m - order, P) for m, P in self.terms if m + P.degree() == order
        ]
        return SphericalSeries.canonicalize(self.n, picked, 0, 0)

    def radial_derivative(self) -> "SphericalSeries":
        """d/dr at fixed direction: r^w P(theta) -> w r^(w-1) P(theta)."""
        raw = [(m, P.scale(m + P.degree())) for m, P in self.terms if m + P.degree()]
        return self.canonicalize(self.n, raw, self.order_min, self.order_max).shift(-1)

    def __repr__(self) -> str:
        bits = [f"r^{m}*[{P!r}]" for m, P in self.terms]
        win = f" window=[{self.order_min},{self.order_max}]"
        return "SphericalSeries(" + (" + ".join(bits) or "0") + win + ")"


# -- JSON interchange ----------------------------------------------------------
#
# Polynomials travel as a list of {"exp": [e1..en] or [e1..en, eH],
# "num": "...", "den": "..."}.  An exponent list of length n+1 uses the last
# slot for the power of the curvature parameter H, which has spatial degree
# zero by convention.  A series is a list of {"radial_power": m, "poly": P}.


def poly_to_json(P: MultiPoly) -> list:
    extra = P.param_names()
    if extra - {"H"}:
        raise ValueError(f"only the H parameter is serializable, got {extra}")
    use_h = "H" in extra
    out = []
    for (e, p), c in P._grlex_terms():
        exp = list(e)
        if use_h:
            exp.append(dict(p).get("H", 0))
        out.append({"exp": exp, "num": str(c.numerator), "den": str(c.denominator)})
    return out


def series_to_json(s: SphericalSeries) -> list:
    return [{"radial_power": m, "poly": poly_to_json(P)} for m, P in s.terms]


def _json_int(v, what: str) -> int:
    """An integer given as a JSON integer or an integer string."""
    if isinstance(v, str):
        return int(v)
    if isinstance(v, int) and not isinstance(v, bool):
        return v
    raise ValueError(f"{what} must be an integer, not {v!r}")


def poly_from_json(data: list, n: int) -> MultiPoly:
    terms: Dict[Key, Fraction] = {}
    for entry in data:
        exp = list(entry["exp"])
        if not all(type(v) is int and v >= 0 for v in exp):
            raise ValueError(f"exponents must be non-negative integers, not {exp}")
        if len(exp) == n + 1:
            h = exp.pop()
        elif len(exp) == n:
            h = 0
        else:
            raise ValueError(f"exponent list of length {len(exp)} for n={n}")
        params: Params = ((("H", h),) if h else _NO_PARAMS)
        c = Fraction(_json_int(entry["num"], "num"), _json_int(entry["den"], "den"))
        key = (tuple(exp), params)
        terms[key] = terms.get(key, Fraction(0)) + c
    return MultiPoly.make(n, terms)
