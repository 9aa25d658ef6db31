"""Term-by-term evaluation of exact polynomials and descending series, unit
powers by the per-k binomial loop, and the tuple-key polynomial kernel:
oracles for the package's numeric evaluators, its binomial series, its
packed-key kernel and hand-computed values.

`evaluate` walks a MultiPoly's (or a Jet's) terms one at a time, exact when
the coordinates and parameters are Fractions; `evaluate_series` sums a
SphericalSeries r^m P(x) in floats.  `jet_power_unit` and
`series_power_unit` sum (1 + s)^e as C(e, k) s^k with each C(e, k)
recomputed from scratch in O(k).  `TuplePoly` is the integer kernel keyed
by (exponent tuple, params), with `tuple_divexact`, `tuple_cone_value`,
`tuple_sphere_integral`, `tuple_to_json` and `batch_table` beside it.
"""

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from umbilic import polyjet
from umbilic.polyjet import Jet, Key, MultiPoly, Params, SphericalSeries


def evaluate(P, point: Sequence, params: Optional[Mapping[str, object]] = None):
    """P (a MultiPoly or a Jet) at a point; exact if coordinates and
    params are Fractions.  Every parameter of P must be given."""
    if isinstance(P, Jet):
        P = P.poly
    assert isinstance(P, MultiPoly)
    params = params or {}
    total = None
    for (e, p), c in P.terms.items():
        v = c
        for xi, ei in zip(point, e):
            if ei:
                v = v * xi**ei
        for name, k in p:
            if name not in params:
                raise KeyError(f"value for parameter {name!r} required")
            v = v * params[name] ** k
        total = v if total is None else total + v
    if total is None:
        x0 = point[0] if len(point) else 0
        return 0 * x0 if not isinstance(x0, (int, Fraction)) else Fraction(0)
    return total


def evaluate_series(s: SphericalSeries, point: Sequence[float], params=None) -> float:
    """The series sum_m r^m P_m(x) at a point, r = |x|, in floats."""
    x = [float(xi) for xi in point]
    r = math.sqrt(sum(xi * xi for xi in x))
    return sum(r**m * float(evaluate(P, x, params)) for m, P in s.terms)


def binomial_coeff(e: Fraction, k: int) -> Fraction:
    """C(e, k) = e (e - 1) ... (e - k + 1) / k! for a rational e."""
    c = Fraction(1)
    for j in range(k):
        c = c * (e - j) / (j + 1)
    return c


def jet_power_unit(u: Jet, exponent) -> Jet:
    """(1 + s)^exponent for a jet u = 1 + s, s without constant part."""
    e = Fraction(exponent)
    s = u.poly - MultiPoly.const(u.n, 1)
    out = power = MultiPoly.const(u.n, 1)
    for k in range(1, u.order + 1):
        power = power.mul_truncated(s, u.order)
        if power.is_zero:
            break
        out = out + power.scale(binomial_coeff(e, k))
    return Jet(out, u.order)


def series_power_unit(u: SphericalSeries, exponent, at_infinity=False) -> SphericalSeries:
    """(r^m0 (1 + s))^exponent for a series whose term at the dominant end
    is r^m0 alone."""
    e = Fraction(exponent)
    w0 = u.leading_order(at_infinity)
    [m0] = [m for m, P in u.terms if m + P.degree() == w0]
    lo = None if u.order_min is None else u.order_min - m0
    hi = None if u.order_max is None else u.order_max - m0
    s = u.shift(-m0) - SphericalSeries.one(u.n, lo, hi)
    out = power = SphericalSeries.one(u.n, lo, hi)
    k = 0
    while True:
        power = power * s
        k += 1
        if power.is_zero:
            break
        out = out + power.scale(binomial_coeff(e, k))
    return out.shift(int(e * m0))


# -- the tuple-key kernel ---------------------------------------------------------


def _merge(a: Params, b: Params) -> Params:
    if not (a and b):
        return a or b
    out = dict(a)
    for name, k in b:
        out[name] = out.get(name, 0) + k
    return tuple(sorted(out.items()))


class TuplePoly:
    """Integer numerators keyed by (exponent tuple, params) over one
    denominator in lowest terms: each monomial product forms its exponent
    tuple elementwise and reads its degree with sum()."""

    def __init__(self, n: int, num: Dict[Key, int], den: int = 1):
        num = {k: c for k, c in num.items() if c}
        g = math.gcd(den, *num.values()) if num else den
        self.n, self.num, self.den = n, {k: c // g for k, c in num.items()}, den // g

    @staticmethod
    def of(P: MultiPoly) -> "TuplePoly":
        return TuplePoly(P.n, {k: c.numerator * (P.den // c.denominator)
                               for k, c in P.terms.items()}, P.den)

    @property
    def terms(self) -> Dict[Key, Fraction]:
        return {k: Fraction(c, self.den) for k, c in self.num.items()}

    def __add__(self, other: "TuplePoly") -> "TuplePoly":
        out = {k: c * other.den for k, c in self.num.items()}
        for k, c in other.num.items():
            s = out.get(k, 0) + c * self.den
            if s:
                out[k] = s
            else:
                del out[k]
        return TuplePoly(self.n, out, self.den * other.den)

    def grading(self) -> Dict[int, Dict[Key, int]]:
        buckets: Dict[int, Dict[Key, int]] = {}
        for k, c in self.num.items():
            buckets.setdefault(sum(k[0]), {})[k] = c
        return dict(sorted(buckets.items()))

    def mul_truncated(self, other: "TuplePoly", max_degree: Optional[int] = None) -> "TuplePoly":
        """In the term order of the packed kernel: by self's terms, then by
        other's degree grading under a cap, or other's terms without one."""
        groups = [other.num] if max_degree is None else list(other.grading().values())
        out: Dict[Key, int] = {}
        for (ea, pa), ca in self.num.items():
            for group in groups:
                for (eb, pb), cb in group.items():
                    e = tuple(map(int.__add__, ea, eb))
                    if max_degree is not None and sum(e) > max_degree:
                        break
                    k = (e, _merge(pa, pb))
                    s = out.get(k, 0) + ca * cb
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
        return TuplePoly(self.n, out, self.den * other.den)

    def diff(self, i: int) -> "TuplePoly":
        out = {}
        for (e, p), c in self.num.items():
            if e[i]:
                out[(e[:i] + (e[i] - 1,) + e[i + 1:], p)] = c * e[i]
        return TuplePoly(self.n, out, self.den)

    def truncate(self, max_degree: int) -> "TuplePoly":
        return TuplePoly(self.n, {k: c for k, c in self.num.items() if sum(k[0]) <= max_degree},
                         self.den)

    def homogeneous_parts(self) -> Dict[int, "TuplePoly"]:
        return {d: TuplePoly(self.n, t, self.den) for d, t in self.grading().items()}

    def grlex_terms(self) -> List[Tuple[Key, Fraction]]:
        return [(k, Fraction(c, self.den))
                for t in self.grading().values() for k, c in sorted(t.items())]


def tuple_divexact(P: TuplePoly) -> Optional[TuplePoly]:
    """P / |x|^2 by x_1^2 elimination on tuple keys, or None."""
    n = P.n
    by_power: Dict[int, Dict[Key, int]] = {}
    for key, c in P.num.items():
        by_power.setdefault(key[0][0], {})[key] = c
    quotient: Dict[Key, int] = {}
    for a in range(max(by_power, default=0), 1, -1):
        lower = by_power.setdefault(a - 2, {})
        for (e, p), c in by_power.pop(a, {}).items():
            e = (a - 2,) + e[1:]
            quotient[(e, p)] = c
            for j in range(1, n):
                k = (e[:j] + (e[j] + 2,) + e[j + 1:], p)
                s = lower.get(k, 0) - c
                if s:
                    lower[k] = s
                else:
                    del lower[k]
    if any(by_power.values()):
        return None
    return TuplePoly(n, quotient, P.den)


def tuple_cone_value(P: TuplePoly) -> int:
    """The numerators at the package's cone point, each monomial's value
    computed from its exponent tuple."""
    point, p = polyjet._cone(P.n).point, polyjet.CONE_PRIME
    total = 0
    for (e, params), c in P.num.items():
        v = math.prod(pow(a, k, p) for a, k in zip(point, e))
        total += c * v * polyjet._params_value(params)
    return total % p


def tuple_sphere_integral(P: TuplePoly) -> Dict[Params, Fraction]:
    """The unit-sphere average of P by monomial moments, per parameter monomial."""
    out: Dict[Params, Fraction] = {}
    for (e, params), c in P.terms.items():
        if any(k & 1 for k in e):
            continue
        v = c * math.prod(math.prod(range(k - 1, 0, -2)) for k in e)
        v /= math.prod(P.n + 2 * j - 2 for j in range(1, sum(e) // 2 + 1))
        out[params] = out.get(params, 0) + v
    return {k: v for k, v in out.items() if v}


def tuple_to_json(P: TuplePoly) -> list:
    use_h = any(p for _, p in P.num)
    return [{"exp": list(e) + ([dict(p).get("H", 0)] if use_h else []),
             "num": str(c.numerator), "den": str(c.denominator)}
            for (e, p), c in P.grlex_terms()]


def batch_table(polys: Sequence[MultiPoly]) -> List[Dict[Tuple[int, ...], float]]:
    """Each polynomial's {sorted coordinate rows (1-based): float coefficient},
    the table `surface.BatchPoly` lays out, from tuple keys."""
    return [{sum(((i + 1,) * k for i, k in enumerate(e)), ()): c.numerator / c.denominator
             for (e, _), c in P.terms.items()} for P in polys]
