"""Term-by-term evaluation of exact polynomials and descending series, and
unit powers by the per-k binomial loop: oracles for the package's numeric
evaluators, its binomial series and hand-computed values.

`evaluate` walks a MultiPoly's (or a Jet's) terms one at a time, exact when
the coordinates and parameters are Fractions; `evaluate_series` sums a
SphericalSeries r^m P(x) in floats.  `jet_power_unit` and
`series_power_unit` sum (1 + s)^e as C(e, k) s^k with each C(e, k)
recomputed from scratch in O(k).
"""

import math
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from umbilic.polyjet import Jet, MultiPoly, SphericalSeries


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
