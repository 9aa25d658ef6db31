"""Term-by-term evaluation of exact polynomials and descending series: an
oracle for the package's numeric evaluators and for hand-computed values.

`evaluate` walks a MultiPoly's (or a Jet's) terms one at a time, exact when
the coordinates and parameters are Fractions; `evaluate_series` sums a
SphericalSeries r^m P(x) in floats.
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
