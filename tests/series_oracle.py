"""Tangential sphere calculus in the SphericalSeries ring: an oracle for
`obstruction.c_theta` and `obstruction.integrated_identity`.

Every quantity here is a canonical total-order-0 series, so each sum and
product is canonicalized (homogeneous split, |x|^2 extraction) on the way.
The package computes the same functions as plain polynomials on r = 1 and
canonicalizes once; the two must agree exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from umbilic.obstruction import _double_factorial, _hessian_sq
from umbilic.polyjet import MultiPoly, SphericalSeries


def on_sphere(P: MultiPoly) -> SphericalSeries:
    """The restriction of a homogeneous polynomial to the unit sphere, as a
    canonical total-order-0 series (r^{-deg P} * P)."""
    if not P.is_homogeneous():
        raise ValueError("homogeneous polynomial required")
    d = max(P.degree(), 0)
    return SphericalSeries.canonicalize(P.n, [(-d, P)], 0, 0)


@dataclass
class ThetaOperators:
    """Tangential derivative data of a homogeneous polynomial restricted to
    the unit sphere, each a total-order-0 SphericalSeries."""

    lap_theta: SphericalSeries
    grad_theta_sq: SphericalSeries
    hess_theta_sq: Optional[SphericalSeries]  # only defined for degree 3


def theta_operators(A: MultiPoly) -> ThetaOperators:
    """Spherical Laplacian, tangential gradient norm, and (degree 3 only)
    tangential Hessian norm of A restricted to the unit sphere.

    Identities used, with k = deg A:
      Lap_theta A(theta) = [Lap A]|_{r=1} - k(n+k-2) A(theta)
      |grad_theta A|^2   = [|grad A|^2]|_{r=1} - k^2 A^2
    and for k = 3 the tangential Hessian norm is solved from
      r^{-2} |Hess A|^2 = 9(n+3) A^2 + 8 |grad_theta A|^2
                          + 6 A Lap_theta A + |Hess_theta A|^2.
    """
    if not A.is_homogeneous():
        raise ValueError("homogeneous polynomial required")
    n = A.n
    k = max(A.degree(), 0)
    lap = on_sphere(A.laplacian()) - on_sphere(A).scale(k * (n + k - 2))
    grad_sq = MultiPoly.zero(n)
    for g in A.grad():
        grad_sq = grad_sq + g * g
    grad_theta_sq = on_sphere(grad_sq) - on_sphere(A * A).scale(k * k)
    hess_theta_sq = None
    if k == 3:
        a_sq = on_sphere(A * A)
        hess_theta_sq = (
            on_sphere(_hessian_sq(A))
            - a_sq.scale(9 * (n + 3))
            - grad_theta_sq.scale(8)
            - (on_sphere(A) * lap).scale(6)
        )
    return ThetaOperators(lap, grad_theta_sq, hess_theta_sq)


def c_theta(A3: MultiPoly) -> SphericalSeries:
    """The obstruction function, one canonicalized series operation at a time."""
    if A3.is_zero:
        return SphericalSeries.zero(A3.n, 0, 0)
    if A3.degree() != 3 or not A3.is_homogeneous():
        raise ValueError("degree-3 homogeneous polynomial required")
    n = A3.n
    ops = theta_operators(A3)
    a = on_sphere(A3)
    return (
        (a * a).scale((n - 1) * (n - 6))
        - (a * ops.lap_theta).scale(2 * (n - 4))
        - ops.grad_theta_sq.scale(8)
        + ops.lap_theta * ops.lap_theta
        - ops.hess_theta_sq
    )


def sphere_integral_homog(P: MultiPoly) -> MultiPoly:
    """Sphere average of a homogeneous polynomial, one MultiPoly per term."""
    n = P.n
    total = MultiPoly.zero(n)
    zero_exp = (0,) * n
    for (e, params), c in P.terms.items():
        if any(ei % 2 for ei in e):
            continue
        s = sum(e) // 2
        num = 1
        for ei in e:
            num *= _double_factorial(ei - 1)
        den = 1
        for j in range(1, s + 1):
            den *= n + 2 * j - 2
        total = total + MultiPoly(n, {(zero_exp, params): c * Fraction(num, den)})
    return total


def sphere_integral_series(s: SphericalSeries) -> MultiPoly:
    if any(m + P.degree() != 0 for m, P in s.terms):
        raise ValueError("series must be concentrated at total order 0")
    total = MultiPoly.zero(s.n)
    for _, P in s.terms:
        total = total + sphere_integral_homog(P)
    return total


def integrated_identity(A3: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """Both sides of the integrated identity, each integral taken of a
    canonical series."""
    n = A3.n
    if A3.is_zero:
        return MultiPoly.zero(n), MultiPoly.zero(n)
    lhs = sphere_integral_series(c_theta(A3))
    ops = theta_operators(A3)
    a_sq = on_sphere(A3 * A3)
    rhs_int = sphere_integral_series(
        a_sq.scale(n - 1) + ops.grad_theta_sq.scale(3)
    )
    return lhs, rhs_int.scale(n - 6)
