"""Tangential sphere calculus in the SphericalSeries ring: an oracle for
`obstruction.c_theta` and `obstruction.integrated_identity`; and the
per-coordinate constructions of the series at infinity and of the
curvature quantity: an oracle for `asymptotic.ghat_radial_trace_series`,
`obstruction.eta_over_rho_series` and `obstruction.script_R_series`.

Every quantity here is a canonical series, so each sum and product is
canonicalized (homogeneous split, |x|^2 extraction) on the way.  The
package computes the same functions as plain polynomials and canonicalizes
each once; canonical forms are unique, so the two must agree exactly.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from umbilic.asymptotic import (
    CORRECTED_Z,
    INVERTED_Y,
    ChartRequirementError,
    _RadialSubstitution,
)
from umbilic.obstruction import (
    _double_factorial,
    _hessian_norm,
    _hessian_sq,
    _series_quotient,
    umbilical_decompose,
)
from umbilic.polyjet import Jet, MultiPoly, SphericalSeries
from umbilic.obstruction import jet_geometry


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


# -- the series at infinity and the curvature quantity, term by term ---------------
#
# The package sums p = yhat . grad f, G = |grad f|^2 and f - x . grad f
# through Euler's identity in the polynomial ring and canonicalizes each
# once, and forms G^2 - |B|^2 as one jet.  The constructions below contract
# per-coordinate series in the SphericalSeries ring instead; both must give
# the same canonical series.


def series_pieces(poly: MultiPoly, LO: int):
    """n, the unit series, the conformal factor (1 + |y|^2 f^2)^{-2}, the
    n components of grad f at x = y / |y|^2, each its own descending
    series in |y|, and the correction constant c = H^2/(2 n^2)."""
    n = poly.n
    Hp, _ = umbilical_decompose(poly)
    parts_all = poly.homogeneous_parts()
    f_ser = SphericalSeries.canonicalize(n, [(-2 * k, P) for k, P in parts_all.items()], LO - 2, 0)
    grads = []
    for i in range(n):
        g_terms = [(-2 * (k - 1), P.diff(i)) for k, P in parts_all.items()]
        grads.append(SphericalSeries.canonicalize(n, g_terms, LO, 0))
    one = SphericalSeries.one(n, LO, 0)
    eps = (f_ser * f_ser).shift(2).with_window(LO, 0)
    conf = (one + eps).power_unit(-2, at_infinity=True)
    c_poly = (Hp * Hp).scale(Fraction(1, 2 * n * n))
    return n, one, conf, grads, c_poly


def ghat_radial_trace_series(f: Jet, chart_kind: str, order_min: int):
    """g_tt and the trace with p and G contracted from the n gradient
    series, one series product per coordinate; the corrected chart refuses
    a nonzero cubic as the package does."""
    LO = order_min
    if chart_kind == CORRECTED_Z:
        cubic = umbilical_decompose(f.poly)[1].get(3)
        if cubic is not None and not cubic.is_zero:
            raise ChartRequirementError("the corrected chart needs A_3 = 0")
    n, one, conf, grads, c_poly = series_pieces(f.poly, LO)
    p = SphericalSeries.zero(n, LO, 0)
    G = SphericalSeries.zero(n, LO, 0)
    for i, g in enumerate(grads):
        p = p + SphericalSeries.from_term(-1, MultiPoly.var(n, i), LO, 0) * g
        G = G + g * g
    S_rr = conf * (one + p * p)
    S_tr = conf * (one.scale(n) + G)
    if chart_kind == INVERTED_Y:
        return S_rr.with_window(LO, 0), S_tr.with_window(LO, 0)
    sub = _RadialSubstitution(n, c_poly, LO)
    srr = sub(S_rr)
    a_ser = SphericalSeries.canonicalize(n, [(-2, c_poly)], LO, 0)
    inv_base = sub.power(-1)
    g_tt = inv_base * srr
    trace = sub.base * sub(S_tr) - a_ser * (one.scale(2) + a_ser) * inv_base * srr
    return g_tt.with_window(LO, 0), trace.with_window(LO, 0)


def eta_over_rho_series(f: Jet, W: int) -> SphericalSeries:
    """(f - x . grad f)/rho with x . grad f as n polynomial products."""
    poly, n = f.poly, f.n
    grad = poly.grad()
    u = poly
    for i in range(n):
        u = u - MultiPoly.var(n, i) * grad[i]
    rho = (MultiPoly.x_norm_sq(n) + poly * poly).truncate(W + 2)
    return _series_quotient(u.truncate(W + 2), rho, W)


def script_R_series(f: Jet, W: int) -> SphericalSeries:
    """Q = 4n(n-1) q^2 + 4(n-1) G q + G^2 - |B|^2 as three series
    products of q, G and |B|^2."""
    n = f.n
    q = eta_over_rho_series(f, W)
    geo = jet_geometry(f.poly, W)
    G = SphericalSeries.from_poly(geo.trace.poly, None, W)
    B2 = SphericalSeries.from_poly(_hessian_norm(geo).poly, None, W)
    return (q * q).scale(4 * n * (n - 1)) + (G * q).scale(4 * (n - 1)) + G * G - B2
