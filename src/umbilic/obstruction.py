"""Symbolic expansion of the conformal curvature quantity around an
umbilical point, and the obstruction identities that force the cubic part
of the height function to vanish.

With f = (H/2n)|x|^2 + A_3 + A_4 + ... the quantity expanded here is

    Q := 4n(n-1) q^2 + 4(n-1) G q + G^2 - |B|^2,

where q = (f - x.grad f)/rho, G = g^{ab} f_ab, and |B|^2 = g^{am} g^{bn}
f_ab f_mn.  Q equals (1 + |grad f|^2) times the conformally transformed
scalar curvature divided by rho^2, so its expansion in r = |x| controls
integrability of the curvature of rho^{-2} g near the point.  The orders
r^0 and r^1 cancel identically; the r^2 coefficient is the obstruction
function built from A_3 alone.

All computations are exact: the mean curvature H and any undetermined
expansion coefficients enter as zero-degree parameters, so every vanishing
statement is certified as a polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .polyjet import (
    Jet,
    MultiPoly,
    SphericalSeries,
    poly_divexact,
    poly_to_json,
    series_to_json,
)
from .surface import JetGeometry, jet_geometry


class NotUmbilical(ValueError):
    """The height function does not vanish to second order at the origin,
    or its quadratic part is not a multiple of |x|^2."""


# -- spherical function helpers ------------------------------------------------


def on_sphere(P: MultiPoly) -> SphericalSeries:
    """The restriction of a homogeneous polynomial to the unit sphere, as a
    canonical total-order-0 series (r^{-deg P} * P)."""
    if not P.is_homogeneous():
        raise ValueError("homogeneous polynomial required")
    d = max(P.degree(), 0)
    return SphericalSeries.canonicalize(P.n, [(-d, P)], 0, 0)


def umbilical_decompose(poly: MultiPoly) -> Tuple[MultiPoly, Dict[int, MultiPoly]]:
    """Split f = (H/2n)|x|^2 + sum_{k>=3} A_k into (H, {k: A_k}).

    H is a spatial-constant MultiPoly: a number, or an expression in the
    parameters (e.g. the symbolic mean curvature H).  Raises NotUmbilical
    when f does not vanish to second order at the origin or its quadratic
    part is not a multiple of |x|^2.
    """
    n = poly.n
    parts = poly.homogeneous_parts()
    if 0 in parts or 1 in parts:
        raise NotUmbilical("f must vanish to second order at the origin")
    H = MultiPoly.zero(n)
    if 2 in parts:
        c = poly_divexact(parts[2], MultiPoly.x_norm_sq(n))
        if c is None or c.degree() > 0:
            raise NotUmbilical("quadratic part is not a multiple of |x|^2")
        H = c.scale(2 * n)
    return H, {k: p for k, p in parts.items() if k >= 3}


# -- building blocks of the expansion ----------------------------------------------


def _series_quotient(P: MultiPoly, rho: MultiPoly, W: int) -> SphericalSeries:
    """P / rho through total order W, for P with min degree >= 2 and
    rho = |x|^2 (1 + tail) with tail of positive order."""
    n = P.n
    inv = SphericalSeries.canonicalize(n, [(-2, rho)], None, W).power_unit(-1)
    num = SphericalSeries.canonicalize(n, [(-2, P)], None, W)
    return num * inv


def eta_over_rho_series(f: Jet, W: int = 3) -> SphericalSeries:
    """Expansion of (f - x.grad f)/rho through total order W.

    For an umbilical jet this starts -H/2n - 2 A_3(theta) r + ... ."""
    poly = f.poly
    n = f.n
    grad = poly.grad()
    u = poly
    for i in range(n):
        u = u - MultiPoly.var(n, i) * grad[i]
    rho = (MultiPoly.x_norm_sq(n) + poly * poly).truncate(W + 2)
    return _series_quotient(u.truncate(W + 2), rho, W)


def _hessian_norm(geo: JetGeometry) -> Jet:
    # tr((g^{-1} F)^2) = tr F^2 - 2 w |F grad f|^2 + w^2 (grad f . F grad f)^2
    # with w = 1/(1+|grad f|^2), by applying g^{-1} = I - w grad f grad f^T twice.
    n, w, hess, Fg = len(geo.grad), geo.inv_w2, geo.hess, geo.hess_grad
    zero = Jet.const(w.n, 0, w.order)
    trF2 = sum(
        ((1 if a == c else 2) * (hess[a][c] * hess[a][c]) for a in range(n) for c in range(a, n)),
        zero,
    )
    Fg_sq = sum((v * v for v in Fg), zero)
    b = sum((geo.grad[a] * Fg[a] for a in range(n)), zero)
    return trF2 - 2 * w * Fg_sq + w * w * b * b


def script_R_series(f: Jet, W: int = 3) -> SphericalSeries:
    """The exact expansion of Q through total order W for an umbilical jet."""
    n = f.n
    umbilical_decompose(f.poly)  # validates umbilicity
    q = eta_over_rho_series(f, W)
    geo = jet_geometry(f.poly, W)
    G = SphericalSeries.from_poly(geo.trace.poly, None, W)
    B2 = SphericalSeries.from_poly(_hessian_norm(geo).poly, None, W)
    return (
        (q * q).scale(4 * n * (n - 1))
        + (G * q).scale(4 * (n - 1))
        + G * G
        - B2
    )


# -- tangential calculus on the sphere ---------------------------------------------


@dataclass
class ThetaOperators:
    """Tangential derivative data of a homogeneous polynomial restricted to
    the unit sphere, each a total-order-0 SphericalSeries."""

    lap_theta: SphericalSeries
    grad_theta_sq: SphericalSeries
    hess_theta_sq: Optional[SphericalSeries]  # only defined for degree 3


def _hessian_sq(A: MultiPoly) -> MultiPoly:
    """|Hess A|^2 = sum_ij (d_i d_j A)^2, each off-diagonal product once."""
    grad, out = A.grad(), MultiPoly.zero(A.n)
    for i in range(A.n):
        for j in range(i, A.n):
            h = grad[i].diff(j)
            out = out + (h * h if i == j else (h * h).scale(2))
    return out


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
    """The obstruction function of a degree-3 homogeneous polynomial:
    (n-1)(n-6) A^2 - 2(n-4) A Lap_theta A - 8 |grad_theta A|^2
    + (Lap_theta A)^2 - |Hess_theta A|^2, as a total-order-0 series."""
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


# -- exact sphere integrals --------------------------------------------------------


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_integral_homog(P: MultiPoly) -> MultiPoly:
    """Average of a homogeneous polynomial over the unit sphere, times the
    sphere area |S^{n-1}|, i.e. the exact integral in units of |S^{n-1}|.

    Monomial moments: for all exponents even,
        avg(x^a) = prod_i (a_i - 1)!! / prod_{j=1}^{|a|/2} (n + 2j - 2),
    and zero whenever any exponent is odd.  Parameters pass through, so the
    result is a zero-degree polynomial in the parameters.
    """
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
    """Exact unit-sphere integral (in units of |S^{n-1}|) of a total-order-0
    series: each term r^m P integrates like P since r = 1."""
    if any(m + P.degree() != 0 for m, P in s.terms):
        raise ValueError("series must be concentrated at total order 0")
    total = MultiPoly.zero(s.n)
    for _, P in s.terms:
        total = total + sphere_integral_homog(P)
    return total


def integrated_identity(A3: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """Both sides of the integrated obstruction identity, in units of the
    sphere area: the integral of the obstruction function equals
    (n-6) * integral of [(n-1) A^2 + 3 |grad_theta A|^2]."""
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


# -- the dimension-6 chain ------------------------------------------------------


@dataclass
class Dim6Record:
    """The degree-6 residual forcing |x|^2 to divide A_3 in dimension 6,
    plus the follow-up harmonicity checks."""

    residual: MultiPoly
    residual_zero: bool
    divisible: bool  # |x|^2 | A_3
    harmonic_square_constant: bool  # Lap_theta(A_3(theta)^2) = 0


def dim6_check(A3: MultiPoly) -> Dim6Record:
    """For n = 6: residual = r^4 [(Lap A)^2 - |Hess A|^2] - 40 r^2 A Lap A
    + 480 A^2; when it vanishes, |x|^2 must divide A_3 (unique factorization),
    and the restricted square A_3(theta)^2 must be constant."""
    n = A3.n
    if n != 6:
        raise ValueError("the residual chain is specific to dimension 6")
    if not A3.is_zero and (A3.degree() != 3 or not A3.is_homogeneous()):
        raise ValueError("degree-3 homogeneous polynomial required")
    r2 = MultiPoly.x_norm_sq(n)
    lap = A3.laplacian()
    residual = (
        r2 * r2 * (lap * lap - _hessian_sq(A3))
        - (r2 * (A3 * lap)).scale(40) + (A3 * A3).scale(480)
    )
    divisible = poly_divexact(A3, r2) is not None if not A3.is_zero else True
    if A3.is_zero:
        harmonic = True
    else:
        sq = A3 * A3  # degree 6
        lap_theta_sq = on_sphere(sq.laplacian()) - on_sphere(sq).scale(6 * (n + 4))
        harmonic = lap_theta_sq.is_zero
    return Dim6Record(residual, residual.is_zero, divisible, harmonic)


# -- the assembled report -----------------------------------------------------------


@dataclass
class ObstructionReport:
    n: int
    W: int
    series: SphericalSeries  # script_R_series through order W; not in to_json
    c0: SphericalSeries
    c1: SphericalSeries
    c2: SphericalSeries
    c0_zero: bool
    c1_zero: bool
    c2_matches_c_theta: bool
    integral_lhs: Optional[MultiPoly]
    integral_rhs: Optional[MultiPoly]
    integral_match: Optional[bool]
    dim6: Optional[Dim6Record]

    @property
    def all_identities_hold(self) -> bool:
        ok = self.c0_zero and self.c1_zero and self.c2_matches_c_theta
        if self.integral_match is not None:
            ok = ok and self.integral_match
        return ok

    def to_json(self) -> dict:
        out = {
            "n": self.n,
            "order": self.W,
            "c0": series_to_json(self.c0),
            "c1": series_to_json(self.c1),
            "c2": series_to_json(self.c2),
            "c0_zero": self.c0_zero,
            "c1_zero": self.c1_zero,
            "c2_matches_c_theta": self.c2_matches_c_theta,
            "all_identities_hold": self.all_identities_hold,
        }
        if self.integral_lhs is not None:
            out["integral_lhs"] = poly_to_json(self.integral_lhs)
            out["integral_rhs"] = poly_to_json(self.integral_rhs)
            out["integral_match"] = self.integral_match
        if self.dim6 is not None:
            out["dim6"] = {
                "residual_zero": self.dim6.residual_zero,
                "divisible_by_r2": self.dim6.divisible,
                "harmonic_square_constant": self.dim6.harmonic_square_constant,
            }
        return out


def expansion_coefficients(f: Jet, W: int = 3) -> ObstructionReport:
    """Extract the order-0/1/2 coefficients of the expansion, check that the
    first two cancel identically, compare the order-2 coefficient with the
    obstruction function, and run the integral and dimension-6 follow-ups."""
    n = f.n
    _, parts = umbilical_decompose(f.poly)
    A3 = parts.get(3, MultiPoly.zero(n))
    series = script_R_series(f, W)
    c0 = series.coefficient(0)
    c1 = series.coefficient(1)
    c2 = series.coefficient(2)
    ct = c_theta(A3)
    c2_match = (c2 - ct).is_zero
    if A3.param_names():
        lhs = rhs = None
        match = None
    else:
        lhs, rhs = integrated_identity(A3)
        match = lhs == rhs
    dim6 = dim6_check(A3) if n == 6 else None
    return ObstructionReport(
        n,
        W,
        series,
        c0,
        c1,
        c2,
        c0.is_zero,
        c1.is_zero,
        c2_match,
        lhs,
        rhs,
        match,
        dim6,
    )
