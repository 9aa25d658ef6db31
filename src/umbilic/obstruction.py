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

The jet geometry of the graph (`jet_geometry`) and the exact rho identities
(`rho_identity_residuals`) are here too; the module needs only `polyjet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .polyjet import (
    FIELD_BITS,
    Jet,
    MultiPoly,
    Params,
    SphericalSeries,
    poly_divexact,
    poly_to_json,
    r2_power,
    series_to_json,
    unpack_exponent,
)


class NotUmbilical(ValueError):
    """The height function does not vanish to second order at the origin,
    or its quadratic part is not a multiple of |x|^2."""


# -- spherical function helpers ------------------------------------------------


def on_sphere(P: MultiPoly) -> SphericalSeries:
    """The restriction of a polynomial to the unit sphere, as a canonical
    total-order-0 series: each homogeneous part P_d enters as r^{-d} P_d."""
    parts = P.homogeneous_parts()
    return SphericalSeries.canonicalize(P.n, [(-d, Pd) for d, Pd in parts.items()], 0, 0)


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
        c = poly_divexact(parts[2])
        if c is None or c.degree() > 0:
            raise NotUmbilical("quadratic part is not a multiple of |x|^2")
        H = c.scale(2 * n)
    return H, {k: p for k, p in parts.items() if k >= 3}


# -- the graph as jets: its geometry and the rho / eta identities ---------------


@dataclass
class JetGeometry:
    """Exact graph quantities of f, each a jet truncated at order W.

    With inv_w2 = 1/(1 + |grad f|^2) the inverse metric is
    g^{-1} = I - inv_w2 grad f grad f^T (Sherman-Morrison), so every
    g-trace is rational in these jets: tr_g M = tr M - inv_w2 grad f.M grad f.
    """

    grad: List[Jet]  # grad f
    hess: List[List[Jet]]  # Hess f; hess[a][b] and hess[b][a] are one jet
    inv_w2: Jet  # 1/(1 + |grad f|^2)
    hess_grad: List[Jet]  # Hess f . grad f
    trace: Jet  # tr_g Hess f = Lap f - inv_w2 grad f . Hess f grad f


def jet_geometry(poly: MultiPoly, W: int) -> JetGeometry:
    """The exact counterpart of `surface.point_geometry`: grad f, Hess f,
    inv_w2, Hess f . grad f and tr_g Hess f of the polynomial f, truncated
    at total order W."""
    n = poly.n
    zero = Jet.const(n, 0, W)
    first = poly.grad()
    grad = [Jet.of(p, W) for p in first]
    hess = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            hess[a][b] = hess[b][a] = Jet.of(first[a].diff(b), W)
    inv_w2 = (Jet.const(n, 1, W) + Jet.dot(n, W, zip(grad, grad))).power_unit(-1)
    hess_grad = [Jet.dot(n, W, zip(hess[a], grad)) for a in range(n)]
    lap = sum((hess[a][a] for a in range(n)), zero)
    quad = Jet.dot(n, W, zip(grad, hess_grad))
    return JetGeometry(grad, hess, inv_w2, hess_grad, lap - inv_w2 * quad)


@dataclass
class RhoIdentityResiduals:
    """Residuals of the three position-vector identities on M:
    |grad_g rho|^2 = 4 rho - 4 eta^2,
    Hess_g rho = 2 g + 2 eta II,
    Lap_g rho = 2 n + 2 eta H."""

    grad_sq: float
    hessian: float
    laplacian: float
    exact: bool = False

    def max(self) -> float:
        """The largest |residual|, or NaN if any residual is not finite:
        a NaN must fail a `max() < tol` check, which Python's max, keeping
        its first argument, would let it pass."""
        res = (abs(self.grad_sq), abs(self.hessian), abs(self.laplacian))
        return max(res) if all(map(math.isfinite, res)) else math.nan


def rho_identity_residuals(f: Jet) -> RhoIdentityResiduals:
    """The identities for the graph of the jet f, computed exactly; the
    residuals are identically zero jets when the identities hold to the
    truncation order.

    f is certified to its jet order D, its Hessian only to D - 2, and
    products inherit the weakest certification, so everything is computed
    at W = D - 2.  Truncating at a total degree is a ring homomorphism, so
    this gives the same certified residuals as working at D.

    Square roots never appear: with w = 1/(1 + |grad f|^2) one has
    eta^2 = (f - x.grad f)^2 w,  eta II_ab = (f - x.grad f) f_ab w, and
    eta H = (f - x.grad f) w tr_g(Hess f), all rational in jets.
    """
    n, W = f.n, f.order - 2
    geo = jet_geometry(f.poly, W)
    grad, hess, w = geo.grad, geo.hess, geo.inv_w2
    zero = Jet.const(n, 0, W)
    f = f.rejet(W)
    xs = [Jet.of(MultiPoly.var(n, i), W) for i in range(n)]

    u = f - Jet.dot(n, W, zip(xs, grad))  # eta sqrt(1+|grad f|^2)
    uw = u * w
    two_f, two_uw = 2 * f, 2 * uw
    one, two = Jet.const(n, 1, W), Jet.const(n, 2, W)
    rho = Jet.of(MultiPoly.x_norm_sq(n), W) + f * f
    rho_grad = [2 * xs[i] + two_f * grad[i] for i in range(n)]
    graddot = Jet.dot(n, W, zip(grad, rho_grad))
    wgd = w * graddot

    # |grad_g rho|^2 with g^{-1} = I - w grad f grad f^T.
    lhs1 = Jet.dot(n, W, [*zip(rho_grad, rho_grad), (wgd, graddot)], [1] * n + [-1])
    res1 = lhs1 - (4 * rho - 4 * u * uw)

    def mag(j: Jet) -> float:
        return max(map(abs, j.poly.num.values()), default=0) / j.poly.den

    # Gamma^c_ab = (g^{-1} grad f)_c f_ab = w grad_c f_ab, so
    # Hess_ab = rho_ab - w (grad f . grad rho) f_ab.  The loop also sums
    # tr rho'' and grad f . rho'' grad f for the Laplacian.
    res2_max = 0.0
    tr_rho_hess, quad_pairs, quad_weights = zero, [], []
    for a in range(n):
        for b in range(a, n):
            gg = grad[a] * grad[b]
            rho_ab = (two if a == b else zero) + 2 * gg + two_f * hess[a][b]
            cov = rho_ab - wgd * hess[a][b]
            g_ab = (one if a == b else zero) + gg
            res2_max = max(res2_max, mag(cov - 2 * g_ab - two_uw * hess[a][b]))
            quad_pairs.append((rho_ab, gg))
            quad_weights.append(1 if a == b else 2)
            if a == b:
                tr_rho_hess = tr_rho_hess + rho_ab
    quad = Jet.dot(n, W, quad_pairs, quad_weights)

    # Laplacian: tr_g Cov = tr_g rho'' - w graddot tr_g f'', tr_g M = tr M - w grad f.M grad f.
    lap_lhs = tr_rho_hess - w * quad - wgd * geo.trace
    res3 = lap_lhs - (Jet.const(n, 2 * n, W) + 2 * uw * geo.trace)

    return RhoIdentityResiduals(mag(res1), res2_max, mag(res3), exact=True)


# -- building blocks of the expansion ----------------------------------------------


def _series_quotient(P: MultiPoly, rho: MultiPoly, W: int) -> SphericalSeries:
    """P / rho through total order W, for P with min degree >= 2 and
    rho = |x|^2 (1 + tail) with tail of positive order."""
    n = P.n
    inv = SphericalSeries.canonicalize(n, [(-2, rho)], None, W).power_unit(-1)
    num = SphericalSeries.canonicalize(n, [(-2, P)], None, W)
    return num * inv


def eta_over_rho_series(f: Jet, W: int = 3) -> SphericalSeries:
    """Expansion of (f - x.grad f)/rho through total order W, the numerator
    sum_k (1 - k) A_k by Euler's identity x.grad A_k = k A_k.

    For an umbilical jet this starts -H/2n - 2 A_3(theta) r + ... ."""
    poly = f.poly
    n = f.n
    u = sum(
        (P.scale(1 - k) for k, P in poly.homogeneous_parts().items() if k <= W + 2),
        MultiPoly.zero(n),
    )
    rho = (MultiPoly.x_norm_sq(n) + poly * poly).truncate(W + 2)
    return _series_quotient(u, rho, W)


def _hessian_norm(geo: JetGeometry) -> Jet:
    # tr((g^{-1} F)^2) = tr F^2 - 2 w |F grad f|^2 + w^2 (grad f . F grad f)^2
    # with w = 1/(1+|grad f|^2), by applying g^{-1} = I - w grad f grad f^T twice.
    n, W, w, hess, Fg = len(geo.grad), geo.inv_w2.order, geo.inv_w2, geo.hess, geo.hess_grad
    upper = [(a, c) for a in range(n) for c in range(a, n)]
    trF2 = Jet.dot(n, W, ((hess[a][c], hess[a][c]) for a, c in upper),
                   [1 if a == c else 2 for a, c in upper])
    Fg_sq = Jet.dot(n, W, zip(Fg, Fg))
    b = Jet.dot(n, W, zip(geo.grad, Fg))
    return trF2 - 2 * w * Fg_sq + w * w * b * b


def script_R_series(f: Jet, W: int = 3) -> SphericalSeries:
    """The exact expansion of Q through total order W for an umbilical jet,
    as q (4n(n-1) q + 4(n-1) G) + (G^2 - |B|^2) with G^2 - |B|^2 one jet."""
    n = f.n
    umbilical_decompose(f.poly)  # validates umbilicity
    q = eta_over_rho_series(f, W)
    geo = jet_geometry(f.poly, W)
    G = SphericalSeries.from_poly(geo.trace.poly, None, W)
    rest = SphericalSeries.from_poly((geo.trace * geo.trace - _hessian_norm(geo)).poly, None, W)
    return q * (q.scale(4 * n * (n - 1)) + G.scale(4 * (n - 1))) + rest


# -- tangential calculus on the sphere ---------------------------------------------
#
# A polynomial of mixed degree stands here for its restriction to the unit
# sphere: on r = 1 every homogeneous part is already its own angular
# function, so sums and products need no canonical form until the end.


def _hessian_sq(A: MultiPoly) -> MultiPoly:
    """|Hess A|^2 = sum_ij (d_i d_j A)^2, each off-diagonal product once."""
    n, grad = A.n, A.grad()
    upper = [(i, j) for i in range(n) for j in range(i, n)]
    hess = [grad[i].diff(j) for i, j in upper]
    return MultiPoly.dot(n, zip(hess, hess), weights=[1 if i == j else 2 for i, j in upper])


def _cubic_obstruction(A3: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """(C, A^2) for a degree-3 homogeneous A, where C is the obstruction
    function on r = 1: one polynomial of degrees 2, 4 and 6.

    On r = 1, with k = deg A = 3,
      Lap_theta A       = Lap A - k(n+k-2) A
      |grad_theta A|^2  = |grad A|^2 - k^2 A^2
      |Hess_theta A|^2  = |Hess A|^2 - 9(n+3) A^2 - 8 |grad_theta A|^2
                          - 6 A Lap_theta A.
    Substituted into c_theta, the gradient terms cancel and
      C = 16n(n-1) A^2 - 8(n-1) A Lap A + (Lap A)^2 - |Hess A|^2,
    whose homogenization at n = 6 is `dim6_check`'s residual.  A zero A
    gives (0, 0).  `expansion_coefficients` computes the pair once for
    c_theta and the bodies of `integrated_identity` and `dim6_check`.
    """
    if A3.is_zero:
        return A3, A3
    if A3.degree() != 3 or not A3.is_homogeneous():
        raise ValueError("degree-3 homogeneous polynomial required")
    n = A3.n
    a_sq = A3 * A3
    lap = A3.laplacian()
    c = (
        a_sq.scale(16 * n * (n - 1))
        - (A3 * lap).scale(8 * (n - 1))
        + lap * lap
        - _hessian_sq(A3)
    )
    return c, a_sq


def c_theta(A3: MultiPoly) -> SphericalSeries:
    """The obstruction function of a degree-3 homogeneous polynomial:
    (n-1)(n-6) A^2 - 2(n-4) A Lap_theta A - 8 |grad_theta A|^2
    + (Lap_theta A)^2 - |Hess_theta A|^2, as a total-order-0 series."""
    return on_sphere(_cubic_obstruction(A3)[0])


# -- exact sphere integrals --------------------------------------------------------


def _double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def sphere_integral(P: MultiPoly) -> MultiPoly:
    """Average of a polynomial over the unit sphere, i.e. its exact integral
    in units of the sphere area |S^{n-1}|.  Any degrees may mix: on the unit
    sphere each monomial integrates on its own.

    Monomial moments: for all exponents even,
        avg(x^a) = prod_i (a_i - 1)!! / prod_{j=1}^{|a|/2} (n + 2j - 2),
    and zero whenever any exponent is odd.  Parameters pass through, so the
    result is a zero-degree polynomial in the parameters.  The numerators
    are summed as integers per parameter monomial and half-degree |a|/2,
    which fixes the denominator.
    """
    n = P.n
    half = n * FIELD_BITS + 1  # a packed key shifted by this is its half-degree
    odd = sum(1 << i * FIELD_BITS for i in range(n))  # the low bit of each exponent field
    sums: Dict[Tuple[Params, int], int] = {}
    for (k, params), c in P.num.items():
        if k & odd:
            continue
        for ei in unpack_exponent(k, n):
            if ei > 2:
                c *= _double_factorial(ei - 1)
        key = (params, k >> half)
        sums[key] = sums.get(key, 0) + c
    totals: Dict[Params, Fraction] = {}
    for (params, s), c in sums.items():
        den = P.den
        for j in range(1, s + 1):
            den *= n + 2 * j - 2
        totals[params] = totals.get(params, 0) + Fraction(c, den)
    zero_exp = (0,) * n
    return MultiPoly(n, {(zero_exp, params): c for params, c in totals.items()})


def sphere_integral_series(s: SphericalSeries) -> MultiPoly:
    """Exact unit-sphere integral (in units of |S^{n-1}|) of a total-order-0
    series: each term r^m P integrates like P since r = 1."""
    if any(m + P.degree() != 0 for m, P in s.terms):
        raise ValueError("series must be concentrated at total order 0")
    total = MultiPoly.zero(s.n)
    for _, P in s.terms:
        total = total + sphere_integral(P)
    return total


def integrated_identity(A3: MultiPoly) -> Tuple[MultiPoly, MultiPoly]:
    """Both sides of the integrated obstruction identity, in units of the
    sphere area: the integral of the obstruction function equals
    (n-6) * integral of [(n-1) A^2 + 3 |grad_theta A|^2]."""
    return _integrated_identity(A3, _cubic_obstruction(A3))


def _integrated_identity(
    A3: MultiPoly, cubic: Tuple[MultiPoly, MultiPoly]
) -> Tuple[MultiPoly, MultiPoly]:
    n = A3.n
    if A3.is_zero:
        return MultiPoly.zero(n), MultiPoly.zero(n)
    c, a_sq = cubic
    grad = A3.grad()
    grad_theta_sq = MultiPoly.dot(n, zip(grad, grad)) - a_sq.scale(9)
    rhs = sphere_integral(a_sq.scale(n - 1) + grad_theta_sq.scale(3))
    return sphere_integral(c), rhs.scale(n - 6)


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
    if A3.n != 6:
        raise ValueError("the residual chain is specific to dimension 6")
    return _dim6_check(A3, _cubic_obstruction(A3))


def _dim6_check(A3: MultiPoly, cubic: Tuple[MultiPoly, MultiPoly]) -> Dim6Record:
    n = A3.n
    if A3.is_zero:
        return Dim6Record(A3, True, True, True)
    # the homogenization of C: each part C_d times |x|^(6-d)
    c, sq = cubic
    parts = c.homogeneous_parts().items()
    residual = MultiPoly.dot(n, ((r2_power(n, (6 - d) // 2), Cd) for d, Cd in parts))
    # Lap_theta of the degree-6 square on r = 1
    harmonic = on_sphere(sq.laplacian() - sq.scale(6 * (n + 4))).is_zero
    return Dim6Record(residual, residual.is_zero, poly_divexact(A3) is not None, harmonic)


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
    cubic = _cubic_obstruction(A3)
    ct = on_sphere(cubic[0])
    c2_match = (c2 - ct).is_zero
    if A3.param_names():
        lhs = rhs = None
        match = None
    else:
        lhs, rhs = _integrated_identity(A3, cubic)
        match = lhs == rhs
    dim6 = _dim6_check(A3, cubic) if n == 6 else None
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

