"""Obstruction identities: curvature expansion coefficients, tangential
sphere calculus, exact sphere moments, the integrated identity, and the
dimension-6 divisibility chain."""

import math
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest

from umbilic.polyjet import Jet, MultiPoly, SphericalSeries, poly_divexact
from umbilic import asymptotic as asym
from umbilic import obstruction as ob
import series_oracle as so
from poly_oracle import evaluate, evaluate_series
from umbilic.surface import GraphSurface, jet_geometry, point_geometry

RNG = np.random.default_rng(411)


def random_cubic_form(n, rng, n_terms=8):
    """Random rational homogeneous cubic."""
    p = MultiPoly.zero(n)
    for _ in range(n_terms):
        e = [0] * n
        for _ in range(3):
            e[rng.integers(0, n)] += 1
        c = Fraction(int(rng.integers(-5, 6)), int(rng.integers(1, 4)))
        p = p + MultiPoly(n, {(tuple(e), ()): Fraction(1)}).scale(c)
    return p.homogeneous_part(3)


def generic_cubic(n):
    """The cubic whose every coefficient is its own symbol: an identity that
    holds for it holds for every cubic."""
    out = MultiPoly.zero(n)
    for combo in combinations_with_replacement(range(n), 3):
        mono = MultiPoly.param(n, "a_" + "".join(str(i) for i in combo))
        for i in combo:
            mono = mono * MultiPoly.var(n, i)
        out = out + mono
    return out


def umbilical_jet(n, A3, A4=None, symbolic_H=True, order=7):
    Hq = MultiPoly.param(n, "H") if symbolic_H else MultiPoly.const(n, 2)
    f = MultiPoly.x_norm_sq(n) * Hq.scale(Fraction(1, 2 * n)) + A3
    if A4 is not None:
        f = f + A4
    return Jet.of(f, order)


# -- intermediate expansions against the displayed hand computations -----------------


def test_eta_over_rho_coefficients():
    # q = -H/2n - 2 A_3(theta) r + (H^3/8n^3 - 3 A_4(theta)) r^2 + ...
    n = 4
    A3 = MultiPoly.var(n, 0) ** 3
    A4 = MultiPoly.var(n, 1) ** 4
    q = ob.eta_over_rho_series(umbilical_jet(n, A3, A4), 3)
    H = MultiPoly.param(n, "H")
    assert q.coefficient(0) == ob.on_sphere(H.scale(Fraction(-1, 2 * n)))
    assert q.coefficient(1) == ob.on_sphere(A3.scale(-2))
    expect2 = ob.on_sphere(
        MultiPoly.param(n, "H", 3).scale(Fraction(1, 8 * n**3))
    ) + ob.on_sphere(A4.scale(-3))
    assert q.coefficient(2) == expect2


def test_metric_trace_coefficients():
    # G = H + [Lap A_3]|_{r=1} r + ([Lap A_4]|_{r=1} - H^3/n^3) r^2 + ...
    n = 5
    A3 = random_cubic_form(n, np.random.default_rng(3))
    A4 = (MultiPoly.var(n, 0) ** 2) * (MultiPoly.var(n, 1) ** 2)
    geo = jet_geometry(umbilical_jet(n, A3, A4).poly, 3)
    G = SphericalSeries.from_poly(geo.trace.poly, None, 3)
    H = MultiPoly.param(n, "H")
    assert G.coefficient(0) == ob.on_sphere(H)
    assert G.coefficient(1) == ob.on_sphere(A3.laplacian())
    expect2 = ob.on_sphere(A4.laplacian()) + ob.on_sphere(
        MultiPoly.param(n, "H", 3).scale(Fraction(-1, n**3))
    )
    assert G.coefficient(2) == expect2


def test_hessian_norm_coefficients():
    # |B|^2 = H^2/n + (2H/n) Lap A_3 r + (|Hess A_3|^2 + 2H/n (Lap A_4 - H^3/n^3 r^2)) r^2
    n = 4
    A3 = MultiPoly.var(n, 0) ** 2 * MultiPoly.var(n, 1)
    A4 = MultiPoly.var(n, 2) ** 4
    geo = jet_geometry(umbilical_jet(n, A3, A4).poly, 3)
    B2 = SphericalSeries.from_poly(ob._hessian_norm(geo).poly, None, 3)
    H = MultiPoly.param(n, "H")
    assert B2.coefficient(0) == ob.on_sphere(
        MultiPoly.param(n, "H", 2).scale(Fraction(1, n))
    )
    assert B2.coefficient(1) == ob.on_sphere(
        (H * A3.laplacian()).scale(Fraction(2, n))
    )
    hsq = MultiPoly.zero(n)
    for i in range(n):
        for j in range(n):
            hij = A3.diff(i).diff(j)
            hsq = hsq + hij * hij
    expect2 = (
        ob.on_sphere(hsq)
        + ob.on_sphere((H * A4.laplacian()).scale(Fraction(2, n)))
        + ob.on_sphere(
            (MultiPoly.param(n, "H", 4) * MultiPoly.x_norm_sq(n)).scale(
                Fraction(-2, n**4)
            )
        )
    )
    assert B2.coefficient(2) == expect2


def test_series_matches_pointwise_curvature():
    # Q(x) = (1 + |grad f|^2)(R_g + 4(n-1) H eta/rho + 4n(n-1) eta^2/rho^2):
    # an independent numeric oracle through the surface-geometry path.
    n = 3
    A3 = random_cubic_form(n, np.random.default_rng(8), 5)
    A4 = MultiPoly.var(n, 0) ** 4
    fj = umbilical_jet(n, A3, A4, symbolic_H=False, order=9)
    series = ob.script_R_series(fj, 4)
    S = GraphSurface(n, f_jet=fj)
    for x in ([0.01, 0.004, -0.006], [0.008, -0.01, 0.003]):
        geo = point_geometry(S, x)
        w2 = 1.0 + float(S.f_grad(x) @ S.f_grad(x))
        direct = w2 * (
            geo.R_g
            + 4 * (n - 1) * geo.H * geo.eta / geo.rho
            + 4 * n * (n - 1) * geo.eta**2 / geo.rho**2
        )
        approx = evaluate_series(series, x)
        r = math.sqrt(sum(v * v for v in x))
        # order-5 coefficients of this fixture are O(1e4) (verified by the
        # halving ratio ~2^5 of the residual), hence the constant here
        assert abs(direct - approx) < 2e4 * r**5


# -- theta operators (the series-ring oracle) ---------------------------------------------------------------


def sphere_fd_laplacian(P, theta, h=1e-3):
    """Laplace-Beltrami via second differences along orthogonal geodesics."""
    theta = np.asarray(theta, dtype=float)
    n = theta.size
    basis = np.linalg.qr(
        np.column_stack([theta] + [np.eye(n)[:, i] for i in range(n - 1)])
    )[0][:, 1:]
    val0 = float(evaluate(P, list(theta)))
    total = 0.0
    for i in range(n - 1):
        e = basis[:, i]
        tp = math.cos(h) * theta + math.sin(h) * e
        tm = math.cos(h) * theta - math.sin(h) * e
        total += (
            float(evaluate(P, list(tp))) - 2.0 * val0 + float(evaluate(P, list(tm)))
        ) / h**2
    return total


def random_direction(n, rng):
    v = rng.standard_normal(n)
    return v / np.linalg.norm(v)


def test_lap_theta_linear_harmonic():
    # degree-1 restriction: Lap_theta x1 = -(n-1) x1 on the sphere
    n = 6
    A = MultiPoly.var(n, 0)
    ops = so.theta_operators(A)
    assert ops.lap_theta == ob.on_sphere(A).scale(-(n - 1))
    # and the radial lift |x|^2 x1 restricts identically
    lifted = so.theta_operators(MultiPoly.x_norm_sq(n) * A)
    assert lifted.lap_theta == ops.lap_theta


def test_lap_theta_cubic_hand_value():
    # A = x1^3, n=3: Lap_theta = 6 theta_1 - 12 theta_1^3 on the sphere.
    n = 3
    A = MultiPoly.var(n, 0) ** 3
    ops = so.theta_operators(A)
    expect = ob.on_sphere(
        (MultiPoly.x_norm_sq(n) * MultiPoly.var(n, 0)).scale(6)
        + (MultiPoly.var(n, 0) ** 3).scale(-12)
    )
    assert ops.lap_theta == expect


@pytest.mark.parametrize("n", [3, 5, 6])
def test_lap_theta_fd_oracle(n):
    rng = np.random.default_rng(50 + n)
    A = random_cubic_form(n, rng)
    ops = so.theta_operators(A)
    for _ in range(4):
        theta = random_direction(n, rng)
        fd = sphere_fd_laplacian(A, theta)
        assert evaluate_series(ops.lap_theta, theta) == pytest.approx(fd, abs=1e-4, rel=1e-4)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_grad_theta_sq_projection_oracle(n):
    # |grad_theta A|^2 = |(I - theta theta^T) grad A|^2 at |x| = 1.
    rng = np.random.default_rng(80 + n)
    A = random_cubic_form(n, rng)
    ops = so.theta_operators(A)
    for _ in range(5):
        theta = random_direction(n, rng)
        g = np.array([float(evaluate(d, list(theta))) for d in A.grad()])
        tang = g - theta * float(theta @ g)
        assert evaluate_series(ops.grad_theta_sq, theta) == pytest.approx(
            float(tang @ tang), rel=1e-10, abs=1e-10
        )


def test_hess_theta_sq_radial_lift():
    # A = |x|^2 x1 in n=6 restricts to a degree-1 spherical harmonic, whose
    # tangential Hessian is -A(theta) times the sphere metric, with squared
    # norm (n-1) A(theta)^2.
    n = 6
    A = MultiPoly.x_norm_sq(n) * MultiPoly.var(n, 0)
    ops = so.theta_operators(A)
    expect = ob.on_sphere(MultiPoly.var(n, 0) ** 2).scale(n - 1)
    assert ops.hess_theta_sq == expect


# -- expansion coefficients: the central cancellation -------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_expansion_coefficients_random_corpus(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(5):
        A3 = random_cubic_form(n, rng, 6)
        A4 = random_cubic_form(n, rng, 4) * MultiPoly.var(n, int(rng.integers(0, n)))
        rep = ob.expansion_coefficients(umbilical_jet(n, A3, A4.homogeneous_part(4)))
        assert rep.c0_zero
        assert rep.c1_zero
        assert rep.c2_matches_c_theta
        assert rep.integral_match


def test_expansion_coefficients_builds_the_cubic_obstruction_once(monkeypatch):
    # c_theta, the integrated identity and the dimension-6 chain share one (C, A^2)
    n = 6
    A3 = random_cubic_form(n, np.random.default_rng(66))
    calls = []
    build = ob._cubic_obstruction
    monkeypatch.setattr(ob, "_cubic_obstruction", lambda A: calls.append(A) or build(A))
    rep = ob.expansion_coefficients(umbilical_jet(n, A3))
    assert calls == [A3]
    monkeypatch.undo()
    assert rep.c2_matches_c_theta and rep.integral_match
    assert (rep.c2 - ob.c_theta(A3)).is_zero
    assert (rep.integral_lhs, rep.integral_rhs) == ob.integrated_identity(A3)
    assert rep.dim6 == ob.dim6_check(A3)


def test_expansion_sphere_all_vanish():
    n = 7
    S = GraphSurface.sphere(n, Fraction(1), order=7)
    rep = ob.expansion_coefficients(S.f_jet)
    assert rep.c0_zero and rep.c1_zero
    assert rep.c2.is_zero
    assert ob.script_R_series(S.f_jet, 3).is_zero


def test_expansion_quartic_no_cubic():
    n = 6
    f = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + MultiPoly.var(n, 0) ** 4
    rep = ob.expansion_coefficients(Jet.of(f, 7))
    assert rep.c0_zero and rep.c1_zero
    assert rep.c2.is_zero  # obstruction trivial when the cubic part vanishes


def test_script_R_rejects_non_umbilical():
    n = 3
    with pytest.raises(ob.NotUmbilical):
        ob.script_R_series(Jet.of(MultiPoly.var(n, 0) ** 2, 6))


# -- sphere moments ------------------------------------------------------------


def test_sphere_moments_hand_values():
    n = 3
    x1 = MultiPoly.var(n, 0)
    assert ob.sphere_integral(x1).is_zero
    assert ob.sphere_integral(x1 * x1).constant_term() == Fraction(1, 3)
    assert ob.sphere_integral(x1 ** 4).constant_term() == Fraction(1, 5)
    # cross terms: avg(x1^2 x2^2) on S^2 = 1/15
    x2 = MultiPoly.var(n, 1)
    assert ob.sphere_integral(
        x1 * x1 * x2 * x2
    ).constant_term() == Fraction(1, 15)


def test_sphere_moments_sum_rule():
    # sum_i avg(x_i^2 P) = avg(|x|^2 P) = avg(P) on the unit sphere
    n = 5
    rng = np.random.default_rng(9)
    P = random_cubic_form(n, rng)
    P = P * P  # even degree 6
    lhs = MultiPoly.zero(n)
    for i in range(n):
        xi = MultiPoly.var(n, i)
        lhs = lhs + ob.sphere_integral(xi * xi * P)
    assert lhs == ob.sphere_integral(P)


@pytest.mark.parametrize("n", [3, 4, 6])
def test_sphere_moments_monte_carlo(n):
    rng = np.random.default_rng(77 + n)
    pts = rng.standard_normal((400_000, n))
    pts /= np.linalg.norm(pts, axis=1)[:, None]
    # powers[i][k] = x_i^k for the degree-6 squares below
    powers = [[None] + [pts[:, i] ** k for k in range(1, 7)] for i in range(n)]
    for _ in range(4):
        P = random_cubic_form(n, rng)
        P = P * P
        exact = float(ob.sphere_integral(P).constant_term())
        vals = np.zeros(len(pts))
        for (e, _), c in P.terms.items():
            term = np.full(len(pts), float(c))
            for i, k in enumerate(e):
                if k:
                    term *= powers[i][k]
            vals += term
        mc = float(vals.mean())
        scale = max(1.0, abs(exact))
        assert abs(mc - exact) < 5e-3 * scale + 3.0 * vals.std() / math.sqrt(
            len(vals)
        )


# -- integrated identity and the sign property ----------------------------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_integrated_identity_random(n):
    rng = np.random.default_rng(300 + n)
    for _ in range(6):
        A3 = random_cubic_form(n, rng)
        lhs, rhs = ob.integrated_identity(A3)
        assert lhs == rhs
        val = rhs.constant_term()
        if A3.is_zero:
            assert val == 0
        elif n < 6:
            assert val < 0
        elif n == 6:
            assert val == 0
        else:
            assert val > 0


def test_c_theta_zero_impossible_off_dim6():
    # C identically zero with a nonzero cubic cannot happen for n != 6.
    for n in (3, 4, 5, 7):
        rng = np.random.default_rng(600 + n)
        for _ in range(5):
            A3 = random_cubic_form(n, rng)
            if A3.is_zero:
                continue
            assert not ob.c_theta(A3).is_zero


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_integrated_identity_generic_cubic(n):
    # a polynomial identity in the coefficient symbols, so it certifies the
    # integrated identity for every cubic, not just a sample
    lhs, rhs = ob.integrated_identity(generic_cubic(n))
    assert lhs == rhs
    assert lhs.is_zero == (n == 6)


@pytest.mark.parametrize("A", [
    MultiPoly.var(4, 0) ** 4,
    MultiPoly.var(4, 0) ** 3 + MultiPoly.var(4, 1) ** 2,
], ids=["quartic", "non-homogeneous"])
def test_cubic_calculus_rejects_other_inputs(A):
    with pytest.raises(ValueError, match="degree-3 homogeneous"):
        ob.integrated_identity(A)
    with pytest.raises(ValueError, match="degree-3 homogeneous"):
        ob.c_theta(A)


# -- the plain-polynomial calculus against the series-ring oracle -------------------


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9])
def test_c_theta_and_identity_match_series_oracle(n):
    rng = np.random.default_rng(700 + n)
    for A3 in [random_cubic_form(n, rng) for _ in range(4)] + [MultiPoly.zero(n)]:
        assert ob.c_theta(A3) == so.c_theta(A3)
        assert ob.integrated_identity(A3) == so.integrated_identity(A3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_generic_cubic_matches_series_oracle(n):
    A3 = generic_cubic(n)
    assert ob.c_theta(A3) == so.c_theta(A3)
    assert ob.integrated_identity(A3) == so.integrated_identity(A3)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_series_match_product_oracle_random_cubics(n):
    # Euler's identity and one canonicalization per quantity against the
    # per-coordinate products: (f - x.grad f)/rho and Q at windows 0..5,
    # and the chart-y series at infinity, which takes any cubic
    rng = np.random.default_rng(1900 + n)
    A3 = random_cubic_form(n, rng, 6)
    A4 = random_cubic_form(n, rng, 4) * MultiPoly.var(n, int(rng.integers(0, n)))
    f = umbilical_jet(n, A3, A4.homogeneous_part(4))
    for W in range(6):
        assert ob.eta_over_rho_series(f, W) == so.eta_over_rho_series(f, W)
        assert ob.script_R_series(f, W) == so.script_R_series(f, W)
    for order_min in (-5, -6, -7):
        assert (asym.ghat_radial_trace_series(f, asym.INVERTED_Y, order_min)
                == so.ghat_radial_trace_series(f, asym.INVERTED_Y, order_min))


def test_sphere_integral_mixed_degrees_matches_oracle():
    # on r = 1 a mixed-degree polynomial integrates part by part
    n = 5
    rng = np.random.default_rng(12)
    H = MultiPoly.param(n, "H")
    A, B = random_cubic_form(n, rng), random_cubic_form(n, rng)
    parts = [A * B, (A.laplacian() * B).scale(3) + H * A * A.laplacian(),
             H * H * A.laplacian() * B.laplacian()]
    P = parts[0] + parts[1] + parts[2]
    assert len(P.homogeneous_parts()) == 3
    assert ob.sphere_integral(P) == sum(
        (so.sphere_integral_homog(Q) for Q in parts), MultiPoly.zero(n))
    assert ob.sphere_integral_series(ob.on_sphere(P)) == ob.sphere_integral(P)


# -- dimension-6 chain ------------------------------------------------------------


def test_dim6_radial_family():
    # A_3 = |x|^2 L: residual reduces to the harmonic-square obstruction;
    # the square theta_1^2 is not constant on the sphere, so the chain
    # rejects every nonzero member of the family.
    n = 6
    L = MultiPoly.var(n, 0)
    rec = ob.dim6_check(MultiPoly.x_norm_sq(n) * L)
    assert rec.divisible
    assert not rec.harmonic_square_constant
    assert not rec.residual_zero


def test_dim6_radial_family_perturbed():
    n = 6
    base = MultiPoly.x_norm_sq(n) * MultiPoly.var(n, 0)
    rec = ob.dim6_check(base + MultiPoly.var(n, 0) ** 3)
    assert not rec.divisible
    assert not rec.residual_zero


def test_dim6_nonradial_examples():
    n = 6
    for A3 in (
        MultiPoly.var(n, 0) ** 3,
        MultiPoly.var(n, 0) * MultiPoly.var(n, 1) * MultiPoly.var(n, 2),
    ):
        rec = ob.dim6_check(A3)
        assert not rec.residual_zero
        assert not rec.divisible
        assert poly_divexact(A3) is None


def test_dim6_zero_cubic():
    rec = ob.dim6_check(MultiPoly.zero(6))
    assert rec.residual_zero and rec.divisible and rec.harmonic_square_constant


def test_dim6_residual_is_c_theta_lift():
    # The degree-6 residual restricted to the sphere is -16 times... it must
    # be proportional to C(theta) in dimension 6: C = 0 iff residual = 0.
    n = 6
    rng = np.random.default_rng(31)
    for _ in range(4):
        A3 = random_cubic_form(n, rng)
        rec = ob.dim6_check(A3)
        ct = ob.c_theta(A3)
        assert rec.residual_zero == ct.is_zero


def test_report_json_roundtrippable():
    import json

    n = 6
    rep = ob.expansion_coefficients(
        umbilical_jet(n, MultiPoly.var(n, 0) ** 3, None)
    )
    blob = json.dumps(rep.to_json())
    data = json.loads(blob)
    assert data["c0_zero"] and data["c1_zero"]
    assert data["dim6"]["divisible_by_r2"] is False
