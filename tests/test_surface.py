"""Graph-surface geometry: metric, curvatures, position-vector identities,
umbilical decomposition, and the inverted-cylinder spectrum."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbilic.obstruction import NotUmbilical, umbilical_decompose
from umbilic.polyjet import Jet, MultiPoly
from umbilic.surface import (
    GraphSurface,
    PlaneCurve,
    cylinder_inversion_curvatures,
    intrinsic_scalar_curvature,
    jet_geometry,
    point_geometry,
    verify_rho_identities,
)

RNG = np.random.default_rng(20240817)


def random_cubic(n, rng, n_terms=6, with_quadratic=True):
    """A sparse random polynomial with umbilical quadratic part."""
    p = MultiPoly.zero(n)
    if with_quadratic:
        c2 = Fraction(int(rng.integers(-3, 4)), 2)
        p = p + MultiPoly.x_norm_sq(n).scale(c2)
    for _ in range(n_terms):
        e = [0] * n
        for _ in range(3):
            e[rng.integers(0, n)] += 1
        c = Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 5)))
        p = p + MultiPoly(n, {(tuple(e), ()): Fraction(1)}).scale(c)
    return p


# -- point geometry against hand values -------------------------------------------


def test_flat_geometry_trivial():
    S = GraphSurface.flat(3)
    geo = point_geometry(S, [0.1, -0.2, 0.3])
    assert np.allclose(geo.g, np.eye(3))
    assert geo.H == 0.0
    assert geo.R_g == 0.0
    assert geo.eta == 0.0
    assert math.isclose(geo.rho, 0.01 + 0.04 + 0.09)


def test_sphere_mean_curvature_sign_convention():
    # The unit sphere tangent to the plane at 0, graphed from below, has
    # H = +n/R = n everywhere with the inner normal.
    n = 3
    S = GraphSurface.sphere(n, Fraction(1), order=11)
    for x in ([0.0, 0.0, 0.0], [0.1, 0.05, -0.08], [0.15, -0.05, 0.05]):
        geo = point_geometry(S, x)
        assert geo.H == pytest.approx(float(n), abs=1e-7)
        # umbilical: II = (H/n) g
        assert np.max(np.abs(geo.II - geo.H / n * geo.g)) < 1e-7
        # scalar curvature of the unit n-sphere is n(n-1)
        assert geo.R_g == pytest.approx(n * (n - 1), abs=1e-6)


def test_sphere_numeric_matches_symbolic():
    n = 4
    Ssym = GraphSurface.sphere(n, Fraction(2), order=9)
    Snum = GraphSurface.sphere_numeric(n, 2.0)
    x = np.array([0.11, -0.07, 0.05, 0.02])
    a = point_geometry(Ssym, x)
    b = point_geometry(Snum, x)
    assert np.max(np.abs(a.g - b.g)) < 1e-9
    assert abs(a.H - b.H) < 1e-5
    assert abs(a.eta - b.eta) < 1e-9


def test_graph_metric_hand_value():
    # f = x1^2: at x = (a, 0, ...) grad = (2a, 0), g = diag(1+4a^2, 1),
    # W = sqrt(1+4a^2), II = diag(2, 0)/W, H = 2/W^3.
    n = 2
    S = GraphSurface.polynomial(MultiPoly.var(n, 0) ** 2, order=5)
    a = 0.3
    geo = point_geometry(S, [a, 0.0])
    W = math.sqrt(1 + 4 * a * a)
    assert np.allclose(geo.g, np.diag([1 + 4 * a * a, 1.0]))
    assert geo.II[0, 0] == pytest.approx(2.0 / W, abs=1e-12)
    assert geo.H == pytest.approx(2.0 / W**3, abs=1e-12)
    # eta = (f - x.grad f)/W = (a^2 - 2a^2)/W
    assert geo.eta == pytest.approx(-a * a / W, abs=1e-12)


def test_gauss_equation_against_fd_curvature():
    # R_g from the Gauss equation must match the intrinsic scalar curvature
    # computed from finite differences of the induced metric alone.
    n = 3
    p = random_cubic(n, np.random.default_rng(7))
    S = GraphSurface.polynomial(p, order=7)
    for x in ([0.05, 0.1, -0.05], [0.12, -0.04, 0.08]):
        geo = point_geometry(S, x)
        R_fd = intrinsic_scalar_curvature(S, x, h=1e-3)
        assert R_fd == pytest.approx(geo.R_g, abs=2e-5, rel=2e-5)


# -- rho / eta identities ----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rho_identities_symbolic_exact(n):
    rng = np.random.default_rng(100 + n)
    p = random_cubic(n, rng)
    S = GraphSurface.polynomial(p, order=7)
    res = verify_rho_identities(S, None)
    assert res.exact
    assert res.max() == 0.0


def test_rho_identities_symbolic_sphere():
    S = GraphSurface.sphere(3, Fraction(3, 2), order=8)
    res = verify_rho_identities(S, None)
    assert res.exact
    assert res.max() == 0.0


@pytest.mark.parametrize("n", [2, 3])
def test_rho_identities_numeric(n):
    rng = np.random.default_rng(200 + n)
    p = random_cubic(n, rng)
    # The exact polynomial, but exposed to the surface as a black-box evaluator.
    S = GraphSurface(n, f_num=lambda x: float(p.evaluate(list(x))))
    x = 0.1 * rng.standard_normal(n)
    res = verify_rho_identities(S, x)
    assert not res.exact
    assert res.max() < 1e-6


def test_rho_identities_numeric_sphere():
    S = GraphSurface.sphere_numeric(3, 2.0)
    res = verify_rho_identities(S, np.array([0.2, -0.1, 0.15]))
    assert res.max() < 1e-6


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 4), st.integers(0, 10_000))
def test_rho_identities_symbolic_random(n, seed):
    p = random_cubic(n, np.random.default_rng(seed), n_terms=4)
    S = GraphSurface.polynomial(p, order=6)
    assert verify_rho_identities(S, None).max() == 0.0


@pytest.mark.parametrize(
    "name,n,expected", [("sphere", 4, (0.0, 4.0, 24.0)), ("cubic_x1", 5, (0.0, 40.0, 152.0))]
)
def test_rho_symbolic_detects_wrong_inverse(monkeypatch, name, n, expected):
    # With 1 + |grad f|^2 in place of its inverse the exact check must fail,
    # with these residuals (the gradient identity does not involve the
    # inverse at the certified order).
    S = GraphSurface.builtin(name, n)
    power_unit = Jet.power_unit
    monkeypatch.setattr(
        Jet, "power_unit", lambda j, e: j if e == -1 else power_unit(j, e)
    )
    res = verify_rho_identities(S, None)
    assert res.exact
    assert (res.grad_sq, res.hessian, res.laplacian) == expected


@pytest.mark.parametrize("W", [3, 5])
@pytest.mark.parametrize("name", ["quartic_x1", "cubic_x1"])
def test_jet_geometry_matches_point_geometry(name, W):
    n, r = 4, 1e-2
    S = GraphSurface.builtin(name, n)
    geo = jet_geometry(S.f_jet.poly, W)
    rng = np.random.default_rng(31)
    dirs = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((8, n))])
    tol = 200 * r ** (W + 1)  # the truncation error O(|x|^(W+1))
    for d in dirs:
        x = r * d / np.linalg.norm(d)
        pg = point_geometry(S, x)
        at = lambda j: float(j.evaluate(list(x)))  # noqa: E731
        # g^{-1} = I - w grad f grad f^T has trace n - 1 + w
        assert at(geo.inv_w2) == pytest.approx(np.trace(pg.g_inv) - (n - 1), abs=tol)
        assert at(geo.trace) == pytest.approx(np.trace(pg.g_inv @ pg.hess), abs=tol)
        hess_grad = pg.hess @ pg.grad
        for a in range(n):
            assert at(geo.grad[a]) == pytest.approx(pg.grad[a], abs=tol)
            assert at(geo.hess_grad[a]) == pytest.approx(hess_grad[a], abs=tol)


@pytest.mark.parametrize("R", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_jet_geometry_sphere_trace_exact(n, R):
    # The sphere has H = tr_g(Hess f) / w = n/R, so tr_g Hess f equals
    # (n/R) (1 + |grad f|^2)^(1/2) as jets through the certified order D - 2,
    # every order of the window included (the rho checks see the trace only
    # through a factor O(|x|^2)).
    S = GraphSurface.sphere(n, Fraction(R))
    W = S.f_jet.order - 2
    geo = jet_geometry(S.f_jet.poly, W)
    w2 = Jet.const(n, 1, W) + sum((g * g for g in geo.grad), Jet.const(n, 0, W))
    assert geo.trace == w2.power_unit(Fraction(1, 2)) * Fraction(n, R)


# -- umbilical decomposition -------------------------------------------------------


def test_umbilical_decompose_basic():
    n = 3
    H = Fraction(5, 2)
    A3 = MultiPoly.var(n, 0) ** 3
    A4 = MultiPoly.var(n, 1) ** 4
    f = MultiPoly.x_norm_sq(n).scale(H / (2 * n)) + A3 + A4
    S = GraphSurface.polynomial(f, order=6)
    h, parts = umbilical_decompose(S.f_jet.poly)
    assert h == MultiPoly.const(n, H)
    assert parts[3] == A3
    assert parts[4] == A4
    assert set(parts) == {3, 4}


def test_umbilical_decompose_symbolic_H():
    n = 4
    Hp = MultiPoly.param(n, "H")
    f = MultiPoly.x_norm_sq(n) * Hp.scale(Fraction(1, 2 * n))
    S = GraphSurface.polynomial(f, order=6)
    h, parts = umbilical_decompose(S.f_jet.poly)
    assert h == Hp
    assert parts == {}


def test_umbilical_decompose_rejects_anisotropic():
    n = 3
    f = MultiPoly.var(n, 0) ** 2  # x1^2 is not a multiple of |x|^2
    S = GraphSurface.polynomial(f, order=6)
    with pytest.raises(NotUmbilical):
        umbilical_decompose(S.f_jet.poly)


def test_umbilical_decompose_sphere():
    # Sphere of radius R: H = n/R, A_3 = 0, A_4 = |x|^4/(8 R^3).
    n = 3
    R = Fraction(2)
    S = GraphSurface.sphere(n, R, order=7)
    h, parts = umbilical_decompose(S.f_jet.poly)
    assert h == MultiPoly.const(n, Fraction(n) / R)
    assert 3 not in parts
    assert parts[4] == (MultiPoly.x_norm_sq(n) ** 2).scale(Fraction(1, 8) / R**3)


# -- inverted cylinder ------------------------------------------------------------


def _cylinder_cases():
    # (t, z) pairs: a hand-picked one plus five seeded ones with t in
    # [0.2, 2] and z in [-0.5, 0.5]^2
    rng = np.random.default_rng(7)
    extra = [(rng.uniform(0.2, 2.0), rng.uniform(-0.5, 0.5, 2)) for _ in range(5)]
    return [(0.7, np.array([0.25, -0.1]))] + extra


def test_inverted_cylinder_line():
    # Cylinder over the line y = 1: the inversion is a sphere through 0 of
    # radius 1/2, totally umbilical with both curvatures 2.
    cases = [(0.3, 0.2 * np.arange(1, nm1 + 1)) for nm1 in (2, 3)]
    for t, z in cases + _cylinder_cases():
        out = cylinder_inversion_curvatures(PlaneCurve.line(), t, z)
        assert out.lam == pytest.approx(2.0)
        assert out.mu == pytest.approx(2.0)
        err = np.max(np.abs(out.eigenvalues - 2.0))
        assert err < 1e-5
        # the stricter bound beside it: measured errors stay below 2e-6
        assert err < 5e-6, (t, z)


def test_inverted_cylinder_circle():
    # Cylinder over a circle through the origin: lam has multiplicity n-1
    # and the remaining curvature is mu = lam - k q, matched numerically.
    curve = PlaneCurve.circle_through_origin(1.5)
    for t, z in _cylinder_cases():
        out = cylinder_inversion_curvatures(curve, t, z)
        expect = np.sort(np.r_[np.full(2, out.lam), out.mu])
        err = np.max(np.abs(out.eigenvalues - expect))
        assert err < 2e-4
        # the stricter bound beside it: measured errors stay below 1e-6
        assert err < 1e-5, (t, z)


def test_inverted_cylinder_rejects_origin():
    with pytest.raises(ValueError):
        cylinder_inversion_curvatures(
            PlaneCurve.circle_through_origin(1.0), 0.0, np.zeros(2)
        )


def test_plane_curve_arclength_guard():
    bad = PlaneCurve(lambda t: ((2 * t, 1.0), (2.0, 0.0), (0.0, 0.0)), "fast-line")
    with pytest.raises(ValueError):
        cylinder_inversion_curvatures(bad, 0.1, np.array([0.3]))


# -- serialization ------------------------------------------------------------


def test_surface_json_roundtrip():
    n = 3
    p = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + MultiPoly.var(n, 0) ** 3
    S = GraphSurface.polynomial(p, order=7, name="demo")
    data = S.to_json()
    S2 = GraphSurface.from_json(data)
    assert S2.f_jet.poly == S.f_jet.poly
    assert S2.n == n


def test_surface_builtins():
    for name in ("flat", "sphere", "quartic_x1", "cubic_x1"):
        S = GraphSurface.builtin(name, 3)
        assert S.symbolic
        h, _ = umbilical_decompose(S.f_jet.poly)
        # the unit sphere and the |x|^2/2 quadratic part both give H = n
        assert h == MultiPoly.const(3, 0 if name == "flat" else 3)


def test_batch_matches_pointwise():
    # symbolic surfaces batch through the shared evaluator, numeric ones
    # loop over the pointwise finite differences
    sym = GraphSurface.quartic_x1(3)
    pts = RNG.uniform(-0.3, 0.3, size=(8, 3))
    for S in (sym, GraphSurface(3, f_num=sym.f_value)):
        vals, grads, hesses = S.f_derivatives_batch(pts, 2)
        assert vals.shape == (8,) and grads.shape == (8, 3) and hesses.shape == (8, 3, 3)
        for order in (0, 1):
            lower = S.f_derivatives_batch(pts, order)
            assert len(lower) == order + 1
            for a, b in zip(lower, (vals, grads)):
                assert np.max(np.abs(a - b)) < 1e-14
        for i, p in enumerate(pts):
            assert vals[i] == pytest.approx(S.f_value(p), abs=1e-14)
            assert np.max(np.abs(grads[i] - S.f_grad(p))) < 1e-14
            assert np.max(np.abs(hesses[i] - S.f_hess(p))) < 1e-14


def test_radial_evaluator_is_x_dot_grad():
    # [f, grad f, E f, E grad f] from one evaluator: E f = x . grad f and
    # E grad f = Hess f x, on a symbolic and (through the Hessian) an f_num
    # surface
    pts = RNG.uniform(-0.3, 0.3, size=(16, 5))
    sym = GraphSurface.polynomial(random_mixed(5, RNG), name="mixed")
    for S in (sym, GraphSurface.quartic_x1(5), GraphSurface(5, f_num=sym.f_value)):
        f, gr, hess = S.f_derivatives_batch(pts, 2)
        rf, rgr, ef, egr = S.f_radial_batch(pts)
        assert rf.shape == ef.shape == (16,) and rgr.shape == egr.shape == (16, 5)
        assert np.max(np.abs(rf - f)) < 1e-14
        assert np.max(np.abs(rgr - gr)) < 1e-14
        assert np.max(np.abs(ef - np.sum(pts * gr, axis=1))) < 1e-13
        assert np.max(np.abs(egr - np.einsum("pij,pj->pi", hess, pts))) < 1e-13


def random_mixed(n, rng, n_terms=10):
    """Terms of degree 2..6 whose supports mix one to four variables."""
    p = MultiPoly.zero(n)
    for _ in range(n_terms):
        e = [0] * n
        for i in rng.choice(n, size=int(rng.integers(1, 5)), replace=True):
            e[i] += 1
        e[int(rng.integers(0, n))] += 2 if sum(e) < 2 else int(rng.integers(0, 3))
        c = Fraction(int(rng.choice([-5, -3, -1, 2, 4, 7])), int(rng.integers(1, 9)))
        p = p + MultiPoly(n, {(tuple(e), ()): Fraction(1)}).scale(c)
    return p


def deep_poly(n, rng):
    """random_mixed plus x_0^9 and x_0^3 x_1^4 x_2^5: degree 12, so the
    evaluator's monomial tree has a fourth level (degrees 9..16)."""
    deep = {(9,) + (0,) * (n - 1): Fraction(1, 3), (3, 4, 5) + (0,) * (n - 3): Fraction(-2, 5)}
    return random_mixed(n, rng) + MultiPoly(n, {(e, ()): c for e, c in deep.items()})


EVALUATOR_CASES = [(name, n) for name in ("flat", "sphere", "quartic_x1", "cubic_x1")
                   for n in range(3, 8)] + [("mixed", 4), ("mixed", 6), ("mixed", 9), ("deep", 4)]


@pytest.mark.parametrize("name,n", EVALUATOR_CASES)
def test_batch_evaluator_matches_exact(name, n):
    # f, grad f and Hess f from the shared evaluator, for batches and (at
    # eight points) one point at a time, and x . grad f and (x . grad) grad f
    # from f_radial_batch, against exact MultiPoly.evaluate at seeded points
    # with denominator 64, to 1e-13 relative to each column's largest exact
    # value; the sphere jets have hundreds of terms, so their exact check
    # samples every tenth point.
    rng = np.random.default_rng(1000 * n + len(name))
    if name == "mixed":
        S = GraphSurface.polynomial(random_mixed(n, rng))
        assert max(sum(1 for ei in e if ei) for e, _ in S.f_jet.poly.terms) > 1
    elif name == "deep":
        S = GraphSurface.polynomial(deep_poly(n, rng), order=12)
        assert S.f_jet.poly.degree() == 12
    else:
        S = GraphSurface.builtin(name, n)
    p = S.f_jet.poly
    grad = [p.diff(i) for i in range(n)]
    polys = [p] + grad + [g.diff(j) for g in grad for j in range(n)]
    num = rng.integers(-19, 20, size=(1000, n))
    pts = num / 64.0
    checked = list(range(0, 1000, 10 if name == "sphere" else 1))
    xs = [[Fraction(int(k), 64) for k in num[r]] for r in checked]
    values = [[q.evaluate(x) for q in polys] for x in xs]
    # [x . grad f, (x . grad) grad f] from the exact grad f and Hess f
    radial = [[sum(xi * v[1 + i] for i, xi in enumerate(x))]
              + [sum(v[1 + n + a * n + j] * xj for j, xj in enumerate(x)) for a in range(n)]
              for x, v in zip(xs, values)]
    exact = np.array(values, dtype=float)
    exact_radial = np.hstack([exact[:, : n + 1], np.array(radial, dtype=float)])

    def assert_close(got, want, rows=slice(None)):
        k = got.shape[1]
        scale = np.max(np.abs(want[:, :k]), axis=0)
        assert np.all(np.abs(got - want[rows, :k]) <= 1e-13 * scale)

    for order in (0, 1, 2):
        parts = S.f_derivatives_batch(pts, order)
        flat = np.concatenate([v.reshape(1000, -1) for v in parts], axis=1)
        assert flat.shape == (1000, [1, n + 1, 1 + n + n * n][order])
        assert_close(flat[checked], exact)
    f, gr, ef, egr = S.f_radial_batch(pts)
    assert_close(np.column_stack([f, gr, ef, egr])[checked], exact_radial)
    for r, i in enumerate(checked[:8]):
        one = np.concatenate([[S.f_value(pts[i])], S.f_grad(pts[i]), S.f_hess(pts[i]).ravel()])
        assert_close(one[None, :], exact, [r])
