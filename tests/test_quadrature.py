"""Product quadrature on spheres: weights, exactness, determinism."""

from fractions import Fraction

import numpy as np
import pytest

from umbilic.obstruction import sphere_integral
from umbilic.polyjet import MultiPoly
from umbilic.quadrature import QuadratureRule, _gauss_jacobi, default_degree, sphere_area


def test_weights_positive_and_sum_to_area():
    for n in range(2, 8):
        rule = QuadratureRule.sphere(n, 10)
        assert np.all(rule.weights > 0.0)
        assert np.sum(rule.weights) == pytest.approx(sphere_area(n), rel=1e-12)
        assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)


def random_homogeneous(n, deg, rng):
    out = MultiPoly.zero(n)
    for _ in range(6):
        e = rng.multinomial(deg, np.ones(n) / n)
        c = Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 7)))
        mono = MultiPoly.const(n, c)
        for i, ei in enumerate(e):
            mono = mono * MultiPoly.var(n, i) ** int(ei)
        out = out + mono
    return out


def values_at(P, nodes):
    """P (homogeneous, degree >= 1) at each row of nodes."""
    return sum(
        float(c) * np.prod([nodes[:, i] ** k for i, k in enumerate(e) if k], axis=0)
        for (e, _), c in P.terms.items()
    )


def test_exact_on_homogeneous_polynomials():
    # independent oracle: closed-form monomial moments over the sphere
    rng = np.random.default_rng(0)
    for n in range(2, 8):
        rule = QuadratureRule.sphere(n, 12)
        for deg in (2, 3, 4, 6):
            P = random_homogeneous(n, deg, rng)
            exact = float(sphere_integral(P).constant_term()) * sphere_area(n)
            vals = values_at(P, rule.nodes)
            assert rule.integrate(vals) == pytest.approx(exact, abs=1e-10, rel=1e-10)


def test_every_rung_exact_on_homogeneous_polynomials():
    # the mass walk may stop on any even degree up to the cap: each rung
    # integrates each even degree it claims, against the closed-form
    # moments.  An odd exponent makes the exact integral 0; those are held
    # to 1e-12 of |S|^(1/2) ||P||_2, which bounds |int P| (Cauchy-Schwarz).
    # Measured: 3.8e-14 relative, 1.0e-15 of the L2 bound.
    rng = np.random.default_rng(0)
    for n in range(2, 8):
        top = default_degree(n)
        polys = []
        for deg in range(2, top + 1, 2):
            P = random_homogeneous(n, deg, rng)
            exact = float(sphere_integral(P).constant_term()) * sphere_area(n)
            scale = abs(exact) or sphere_area(n) * float(sphere_integral(P * P).constant_term()) ** 0.5
            polys.append((deg, P, exact, scale))
        for d in range(2, top + 1, 2):
            rule = QuadratureRule.sphere(n, d)
            for deg, P, exact, scale in polys:
                if deg > d:
                    break
                assert abs(rule.integrate(values_at(P, rule.nodes)) - exact) <= 1e-12 * scale, \
                    (n, d, deg)


def test_gauss_jacobi_matches_scipy_oracle():
    # scipy is a test-only oracle: the polar rules of n = 3..9 use the
    # Jacobi exponents alpha = (dim - 2)/2 for dim = 2..n-1, and the
    # default degrees use up to 17 points
    from scipy.special import roots_jacobi

    for alpha in np.arange(0.0, 3.5, 0.5):
        for m in range(1, 18):
            u, w = _gauss_jacobi(m, alpha)
            u_ref, w_ref = roots_jacobi(m, alpha, alpha)
            assert np.max(np.abs(u - u_ref)) <= 1e-15, (m, alpha)
            assert np.max(np.abs(w / w_ref - 1.0)) <= 1e-12, (m, alpha)


def _mp_gauss_jacobi(mp, m, alpha, start):
    """The m-point rule for (1 - u^2)^alpha at the working precision of mp:
    each node by Newton on the monic recurrence p_{k+1} = u p_k - beta_k p_{k-1}
    from its float value in `start`, each weight by Christoffel's formula
    1 / sum_{k<m} p_k(u)^2 / |p_k|^2, where |p_k|^2 = mu_0 beta_1 ... beta_k."""
    a = mp.mpf(alpha)
    beta = [k * (k + 2 * a) / ((2 * k + 2 * a + 1) * (2 * k + 2 * a - 1)) for k in range(1, m)]
    mu0 = 2 ** (2 * a + 1) * mp.gamma(a + 1) ** 2 / mp.gamma(2 * a + 2)
    nodes, weights = [], []
    for u0 in start:
        u = mp.mpf(u0)
        for _ in range(8):
            p_prev, p, dp_prev, dp = 0, mp.mpf(1), 0, 0
            for b in [0] + beta:
                p_prev, p, dp_prev, dp = p, u * p - b * p_prev, dp, p + u * dp - b * dp_prev
            step = p / dp
            u -= step
            if abs(step) < mp.mpf(10) ** (2 - mp.dps):
                break
        assert abs(step) < mp.mpf(10) ** (2 - mp.dps), (m, alpha, u0)
        p_prev, p, norm = 0, mp.mpf(1), mu0
        total = 1 / mu0
        for b_prev, b in zip([0] + beta, beta):
            p_prev, p, norm = p, u * p - b_prev * p_prev, norm * b
            total += p * p / norm
        nodes.append(u)
        weights.append(1 / total)
    return nodes, weights


def test_gauss_jacobi_matches_40_digit_oracle():
    # Stricter than the scipy oracle, whose own weights are off by up to
    # 1e-13: Newton at 40 digits converges to the m distinct nodes from
    # the float ones
    import mpmath

    with mpmath.workdps(40):
        for alpha in np.arange(0.0, 3.5, 0.5):
            for m in range(1, 18):
                u, w = _gauss_jacobi(m, alpha)
                u_ref, w_ref = _mp_gauss_jacobi(mpmath.mp, m, alpha, u)
                assert all(b - a > 1e-3 for a, b in zip(u_ref, u_ref[1:])), (m, alpha)
                assert max(abs(float(a - b)) for a, b in zip(u, u_ref)) <= 1e-15, (m, alpha)
                assert max(abs(float(a / b - 1)) for a, b in zip(w, w_ref)) <= 5e-14, (m, alpha)


def test_odd_monomials_vanish():
    rule = QuadratureRule.sphere(4, 8)
    vals = rule.nodes[:, 0] ** 3 * rule.nodes[:, 1] ** 2
    assert abs(rule.integrate(vals)) < 1e-14


def test_deterministic():
    a = QuadratureRule.sphere(3, 14)
    b = QuadratureRule.sphere(3, 14)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.weights, b.weights)


def test_default_degree_table():
    assert default_degree(3) == 32
    assert default_degree(7) == 12
    assert default_degree(9) == 10


def test_rejects_low_dimension():
    with pytest.raises(ValueError):
        QuadratureRule.sphere(1, 4)
