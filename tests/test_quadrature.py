"""Sphere quadrature, product and fully symmetric: weights, exactness,
determinism, the shared read-only rules."""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from umbilic import quadrature
from umbilic.obstruction import sphere_integral
from umbilic.polyjet import MultiPoly
from umbilic.quadrature import QuadratureRule, _gauss_jacobi, default_degree, sphere_area

# sum|w| / |S^{n-1}| of the symmetric rule of each even degree up to the cap,
# from its exact rational weights: the factor by which its signed weights
# amplify rounding
ABS_WEIGHT_SUMS = {
    6: {2: 1, 4: Fraction(3, 2), 6: Fraction(25, 16), 8: Fraction(5, 3),
        10: Fraction(30377, 10752), 12: Fraction(597, 140), 14: Fraction(4799527, 737280),
        16: Fraction(9679, 945)},
    7: {2: 1, 4: Fraction(5, 3), 6: Fraction(23, 11), 8: Fraction(1043, 429),
        10: Fraction(4262, 1287), 12: Fraction(40451, 7293)},
    8: {2: 1, 4: Fraction(9, 5), 6: Fraction(103, 40), 8: Fraction(49, 15),
        10: Fraction(13627, 3072)},
    9: {2: 1, 4: Fraction(21, 11), 6: Fraction(431, 143), 8: Fraction(8863, 2145),
        10: Fraction(41593, 7293)},
}


def test_weights_positive_and_sum_to_area():
    # the product rules (n < 6) have positive weights; the fully symmetric
    # rules (n >= 6) have signed ones, inherent to the family from n = 6,
    # degree 4 on, so there sum|w| is pinned at every rung up to the cap
    for n in range(2, 10):
        for d in range(2, default_degree(n) + 1, 2) if n >= quadrature.SYMMETRIC_FROM else (10,):
            rule = QuadratureRule.sphere(n, d)
            if n < quadrature.SYMMETRIC_FROM:
                assert np.all(rule.weights > 0.0)
            else:
                assert np.sum(np.abs(rule.weights)) / sphere_area(n) == pytest.approx(
                    float(ABS_WEIGHT_SUMS[n][d]), rel=1e-12), (n, d)
            assert np.sum(rule.weights) == pytest.approx(sphere_area(n), rel=1e-12)
            assert np.allclose(np.linalg.norm(rule.nodes, axis=1), 1.0, atol=1e-14)


def test_symmetric_weights_are_exact_rationals():
    # in units of |S^5|: k = 1 puts 1/12 on the 12 axis nodes; k = 2 puts
    # -1/48 there and +1/48 on the 60 nodes (+-1, +-1, 0, ...)/sqrt 2
    def weights(n, k):
        return {p: (len(rows) * 2 ** len(p), w)
                for p, (rows, w) in quadrature._symmetric_orbits(n, k).items()}

    assert weights(6, 1) == {(1,): (12, Fraction(1, 12))}
    assert weights(6, 2) == {(2,): (12, Fraction(-1, 48)), (1, 1): (60, Fraction(1, 48))}
    rule = QuadratureRule.sphere(6, 4)
    on_axis = np.isclose(np.max(np.abs(rule.nodes), axis=1), 1.0)
    assert on_axis.sum() == 12 and len(rule.weights) == 72
    assert np.all(rule.weights[on_axis] == -1 / 48 * sphere_area(6))
    assert np.all(rule.weights[~on_axis] == 1 / 48 * sphere_area(6))
    assert np.allclose(np.abs(rule.nodes[~on_axis]).max(axis=1), 0.5 ** 0.5, rtol=0, atol=1e-16)


def test_symmetric_node_counts():
    # the degree-(2k + 1) rules at the mass caps and of the n = 8, 9 checks
    assert [len(QuadratureRule.sphere(n, d).weights) for n, d in
            [(6, 16), (7, 12), (8, 8), (8, 10), (9, 10)]] == [20256, 12642, 2816, 9424, 16722]


def recursive_permutations(values):
    """The distinct orderings by the recursion without a memo, as a list:
    the reference for the memoized `_distinct_permutations`."""
    if len(values) <= 1:
        return [values]
    out = []
    for v in sorted(set(values)):
        i = values.index(v)
        out += [(v,) + rest for rest in recursive_permutations(values[:i] + values[i + 1:])]
    return out


def test_distinct_permutations_match_the_set_of_permutations():
    for values in [(0,), (1, 0, 0), (2, 1, 1, 0, 0), (3, 1, 0, 2, 1, 0), (1, 1, 1)]:
        perms = quadrature._distinct_permutations(values)
        assert list(perms) == sorted(set(itertools.permutations(values)))
        assert list(perms) == recursive_permutations(values)
        assert isinstance(perms, tuple) and quadrature._distinct_permutations(values) is perms


def test_memoized_rules_match_the_recursive_oracle(monkeypatch):
    # the memo moves no node and no weight: the symmetric rules of every
    # rung up to the cap, n = 6, 7, and to half-degree 5, n = 8, 9, against
    # the same rules built with the recursion without a memo
    rungs = [(n, j) for n in (6, 7, 8, 9) for j in range(1, quadrature.default_degree(n) // 2 + 1)]
    memoized = {(n, j): quadrature._symmetric_rule(n, j) for n, j in rungs}
    monkeypatch.setattr(quadrature, "_distinct_permutations", recursive_permutations)
    for (n, j), (nodes, weights) in memoized.items():
        want_nodes, want_weights = quadrature._symmetric_rule(n, j)
        assert np.array_equal(nodes, want_nodes) and np.array_equal(weights, want_weights)


def test_bareiss_solve_matches_fractions():
    rng = np.random.default_rng(3)
    for size in range(1, 7):
        a = [[int(v) for v in row] for row in rng.integers(-9, 10, (size, size))]
        b = [int(v) for v in rng.integers(-9, 10, size)]
        if np.linalg.matrix_rank(np.array(a, dtype=float)) < size:
            continue
        x, det = quadrature._bareiss_solve(a, b)
        sol = [Fraction(xi, det) for xi in x]
        assert [sum(aij * s for aij, s in zip(row, sol)) for row in a] == b


def test_rules_are_shared_and_read_only():
    a, b = QuadratureRule.sphere(6, 8), QuadratureRule.sphere(6, 8)
    assert a is not b and a.nodes is b.nodes and a.weights is b.weights
    for rule in (a, QuadratureRule.sphere(3, 8)):
        with pytest.raises(ValueError):
            rule.nodes[0, 0] = 0.0
        with pytest.raises(ValueError):
            rule.weights[0] = 0.0


def test_odd_degree_is_the_rule_of_the_even_degree_below():
    # a rule is named by its half-degree j = d // 2 in both families, so
    # degrees 2j and 2j + 1 share one pair of arrays; `degree` stays as asked
    for n in range(2, 10):
        for j in range(6):
            even, odd = QuadratureRule.sphere(n, 2 * j), QuadratureRule.sphere(n, 2 * j + 1)
            assert odd.nodes is even.nodes and odd.weights is even.weights, (n, j)
            assert (even.degree, odd.degree) == (2 * j, 2 * j + 1)
        if n >= quadrature.SYMMETRIC_FROM:
            # the symmetric family's lowest rule serves half-degrees 0 and 1
            assert QuadratureRule.sphere(n, 0).nodes is QuadratureRule.sphere(n, 3).nodes


@pytest.mark.parametrize("n", [3, 6])
def test_every_degree_builds_one_rule_per_half_degree(monkeypatch, n):
    # degrees 0 .. 2J + 1 ask for J + 1 distinct product rules, each built
    # once; the symmetric family starts at half-degree 1, so it builds J
    built = []
    for name in ("_product_rule", "_symmetric_rule"):
        build = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            lambda n, j, build=build: built.append((n, j)) or build(n, j))
    J = 5
    quadrature._rule_arrays.cache_clear()
    try:
        for d in range(2 * J + 2):
            QuadratureRule.sphere(n, d)
    finally:
        quadrature._rule_arrays.cache_clear()
    first = 1 if n >= quadrature.SYMMETRIC_FROM else 0
    assert built == [(n, j) for j in range(first, J + 1)]


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
    # the mass walk may stop on any even degree d up to the cap: each rung
    # integrates every degree up to d + 1, against the closed-form moments
    # (the product rule's Gauss and trapezoid factors are exact to d + 1,
    # and the symmetric rule of n >= 6 is of degree 2 (d/2) + 1).  An odd
    # exponent makes the exact integral 0; those are held to 1e-12 of
    # |S|^(1/2) ||P||_2, which bounds |int P| (Cauchy-Schwarz).  Measured:
    # 3.0e-14 relative and 9.8e-16 of the L2 bound (product), 2.6e-15 and
    # 1.6e-16 (symmetric).
    rng = np.random.default_rng(0)
    for n in range(2, 10):
        top = default_degree(n)
        polys = []
        for deg in range(1, top + 2):
            P = random_homogeneous(n, deg, rng)
            exact = float(sphere_integral(P).constant_term()) * sphere_area(n)
            scale = abs(exact) or sphere_area(n) * float(sphere_integral(P * P).constant_term()) ** 0.5
            polys.append((deg, P, exact, scale))
        for d in range(2, top + 1, 2):
            rule = QuadratureRule.sphere(n, d)
            for deg, P, exact, scale in polys:
                if deg > d + 1:
                    break
                assert abs(rule.integrate(values_at(P, rule.nodes)) - exact) <= 1e-12 * scale, \
                    (n, d, deg)


def test_symmetric_rule_past_the_int64_range():
    # from k = 11 the moment matrix is built on Python integers: the rule of
    # degree 23 on S^2 (k = 11) against the closed-form moments
    rng = np.random.default_rng(1)
    nodes, weights = quadrature._symmetric_rule(3, 11)
    rule = QuadratureRule(3, nodes, weights, 22)
    for deg in (2, 11, 22, 23):
        P = random_homogeneous(3, deg, rng)
        exact = float(sphere_integral(P).constant_term()) * sphere_area(3)
        scale = abs(exact) or sphere_area(3) * float(sphere_integral(P * P).constant_term()) ** 0.5
        assert abs(rule.integrate(values_at(P, nodes)) - exact) <= 1e-12 * scale, deg


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
