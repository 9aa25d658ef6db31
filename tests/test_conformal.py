"""Conformal scalar curvature, leading-order extraction, and the
integrability classifier with its numeric annulus probe."""

import math
from fractions import Fraction

import numpy as np
import pytest

from umbilic import conformal
from umbilic.numdiff import power_law_fit, scalar_curvature_fd
from umbilic.polyjet import MultiPoly
from umbilic.quadrature import sphere_directions
from umbilic.surface import GraphSurface

from geometry_oracle import integrability_probe_pointwise, sphere_numeric


def test_flat_conformal_scalar_zero():
    S = GraphSurface.flat(3)
    for x in ([0.3, 0.1, -0.2], [1.0, 0.0, 0.0]):
        assert conformal.conformal_scalar(S, x) == 0.0
        assert conformal.curvature_density_factor(S, x)[0] == 0.0


def test_sphere_conformal_scalar_zero():
    # A sphere through the origin inverts to a hyperplane: the conformal
    # metric is flat, so its scalar curvature vanishes identically.
    n = 4
    S = GraphSurface.sphere(n, Fraction(1), order=13)
    rng = np.random.default_rng(5)
    for _ in range(6):
        x = 0.08 * rng.standard_normal(n)
        assert abs(conformal.conformal_scalar(S, x)) < 1e-6


def test_conformal_scalar_fd_oracle():
    # Independent check: scalar curvature of the metric field rho^{-2} g in
    # the graph chart by finite differences (curvature is chart-invariant).
    n = 3
    p = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + MultiPoly.var(n, 0) ** 3
    S = GraphSurface.polynomial(p, order=7)

    def ghat(pt):
        grad = S.f_grad(pt)
        f = S.f_value(pt)
        rho = float(pt @ pt) + f * f
        return (np.eye(n) + np.outer(grad, grad)) / rho**2

    rng = np.random.default_rng(11)
    for _ in range(4):
        x = np.array([0.3, 0.2, -0.1]) + 0.05 * rng.standard_normal(n)
        direct = conformal.conformal_scalar(S, x)
        fd = scalar_curvature_fd(ghat, x, h=2e-4)
        assert fd == pytest.approx(direct, rel=2e-5, abs=2e-5)


def test_density_consistency():
    n = 3
    S = GraphSurface.cubic_x1(n)
    x = np.array([0.1, -0.05, 0.2])
    f = S.f_value(x)
    rho = float(x @ x) + f * f
    assert conformal.curvature_density_factor(S, x)[0] == pytest.approx(
        conformal.conformal_scalar(S, x) * rho ** (-n), rel=1e-12
    )


@pytest.mark.parametrize("n", range(3, 8))
def test_density_takes_rows(n):
    # (N, n) gives (N,) values, each its point's to 2e-13 of the largest
    # (measured: 1.9e-14 on the cubic at n = 6, the rows' rounding grown
    # by the cancellation among the conformal terms)
    X = np.random.default_rng(n).uniform(-0.3, 0.3, (5, n))
    density = lambda S, x: conformal.curvature_density_factor(S, x)[0]  # noqa: E731
    size = lambda S, x: conformal.curvature_density_factor(S, x)[1]  # noqa: E731
    for S in (GraphSurface.cubic_x1(n), sphere_numeric(n, batch=True)):
        for fn in (conformal.conformal_scalar, density, size):
            rows = fn(S, X)
            assert rows.shape == (5,)
            points = [fn(S, x) for x in X]
            assert all(isinstance(v, float) for v in points)
            assert np.allclose(rows, points, rtol=0, atol=2e-13 * np.max(np.abs(rows)))


def test_density_batch_with_origin_raises():
    S = GraphSurface.cubic_x1(3)
    X = np.array([[0.1, 0.0, 0.2], [0.0, 0.0, 0.0], [0.3, 0.1, 0.0]])
    for fn in (conformal.conformal_scalar, conformal.curvature_density_factor):
        with pytest.raises(ValueError, match="singular at the origin"):
            fn(S, X)
        with pytest.raises(ValueError, match="singular at the origin"):
            fn(S, X[1])


# -- leading order and classification ----------------------------------------------


def test_leading_order_cubic():
    for n in (5, 6):
        S = GraphSurface.cubic_x1(n)
        L = conformal.leading_order_of_R(S)
        assert not L.is_zero
        assert L.k == 2
        assert L.c is not None and not L.c.is_zero


def test_leading_order_sphere_is_zero():
    S = GraphSurface.sphere(3, Fraction(1), order=7)
    L = conformal.leading_order_of_R(S)
    assert L.is_zero and L.order_max == 3
    # zero through W = 3 means k >= 4 > n - 4 (this read INCONCLUSIVE while
    # a zero series gave no verdict)
    assert conformal.classify_integrability(3, L) == conformal.INTEGRABLE


@pytest.mark.parametrize("W, verdict", [(3, conformal.INCONCLUSIVE), (4, conformal.INCONCLUSIVE),
                                        (5, conformal.INTEGRABLE)])
def test_zero_series_integrable_once_window_reaches_n_minus_4(W, verdict):
    S = GraphSurface.sphere(9, Fraction(1), order=W + 2)
    L = conformal.leading_order_of_R(S, W)
    assert L.is_zero and L.order_max == W
    assert conformal.classify_integrability(9, L) == verdict
    # an unbounded window certifies nothing about k
    unbounded = conformal.LeadingOrder(None, None, True)
    assert conformal.classify_integrability(9, unbounded) == conformal.INCONCLUSIVE


def test_leading_order_pure_quadratic():
    n = 3
    S = GraphSurface.polynomial(
        MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)), order=6
    )
    L = conformal.leading_order_of_R(S)
    # the 2-jet of the unit sphere alone leaves a nonzero tail at order >= 2
    if not L.is_zero:
        assert L.k >= 2


def test_classifier_table():
    mk = lambda k: conformal.LeadingOrder(k, None, False)  # noqa: E731
    assert conformal.classify_integrability(6, mk(2)) == conformal.NOT_INTEGRABLE
    assert conformal.classify_integrability(5, mk(2)) == conformal.INTEGRABLE
    assert conformal.classify_integrability(7, mk(4)) == conformal.INTEGRABLE
    assert conformal.classify_integrability(7, mk(3)) == conformal.NOT_INTEGRABLE
    # monotone in k
    for n in (3, 5, 7, 9):
        verdicts = [conformal.classify_integrability(n, mk(k)) for k in range(7)]
        first = next(
            (i for i, v in enumerate(verdicts) if v == conformal.INTEGRABLE),
            len(verdicts),
        )
        assert all(v == conformal.INTEGRABLE for v in verdicts[first:])


# -- numeric annulus probe ----------------------------------------------------------


def test_probe_agrees_with_classifier_cubic():
    # cubic perturbation: k = 2, marginal at n = 6 (divergent), convergent
    # at n = 5.
    for n, expected in ((5, conformal.INTEGRABLE), (6, conformal.NOT_INTEGRABLE)):
        S = GraphSurface.cubic_x1(n)
        shells = []
        for seed in (0, 1, 7):
            probe = conformal.integrability_probe(S, seed=seed)
            assert probe.verdict == expected
            shells.append(probe.shell_values)
        # the seed moves the random directions, hence the shell averages
        assert shells[0] != shells[1]
        L = conformal.leading_order_of_R(S)
        assert conformal.classify_integrability(n, L) == expected


def test_probe_flat_inconclusive():
    S = GraphSurface.flat(3)
    probe = conformal.integrability_probe(S)
    assert probe.verdict == conformal.INCONCLUSIVE


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_probe_sphere_inconclusive(n):
    # the sphere's conformal scalar is identically 0: every shell is
    # rounding noise (an absolute 1e-13 floor read not_integrable at
    # n = 5, 6, 7, slopes -1.02, -2.28, -3.14), yet each is reported
    S = GraphSurface.sphere(n)
    for seed in (0, 1, 7):
        probe = conformal.integrability_probe(S, seed=seed)
        assert probe.verdict == conformal.INCONCLUSIVE
        assert len(probe.shell_values) == len(probe.radii) == 5
        assert max(probe.shell_values) > 0.0


def test_probe_floor_margins():
    # mean |density| over the mean size of the terms that cancel in it:
    # <= 5.9e-14 on every sphere shell, >= 1.0e-9 on every cubic_x1 shell
    def ratios(S):
        for seed in (0, 1, 7):
            for s in (1e-1, 10**-1.75, 10**-2.5, 10**-3.25, 1e-4):
                x = s * sphere_directions(S.n, seed=seed)
                density, size = conformal.curvature_density_factor(S, x)
                yield float(np.mean(np.abs(density)) / np.mean(size))

    for n in range(3, 8):
        assert max(ratios(GraphSurface.sphere(n))) < conformal.ZERO_SHELL / 10
        assert min(ratios(GraphSurface.cubic_x1(n))) > conformal.ZERO_SHELL * 100


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_probe_agrees_with_classifier_quartic(n):
    # k = 4, slope 7 - n; the shells at s <= 10^-3.25 are below the floor
    # and left out of the fit
    S = GraphSurface.quartic_x1(n)
    expected = conformal.classify_integrability(n, conformal.leading_order_of_R(S))
    for seed in (0, 1, 7):
        probe = conformal.integrability_probe(S, seed=seed)
        assert probe.verdict == expected
        assert probe.slope == pytest.approx(7 - n, abs=0.05)
        slope, _, _ = power_law_fit(probe.radii[:3], probe.shell_values[:3])
        assert probe.slope == slope
        oracle = integrability_probe_pointwise(S, probe.radii, seed=seed)
        assert oracle.verdict == probe.verdict
        assert oracle.slope == pytest.approx(probe.slope, abs=1e-6)


def test_probe_slope_matches_prediction():
    # shell integrals scale like s^{k+3-n}; for the cubic fixture k=2.
    n = 4
    S = GraphSurface.cubic_x1(n)
    probe = conformal.integrability_probe(S)
    assert probe.slope == pytest.approx(2 + 3 - n, abs=0.15)
    assert probe.r_squared > 0.99


@pytest.mark.parametrize("n", [5, 6])
def test_probe_matches_pointwise_oracle(n):
    # one density call per shell against one per point: the shells moved
    # at most 4.2e-9 relative and the slope 4.9e-10 (seeds 0-5), the small
    # shells' cancellation amplifying the rows' rounding
    S = GraphSurface.cubic_x1(n)
    for seed in (0, 1, 7):
        probe = conformal.integrability_probe(S, seed=seed)
        oracle = integrability_probe_pointwise(S, probe.radii, seed=seed)
        assert probe.verdict == oracle.verdict
        assert probe.radii == oracle.radii
        assert np.allclose(probe.shell_values, oracle.shell_values, rtol=2e-8, atol=0)
        assert probe.slope == pytest.approx(oracle.slope, abs=2e-9)


@pytest.mark.parametrize("radii, match", [
    ((0.1,), "two distinct"),
    ((0.1, 0.1, 0.1), "two distinct"),
    ((0.1, -0.01), "finite and positive"),
    ((0.1, 0.0), "finite and positive"),
    ((0.1, math.nan), "finite and positive"),
    ((0.1, math.inf), "finite and positive"),
], ids=["one", "repeated", "negative", "zero", "nan", "inf"])
def test_probe_rejects_degenerate_radii(radii, match):
    # (0.1,) and (0.1, 0.1, 0.1) read not_integrable on the integrable
    # cubic (slope -1.969, R^2 1.0); a negative or NaN radius raised
    # LinAlgError from the fit.  The check comes before any evaluation.
    calls = []
    S = GraphSurface(5, f_num=lambda x: calls.append(x) or 0.0)
    with pytest.raises(ValueError, match=match):
        conformal.integrability_probe(S, radii=radii)
    assert calls == []
    with pytest.raises(ValueError, match=match):
        conformal.integrability_probe(GraphSurface.cubic_x1(5), radii=radii)
