"""Inversion charts, rescaled-metric components, the exact descending
series at infinity, and the numeric decay-order estimator."""

import math
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from umbilic import asymptotic as asym
from umbilic import numdiff
from umbilic.mass import DEFAULT_RADII
from umbilic.numdiff import Dual, power_law_fit
from umbilic.quadrature import QuadratureRule, sphere_directions
from umbilic.polyjet import Jet, MultiPoly, SphericalSeries
from umbilic.surface import GraphSurface

import flux_oracle as fo
import series_oracle as so
from generic_jets import generic_form
from poly_oracle import evaluate_series


def pure_quadratic_jet(n: int):
    """f = (H/2n)|x|^2 with symbolic H."""
    H = MultiPoly.param(n, "H")
    return Jet.of(MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n)), 7), H


def corrected_conformal_profile(f: Jet, order_min: int) -> SphericalSeries:
    """The factor (1 + |y|^2 f^2)^{-2} as a descending series in the
    corrected-chart radius, from the pieces the metric series use."""
    n, _, conf, _, c_poly = so.series_pieces(f.poly, order_min)
    sub = asym._RadialSubstitution(n, c_poly, order_min)
    return sub(conf).with_window(order_min, 0)


def full_matrix_series(f: Jet, chart_kind: str, order_min: int):
    """Oracle: every component of (rescaled metric - identity) as an exact
    descending series.  Builds the reflected gradient v = (I - 2 yhat
    yhat^T) grad f, forms g^y = conf (I + v v^T) entry by entry and, in the
    corrected chart, conjugates by dy/dz = phi (I - gamma zhat zhat^T)."""
    LO = order_min
    n, one, conf, grads, c_poly = so.series_pieces(f.poly, LO)
    zero = SphericalSeries.zero(n, LO, 0)
    rad = [SphericalSeries.from_term(-1, MultiPoly.var(n, i), LO, 0) for i in range(n)]
    dot = zero
    for i in range(n):
        dot = dot + rad[i] * grads[i]
    v = [grads[i] - (dot * rad[i]).scale(2) for i in range(n)]
    confm1 = conf - one
    hy = [
        [conf * v[i] * v[j] + (confm1 if i == j else zero) for j in range(n)]
        for i in range(n)
    ]
    if chart_kind == asym.INVERTED_Y:
        return [[hy[i][j].with_window(LO, 0) for j in range(n)] for i in range(n)]
    sub = asym._RadialSubstitution(n, c_poly, LO)
    G = [[sub(hy[i][j]) + (one if i == j else zero) for j in range(n)] for i in range(n)]
    a_ser = SphericalSeries.canonicalize(n, [(-2, c_poly)], LO, 0)
    gamma = a_ser * sub.power(-1)
    u = []
    for i in range(n):
        acc = zero
        for j in range(n):
            acc = acc + G[i][j] * rad[j]
        u.append(acc)
    q = zero
    for i in range(n):
        q = q + u[i] * rad[i]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = (
                G[i][j]
                - gamma * (rad[i] * u[j] + u[i] * rad[j])
                + gamma * gamma * q * rad[i] * rad[j]
            )
            entry = sub.base * entry
            if i == j:
                entry = entry - one
            row.append(entry.with_window(LO, 0))
        out.append(row)
    return out


# -- chart maps -----------------------------------------------------------------


def test_corrected_radial_identity():
    # t^2 = r^2 - c implies t dt = r dr along radial rays.
    ch = asym.Chart.corrected(5, 5.0)

    def t_of_r(r):
        return math.sqrt(r * r - ch.c)

    for r in (1.0, 3.0, 10.0, 100.0):
        h = 1e-5 * r
        d1 = (t_of_r(r + h) - t_of_r(r - h)) / (2.0 * h)
        d2 = (t_of_r(r + h / 2) - t_of_r(r - h / 2)) / h
        dtdr = (4.0 * d2 - d1) / 3.0
        assert abs(t_of_r(r) * dtdr - r) / r < 1e-10


def test_deviation_rejects_chart_origin():
    # the chart origin is the image of infinity, outside both charts' domain
    S = GraphSurface.sphere(3, Fraction(1), order=7)
    pts = np.array([[10.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    for ch in (asym.Chart.inverted(3), asym.chart_for(S, "z")):
        for deviation in (asym.ghat_deviation_batch, asym.ghat_deviation_form,
                          asym.ghat_deviation_derivatives):
            with pytest.raises(asym.ChartDomainError):
                deviation(S, ch, pts)


def test_chart_for_flags():
    S = GraphSurface.sphere(3, Fraction(1), order=7)
    assert asym.chart_for(S, "y").kind == asym.INVERTED_Y
    chz = asym.chart_for(S, "z")
    assert chz.kind == asym.CORRECTED_Z
    assert chz.H == pytest.approx(3.0)
    cubic = GraphSurface.cubic_x1(5)
    with pytest.raises(asym.ChartRequirementError):
        asym.chart_for(cubic, "z")
    with pytest.raises(ValueError):
        asym.chart_for(S, "w")


# -- numeric metric components ---------------------------------------------------


def test_flat_deviation_zero():
    S = GraphSurface.flat(3)
    ch = asym.Chart.inverted(3)
    pts = np.array([[10.0, 2.0, -1.0], [100.0, 0.0, 0.0]])
    dev = asym.ghat_deviation_batch(S, ch, pts)
    assert np.max(np.abs(dev)) == 0.0


def test_sphere_inverted_order_two():
    # deviation ~ (H^2/2n^2-ish constants) r^{-2} in the inverted chart
    n = 3
    S = GraphSurface.sphere(n, Fraction(1), order=9)
    ch = asym.Chart.inverted(n)
    d = np.array([0.6, -0.5, 0.4])
    d /= np.linalg.norm(d)
    mags = []
    for r in (100.0, 1000.0):
        dev = asym.ghat_deviation_batch(S, ch, (r * d)[None, :])[0]
        mags.append(np.max(np.abs(dev)))
    assert mags[0] / mags[1] == pytest.approx(100.0, rel=0.05)
    c = ch.H * 0.0 + S.n * S.n / (2.0 * n * n)  # H = n, so H^2/2n^2 = 1/2
    assert mags[0] * 100.0**2 == pytest.approx(c, rel=0.3)


def test_components_match_direct_pullback():
    # cross-check the cancellation-free path against the naive J^T G J
    # evaluation in float arithmetic at moderate radius.
    S = GraphSurface.quartic_x1(6)
    ch = asym.chart_for(S, "z")
    rng = np.random.default_rng(7)
    for _ in range(4):
        z = rng.standard_normal(6)
        z *= 5.0 / np.linalg.norm(z)
        G = np.eye(S.n) + asym.ghat_deviation_batch(S, ch, z[None, :])[0]

        def x_of(p):
            # z -> y = z sqrt(1 + c/|z|^2) -> x = y/|y|^2
            y = p * math.sqrt(1.0 + ch.c / float(p @ p))
            return y / float(y @ y)

        h = 1e-6
        J = np.empty((6, 6))
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            J[:, k] = (x_of(z + e) - x_of(z - e)) / (2.0 * h)
        x = x_of(z)
        gr = S.f_derivatives_batch(x, 1)[1][0]
        rho = float(x @ x) + S.f_value(x) ** 2
        amb = (np.eye(6) + np.outer(gr, gr)) / rho**2
        assert np.allclose(G, J.T @ amb @ J, rtol=1e-6, atol=1e-9)


def one_direction_derivative(S, chart, pts, k):
    """d_k (g - I) from a forward pass along e_k alone: every value part is
    recomputed for the one direction, the oracle for the all-directions
    pass of ghat_deviation_form."""
    n = pts.shape[1]
    a, ys, s, xs = asym._inverse_point(chart, pts)
    f, gr, hess = S.f_derivatives_batch(xs, order=2)
    e = np.zeros_like(pts)
    e[:, k] = 1.0
    a_k, ys_k, s_k, xs_k = asym._inverse_point(chart, Dual(pts, e))
    f_k = Dual(f, (gr * xs_k.d).sum(axis=1))
    gr_k = Dual(gr, np.einsum("pij,pj->pi", hess, xs_k.d))
    diag, coefs, vecs = asym._rank_one_form(chart, a_k, ys_k, s_k, f_k, gr_k)
    # product rule: d(c u u^T) = q u^T + u q^T with q = c du + (dc/2) u
    u = [w.v for w in vecs]
    q = [c.v[:, None] * w.d + 0.5 * c.d[:, None] * w.v for c, w in zip(coefs, vecs)]
    return fo.assemble(diag.d, q + u, u + q, n)


@pytest.mark.parametrize(
    "name,n,flag", [("sphere", 3, "y"), ("cubic_x1", 4, "y"), ("quartic_x1", 6, "z")]
)
def test_all_directions_pass_matches_one_direction(name, n, flag):
    S = GraphSurface.builtin(name, n)
    ch = asym.chart_for(S, flag)
    dirs = QuadratureRule.sphere(n, 6).nodes
    for r in (10.0, 1000.0):
        pts = r * dirs
        # every depth's value parts are the depth-0 arrays, bit for bit
        forms = [asym.ghat_deviation_form(S, ch, pts, depth) for depth in (0, 1, 2)]
        for depth, (diag, coefs, vecs) in enumerate(forms):
            for got, want in zip([diag, *coefs, *vecs], [forms[0][0], *forms[0][1], *forms[0][2]]):
                for _ in range(depth):
                    got = got.v
                assert np.array_equal(got, want), (r, depth)
        diag, coefs, vecs = forms[1]
        dev = asym._assemble_form(diag.v, [c.v[:, None] * w.v for c, w in zip(coefs, vecs)],
                                  [w.v for w in vecs], n)
        assert np.array_equal(dev, asym.ghat_deviation_batch(S, ch, pts))
        derivative = fo.form_derivatives(diag, coefs, vecs, n)
        for k in range(n):
            ref = one_direction_derivative(S, ch, pts, k)
            assert np.max(np.abs(derivative(k) - ref)) <= 1e-14 * np.max(np.abs(ref)), (r, k)


SECOND_ORDER_CASES = [("sphere", 3, "y"), ("cubic_x1", 4, "y"), ("quartic_x1", 6, "z")]


@pytest.mark.parametrize("name,n,flag", SECOND_ORDER_CASES)
def test_second_order_pass_first_derivatives_match_form(name, n, flag):
    # the nested pass gives ghat_deviation_batch's values to the bit and the
    # order-1 pass's first derivatives to rounding, which in chart z grows
    # like t^2 eps (measured: <= 4.3e-16 in chart y; 3.2e-15, 1.6e-13 and
    # 1.4e-11 at t = 10, 100 and 1000 in chart z)
    S = GraphSurface.builtin(name, n)
    ch = asym.chart_for(S, flag)
    dirs = sphere_directions(n, seed=4)
    for r in (10.0, 100.0, 1000.0):
        pts = r * dirs
        h, dh, _ = asym.ghat_deviation_derivatives(S, ch, pts)
        assert np.array_equal(h, asym.ghat_deviation_batch(S, ch, pts))
        derivative = fo.form_derivatives(*asym.ghat_deviation_form(S, ch, pts), n)
        ref = np.stack([derivative(k) for k in range(n)])
        tol = 1e-14 + (2e-16 * r * r if flag == "z" else 0.0)
        assert np.max(np.abs(dh - ref)) <= tol * np.max(np.abs(ref)), r


@pytest.mark.parametrize("name,n,flag", SECOND_ORDER_CASES)
def test_second_order_pass_matches_difference_of_first_derivatives(name, n, flag):
    # d_j d_k h against a central difference along e_j of the exact d_k h,
    # step 1e-5 t.  Measured: <= 5.5e-10 relative in chart y; 7.5e-10,
    # 2.1e-8 and 1.5e-6 at t = 10, 100 and 1000 in chart z, where the
    # difference divides the first derivatives' t^2 eps rounding by the step
    S = GraphSurface.builtin(name, n)
    ch = asym.chart_for(S, flag)
    dirs = sphere_directions(n, seed=4)
    for r in (10.0, 100.0, 1000.0):
        pts, step, e = r * dirs, 1e-5 * r, np.eye(n)
        _, _, ddh = asym.ghat_deviation_derivatives(S, ch, pts)
        assert ddh.shape == (n, n, len(pts), n, n)
        first = [asym.ghat_deviation_derivatives(S, ch, pts + sign * step * e[j])[1]
                 for j in range(n) for sign in (1.0, -1.0)]
        ref = np.stack([(first[2 * j] - first[2 * j + 1]) / (2.0 * step) for j in range(n)])
        tol = 1e-8 + (1e-11 * r * r if flag == "z" else 0.0)
        assert np.max(np.abs(ddh - ref)) <= tol * np.max(np.abs(ddh)), r


# -- symbolic series -------------------------------------------------------------


def test_series_rejects_cubic():
    n = 4
    p = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + MultiPoly.var(n, 0) ** 3
    with pytest.raises(asym.ChartRequirementError):
        asym.ghat_radial_trace_series(Jet.of(p, 7))


def series_or_refusal(fn, f, kind, order_min):
    try:
        return fn(f, kind, order_min)
    except asym.ChartRequirementError:
        return "refused"


@pytest.mark.parametrize("name", ["sphere", "quartic_x1", "cubic_x1"])
@pytest.mark.parametrize("n", [3, 5, 7])
def test_trace_series_matches_gradient_oracle_builtins(name, n):
    # p and G from Euler's identity against the n per-coordinate gradient
    # series contracted in the series ring; cubic_x1 is refused in chart z
    f = GraphSurface.builtin(name, n).f_jet
    for kind in (asym.INVERTED_Y, asym.CORRECTED_Z):
        for order_min in (-5, -7):
            got = series_or_refusal(asym.ghat_radial_trace_series, f, kind, order_min)
            assert got == series_or_refusal(so.ghat_radial_trace_series, f, kind, order_min)
            assert (got == "refused") is (name == "cubic_x1" and kind == asym.CORRECTED_Z)


@pytest.mark.parametrize("n, kind, order_min", [
    (6, asym.INVERTED_Y, -5), (6, asym.INVERTED_Y, -6),
    (7, asym.INVERTED_Y, -5), (7, asym.INVERTED_Y, -6),
    (6, asym.CORRECTED_Z, -5), (7, asym.CORRECTED_Z, -5),
])
def test_trace_series_matches_gradient_oracle_generic(n, kind, order_min):
    # symbolic H and one parameter per quartic and quintic monomial
    H = MultiPoly.param(n, "H")
    poly = (MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
            + generic_form(n, 4, "a") + generic_form(n, 5, "b"))
    f = Jet.of(poly, 7)
    assert (asym.ghat_radial_trace_series(f, kind, order_min)
            == so.ghat_radial_trace_series(f, kind, order_min))


def test_inverse_conformal_profile_quadratic():
    # (1 + |y|^2 f^2)^{-2} = 1 - c t^{-2} + (7H^4/16n^4) t^{-4} + O(t^{-6})
    # in the corrected chart when only the quadratic term is present.
    n = 3
    f, H = pure_quadratic_jet(n)
    prof = corrected_conformal_profile(f, -5)
    expected = SphericalSeries.canonicalize(
        n,
        [
            (0, MultiPoly.const(n, 1)),
            (-2, (H * H).scale(Fraction(-1, 2 * n * n))),
            (-4, (H**4).scale(Fraction(7, 16 * n**4))),
        ],
        -5,
        0,
    )
    assert prof == expected


def test_inverse_conformal_profile_generic():
    # with quartic and quintic coefficients the t^{-4} and t^{-5} terms
    # pick up -2H/n times the restricted coefficient functions.
    n = 3
    H = MultiPoly.param(n, "H")
    A4 = generic_form(n, 4, "a")
    A5 = generic_form(n, 5, "b")
    poly = MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n)) + A4 + A5
    prof = corrected_conformal_profile(Jet.of(poly, 7), -5)
    expected = SphericalSeries.canonicalize(
        n,
        [
            (0, MultiPoly.const(n, 1)),
            (-2, (H * H).scale(Fraction(-1, 2 * n * n))),
            (-4, (H**4).scale(Fraction(7, 16 * n**4))),
            (-8, (H * A4).scale(Fraction(-2, n))),
            (-10, (H * A5).scale(Fraction(-2, n))),
        ],
        -5,
        0,
    )
    assert prof == expected


def test_series_leading_order_four():
    # every component of the corrected-chart deviation is O(t^{-4})
    for n in (3, 5):
        f, H = pure_quadratic_jet(n)
        hz = full_matrix_series(f, asym.CORRECTED_Z, -5)
        for i in range(n):
            for j in range(n):
                for w in (-1, -2, -3):
                    assert hz[i][j].coefficient(w).is_zero


def test_series_order_four_coefficient():
    # h_ij = (3H^4/16n^4) t^{-4} delta_ij - (3H^4/4n^4) t^{-6} z_i z_j + ...
    n = 3
    f, H = pure_quadratic_jet(n)
    hz = full_matrix_series(f, asym.CORRECTED_Z, -5)
    c4 = (H**4).scale(Fraction(3, 16 * n**4))
    c6 = (H**4).scale(Fraction(-3, 4 * n**4))
    for i in range(n):
        for j in range(n):
            terms = [(-2, c6 * MultiPoly.var(n, i) * MultiPoly.var(n, j))]
            if i == j:
                terms.append((0, c4))
            expected = SphericalSeries.canonicalize(n, terms, 0, 0)
            assert hz[i][j].coefficient(-4) == expected
            assert hz[i][j].coefficient(-5).is_zero


@pytest.mark.parametrize(
    "n, order_min, generic",
    [(4, -5, False), (3, -7, True), (4, -5, True)],
    ids=["x0_quartic_n4_w5", "generic_n3_w7", "generic_n4_w5"],
)
def test_trace_series_matches_full_matrix(n, order_min, generic):
    # the package's g_tt and trace against contractions of the oracle's full
    # matrix; generic cases carry one parameter per quartic and quintic
    # monomial, as in criterion 8
    H = MultiPoly.param(n, "H")
    poly = MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
    if generic:
        poly = poly + generic_form(n, 4, "a") + generic_form(n, 5, "b")
    else:
        poly = poly + MultiPoly.var(n, 0) ** 4
    f = Jet.of(poly, 7)
    one = SphericalSeries.one(n, order_min, 0)
    rad = [
        SphericalSeries.from_term(-1, MultiPoly.var(n, i), order_min, 0)
        for i in range(n)
    ]
    for kind in (asym.INVERTED_Y, asym.CORRECTED_Z):
        hz = full_matrix_series(f, kind, order_min)
        gtt, tr = asym.ghat_radial_trace_series(f, kind, order_min)
        gtt2 = SphericalSeries.zero(n, order_min, 0)
        tr2 = SphericalSeries.zero(n, order_min, 0)
        for i in range(n):
            tr2 = tr2 + hz[i][i] + one
            for j in range(n):
                gtt2 = gtt2 + rad[i] * rad[j] * hz[i][j]
        gtt2 = gtt2 + one
        assert gtt == gtt2
        assert tr == tr2


def test_radial_minus_trace_expansion_generic():
    # g_tt - sum_a g_aa = -(n-1)[1 + (3H^4/16n^4 - 2H/n A4) t^{-4}
    #                              - (2H/n) A5 t^{-5}] + O(t^{-6})
    n = 3
    H = MultiPoly.param(n, "H")
    A4 = generic_form(n, 4, "a")
    A5 = generic_form(n, 5, "b")
    poly = MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n)) + A4 + A5
    gtt, tr = asym.ghat_radial_trace_series(Jet.of(poly, 7), asym.CORRECTED_Z, -5)
    diff = gtt - tr
    assert diff.coefficient(0) == SphericalSeries.canonicalize(
        n, [(0, MultiPoly.const(n, 1 - n))], 0, 0
    )
    for w in (-1, -2, -3):
        assert diff.coefficient(w).is_zero
    c4 = SphericalSeries.canonicalize(
        n,
        [
            (0, (H**4).scale(Fraction(-3 * (n - 1), 16 * n**4))),
            (-4, (H * A4).scale(Fraction(2 * (n - 1), n))),
        ],
        0,
        0,
    )
    c5 = SphericalSeries.canonicalize(
        n, [(-5, (H * A5).scale(Fraction(2 * (n - 1), n)))], 0, 0
    )
    assert diff.coefficient(-4) == c4
    assert diff.coefficient(-5) == c5


def test_series_matches_numeric_sphere():
    # the exact series evaluated at concrete points vs the closed-form
    # numeric components, sphere of radius 1 (H = n, quartic tail).
    n = 3
    S = GraphSurface.sphere(n, Fraction(1), order=11)
    hz = full_matrix_series(S.f_jet, asym.CORRECTED_Z, -5)
    ch = asym.chart_for(S, "z")
    rng = np.random.default_rng(3)
    for t, tol in ((10.0, 1e-3), (100.0, 1e-5)):
        for _ in range(3):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            z = t * d
            num = asym.ghat_deviation_batch(S, ch, z[None, :])[0]
            ser = np.array(
                [[evaluate_series(hz[i][j], list(z)) for j in range(n)] for i in range(n)]
            )
            scale = np.max(np.abs(num))
            assert np.max(np.abs(num - ser)) < tol * scale


def test_series_residual_slope():
    # the numeric-minus-series residual must decay at least like t^{-6}
    n = 3
    S = GraphSurface.sphere(n, Fraction(1), order=11)
    hz = full_matrix_series(S.f_jet, asym.CORRECTED_Z, -5)
    ch = asym.chart_for(S, "z")
    d = np.array([0.5, -0.7, 0.4])
    d /= np.linalg.norm(d)
    ts = [10.0, 30.0, 100.0, 300.0]
    res = []
    for t in ts:
        z = t * d
        num = asym.ghat_deviation_batch(S, ch, z[None, :])[0]
        ser = np.array(
            [[evaluate_series(hz[i][j], list(z)) for j in range(n)] for i in range(n)]
        )
        res.append(float(np.max(np.abs(num - ser))))
    slope, _, _ = power_law_fit(ts, res)
    assert slope <= -5.8


@pytest.mark.parametrize("n", [6, 7])
def test_corrected_radial_minus_trace_matches_series(n):
    # g_tt - tr of the corrected-chart pull-back against the exact series
    # (window -7, its constant 1 - n removed exactly) at every default mass
    # radius.  Series truncation sets the error at t <= 100; beyond that the
    # cancelling O(t^-2) pieces leave about 4e-10 at t = 1000.
    S = GraphSurface.quartic_x1(n)
    ch = asym.chart_for(S, "z")
    gtt, tr = asym.ghat_radial_trace_series(S.f_jet, asym.CORRECTED_Z, -7)
    series = gtt - tr + SphericalSeries.one(n, -7, 0).scale(n - 1)
    dirs = sphere_directions(n, count=64, seed=3)
    for t, tol in zip(DEFAULT_RADII, (1e-3, 1e-5, 1e-7, 1e-8, 1e-8)):
        dev = asym.ghat_deviation_batch(S, ch, t * dirs)
        num = np.einsum("pij,pi,pj->p", dev, dirs, dirs) - np.einsum("pii->p", dev)
        ref = np.array([evaluate_series(series, list(t * d)) for d in dirs])
        assert np.max(np.abs(num - ref)) <= tol * np.max(np.abs(ref))


# -- decay-order estimation -------------------------------------------------------


RADII = [10.0, 10**1.5, 100.0, 10**2.5, 1000.0]


def test_decay_flat_infinite():
    S = GraphSurface.flat(3)
    fit = asym.decay_order_estimate(S, asym.Chart.inverted(3), [10.0, 100.0, 1000.0])
    assert fit.tau_hat == math.inf


def test_decay_sphere_inverted():
    S = GraphSurface.sphere(3, Fraction(1), order=9)
    fit = asym.decay_order_estimate(S, asym.chart_for(S, "y"), RADII)
    assert 1.9 <= fit.tau_hat <= 2.1
    assert fit.r_squared >= 0.99
    # derivative decay one and two orders faster (tolerance 0.2)
    assert fit.slope_dh <= -(fit.tau_hat + 1.0) + 0.2
    assert fit.slope_ddh <= -(fit.tau_hat + 2.0) + 0.2


def test_decay_quartic_corrected():
    S = GraphSurface.quartic_x1(6)
    fit = asym.decay_order_estimate(S, asym.chart_for(S, "z"), RADII)
    assert fit.tau_hat >= 3.8
    assert fit.r_squared >= 0.99


def test_decay_cubic_inverted_still_order_two():
    # umbilicity alone gives order 2 in the inverted chart, cubic or not
    S = GraphSurface.cubic_x1(5)
    fit = asym.decay_order_estimate(S, asym.chart_for(S, "y"), RADII)
    assert 1.8 <= fit.tau_hat <= 2.25
    assert fit.r_squared >= 0.99


def test_decay_fit_serialization():
    S = GraphSurface.sphere(3, Fraction(1), order=7)
    fit = asym.decay_order_estimate(S, asym.chart_for(S, "y"), [10.0, 100.0, 1000.0])
    blob = fit.to_json()
    assert blob["chart"] == asym.INVERTED_Y
    assert len(blob["radii"]) == 3
    rows = fit.csv_rows()
    assert rows[0] == ["radius", "max_h", "max_dh", "max_ddh"]
    assert len(rows) == 4


def decay_oracle(S, chart, radii, seed=0):
    """decay_order_estimate's JSON with its derivatives from a central
    difference (step 1e-4 times the radius) spelt out point set by point
    set: one ghat_deviation_batch call per shifted copy of the grid."""
    radii = sorted(float(r) for r in radii)
    dirs, n, mags = sphere_directions(S.n, seed=seed), S.n, ([], [], [])
    for r in radii:
        x, h = r * dirs, 1e-4 * r

        def at(*steps):
            y = x.copy()
            for k, step in steps:
                y[:, k] += step
            return asym.ghat_deviation_batch(S, chart, y)

        F0 = at()
        d1 = [(at((k, h)) - at((k, -h))) / (2.0 * h) for k in range(n)]
        d2 = [(at((k, h)) - 2.0 * F0 + at((k, -h))) / h**2 for k in range(n)]
        d2 += [(at((k, h), (l, h)) - at((k, h), (l, -h)) - at((k, -h), (l, h))
                + at((k, -h), (l, -h))) / (4.0 * h**2) for k, l in combinations(range(n), 2)]
        for out, parts in zip(mags, ([F0], d1, d2)):
            out.append(max(float(np.max(np.abs(p))) for p in parts))
    (s_h, _, r2), (s_dh, _, _), (s_ddh, _, _) = (power_law_fit(radii, m) for m in mags)
    return {"chart": chart.kind, "radii": radii, "max_h": mags[0], "max_dh": mags[1],
            "max_ddh": mags[2], "slope_h": s_h, "slope_dh": s_dh, "slope_ddh": s_ddh,
            "tau_hat": -s_h, "r_squared": r2}


@pytest.mark.parametrize("builtin, n, flag", [
    ("sphere", 4, "y"), ("cubic_x1", 5, "y"), ("quartic_x1", 6, "z"),
])
def test_decay_fit_matches_point_set_oracle(builtin, n, flag):
    # max |h| and all that is fitted from it is the oracle's to the bit; the
    # exact derivative maxima agree with the central difference to its own
    # error (measured: dh <= 2.9e-8 relative in chart y and 1.7e-7 in chart
    # z, ddh <= 3.8e-8 and 3.3e-4, where the difference's eps/h^2 term
    # dominates; slopes <= 5.4e-5 apart)
    S = GraphSurface.builtin(builtin, n)
    chart = asym.chart_for(S, flag)
    fit = asym.decay_order_estimate(S, chart, DEFAULT_RADII, seed=2).to_json()
    ref = decay_oracle(S, chart, DEFAULT_RADII, seed=2)
    for key in ("chart", "radii", "max_h", "slope_h", "tau_hat", "r_squared"):
        assert fit[key] == ref[key], key
    for key, tol in (("max_dh", 1e-6), ("max_ddh", 1e-6 if flag == "y" else 1e-3)):
        assert np.allclose(fit[key], ref[key], rtol=tol, atol=0.0), key
    for key in ("slope_dh", "slope_ddh"):
        assert fit[key] == pytest.approx(ref[key], abs=1e-4), key


def test_decay_fit_takes_no_finite_difference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the decay fit took a finite difference")

    monkeypatch.setattr(numdiff, "metric_derivatives", refuse)
    for name, n, flag in (("sphere", 3, "y"), ("quartic_x1", 6, "z")):
        S = GraphSurface.builtin(name, n)
        fit = asym.decay_order_estimate(S, asym.chart_for(S, flag), DEFAULT_RADII)
        assert math.isfinite(fit.tau_hat) and math.isfinite(fit.slope_ddh)


@pytest.mark.parametrize("radii", [[-10.0, -100.0, -1000.0], [10.0, 0.0], [10.0, math.inf],
                                   [10.0, math.nan]])
def test_decay_refuses_non_finite_or_non_positive_radii(radii, capfd):
    # negative radii used to reach the fit, where LAPACK printed "On entry to
    # DLASCL parameter number 5 had an illegal value" and raised LinAlgError
    S = GraphSurface.sphere(3)
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        asym.check_decay_radii(radii)
    with pytest.raises(ValueError, match="radii must be finite and positive"):
        asym.decay_order_estimate(S, asym.chart_for(S, "y"), radii)
    assert capfd.readouterr().err == ""


def test_decay_radii_out_of_float64_range():
    S = GraphSurface.sphere(3)
    chart = asym.chart_for(S, "y")
    # the radius squared, the chart's |z|^2, overflows
    with pytest.raises(ValueError, match="too large"):
        asym.check_decay_radii([10.0, 1e200])
    with pytest.raises(ValueError, match="too large"):
        asym.decay_order_estimate(S, chart, [10.0, 1e200])
    # the second derivative underflows to 0: no log-log fit, no NaN slope
    with pytest.raises(ValueError, match=r"max \|ddh\| is 0.0 at radius 1e\+100"):
        asym.decay_order_estimate(S, chart, [10.0, 1e100])
    # the flat sentinel is unchanged at any radius the chart can take
    fit = asym.decay_order_estimate(GraphSurface.flat(3), chart, [10.0, 1e100])
    assert fit.tau_hat == math.inf
