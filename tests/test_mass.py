"""Mass integrals: calibration fixture, finite-radius flux values,
power-law extrapolation, and the exact symbolic cancellation that forces
the mass of the inverted hypersurface to vanish."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from umbilic import asymptotic as asym
from umbilic import mass as mm
from umbilic import numdiff
from umbilic import quadrature
from umbilic.obstruction import sphere_integral_series
from umbilic.polyjet import Jet, MultiPoly
from umbilic.quadrature import QuadratureRule, default_degree, sphere_area
from umbilic.surface import GraphSurface

import flux_oracle as fo
from generic_jets import generic_form
from geometry_oracle import sphere_numeric


def fake_estimates(radii, values, formula=mm.STANDARD, chart=asym.INVERTED_Y):
    return [
        mm.MassEstimate(float(r), float(v), formula, chart, 8, 0)
        for r, v in zip(radii, values)
    ]


# -- normalization and the calibration fixture ----------------------------------


def test_normalization_dimension_three():
    # 2 (n-1) |S^2| = 16 pi in dimension 3
    assert mm.mass_normalization(3) == pytest.approx(1.0 / (16.0 * math.pi))


def test_schwarzschild_recovery_at_large_radius():
    # the conformal factor is radial, so a low-degree rule is exact
    rule = QuadratureRule.sphere(3, 8)
    src = mm.SchwarzschildField(mass=0.5)
    std = mm.adm_mass_standard(src, None, 1000.0, rule)
    lp = mm.adm_mass_lee_parker(src, None, 1000.0, rule)
    assert abs(std.value - 0.5) < 1e-3
    assert abs(lp.value - 0.5) < 1e-3
    assert abs(std.value - lp.value) < 1e-3
    # the finite-radius biases have known signs and sizes: roughly
    # -m^2/(2r) for the flux form and +3m^2/(2r) for the radial form
    assert std.value == pytest.approx(0.5 - 0.125e-3, rel=1e-3)
    assert lp.value == pytest.approx(0.5 + 0.375e-3, rel=1e-3)


def test_schwarzschild_extrapolates_to_mass():
    rule = QuadratureRule.sphere(3, 8)
    src = mm.SchwarzschildField(mass=1.0)
    for formula in (mm.STANDARD, mm.LEE_PARKER):
        sweep = mm.mass_sweep(src, None, mm.DEFAULT_RADII, formula, rule)
        fit = mm.extrapolate_mass(sweep)
        assert abs(fit.m_inf - 1.0) < 1e-3
        assert fit.decay_exponent == pytest.approx(1.0, abs=0.1)
        assert fit.fit_quality > 0.999


def test_schwarzschild_horizon_guard():
    src = mm.SchwarzschildField(mass=2.0)
    with pytest.raises(ValueError):
        src.deviation_batch(np.array([[0.5, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        src.radial_trace_batch(0.5, np.eye(3))


def test_schwarzschild_only_on_r3():
    # (1 + m/2r)^4 delta is the calibrated metric only on R^3
    assert mm.SchwarzschildField(mass=1.0, n=3).n == 3
    for n in (2, 4, 5):
        with pytest.raises(ValueError):
            mm.SchwarzschildField(mass=1.0, n=n)


def test_fit_radii_checked_before_any_sweep():
    mm.check_fit_radii([10.0, 30.0, 100.0, 300.0])
    for radii in (
        [10.0, 100.0, 1000.0],
        [10.0, 10.0, 10.0, 1000.0],
        [10.0, 20.0, 30.0, 40.0],
    ):
        with pytest.raises(ValueError):
            mm.check_fit_radii(radii)
        with pytest.raises(ValueError):
            mm.extrapolate_mass(fake_estimates(radii, [1.0, 2.0, 3.0, 4.0]))


def test_sweep_radii_keep_the_area_factor_finite():
    # r^(n-1) of 1e160 overflows at n = 3; the estimate refuses the radius
    # with a ValueError instead of dying in an OverflowError
    S = GraphSurface.sphere(3)
    mm.check_sweep_radii([10.0, 1e150], 3)
    for radii, n in (([10.0, 1e160], 3), ([1e80], 6), ([10.0, 0.0], 3), ([10.0, math.inf], 3),
                     ([10.0, math.nan], 3)):
        with pytest.raises(ValueError):
            mm.check_sweep_radii(radii, n)
    with pytest.raises(ValueError, match="r\\^2 overflows"):
        mm.mass_sweep(S, asym.chart_for(S, "y"), [10.0, 31.6, 100.0, 316.0, 1e160],
                      rule=QuadratureRule.sphere(3, 4))


def test_sweep_refuses_non_finite_radii():
    # an infinite or NaN radius used to give a NaN estimate
    S = GraphSurface.sphere(3)
    chart, rule = asym.chart_for(S, "y"), QuadratureRule.sphere(3, 4)
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="radii must be finite"):
            mm.mass_sweep(S, chart, [10.0, bad], mm.STANDARD, rule)


def test_surface_source_requires_chart():
    S = GraphSurface.sphere(3)
    rule = QuadratureRule.sphere(3, 8)
    for fn in (mm.adm_mass_standard, mm.adm_mass_lee_parker):
        with pytest.raises(ValueError, match="chart is required"):
            fn(S, None, 10.0, rule)


# -- finite-radius values on surfaces -------------------------------------------


def test_flat_surface_mass_exactly_zero():
    S = GraphSurface.flat(4)
    ch = asym.Chart.inverted(4)
    rule = QuadratureRule.sphere(4, 8)
    assert mm.adm_mass_standard(S, ch, 50.0, rule).value == 0.0
    assert mm.adm_mass_lee_parker(S, ch, 50.0, rule).value == 0.0


def test_sphere_inverted_mass_vanishes():
    S = GraphSurface.sphere(3)
    ch = asym.Chart.inverted(3)
    rule = QuadratureRule.sphere(3, 16)
    single = mm.adm_mass_standard(S, ch, 100.0, rule)
    assert abs(single.value) < 1e-4
    sweep = mm.mass_sweep(S, ch, mm.DEFAULT_RADII, mm.STANDARD, rule)
    fit = mm.extrapolate_mass(sweep)
    assert abs(fit.m_inf) < 1e-6


def test_quartic_corrected_lee_parker():
    S = GraphSurface.quartic_x1(6)
    ch = asym.chart_for(S, "z")
    rule = QuadratureRule.sphere(6, 12)
    sweep = mm.mass_sweep(S, ch, mm.DEFAULT_RADII, mm.LEE_PARKER, rule)
    mags = [abs(e.value) for e in sweep]
    # the integrand decays, so the estimates shrink monotonically
    assert all(b < a for a, b in zip(mags, mags[1:]))
    fit = mm.extrapolate_mass(sweep)
    assert abs(fit.m_inf) < 1e-2
    assert fit.decay_exponent == pytest.approx(2.0, abs=0.5)
    assert fit.fit_quality > 0.99


def test_formulas_agree_on_quartic():
    S = GraphSurface.quartic_x1(6)
    ch = asym.chart_for(S, "z")
    rule = QuadratureRule.sphere(6, 12)
    std = mm.adm_mass_standard(S, ch, 100.0, rule)
    lp = mm.adm_mass_lee_parker(S, ch, 100.0, rule)
    assert abs(std.value - lp.value) < 1e-3


# -- the sweep's walk over rule degrees ---------------------------------------------


@pytest.mark.parametrize("n", [6, 7])
def test_walk_does_not_stop_on_quartic_low_rungs(n):
    # in chart z the degree-6 rule is 6-8% off at these radii, so the walk
    # must climb past it
    S = GraphSurface.quartic_x1(n)
    sweep = mm.mass_sweep(S, asym.chart_for(S, "z"), [10.0, 10.0**1.5, 100.0], mm.LEE_PARKER)
    degrees = [e.quad_degree for e in sweep]
    assert min(degrees) >= 8, degrees


def quintic_n5() -> GraphSurface:
    """|x|^2/2 + x_3^4 + x_1 x_5^3 + x_1 x_2^2 x_4^2 / 2: at r = 100 in chart
    y its Lee-Parker rungs of degree 4 and 6 agree to 2.7e-6 relative by
    chance, while degree 6 is 1.1e-5 off (the 6 -> 8 step)."""
    x = [MultiPoly.var(5, i) for i in range(5)]
    p = (MultiPoly.x_norm_sq(5).scale(Fraction(1, 2)) + x[2] ** 4 + x[0] * x[4] ** 3
         + (x[0] * x[1] ** 2 * x[3] ** 2).scale(Fraction(1, 2)))
    return GraphSurface.polynomial(p, name="quintic")


WALK_CASES = [
    ("sphere", 3, "y", mm.STANDARD, mm.DEFAULT_RADII),
    ("sphere", 4, "y", mm.STANDARD, mm.DEFAULT_RADII),
    ("sphere", 5, "y", mm.STANDARD, mm.DEFAULT_RADII),
    ("cubic_x1", 4, "y", mm.STANDARD, mm.DEFAULT_RADII),
    ("cubic_x1", 4, "y", mm.LEE_PARKER, mm.DEFAULT_RADII),
    ("cubic_x1", 5, "y", mm.STANDARD, mm.DEFAULT_RADII),
    ("cubic_x1", 5, "y", mm.LEE_PARKER, mm.DEFAULT_RADII),
    ("cubic_x1", 6, "y", mm.LEE_PARKER, mm.DEFAULT_RADII),
    ("quintic", 5, "y", mm.LEE_PARKER, mm.DEFAULT_RADII),
    # beyond r = 100 chart z rounds at 1e-4 to 1e-3 (ROADMAP item 2)
    ("quartic_x1", 6, "z", mm.LEE_PARKER, mm.DEFAULT_RADII[:3]),
    ("quartic_x1", 7, "z", mm.LEE_PARKER, mm.DEFAULT_RADII[:3]),
    ("schwarzschild", 3, None, mm.STANDARD, mm.DEFAULT_RADII),
    ("schwarzschild", 3, None, mm.LEE_PARKER, mm.DEFAULT_RADII),
]


@pytest.mark.parametrize("name,n,flag,formula,radii", WALK_CASES)
def test_walk_matches_the_cap_rule(name, n, flag, formula, radii):
    # each chosen estimate against the same formula on the cap rule;
    # measured at most 1.0e-6 relative (cubic_x1 n = 5, Lee-Parker, r = 10)
    if name == "schwarzschild":
        src, ch = mm.SchwarzschildField(mass=0.5), None
    else:
        src = quintic_n5() if name == "quintic" else GraphSurface.builtin(name, n)
        ch = asym.chart_for(src, flag)
    # from n = 6 the rules are fully symmetric, and the product rule of the
    # cap's degree is a second reference
    cap = QuadratureRule.sphere(n)
    caps = [cap]
    if n >= quadrature.SYMMETRIC_FROM:
        caps.append(product_cap(n))
    fn = {mm.STANDARD: mm.adm_mass_standard, mm.LEE_PARKER: mm.adm_mass_lee_parker}[formula]
    for e in mm.mass_sweep(src, ch, radii, formula):
        for ref in (fn(src, ch, e.radius, c).value for c in caps):
            assert abs(e.value - ref) <= mm.QUAD_TOL * abs(ref), (e.radius, e.quad_degree)
        assert e.quad_degree <= cap.degree
        assert e.quad_nodes == len(QuadratureRule.sphere(n, e.quad_degree).weights)


def product_cap(n: int) -> QuadratureRule:
    """The product rule of degree default_degree(n), whatever n."""
    d = default_degree(n)
    return QuadratureRule(n, *quadrature._product_rule(n, d // 2), d)


@pytest.mark.parametrize("n", [6, 7])
@pytest.mark.parametrize("formula", [mm.STANDARD, mm.LEE_PARKER])
def test_symmetric_cap_matches_the_product_cap(n, formula):
    # the two rule families at the cap degree, on the quartic in chart z;
    # measured at most 5.9e-7 relative (n = 7, standard, r = 100; 3.3e-7 for
    # Lee-Parker)
    S = GraphSurface.quartic_x1(n)
    ch = asym.chart_for(S, "z")
    fn = {mm.STANDARD: mm.adm_mass_standard, mm.LEE_PARKER: mm.adm_mass_lee_parker}[formula]
    symmetric, product = QuadratureRule.sphere(n), product_cap(n)
    assert len(symmetric.weights) * 5 < len(product.weights)
    for r in (10.0, 10.0**1.5, 100.0):
        ref = fn(S, ch, r, product).value
        assert abs(fn(S, ch, r, symmetric).value - ref) <= 1e-6 * abs(ref), r


@pytest.fixture
def builds(monkeypatch):
    """The (n, j) of each rule the builders make during the test, on an
    empty rule cache."""
    built = []
    for name in ("_product_rule", "_symmetric_rule"):
        build = getattr(quadrature, name)
        monkeypatch.setattr(quadrature, name,
                            lambda n, j, build=build: built.append((n, j)) or build(n, j))
    quadrature._rule_arrays.cache_clear()
    yield built
    quadrature._rule_arrays.cache_clear()


def test_sweep_builds_each_rule_once(monkeypatch, builds):
    # the rules live in one cache for the process: over five radii each
    # builder runs once per (n, half-degree), though each radius asks for
    # the rungs it walks again
    asked = []
    sphere = QuadratureRule.sphere

    def asking(n, d=None):
        asked.append((n, d))
        return sphere(n, d)

    monkeypatch.setattr(QuadratureRule, "sphere", staticmethod(asking))
    for S, flag in [(GraphSurface.sphere(3), "y"), (GraphSurface.quartic_x1(6), "z")]:
        mm.mass_sweep(S, asym.chart_for(S, flag), mm.DEFAULT_RADII, mm.LEE_PARKER)
    assert {n for n, _ in builds} == {3, 6}
    assert sorted(builds) == sorted({(n, d // 2) for n, d in asked})
    assert len(asked) > len(builds)


@pytest.mark.parametrize("name,n,flag,formula,degree,radii", [
    ("quartic_x1", 7, "z", mm.LEE_PARKER, 13, mm.DEFAULT_RADII),
    ("sphere", 3, "y", mm.STANDARD, 7, mm.DEFAULT_RADII),
    # rungs 4 and 6 agree by chance at r = 100 (quintic_n5), so the walk
    # climbs to the last rung below the cap of degree 9
    ("quintic", 5, "y", mm.LEE_PARKER, 9, (100.0,)),
])
def test_no_radius_evaluates_one_rule_twice(monkeypatch, name, n, flag, formula, degree, radii):
    # the cap of odd degree 2J + 1 is the rule of half-degree J, so the walk
    # below it stops at J - 1: no radius evaluates two rules with equal nodes
    S = quintic_n5() if name == "quintic" else GraphSurface.builtin(name, n)
    seen = []
    fn = {mm.STANDARD: "adm_mass_standard", mm.LEE_PARKER: "adm_mass_lee_parker"}[formula]
    estimate = getattr(mm, fn)

    def recording(source, chart, r, rule):
        seen.append((r, rule.nodes))
        return estimate(source, chart, r, rule)

    monkeypatch.setattr(mm, fn, recording)
    mm.mass_sweep(S, asym.chart_for(S, flag), radii, formula, degree=degree)
    for (r, a), (s, b) in combinations(seen, 2):
        assert r != s or a.shape != b.shape or not np.array_equal(a, b), r


def scripted_walk(monkeypatch, values, degree, radii=(10.0,)):
    """mass_sweep on a stand-in estimate whose value on the rule of degree
    d is values[d]: the sweep, and the degrees of the rules built and of
    those evaluated, in order."""
    built, seen = [], []
    sphere = QuadratureRule.sphere

    def build(n, d=None):
        built.append(d)
        return sphere(n, d)

    def estimate(source, chart, r, rule):
        seen.append(rule.degree)
        return mm.MassEstimate(r, values[rule.degree], mm.STANDARD, asym.INVERTED_Y,
                               rule.degree, len(rule.weights))

    monkeypatch.setattr(QuadratureRule, "sphere", staticmethod(build))
    monkeypatch.setattr(mm, "adm_mass_standard", estimate)
    sweep = mm.mass_sweep(GraphSurface.sphere(3), asym.Chart.inverted(3), radii, degree=degree)
    return sweep, built, seen


@pytest.mark.parametrize("values,degree,seen,chosen", [
    # two consecutive close steps stop the walk
    ({2: 1.0, 4: 2.0, 6: 2.0, 8: 2.0}, 12, [2, 4, 6, 8], 8),
    # one pair agrees by chance: the walk goes on, and to the cap as soon
    # as no rung below it could stop it
    ({2: 1.0, 4: 2.0, 6: 2.0, 8: 3.0, 12: 4.0}, 12, [2, 4, 6, 8, 12], 12),
    # a cap of degree 7 is the rule of half-degree J = 3: no rung below it
    # can stop the walk, so rung 2 goes to the cap
    ({2: 1.0, 4: 1.0, 6: 2.0, 7: 4.0}, 7, [2, 7], 7),
    ({2: 1.0, 4: 2.0, 7: 4.0}, 7, [2, 7], 7),
    ({0: 4.0}, 0, [0], 0),
])
def test_walk_stops_after_two_close_steps(monkeypatch, values, degree, seen, chosen):
    (e,), _, evaluated = scripted_walk(monkeypatch, values, degree)
    assert evaluated == seen
    assert (e.quad_degree, e.value) == (chosen, values[chosen])


def test_walk_below_the_cap_never_builds_it(monkeypatch):
    # each radius asks for its rungs again (the rule cache builds each
    # once), and a sweep whose walks stop below the cap never asks for it
    _, built, seen = scripted_walk(monkeypatch, {2: 1.0, 4: 1.0, 6: 1.0}, 12, radii=(10.0, 20.0))
    assert built == seen == [2, 4, 6, 2, 4, 6]


def test_radii_after_one_that_reached_the_cap_go_to_it(monkeypatch, builds):
    # the cap is built once; the larger radii skip the walk that ended on it
    sweep, _, seen = scripted_walk(monkeypatch, {2: 1.0, 7: 3.0}, 7, radii=(30.0, 10.0, 20.0))
    assert builds == [(3, 1), (3, 3)]
    assert seen == [2, 7, 7, 7]
    assert [(e.radius, e.quad_degree) for e in sweep] == [(10.0, 7), (20.0, 7), (30.0, 7)]


def deviation_pair(source, chart, dirs):
    """(g_rr - tr, n g_rr - tr) of the full (N, n, n) deviation on the
    sphere of radius s[0], contracted directly."""
    n = dirs.shape[1]

    def pair(s):
        if chart is None:
            dev = source.deviation_batch(s[0] * dirs)
        else:
            dev = asym.ghat_deviation_batch(source, chart, s[0] * dirs)
        grr = np.einsum("pij,pi,pj->p", dev, dirs, dirs)
        tr = np.einsum("pii->p", dev)
        return np.stack([grr - tr, n * grr - tr])

    return pair


@pytest.mark.parametrize(
    "case", ["sphere3_y", "quartic6_z", "flat4_y", "schwarzschild"]
)
def test_lee_parker_pair_matches_central_difference(case):
    # at t = 10 the central difference of the contracted deviation is
    # still accurate; the closed form must reproduce it
    if case == "schwarzschild":
        src, ch = mm.SchwarzschildField(mass=0.5), None
    else:
        name, n, flag = {
            "sphere3_y": ("sphere", 3, "y"),
            "quartic6_z": ("quartic_x1", 6, "z"),
            "flat4_y": ("flat", 4, "y"),
        }[case]
        src = GraphSurface.builtin(name, n)
        ch = asym.chart_for(src, flag)
    dirs = QuadratureRule.sphere(src.n, 8).nodes
    t = 10.0
    F1, F2 = mm.lee_parker_pair(src, ch, t, dirs)
    F0, dF, _ = numdiff.metric_derivatives(
        deviation_pair(src, ch, dirs), [t], 1e-4 * t
    )
    val = np.stack([F1.v, F2.v])
    der = np.stack([F1.d, F2.d])
    if case == "flat4_y":
        assert not np.any(val) and not np.any(der)
        return
    assert np.max(np.abs(val - F0)) <= 1e-6 * np.max(np.abs(F0))
    assert np.max(np.abs(der - dF[0])) <= 1e-6 * np.max(np.abs(dF[0]))


@pytest.mark.parametrize("n", [6, 7])
def test_lee_parker_matches_exact_series(n):
    # m(r) from the exact integrand series (window -7) against the numeric
    # sweep in the corrected chart; r = 10 is left out because the
    # uncertified O(t^-9) terms account for 1.7% there
    S = GraphSurface.quartic_x1(n)
    series = mm.mass_integrand_series(S.f_jet, asym.CORRECTED_Z, -7)
    coefs = {
        w: float(sphere_integral_series(series.coefficient(w)).constant_term())
        for w in series.orders()
    }
    assert coefs == {-7: {6: 45 / 32, 7: 9355 / 8008}[n]}
    ch = asym.chart_for(S, "z")
    rule = QuadratureRule.sphere(n, default_degree(n))
    radii = [10.0**1.5, 100.0, 10.0**2.5, 1000.0]
    for e in mm.mass_sweep(S, ch, radii, mm.LEE_PARKER, rule):
        r = e.radius
        exact = mm.mass_normalization(n) * sphere_area(n) * sum(
            c * r ** (n - 1 + w) for w, c in coefs.items()
        )
        assert abs(e.value - exact) <= 1e-2 * abs(exact), (r, e.value, exact)


def test_lee_parker_numeric_sphere_matches_symbolic():
    # the f_num surface takes x . grad f and Hess f x from finite
    # differences instead of the Euler evaluator
    ch = asym.Chart.inverted(3)
    rule = QuadratureRule.sphere(3, default_degree(3))
    sym = mm.adm_mass_lee_parker(GraphSurface.sphere(3), ch, 100.0, rule).value
    num = mm.adm_mass_lee_parker(sphere_numeric(3), ch, 100.0, rule).value
    assert num == pytest.approx(sym, rel=1e-6)


# -- the standard flux in closed form ---------------------------------------------


def batch_richardson(F, pts, h):
    """(4 D(h/2) - D(h)) / 3 for D the central difference of a field F that
    maps rows to rows, at all of pts at once: d_k F on the leading axis."""
    e = np.eye(pts.shape[1])

    def central(step):
        return np.stack([(F(pts + step * ek) - F(pts - step * ek)) / (2.0 * step) for ek in e])

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


def derivative_case(case):
    """(source, chart, deviation function, chart radii) of a derivative check."""
    if case == "schwarzschild":
        src = mm.SchwarzschildField(mass=0.5)
        return src, None, src.deviation_batch, (10.0, 1000.0)
    name, n, flag = {
        "sphere3_y": ("sphere", 3, "y"),
        "sphere5_y": ("sphere", 5, "y"),
        "cubic4_y": ("cubic_x1", 4, "y"),
        "quartic6_z": ("quartic_x1", 6, "z"),
        "flat4_y": ("flat", 4, "y"),
    }[case]
    src = GraphSurface.builtin(name, n)
    ch = asym.chart_for(src, flag)
    # the corrected chart's O(t^-2) cancellation costs the reference t^2
    # times the rounding error, so it stops at r = 31.6
    radii = (10.0, 10.0**1.5) if flag == "z" else (10.0, 1000.0)
    return src, ch, lambda p: asym.ghat_deviation_batch(src, ch, p), radii


@pytest.mark.parametrize(
    "case",
    ["sphere3_y", "sphere5_y", "cubic4_y", "quartic6_z", "flat4_y", "schwarzschild"],
)
def test_standard_derivative_matches_richardson(case):
    # the closed-form d_k g against a Richardson-extrapolated central
    # difference of the deviation (step 1e-3 r).  Measured: <= 2.8e-12 of
    # the largest entry in chart y and for the fixture, 4.3e-11 (r = 10)
    # and 4.7e-10 (r = 31.6) in chart z, where the reference's own error
    # dominates
    src, ch, F, radii = derivative_case(case)
    n = src.n
    dirs = QuadratureRule.sphere(n, 6).nodes
    for r in radii:
        pts = r * dirs
        diag, coefs, vecs = mm._deviation_form(src, ch, pts)
        dev = asym._assemble_form(diag.v, [c.v[:, None] * w.v for c, w in zip(coefs, vecs)],
                                  [w.v for w in vecs], n)
        assert np.array_equal(dev, F(pts))
        derivative = fo.form_derivatives(diag, coefs, vecs, n)
        dg = np.stack([derivative(k) for k in range(n)])
        if case == "flat4_y":
            assert not np.any(dev) and not np.any(dg)
            continue
        ref = batch_richardson(F, pts, 1e-3 * r)
        assert np.max(np.abs(dg - ref)) <= 1e-9 * np.max(np.abs(ref)), r


@pytest.mark.parametrize("n", [3, 4, 5])
def test_standard_matches_lee_parker_far(n):
    # the two integrands differ at second order in the deviation, ~5e-7
    # relative at r = 1000 (measured 5.0e-7); a central difference adds
    # up to 3.7e-6 there
    S = GraphSurface.sphere(n)
    ch = asym.Chart.inverted(n)
    rule = QuadratureRule.sphere(n, default_degree(n))
    std = mm.adm_mass_standard(S, ch, 1000.0, rule).value
    lp = mm.adm_mass_lee_parker(S, ch, 1000.0, rule).value
    assert abs(std - lp) <= 1e-6 * abs(lp)


def test_standard_numeric_sphere_matches_symbolic():
    # the f_num surface takes Hess f from finite differences of f instead of
    # the evaluator; measured 9.5e-7 relative
    ch = asym.Chart.inverted(3)
    rule = QuadratureRule.sphere(3, default_degree(3))
    sym = mm.adm_mass_standard(GraphSurface.sphere(3), ch, 10.0, rule).value
    num = mm.adm_mass_standard(sphere_numeric(3), ch, 10.0, rule).value
    assert num == pytest.approx(sym, rel=1e-5)


def test_standard_flux_takes_no_finite_difference(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the standard flux took a finite difference")

    monkeypatch.setattr(numdiff, "metric_derivatives", refuse)
    S3 = GraphSurface.sphere(3)
    Q6 = GraphSurface.quartic_x1(6)
    for src, ch in (
        (S3, asym.chart_for(S3, "y")),
        (Q6, asym.chart_for(Q6, "z")),
        (mm.SchwarzschildField(mass=0.5), None),
    ):
        rule = QuadratureRule.sphere(src.n, 6)
        assert math.isfinite(mm.adm_mass_standard(src, ch, 100.0, rule).value)


# -- blocked evaluation and the closed-form inverse ---------------------------------


def block_case(case):
    """(source, chart) of the blocked-evaluation checks, all with n = 3."""
    if case == "schwarzschild":
        return mm.SchwarzschildField(mass=0.5), None
    name, flag = {"sphere3_y": ("sphere", "y"), "quartic3_z": ("quartic_x1", "z")}[case]
    src = GraphSurface.builtin(name, 3)
    return src, asym.chart_for(src, flag)


@pytest.mark.parametrize("case", ["sphere3_y", "quartic3_z", "schwarzschild"])
def test_blocked_matches_one_block(case, monkeypatch):
    # 578 nodes in blocks of 7: 82 full blocks and a last one of 4 nodes;
    # and the whole rule in one block.  Measured: identical values
    src, ch = block_case(case)
    rule = QuadratureRule.sphere(3, default_degree(3))
    assert len(rule.weights) == 578
    for fn, tol in ((mm.adm_mass_lee_parker, 1e-13), (mm.adm_mass_standard, 1e-10)):
        for r in (10.0, 1000.0):
            monkeypatch.setattr(mm, "BLOCK_NODES", 10**6)
            whole = fn(src, ch, r, rule).value
            monkeypatch.setattr(mm, "BLOCK_NODES", 7)
            blocked = fn(src, ch, r, rule).value
            assert abs(blocked - whole) <= tol * abs(whole), (fn.__name__, r)


def test_blocked_estimate_integrates_once(monkeypatch):
    calls = []
    integrate = QuadratureRule.integrate
    monkeypatch.setattr(QuadratureRule, "integrate",
                        lambda self, vals: calls.append(len(vals)) or integrate(self, vals))
    monkeypatch.setattr(mm, "BLOCK_NODES", 7)
    S = GraphSurface.sphere(3)
    ch = asym.Chart.inverted(3)
    rule = QuadratureRule.sphere(3, 8)
    mm.adm_mass_standard(S, ch, 10.0, rule)
    mm.adm_mass_lee_parker(S, ch, 10.0, rule)
    assert calls == [len(rule.weights)] * 2


def flat_corrected_quartic(n: int) -> GraphSurface:
    """x_1^4, whose mean curvature H = 0 makes chart z's radial constant 0."""
    return GraphSurface.polynomial(MultiPoly.var(n, 0) ** 4)


def inverse_case(case):
    """(source, chart, deviation function) of an inverse-metric check."""
    if case == "quartic4_z_H0":
        src = flat_corrected_quartic(4)
        ch = asym.chart_for(src, "z")
        assert ch.kind == asym.CORRECTED_Z and ch.c == 0.0
        return src, ch, lambda p: asym.ghat_deviation_batch(src, ch, p)
    return derivative_case(case)[:3]


@pytest.mark.parametrize("case", ["sphere5_y", "quartic6_z", "quartic4_z_H0", "schwarzschild"])
def test_inverse_metric_matches_linalg_inv(case):
    src, ch, F = inverse_case(case)
    n = src.n
    dirs = QuadratureRule.sphere(n, 6).nodes
    for r in (1.5, 10.0, 1000.0):
        diag, coefs, vecs = mm._deviation_form(src, ch, r * dirs)
        closed = fo.inverse_metric(n, diag.v, [c.v for c in coefs], [u.v for u in vecs])
        ref = np.linalg.inv(np.eye(n) + F(r * dirs))
        assert np.max(np.abs(closed - ref)) <= 1e-13 * np.max(np.abs(ref)), r


@pytest.mark.parametrize("case", ["sphere5_y", "quartic6_z", "quartic4_z_H0", "schwarzschild"])
def test_woodbury_vectors_solve_the_metric(case):
    # g^{-1} x = (x - sum_a u_a (W_a . x)) / alpha against np.linalg.solve on
    # random vectors x; measured <= 3.4e-16 of the largest entry
    src, ch, F = inverse_case(case)
    n = src.n
    dirs = QuadratureRule.sphere(n, 6).nodes
    x = np.random.default_rng(7).standard_normal(dirs.shape)
    for r in (1.5, 10.0, 1000.0):
        diag, coefs, vecs = mm._deviation_form(src, ch, r * dirs)
        u = [w.v for w in vecs]
        W = mm._woodbury(1.0 + diag.v, [c.v for c in coefs], u)
        closed = (x - sum(ua * np.sum(Wa * x, axis=1)[:, None] for ua, Wa in zip(u, W)))
        closed = closed / (1.0 + diag.v)[:, None]
        ref = np.linalg.solve(np.eye(n) + F(r * dirs), x[:, :, None])[:, :, 0]
        assert np.max(np.abs(closed - ref)) <= 1e-13 * np.max(np.abs(ref)), r


STANDARD_ORACLE_CASES = [
    # (source, chart flag, radius, bound).  Chart y and the fixture at
    # 1e-9 and 1e-12; chart z at 1e-8 to r = 31.6 and 1e-6 at r = 100,
    # where the oracle's estimate itself moves by 1.2e-7 when r changes by
    # a relative 1e-14.
    # Measured on the degree-8 rule, node by node / integrated: y <= 2.3e-11
    # / 2.9e-12, fixture 4.4e-16 / 0, z 7.0e-13 / 2.7e-10 to r = 31.6 and
    # 5.9e-12 / 1.8e-9 at r = 100
    *[((name, n), "y", r, 1e-9) for name, n in
      (("sphere", 3), ("sphere", 4), ("sphere", 5), ("cubic_x1", 4))
      for r in (10.0, 10.0**1.5, 100.0)],
    *[(("schwarzschild", 3), None, r, 1e-12) for r in (10.0, 10.0**1.5, 100.0, 1000.0)],
    *[((name, n), "z", r, 1e-8 if r < 50.0 else 1e-6) for name, n in
      (("quartic_x1", 4), ("quartic_x1", 6), ("flat_quartic", 4))
      for r in (10.0, 10.0**1.5, 100.0)],
]


@pytest.mark.parametrize("case,flag,r,tol", STANDARD_ORACLE_CASES)
def test_standard_integrand_matches_matrix_oracle(case, flag, r, tol):
    # the vector contraction against the full-matrix path it replaced
    # (flux_oracle), node by node and integrated over the rule
    name, n = case
    if name == "schwarzschild":
        src, ch = mm.SchwarzschildField(mass=0.5), None
    else:
        src = flat_corrected_quartic(n) if name == "flat_quartic" else GraphSurface.builtin(name, n)
        ch = asym.chart_for(src, flag)
    rule = QuadratureRule.sphere(n, 8)
    new = mm._standard_integrand(src, ch, r, rule.nodes)
    ref = fo.standard_integrand(src, ch, r, rule.nodes)
    assert np.max(np.abs(new - ref)) <= tol * np.max(np.abs(ref))
    assert abs(rule.integrate(new) - rule.integrate(ref)) <= tol * abs(rule.integrate(ref))


@pytest.mark.parametrize(
    "name,n,flag,fn,limit_mib",
    [
        # before blocking: 82.6 MiB and 141.2 MiB; measured after: 3.2 and 20.9
        ("quartic_x1", 7, "z", mm.adm_mass_lee_parker, 16),
        ("sphere", 5, "y", mm.adm_mass_standard, 40),
    ],
)
def test_one_radius_peak_memory(name, n, flag, fn, limit_mib):
    # tracemalloc sees numpy's buffers; the evaluator is built before tracing
    S = GraphSurface.builtin(name, n)
    ch = asym.chart_for(S, flag)
    rule = QuadratureRule.sphere(n, default_degree(n))
    fn(S, ch, 10.0, QuadratureRule.sphere(n, 2))
    tracemalloc.start()
    try:
        fn(S, ch, 100.0, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= limit_mib * 2**20, peak / 2**20


def test_estimate_json_fields():
    e = mm.MassEstimate(10.0, 0.25, mm.STANDARD, asym.INVERTED_Y, 8, 128)
    d = e.to_json()
    assert d["radius"] == 10.0 and d["value"] == 0.25
    assert d["formula"] == mm.STANDARD and d["chart"] == asym.INVERTED_Y


# -- extrapolation --------------------------------------------------------------


def test_extrapolate_synthetic_power_law():
    radii = [10.0, 30.0, 100.0, 300.0]
    fit = mm.extrapolate_mass(
        fake_estimates(radii, [2.0 + r**-2 for r in radii])
    )
    assert fit.m_inf == pytest.approx(2.0, abs=1e-6)
    assert fit.decay_exponent == pytest.approx(2.0, abs=1e-3)
    assert fit.fit_quality > 1.0 - 1e-9


@pytest.mark.parametrize("m, a, p", [(0.0, 1e-4, 2.37), (1e-9, 1e-4, 2.37), (0.5, 0.3, 1.13)])
def test_extrapolate_refines_exponent_off_grid(m, a, p):
    # p is off the 0.25-spaced grid; small-magnitude sweeps must be
    # refined as well as O(1) ones
    radii = mm.DEFAULT_RADII
    fit = mm.extrapolate_mass(fake_estimates(radii, [m + a * r**-p for r in radii]))
    assert abs(fit.decay_exponent - p) <= 1e-6
    assert abs(fit.m_inf - m) <= 1e-12 * max(1.0, abs(m))


@pytest.mark.parametrize("scale", [1.0, 1e-50, 1e50])
def test_extrapolate_is_scale_invariant(scale):
    # m_inf + a r^-p is the same model in any unit of r; the fit's column
    # (r / r_min)^-p <= 1 cannot overflow, where r^-p at r = 1e-50 and p up
    # to 24 did and gave m_inf NaN
    radii = mm.DEFAULT_RADII
    values = [0.5 + 0.3 * r**-1.13 for r in radii]
    fit = mm.extrapolate_mass(fake_estimates([scale * r for r in radii], values))
    assert abs(fit.decay_exponent - 1.13) <= 1e-6
    assert abs(fit.m_inf - 0.5) <= 1e-12


def test_extrapolate_constant_series():
    fit = mm.extrapolate_mass(fake_estimates([10, 30, 100, 300], [5.0] * 4))
    assert fit.m_inf == 5.0
    assert fit.decay_exponent == 0.0
    assert fit.fit_quality == 1.0


def test_extrapolate_preconditions():
    with pytest.raises(ValueError):
        mm.extrapolate_mass(fake_estimates([10, 100, 1000], [1, 1, 1]))
    mixed = fake_estimates([10, 30, 100], [1, 1, 1]) + fake_estimates(
        [300], [1], formula=mm.LEE_PARKER
    )
    with pytest.raises(ValueError):
        mm.extrapolate_mass(mixed)
    with pytest.raises(ValueError):
        mm.extrapolate_mass(fake_estimates([10, 20, 30, 40], [1, 1, 1, 1]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extrapolate_refuses_non_finite_values(bad):
    # a NaN value used to give m_inf NaN with fit_quality 1
    radii = [10.0, 30.0, 100.0, 300.0]
    values = [bad, 2.0, bad, 2.0 + 300.0**-2]
    with pytest.raises(ValueError, match=f"radius 10 is {bad}, not finite"):
        mm.extrapolate_mass(fake_estimates(radii, values))


@pytest.mark.parametrize("radii, message", [
    ("", "bad --radii value ''"),
    ("10,20", "at least four distinct radii are required"),
    ("1e-200,1e-100,1e-50,1", "radius 1e-200 is too small: its square underflows float64"),
], ids=["empty", "too-few", "square-underflow"])
def test_mass_sweep_script_refuses_radii_before_sweeping(radii, message):
    # an empty --radii used to run the default radii, and two radii died in
    # a check_fit_radii traceback after the table header was printed
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(root / "scripts" / "mass_sweep.py"),
         "--radii", radii],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == f"error: {message}\n"


# -- symbolic cancellation ------------------------------------------------------


def test_integrand_cancellation_generic_dimension_six():
    # symbolic mean curvature and fully generic quartic and quintic
    # coefficients: every certified coefficient of the radial-form
    # integrand vanishes identically
    n = 6
    H = MultiPoly.param(n, "H")
    poly = (
        MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
        + generic_form(n, 4, "a")
        + generic_form(n, 5, "b")
    )
    report = mm.symbolic_mass_cancellation(Jet.of(poly, 7))
    assert report.t5_coefficient_zero and report.t6_coefficient_zero
    assert report.integrand_orders == []
    assert report.boundary_integrals == {}
    assert report.remainder_order == -7
    assert report.mass_vanishes


def test_integrand_cancellation_dimension_seven():
    S = GraphSurface.quartic_x1(7)
    report = mm.symbolic_mass_cancellation(S.f_jet)
    assert report.integrand_orders == []
    assert report.mass_vanishes


def test_remainder_gate_honest_in_dimension_eight():
    # the coefficients still cancel, but the uncontrolled remainder
    # t^{-7} is no longer integrable against t^{n-1}, so no verdict
    S = GraphSurface.quartic_x1(8)
    report = mm.symbolic_mass_cancellation(S.f_jet)
    assert report.t5_coefficient_zero and report.t6_coefficient_zero
    assert report.integrand_orders == []
    assert not report.mass_vanishes


def test_cancellation_sphere_inverted_chart():
    S = GraphSurface.sphere(3)
    report = mm.symbolic_mass_cancellation(S.f_jet, asym.INVERTED_Y)
    # surviving orders sit strictly below -(n-1), or integrate to zero
    for w, ang in report.boundary_integrals.items():
        assert w < -(report.n - 1) or ang.is_zero
    assert report.mass_vanishes
    d = report.to_json()
    assert d["mass_vanishes"] is True
    assert d["window_min"] == -6


@pytest.mark.parametrize("n, cubic_x1, radial_cubic", [
    (3, Fraction(163, 70), Fraction(19, 6)),
    (4, Fraction(9, 4), Fraction(15, 4)),
    (5, Fraction(233, 105), Fraction(21, 5)),
    (6, Fraction(9, 4), Fraction(55, 12)),
    (7, Fraction(359, 154), Fraction(69, 14)),
])
def test_inverted_chart_certifies_a_nonzero_cubic(n, cubic_x1, radial_cubic):
    # the inverted chart takes any umbilical jet; a nonzero cubic leaves one
    # nonzero boundary integral, at order -5: below -(n - 1), so the mass
    # vanishes, for n <= 5, and a finite (n = 6) or growing (n = 7) flux
    # past it, as the theorem's hypotheses at n = 6, 7 allow
    r2 = MultiPoly.x_norm_sq(n)
    radial = Jet.of(r2.scale(Fraction(1, 2)) + r2 * MultiPoly.var(n, 0), 7)
    for f, value in ((GraphSurface.cubic_x1(n).f_jet, cubic_x1), (radial, radial_cubic)):
        report = mm.symbolic_mass_cancellation(f, asym.INVERTED_Y)
        nonzero = {w: P for w, P in report.boundary_integrals.items() if not P.is_zero}
        assert nonzero == {-5: MultiPoly.const(n, value)}
        assert report.mass_vanishes is (n <= 5)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_inverted_chart_certifies_every_jet(n):
    # every coefficient of H, A_3, A_4 and A_5 its own symbol: the one
    # nonzero boundary integral sits at order -5, below -(n - 1), and the
    # remainder O(t^-6) is integrable, so the mass vanishes for every jet
    # at n = 3..5 (measured 0.006 s, 0.013 s and 0.038 s)
    H = MultiPoly.param(n, "H")
    poly = (
        MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
        + generic_form(n, 3, "c")
        + generic_form(n, 4, "a")
        + generic_form(n, 5, "b")
    )
    report = mm.symbolic_mass_cancellation(Jet.of(poly, 7), asym.INVERTED_Y, order_min=-4)
    assert [w for w, P in report.boundary_integrals.items() if not P.is_zero] == [-5]
    assert report.window_min == -5 and report.remainder_order == -6
    assert report.mass_vanishes


def householder(v):
    """I - 2 v v^T / (v^T v), exact, as a list of rows."""
    vv = sum(c * c for c in v)
    return [[int(i == j) - Fraction(2 * a * b, vv) for j, b in enumerate(v)]
            for i, a in enumerate(v)]


@pytest.mark.parametrize("n, integral, vanishes", [
    (6, Fraction(67, 48), True),
    (8, Fraction(559, 560), False),
], ids=["6", "8"])
def test_boundary_integrals_are_invariant_under_rotation(n, integral, vanishes):
    # f = |x|^2/2 + x_1^4 + x_2^2 x_3^2 and f o Q for Q the product of two
    # rational reflections, which mixes every coordinate: the chart-z
    # boundary integrals agree, a single order -7 one (measured: f o Q took
    # 0.11 s at n = 6 and 0.39 s at n = 8)
    x = [MultiPoly.var(n, i) for i in range(n)]
    P, R = householder([1] * n), householder([1, -1, 2] + [0] * (n - 4) + [1])
    Q = [[sum(P[i][k] * R[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert all(sum(a * b for a, b in zip(Q[i], Q[j])) == (i == j)
               for i in range(n) for j in range(n))
    Qx = [sum((x[j].scale(q) for j, q in enumerate(row) if q), MultiPoly.zero(n)) for row in Q]
    half = MultiPoly.x_norm_sq(n).scale(Fraction(1, 2))
    f, fQ = (half + y[0] ** 4 + y[1] ** 2 * y[2] ** 2 for y in (x, Qx))
    assert len(fQ.terms) == {6: 132, 8: 298}[n]
    for g in (f, fQ):
        report = mm.symbolic_mass_cancellation(Jet.of(g, 7), asym.CORRECTED_Z, order_min=-6)
        assert report.boundary_integrals == {-7: MultiPoly.const(n, integral)}
        assert report.mass_vanishes is vanishes


@pytest.mark.parametrize("n", [6, 7])
def test_lee_parker_inverted_chart_matches_cubic_certificate(n):
    # at r = 1000 the order -5 boundary integral B gives the flux
    # B r^(n-6) / (2(n-1)): 9/40 at n = 6 and (359/154) r / 12 at n = 7
    S = GraphSurface.cubic_x1(n)
    B = mm.symbolic_mass_cancellation(S.f_jet, asym.INVERTED_Y).boundary_integrals[-5]
    r = 1000.0
    expect = float(B.constant_term()) * r ** (n - 6) / (2 * (n - 1))
    rule = QuadratureRule.sphere(n, default_degree(n))
    value = mm.adm_mass_lee_parker(S, asym.Chart.inverted(n), r, rule).value
    assert abs(value - expect) <= 1e-6 * expect, (value, expect)


def test_integrand_series_window():
    S = GraphSurface.quartic_x1(5)
    ser = mm.mass_integrand_series(S.f_jet, order_min=-5)
    assert ser.order_min == -6
    assert all(w <= -5 for w in ser.orders())
