"""Acceptance gate: ten end-to-end checks, each printing one line with
its verdict and runtime.  Tolerances and time budgets are pinned; exact
means rational arithmetic with zero residual."""

import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np

from umbilic import asymptotic, conformal, mass, obstruction
from umbilic.polyjet import Jet, MultiPoly
from umbilic.quadrature import QuadratureRule, default_degree
from umbilic.surface import GraphSurface, verify_rho_identities

from generic_jets import generic_form, umbilical_jet


class criterion:
    """Times a block and prints 'criterion N: PASS/FAIL (t) note', bypassing
    pytest's output capture so the verdict lines land in the run log."""

    def __init__(self, number: int, note: str, budget: float, capsys=None):
        self.number = number
        self.note = note
        self.budget = budget
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.monotonic() - self.t0
        verdict = "PASS" if exc_type is None else "FAIL"
        line = f"criterion {self.number}: {verdict} ({dt:.1f}s) {self.note}"
        if self.capsys is not None:
            with self.capsys.disabled():
                print(line)
        else:
            print(line)
        if exc_type is None:
            assert dt <= self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {dt:.1f}s"
            )
        return False


def random_rational_cubic(n: int, rng: random.Random, width: int = 10) -> MultiPoly:
    """Random rational cubic supported on `width` random monomials (the
    identities are linear/quadratic in the coefficients, so sparse draws
    test them as strongly as dense ones at a fraction of the cost)."""
    monos = list(combinations_with_replacement(range(n), 3))
    rng.shuffle(monos)
    out = MultiPoly.zero(n)
    for combo in monos[:width]:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c == 0:
            continue
        mono = MultiPoly.const(n, c)
        for i in combo:
            mono = mono * MultiPoly.var(n, i)
        out = out + mono
    return out


def cubic_corpus(n: int, count: int = 25, seed: int = 0):
    return [random_rational_cubic(n, random.Random(seed + 1000 * n + k))
            for k in range(count)]


def test_criterion_01_symbolic_coefficients(capsys):
    with criterion(1, "order-0/1/2 coefficients exact, n=3..7, 25 cubics each", 60.0, capsys):
        for n in range(3, 8):
            for A3 in cubic_corpus(n):
                series = obstruction.script_R_series(umbilical_jet(n, A3))
                assert series.coefficient(0).is_zero
                assert series.coefficient(1).is_zero
                c2 = series.coefficient(2)
                assert (c2 - obstruction.c_theta(A3)).is_zero


def test_criterion_02_integral_identity(capsys):
    with criterion(2, "integrated obstruction identity exact, n=3..9", 30.0, capsys):
        for n in range(3, 10):
            for A3 in cubic_corpus(n):
                lhs, rhs = obstruction.integrated_identity(A3)
                assert (lhs - rhs).is_zero


def test_criterion_03_dimension_six_chain(capsys):
    with criterion(3, "dimension-6 residual chain and divisibility, exact", 10.0, capsys):
        n = 6
        r2 = MultiPoly.x_norm_sq(n)
        rng = random.Random(3)
        for _ in range(5):
            L = MultiPoly.zero(n)
            for i in range(n):
                L = L + MultiPoly.var(n, i).scale(
                    Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                )
            rec = obstruction.dim6_check(r2 * L)
            assert rec.divisible
            # on the divisible family the residual reduces exactly to the
            # harmonic-square obstruction: residual = r^4 (48 L^2 - 8 r^2
            # |grad L|^2), i.e. -4 r^4 times the homogenized spherical
            # Laplacian of L^2, so it vanishes only when L does
            gradsq = MultiPoly.zero(n)
            for i in range(n):
                gradsq = gradsq + L.diff(i) * L.diff(i)
            expected = r2 * r2 * ((L * L).scale(48) - (r2 * gradsq).scale(8))
            assert (rec.residual - expected).is_zero
            assert rec.residual_zero == L.is_zero
            if not L.is_zero:
                assert not rec.harmonic_square_constant
        rec = obstruction.dim6_check(MultiPoly.zero(n))
        assert rec.residual_zero and rec.divisible and rec.harmonic_square_constant
        for A3 in (MultiPoly.var(n, 0) ** 3,
                   MultiPoly.var(n, 0) * MultiPoly.var(n, 1) * MultiPoly.var(n, 2)):
            rec = obstruction.dim6_check(A3)
            assert not rec.residual_zero
            assert not rec.divisible


def test_criterion_04_distance_identities(capsys):
    with criterion(4, "squared-distance identities: exact symbolic, <1e-7 numeric", 30.0, capsys):
        symbolic = [
            GraphSurface.flat(3),
            GraphSurface.sphere(4),
            GraphSurface.quartic_x1(3),
            GraphSurface.cubic_x1(5),
        ]
        for S in symbolic:
            res = verify_rho_identities(S, None)
            assert res.exact and res.max() == 0.0

        polys = [
            GraphSurface.sphere(3, Fraction(2)),
            GraphSurface.quartic_x1(3),
            GraphSurface.cubic_x1(3),
            GraphSurface.sphere(4),
            GraphSurface.quartic_x1(4),
        ]
        rng = np.random.default_rng(4)
        for sym in polys:
            S = GraphSurface(sym.n, f_num=sym.f_value, fd_step=1e-5)
            for _ in range(20):
                x = rng.uniform(-0.05, 0.05, size=S.n)
                assert verify_rho_identities(S, x).max() < 1e-7


def test_criterion_05_sphere_conformal_flatness(capsys):
    with criterion(5, "sphere: conformal curvature exact zero and <1e-6 numeric", 20.0, capsys):
        rng = np.random.default_rng(5)
        for n in (3, 4, 5):
            S = GraphSurface.sphere(n)
            assert obstruction.script_R_series(S.f_jet, 3).is_zero
            for _ in range(20):
                x = rng.uniform(-0.1, 0.1, size=n)
                if float(x @ x) < 1e-6:
                    continue
                assert abs(conformal.conformal_scalar(S, x)) < 1e-6


def test_criterion_06_decay_orders(capsys):
    with criterion(6, "decay fits: tau in [1.9,2.1] (y), >=3.8 (z), R^2>=0.99", 120.0, capsys):
        radii = mass.DEFAULT_RADII
        for n in range(3, 8):
            fit = asymptotic.decay_order_estimate(
                GraphSurface.sphere(n), asymptotic.Chart.inverted(n), radii
            )
            assert 1.9 <= fit.tau_hat <= 2.1
            assert fit.r_squared >= 0.99
        for n in (6, 7):
            S = GraphSurface.quartic_x1(n)
            fit = asymptotic.decay_order_estimate(
                S, asymptotic.chart_for(S, "z"), radii
            )
            assert fit.tau_hat >= 3.8
            assert fit.r_squared >= 0.99


def test_criterion_07_mass_vanishing(capsys):
    with criterion(7, "|m_inf|<=1e-3 spheres n=3..5, <=1e-2 quartics n=6,7", 300.0, capsys):
        for n in (3, 4, 5):
            S = GraphSurface.sphere(n)
            sweep = mass.mass_sweep(
                S, asymptotic.Chart.inverted(n), mass.DEFAULT_RADII
            )
            fit = mass.extrapolate_mass(sweep)
            assert abs(fit.m_inf) <= 1e-3
        for n in (6, 7):
            S = GraphSurface.quartic_x1(n)
            sweep = mass.mass_sweep(
                S,
                asymptotic.chart_for(S, "z"),
                mass.DEFAULT_RADII,
                mass.LEE_PARKER,
            )
            fit = mass.extrapolate_mass(sweep)
            assert abs(fit.m_inf) <= 1e-2
            # remaining integrand decays two orders below the sphere growth
            assert abs(fit.decay_exponent - (8 - n)) <= 0.5


def test_criterion_08_symbolic_cancellation(capsys):
    with criterion(8, "radial integrand orders -5, -6 cancel exactly, n=6..9", 30.0, capsys):
        for n in range(6, 10):
            H = MultiPoly.param(n, "H")
            poly = (MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n))
                    + generic_form(n, 4, "a") + generic_form(n, 5, "b"))
            integrand = mass.mass_integrand_series(Jet.of(poly, 7))
            assert integrand.coefficient(-5).is_zero
            assert integrand.coefficient(-6).is_zero


def test_criterion_09_schwarzschild_calibration(capsys):
    with criterion(9, "fixture mass within 1e-3 at r=1e3; formulas agree to 1e-3", 60.0, capsys):
        m = 0.5
        src = mass.SchwarzschildField(mass=m)
        rule3 = QuadratureRule.sphere(3, 8)
        std = mass.adm_mass_standard(src, None, 1000.0, rule3).value
        lp = mass.adm_mass_lee_parker(src, None, 1000.0, rule3).value
        assert abs(std - m) < 1e-3 and abs(lp - m) < 1e-3
        assert abs(std - lp) < 1e-3

        fixtures = [
            (GraphSurface.flat(3), asymptotic.Chart.inverted(3)),
            (GraphSurface.sphere(3), asymptotic.Chart.inverted(3)),
            (GraphSurface.quartic_x1(6), None),
        ]
        fixtures[2] = (fixtures[2][0], asymptotic.chart_for(fixtures[2][0], "z"))
        for S, ch in fixtures:
            rule = QuadratureRule.sphere(S.n, default_degree(S.n))
            a = mass.adm_mass_standard(S, ch, 1000.0, rule).value
            b = mass.adm_mass_lee_parker(S, ch, 1000.0, rule).value
            assert abs(a - b) < 1e-3


def test_criterion_10_integrability_classifier(capsys):
    with criterion(10, "cubic fixture: not integrable at n=6, integrable at n=5", 60.0, capsys):
        S6 = GraphSurface.cubic_x1(6)
        lead6 = conformal.leading_order_of_R(S6)
        assert lead6.k == 2
        assert conformal.classify_integrability(6, lead6) == conformal.NOT_INTEGRABLE
        probe6 = conformal.integrability_probe(S6)
        assert probe6.verdict == conformal.NOT_INTEGRABLE

        S5 = GraphSurface.cubic_x1(5)
        lead5 = conformal.leading_order_of_R(S5)
        assert conformal.classify_integrability(5, lead5) == conformal.INTEGRABLE
        probe5 = conformal.integrability_probe(S5)
        assert probe5.verdict == conformal.INTEGRABLE
