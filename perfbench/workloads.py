"""The benchmark's workloads: seeded inputs, the fixed job list of each, and
the correctness check every job ends with.

`build(workload, seed, out_dir)` does all process-level work (seeded input
generation and exact references) and returns jobs.  Jobs call the program
through module attributes (`obstruction.c_theta`, not a name imported from
it), so the tracer's wrappers see every call.  A job builds its own
`GraphSurface`, chart and `QuadratureRule`, the way one `umbilic` CLI run
does, so lazy per-surface set-up counts as job time.  A job passes when it
returns and fails when it raises; `CheckFailed` marks a wrong output.

Tolerances are the acceptance gate's (tests/test_acceptance.py):
exact identities must be `.is_zero`; sphere |m| <= 1e-3; quartic
|m_inf| <= 1e-2 and |p - (8 - n)| <= 0.5; Schwarzschild within 1e-3 at
r = 1000; tau in [1.9, 2.1] in chart y and >= 3.8 in chart z with
R^2 >= 0.99; the integrability verdicts; rho residual < 1e-7.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

from umbilic import asymptotic, cli, conformal, mass, obstruction, surface
from umbilic.polyjet import Jet, MultiPoly
from umbilic.quadrature import QuadratureRule, default_degree
from umbilic.surface import GraphSurface

EXACT = "exact"
MASS = "mass"
POINTWISE = "pointwise"
WORKLOADS = (EXACT, MASS, POINTWISE)

# Job-list sizes (fixed: they define the workloads).
SCRIPT_R_PER_N = 4  # cubics per n for script_R_series, n = 3..7
IDENTITY_PER_N = 4  # cubics per n for integrated_identity, n = 3..9
DIM6_FAMILY = 2  # |x|^2 * L inputs for dim6_check
CERTIFICATE_N = (6, 7)  # generic quartic/quintic mass certificates
RHO_NUMERIC_POINTS = 20  # seeded points per numeric surface

# Nominal seconds per round on the reference machine (2 cores, Python 3.11),
# averaged over a run.  A run of S seconds makes floor(S / this) rounds, at
# least one: a count fixed in advance, so that runs never differ in how many
# samples a job's median time rests on.  Every round runs the repeated
# jobs; the jobs that run once are spread over the rounds.
ROUND_SECONDS = {EXACT: 7.5, MASS: 33.0, POINTWISE: 5.0}

# Workloads whose job times are scaled to the host's nominal speed (run.py).
# The reference pass is interpreted rational and dict arithmetic, timed
# before and after each job.  On exact and pointwise, whose jobs are mostly
# interpreter work, scaling cut the quartile spread of wall_s over ten runs
# from 0.21 to 0.03 (exact) and from 0.18 to 0.10 (pointwise).  mass is
# not scaled: its jobs run numpy for up to 15 s between two passes, and
# scaling them widened its spread.
SCALED = (EXACT, POINTWISE)

# Radii per mass case.  Every list keeps r = 1000, where the corrected-chart
# far field loses precision, so that defect stays visible.  Sphere n = 4, 5
# run one radius each (one n = 5 radius is ~10 s); the quartics keep the four
# radii that extrapolate_mass needs for its exponent.
R_DEFAULT = tuple(mass.DEFAULT_RADII)
R_FOUR = (10.0, 10.0**1.5, 100.0, 1000.0)
R_FAR = (1000.0,)


class CheckFailed(AssertionError):
    """A job's output broke its check."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[], None]
    repeat: bool = True  # False: the job runs in one round of the run only


def _rng(seed: int, tag: str) -> random.Random:
    return random.Random(f"{tag}:{seed}")


# -- exact --------------------------------------------------------------------


NONZERO_NUMERATORS = [k for k in range(-9, 10) if k]


def random_cubic(n: int, support: random.Random, coeffs: random.Random, width: int = 10) -> MultiPoly:
    """Rational cubic on `width` random monomials (the acceptance gate's
    corpus shape), assembled directly from exponents.  The monomials come
    from `support` and the coefficients from `coeffs`.  Numerators are
    never 0 (the gate drops a zero term), so the support is exactly the
    drawn one and the seed changes values, not the shape of the work."""
    monos = list(combinations_with_replacement(range(n), 3))
    support.shuffle(monos)
    terms = {}
    for combo in monos[:width]:
        c = Fraction(coeffs.choice(NONZERO_NUMERATORS), coeffs.randint(1, 9))
        e = [0] * n
        for i in combo:
            e[i] += 1
        terms[(tuple(e), ())] = c
    return MultiPoly.make(n, terms)


def random_linear(n: int, rng: random.Random) -> MultiPoly:
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = 1
        terms[(tuple(e), ())] = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    return MultiPoly.make(n, terms)


def generic_quartic_quintic(n: int) -> MultiPoly:
    """|x|^2 H / (2n) plus quartic and quintic parts whose every coefficient
    is its own symbol (criterion 8's input)."""
    terms = {}
    for i in range(n):
        e = [0] * n
        e[i] = 2
        terms[(tuple(e), (("H", 1),))] = Fraction(1, 2 * n)
    for deg, prefix in ((4, "a"), (5, "b")):
        for combo in combinations_with_replacement(range(n), deg):
            e = [0] * n
            for i in combo:
                e[i] += 1
            name = prefix + "_" + "".join(map(str, combo))
            terms[(tuple(e), ((name, 1),))] = Fraction(1)
    return MultiPoly.make(n, terms)


def exact_inputs(seed: int) -> Dict[str, object]:
    """The seeded part of the exact workload: cubic corpora and the
    |x|^2 * L family (the generic symbolic inputs do not depend on it).

    The seed draws every rational coefficient.  The monomial supports vary
    from cubic to cubic but come from one fixed stream: the cost of a
    certification depends mostly on its support, so this keeps the work per
    run comparable across seeds."""
    support, rng = _rng(0, "support"), _rng(seed, EXACT)
    return {
        "script_R": {n: [random_cubic(n, support, rng) for _ in range(SCRIPT_R_PER_N)]
                     for n in range(3, 8)},
        "identity": {n: [random_cubic(n, support, rng) for _ in range(IDENTITY_PER_N)]
                     for n in range(3, 10)},
        "dim6_L": [random_linear(6, rng) for _ in range(DIM6_FAMILY)],
    }


def umbilical_jet(n: int, A3: MultiPoly, order: int = 7) -> Jet:
    H = MultiPoly.param(n, "H")
    return Jet.of(MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n)) + A3, order)


def _script_R_job(n: int, A3: MultiPoly) -> Callable[[], None]:
    def run():
        series = obstruction.script_R_series(umbilical_jet(n, A3))
        check(series.coefficient(0).is_zero, "order-0 coefficient is not zero")
        check(series.coefficient(1).is_zero, "order-1 coefficient is not zero")
        c2 = series.coefficient(2) - obstruction.c_theta(A3)
        check(c2.is_zero, "order-2 coefficient differs from c_theta")

    return run


def _identity_job(A3: MultiPoly) -> Callable[[], None]:
    def run():
        lhs, rhs = obstruction.integrated_identity(A3)
        check((lhs - rhs).is_zero, "integrated identity does not hold")

    return run


def _dim6_job(A3: MultiPoly, L: MultiPoly, expected: MultiPoly) -> Callable[[], None]:
    def run():
        rec = obstruction.dim6_check(A3)
        check(rec.divisible, "|x|^2 L not reported divisible")
        check((rec.residual - expected).is_zero, "residual differs from r^4 (48 L^2 - 8 r^2 |grad L|^2)")
        check(rec.residual_zero == L.is_zero, "residual_zero disagrees with L")
        check(L.is_zero or not rec.harmonic_square_constant, "harmonic square reported constant")

    return run


def _certificate_job(n: int, poly: MultiPoly) -> Callable[[], None]:
    def run():
        rep = mass.symbolic_mass_cancellation(Jet.of(poly, 7))
        check(rep.t5_coefficient_zero, "t^-5 coefficient does not cancel")
        check(rep.t6_coefficient_zero, "t^-6 coefficient does not cancel")
        # the window certifies the mass exactly when n - 1 < 1 - order_min
        check(rep.mass_vanishes == (n < 8), f"mass_vanishes={rep.mass_vanishes} at n={n}")

    return run


def _exact_jobs(seed: int) -> List[Job]:
    inputs = exact_inputs(seed)
    jobs = []
    for n, corpus in inputs["script_R"].items():
        jobs += [Job(f"script_R n={n} #{k}", _script_R_job(n, A3)) for k, A3 in enumerate(corpus)]
    for n, corpus in inputs["identity"].items():
        jobs += [Job(f"integrated_identity n={n} #{k}", _identity_job(A3))
                 for k, A3 in enumerate(corpus)]
    r2 = MultiPoly.x_norm_sq(6)
    for k, L in enumerate(inputs["dim6_L"]):
        gradsq = MultiPoly.zero(6)
        for i in range(6):
            gradsq = gradsq + L.diff(i) * L.diff(i)
        expected = r2 * r2 * ((L * L).scale(48) - (r2 * gradsq).scale(8))
        jobs.append(Job(f"dim6_check #{k}", _dim6_job(r2 * L, L, expected)))
    for n in CERTIFICATE_N:
        jobs.append(Job(f"mass_certificate n={n}", _certificate_job(n, generic_quartic_quintic(n))))
    return jobs


# -- mass -----------------------------------------------------------------------


def _surface_mass_job(builtin: str, n: int, flag: str, formula: str, radii) -> Callable[[], None]:
    def run():
        S = GraphSurface.builtin(builtin, n)
        chart = asymptotic.chart_for(S, flag)
        rule = QuadratureRule.sphere(n, default_degree(n))
        sweep = mass.mass_sweep(S, chart, radii, formula, rule)
        if len(radii) < 4:
            # too few radii to extrapolate: the sphere's mass bound must
            # already hold at each finite radius
            for e in sweep:
                check(abs(e.value) <= 1e-3, f"|m({e.radius:g})| = {abs(e.value):.3g} > 1e-3")
            return
        fit = mass.extrapolate_mass(sweep)
        if builtin == "sphere":
            check(abs(fit.m_inf) <= 1e-3, f"|m_inf| = {abs(fit.m_inf):.3g} > 1e-3")
        else:
            check(abs(fit.m_inf) <= 1e-2, f"|m_inf| = {abs(fit.m_inf):.3g} > 1e-2")
            check(abs(fit.decay_exponent - (8 - n)) <= 0.5,
                  f"decay exponent {fit.decay_exponent:.3f}, expected {8 - n} +- 0.5")

    return run


def _schwarzschild_job(formula: str, m: float = 0.5) -> Callable[[], None]:
    def run():
        source = mass.SchwarzschildField(mass=m, n=3)
        rule = QuadratureRule.sphere(3, default_degree(3))
        sweep = mass.mass_sweep(source, None, R_DEFAULT, formula, rule)
        mass.extrapolate_mass(sweep)
        far = sweep[-1]  # mass_sweep sorts the radii; the last is r = 1000
        check(abs(far.value - m) < 1e-3, f"m(1000) = {far.value!r}, expected {m} +- 1e-3")

    return run


def _cli_mass_job(out: Path) -> Callable[[], None]:
    def run():
        rc = cli.main(["mass", "--builtin", "sphere", "--n", "3", "--chart", "y", "--out", str(out)])
        check(rc == 0, f"umbilic mass exited {rc}")
        report = json.loads(out.read_text())
        check(abs(report["m_inf"]) <= 1e-3, f"|m_inf| = {abs(report['m_inf']):.3g} > 1e-3")
        check(report["symbolic_cancellation"] is not None, "no symbolic cancellation report")

    return run


def _mass_jobs(out_dir: Path) -> List[Job]:
    std, lp = mass.STANDARD, mass.LEE_PARKER
    return [
        Job("sphere n=3 standard y", _surface_mass_job("sphere", 3, "y", std, R_DEFAULT)),
        Job("sphere n=4 standard y", _surface_mass_job("sphere", 4, "y", std, R_FAR)),
        Job("sphere n=5 standard y", _surface_mass_job("sphere", 5, "y", std, R_FAR)),
        Job("quartic_x1 n=6 lee_parker z", _surface_mass_job("quartic_x1", 6, "z", lp, R_FOUR)),
        Job("quartic_x1 n=7 lee_parker z", _surface_mass_job("quartic_x1", 7, "z", lp, R_FOUR)),
        Job("schwarzschild m=0.5 standard", _schwarzschild_job(std)),
        Job("schwarzschild m=0.5 lee_parker", _schwarzschild_job(lp)),
        Job("cli mass sphere n=3", _cli_mass_job(out_dir / "cli-mass.json")),
    ]


# -- pointwise --------------------------------------------------------------------


def probe_directions(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """Signed axes plus `count` seeded unit directions (2n + count rows)."""
    extra = rng.standard_normal((count, n))
    extra /= np.linalg.norm(extra, axis=1)[:, None]
    return np.vstack([np.eye(n), -np.eye(n), extra])


def _decay_job(builtin: str, n: int, flag: str, seed: int) -> Callable[[], None]:
    def run():
        S = GraphSurface.builtin(builtin, n)
        fit = asymptotic.decay_order_estimate(S, asymptotic.chart_for(S, flag), R_DEFAULT, seed=seed)
        if flag == "y":
            check(1.9 <= fit.tau_hat <= 2.1, f"tau = {fit.tau_hat:.4f} outside [1.9, 2.1]")
        else:
            check(fit.tau_hat >= 3.8, f"tau = {fit.tau_hat:.4f} < 3.8")
        check(fit.r_squared >= 0.99, f"R^2 = {fit.r_squared:.5f} < 0.99")

    return run


def _integrability_job(n: int, kind: str, seed: int) -> Callable[[], None]:
    expected = conformal.INTEGRABLE if n == 5 else conformal.NOT_INTEGRABLE

    def run():
        S = GraphSurface.cubic_x1(n)
        if kind == "leading_order":
            lead = conformal.leading_order_of_R(S)
            check(n != 6 or lead.k == 2, f"leading order k = {lead.k}, expected 2")
            verdict = conformal.classify_integrability(n, lead)
        else:
            verdict = conformal.integrability_probe(S, seed=seed).verdict
        check(verdict == expected, f"verdict {verdict}, expected {expected}")

    return run


def _rho_symbolic_job(builtin: str, n: int, x: np.ndarray) -> Callable[[], None]:
    def run():
        res = surface.verify_rho_identities(GraphSurface.builtin(builtin, n), x)
        check(res.exact and res.max() == 0.0, f"exact residual {res.max()!r} is not zero")

    return run


def _rho_numeric_job(builtin: str, n: int, radius: Fraction, x: np.ndarray) -> Callable[[], None]:
    def run():
        sym = GraphSurface.builtin(builtin, n, radius=radius)
        S = GraphSurface(n, f_num=sym.f_value, fd_step=1e-5)
        worst = surface.verify_rho_identities(S, x).max()
        check(worst < 1e-7, f"residual {worst:.3g} >= 1e-7")

    return run


def _cli_verify_job(out: Path, seed: int) -> Callable[[], None]:
    def run():
        rc = cli.main(["verify", "--builtin", "cubic_x1", "--n", "6",
                       "--seed", str(seed), "--out", str(out)])
        check(rc == 0, f"umbilic verify exited {rc}")
        report = json.loads(out.read_text())
        check(report["ok"], "verify report is not ok")
        verdict = report["integrability"]["verdict"]
        check(verdict == conformal.NOT_INTEGRABLE, f"verdict {verdict}")

    return run


def _pointwise_jobs(seed: int, out_dir: Path) -> List[Job]:
    rng = np.random.default_rng(seed)
    # integer seeds handed to the program's own direction generators
    sub_seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    jobs = []
    # The long jobs (0.1 s and more each) run once; the short ones, which set
    # the job median, run in every round.
    for n in range(3, 8):
        jobs.append(Job(f"decay sphere n={n} y", _decay_job("sphere", n, "y", sub_seed()), repeat=n < 6))
    for n in (6, 7):
        jobs.append(Job(f"decay quartic_x1 n={n} z", _decay_job("quartic_x1", n, "z", sub_seed())))
    for n in (5, 6):
        jobs.append(Job(f"leading_order cubic_x1 n={n}", _integrability_job(n, "leading_order", sub_seed())))
        jobs.append(Job(f"integrability_probe cubic_x1 n={n}", _integrability_job(n, "probe", sub_seed())))
    for builtin, n in (("flat", 3), ("sphere", 4), ("quartic_x1", 3), ("cubic_x1", 5)):
        for k, d in enumerate(probe_directions(n, 8, rng)):
            jobs.append(Job(f"rho exact {builtin} n={n} #{k}", _rho_symbolic_job(builtin, n, 0.05 * d),
                            repeat=n < 4))
    numeric = (("sphere", 3, Fraction(2)), ("quartic_x1", 3, Fraction(1)), ("cubic_x1", 3, Fraction(1)),
               ("sphere", 4, Fraction(1)), ("quartic_x1", 4, Fraction(1)))
    for builtin, n, radius in numeric:
        for k in range(RHO_NUMERIC_POINTS):
            x = rng.uniform(-0.05, 0.05, size=n)
            jobs.append(Job(f"rho numeric {builtin} n={n} #{k}", _rho_numeric_job(builtin, n, radius, x)))
    jobs.append(Job("cli verify cubic_x1 n=6", _cli_verify_job(out_dir / "cli-verify.json", sub_seed()),
                    repeat=False))
    return jobs


def build(workload: str, seed: int, out_dir: Path) -> List[Job]:
    """The workload's jobs in a fixed shuffled order: each kind of job is
    spread over the whole run, so a stretch of slow machine time cannot move
    a whole job class, and with it a percentile, at once."""
    makers = {
        EXACT: lambda: _exact_jobs(seed),
        MASS: lambda: _mass_jobs(out_dir),
        POINTWISE: lambda: _pointwise_jobs(seed, out_dir),
    }
    if workload not in makers:
        raise ValueError(f"unknown workload {workload!r}")
    jobs = makers[workload]()
    assert len({j.name for j in jobs}) == len(jobs), "job names must be unique"
    _rng(0, "order").shuffle(jobs)
    return jobs
