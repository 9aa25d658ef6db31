#!/usr/bin/env python3
"""Sweep the mass integrals of the inverted builtin surfaces over a radius
schedule, extrapolate to infinity, and print a table.

Exits 1 when a row breaks its bound: |m_inf| <= 1e-3 for the spheres,
|m_inf| <= 1e-2 and |p - (8 - n)| <= 0.5 for the quartics, and
|m_inf - m| <= 1e-3 for the Schwarzschild fixture.  When the largest radius
is at least 1000, each sphere's standard value there must also match the
Lee-Parker value on the same rule, the one the sweep chose there, to 1e-6
relative: the two integrands differ at second order in the deviation,
about 5e-7 at r = 1000.  The degrees column lists the rule degree the
sweep chose at each radius, smallest radius first, and the nodes column
the node count of each of those rules.  Radii that no row could
sweep and extrapolate are refused before the first row runs, with exit 2.

Usage: python3 scripts/mass_sweep.py [--radii 10,31.6,100,316,1000]
"""

import argparse
import sys
import time

from umbilic import asymptotic, mass
from umbilic.quadrature import QuadratureRule
from umbilic.surface import GraphSurface

CASES = [
    ("sphere", 3, "y", mass.STANDARD),
    ("sphere", 4, "y", mass.STANDARD),
    ("sphere", 5, "y", mass.STANDARD),
    ("quartic_x1", 6, "z", mass.LEE_PARKER),
    ("quartic_x1", 6, "z", mass.STANDARD),
    ("quartic_x1", 7, "z", mass.LEE_PARKER),
]


def parse_radii(text):
    """The --radii schedule, or ValueError if some row could not use it."""
    if text is None:
        return list(mass.DEFAULT_RADII)
    try:
        radii = [float(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"bad --radii value {text!r}") from None
    mass.check_fit_radii(radii)
    for n in sorted({n for _, n, _, _ in CASES}):  # the fixture rows are n = 3
        mass.check_sweep_radii(radii, n)
    return radii


def rules(sweep):
    """The degrees and node counts of the rules the sweep chose, as columns."""
    return (f"{','.join(str(e.quad_degree) for e in sweep):<15} "
            f"{','.join(str(e.quad_nodes) for e in sweep)}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--radii", default=None, help="comma-separated radii")
    args = ap.parse_args()
    try:
        radii = parse_radii(args.radii)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = []
    print(f"{'surface':<11} {'n':>2} {'chart':>5} {'formula':>12} "
          f"{'m_inf':>13} {'p':>6} {'R^2':>8} {'time':>7}  {'degrees':<15} nodes")
    for name, n, chart_flag, formula in CASES:
        S = GraphSurface.builtin(name, n)
        chart = asymptotic.chart_for(S, chart_flag)
        t0 = time.monotonic()
        sweep = mass.mass_sweep(S, chart, radii, formula)
        fit = mass.extrapolate_mass(sweep)
        print(
            f"{name:<11} {n:>2} {chart_flag:>5} {formula:>12} "
            f"{fit.m_inf:>13.3e} {fit.decay_exponent:>6.2f} "
            f"{fit.fit_quality:>8.5f} {time.monotonic() - t0:>6.1f}s  {rules(sweep)}"
        )
        if name == "sphere":
            ok = abs(fit.m_inf) <= 1e-3
        else:
            ok = abs(fit.m_inf) <= 1e-2 and abs(fit.decay_exponent - (8 - n)) <= 0.5
        if not ok:
            failed.append(f"{name} n={n} {formula}")
        far = sweep[-1]
        if name == "sphere" and far.radius >= 1000.0:
            same = QuadratureRule.sphere(n, far.quad_degree)
            lp = mass.adm_mass_lee_parker(S, chart, far.radius, same).value
            gap = abs(far.value - lp) / abs(lp)
            print(f"{'':<11} {n:>2} {chart_flag:>5} {'std vs LP':>12} {gap:>13.3e}"
                  f"   at r = {far.radius:g}")
            if gap > 1e-6:
                failed.append(f"{name} n={n} standard vs lee_parker at r={far.radius:g}")

    src = mass.SchwarzschildField(mass=1.0)
    for formula in (mass.STANDARD, mass.LEE_PARKER):
        sweep = mass.mass_sweep(src, None, radii, formula, degree=8)
        fit = mass.extrapolate_mass(sweep)
        print(
            f"{'schwarz m=1':<11} {3:>2} {'-':>5} {formula:>12} "
            f"{fit.m_inf:>13.6f} {fit.decay_exponent:>6.2f} "
            f"{fit.fit_quality:>8.5f} {'':>7}  {rules(sweep)}"
        )
        if abs(fit.m_inf - src.mass) > 1e-3:
            failed.append(f"schwarzschild m={src.mass} {formula}")
    for row in failed:
        print(f"FAILED: {row} is outside its bound", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
