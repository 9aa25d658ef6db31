#!/usr/bin/env python3
"""Run the exact identity suite over every builtin surface and a seeded
random cubic corpus, printing one line per check: the curvature-expansion
identities and the exact squared-distance (rho) identities per builtin,
then the random cubics, each also taken with H = n as a parameter-free
surface whose numeric integrability probe must give the exact verdict.
The exit status is 1 if any check fails.

Usage: python3 scripts/verify_all.py [--seed 0] [--count 5]
"""

import argparse
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement

from umbilic import conformal, obstruction
from umbilic.polyjet import Jet, MultiPoly
from umbilic.surface import GraphSurface, verify_rho_identities


def random_cubic(n: int, rng: random.Random, width: int = 10) -> MultiPoly:
    monos = list(combinations_with_replacement(range(n), 3))
    rng.shuffle(monos)
    out = MultiPoly.zero(n)
    for combo in monos[:width]:
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        mono = MultiPoly.const(n, c)
        for i in combo:
            mono = mono * MultiPoly.var(n, i)
        out = out + mono
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--count", type=int, default=5, help="random cubics per n")
    args = ap.parse_args()

    failures = 0
    for name in ("flat", "sphere", "quartic_x1", "cubic_x1"):
        for n in (3, 5, 6):
            S = GraphSurface.builtin(name, n)
            t0 = time.monotonic()
            rep = obstruction.expansion_coefficients(S.f_jet)
            ok = rep.all_identities_hold
            failures += not ok
            print(
                f"{name:<11} n={n}  identities={'ok' if ok else 'FAIL'}  "
                f"({time.monotonic() - t0:.2f}s)"
            )
            t0 = time.monotonic()
            worst = verify_rho_identities(S, None).max()
            failures += worst != 0
            print(
                f"{name:<11} n={n}  rho identities={'ok' if worst == 0 else 'FAIL'}  "
                f"max residual {worst:g}  ({time.monotonic() - t0:.2f}s)"
            )

    for n in range(3, 8):
        rng = random.Random(args.seed + n)
        t0 = time.monotonic()
        bad = agree = 0
        for _ in range(args.count):
            A3 = random_cubic(n, rng)
            H = MultiPoly.param(n, "H")
            f = Jet.of(MultiPoly.x_norm_sq(n) * H.scale(Fraction(1, 2 * n)) + A3, 7)
            s = obstruction.script_R_series(f)
            good = (
                s.coefficient(0).is_zero
                and s.coefficient(1).is_zero
                and (s.coefficient(2) - obstruction.c_theta(A3)).is_zero
            )
            lhs, rhs = obstruction.integrated_identity(A3)
            good = good and (lhs - rhs).is_zero
            bad += not good
            S = GraphSurface.polynomial(MultiPoly.x_norm_sq(n).scale(Fraction(1, 2)) + A3)
            exact = conformal.classify_integrability(n, conformal.leading_order_of_R(S))
            agree += conformal.integrability_probe(S).verdict == exact
        failures += bad + args.count - agree
        print(
            f"random cubics n={n}  {args.count - bad}/{args.count} exact  "
            f"probe agrees {agree}/{args.count}  ({time.monotonic() - t0:.2f}s)"
        )
    print("all checks passed" if failures == 0 else f"{failures} FAILURES")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
