"""Command-line front end: surface fixtures, verification suites, mass
sweeps, decay fits, and machine-readable reports.

Each subcommand returns its report and verdict; main alone writes the
report and sets the exit code: 0 on success, 1 when a verification target
fails, 2 on usage or parse errors (including chart preconditions, surfaces
not umbilical at the origin, and an --out path that cannot be written).
Reports are rendered by a deterministic serializer (sorted keys, floats at
17 significant digits), so identical configuration and seed give
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import asymptotic, conformal, mass, obstruction
from .obstruction import NotUmbilical
from .polyjet import MultiPoly, poly_to_json, series_to_json
from .surface import GraphSurface, verify_rho_identities

USAGE_ERROR = 2
CHECK_FAILED = 1

FIT_QUALITY_THRESHOLD = 0.99
DECAY_TOLERANCE = 0.3
EXPECTED_DECAY = {asymptotic.INVERTED_Y: 2.0, asymptotic.CORRECTED_Z: 4.0}
RHO_TOLERANCE = 1e-7
DEFAULT_ORDER = 7


class UsageError(Exception):
    """Configuration problems surfaced as exit code 2."""


# -- deterministic serialization -------------------------------------------------


def _render(obj, out: List[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, k in enumerate(sorted(obj)):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _render(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(", ")
            _render(v, out)
        out.append("]")
    elif isinstance(obj, bool) or obj is None:
        out.append(json.dumps(obj))
    elif isinstance(obj, float):
        if obj != obj or obj in (float("inf"), float("-inf")):
            out.append(json.dumps(obj))  # Infinity / -Infinity / NaN
        else:
            out.append(format(obj, ".17g"))
    elif isinstance(obj, int):
        out.append(str(obj))
    else:  # a Fraction or anything else, as a string
        out.append(json.dumps(str(obj)))


def dumps(obj) -> str:
    """JSON text with sorted keys and floats at 17 significant digits."""
    out: List[str] = []
    _render(obj, out)
    return "".join(out)


def _csv_text(rows: Sequence[Sequence[object]]) -> str:
    lines = []
    for row in rows:
        cells = [
            format(c, ".17g") if isinstance(c, float) else str(c) for c in row
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


# -- configuration ---------------------------------------------------------------


def _load_surface(args) -> GraphSurface:
    # mass leaves --order unset, so that --fixture can refuse it
    order = DEFAULT_ORDER if args.order is None else args.order
    if order < 2:
        raise UsageError(f"--order must be at least 2 (the quadratic part), not {order}")
    if args.n is not None and args.n < 2:  # the sphere quadrature's lower bound
        raise UsageError(f"--n must be at least 2, not {args.n}")
    if getattr(args, "poly", None):
        try:
            with open(args.poly) as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read surface file {args.poly}: {exc}")
        try:
            S = GraphSurface.from_json(data, order=order)
        except (ValueError, KeyError, TypeError) as exc:
            raise UsageError(f"bad surface description: {exc}")
        except ZeroDivisionError as exc:
            raise UsageError(f"bad surface description: zero denominator in {exc}")
        if args.n is not None and S.n != args.n:
            raise UsageError("--n disagrees with the surface file")
        return S
    if getattr(args, "builtin", None):
        if args.n is None:
            raise UsageError("--n is required with --builtin")
        try:
            radius = Fraction("1" if args.radius is None else args.radius)
        except (ValueError, ZeroDivisionError):
            raise UsageError(f"bad --radius value {args.radius!r}")
        if radius <= 0:
            raise UsageError(f"--radius must be positive, not {args.radius}")
        try:
            return GraphSurface.builtin(args.builtin, args.n, order=order, radius=radius)
        except ValueError as exc:
            raise UsageError(str(exc))
    raise UsageError("one of --builtin or --poly is required")


def _usage(fn, *args, **kwargs):
    """fn(*args, **kwargs) with a ValueError reported as a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc))


def _radii(args) -> List[float]:
    if args.radii is not None:
        try:
            return [float(tok) for tok in args.radii.split(",")]
        except ValueError:
            raise UsageError(f"bad --radii value {args.radii!r}")
    return list(mass.DEFAULT_RADII)


# -- subcommands -----------------------------------------------------------------


def _check_window(args, least: int) -> None:
    if args.window < least:
        raise UsageError(f"--window must be at least {least}, not {args.window}")
    # A_k first enters the expansion at order k - 2
    if args.order < args.window + 2:
        raise UsageError(
            f"--order must be at least --window + 2 = {args.window + 2}, not {args.order}"
        )


def cmd_verify(args) -> Tuple[object, bool]:
    # the identities compare the order-2 coefficient with c_theta
    _check_window(args, 2)
    S = _load_surface(args)
    report = obstruction.expansion_coefficients(S.f_jet, W=args.window)
    lead = conformal.leading_order(report.series)
    verdict = conformal.classify_integrability(S.n, lead)

    # The jet identities are exact and do not depend on a sample point.
    rho_max = verify_rho_identities(S, None).max()
    rho_ok = rho_max < RHO_TOLERANCE
    ok = report.all_identities_hold and rho_ok
    return {
        "surface": S.to_json(),
        "checks": report.to_json(),
        "integrability": {"n": S.n, "k": lead.k, "verdict": verdict},
        "rho_identities": {"max_residual": rho_max, "ok": rho_ok},
        "ok": ok,
    }, ok


def cmd_mass(args) -> Tuple[object, bool]:
    radii = _radii(args)
    if args.fixture:
        surface_flags = (args.builtin, args.poly, args.chart, args.radius, args.order)
        if any(flag is not None for flag in surface_flags):
            raise UsageError("--fixture takes no --builtin, --poly, --chart, --radius or --order")
        if args.fixture != "schwarzschild":
            raise UsageError(f"unknown fixture {args.fixture!r}")
        n = args.n if args.n is not None else 3
        m = 1.0 if args.m is None else args.m
        # the sweep runs the smallest radius first, where the fixture
        # refuses a radius inside its horizon
        source: mass.MetricSource = _usage(mass.SchwarzschildField, mass=m, n=n)
        chart = None
        surface_json: object = f"schwarzschild(m={m})"
    else:
        if args.m is not None:
            raise UsageError("--m needs --fixture")
        source = _load_surface(args)
        n = source.n
        chart = _usage(asymptotic.chart_for, source, args.chart or "y")
        surface_json = source.to_json()
    # check everything the sweep and the extrapolation need before either runs
    _usage(mass.check_sweep_radii, radii, n)
    _usage(mass.check_fit_radii, radii)

    cancellation = (None if chart is None
                    else mass.symbolic_mass_cancellation(source.f_jet, chart.kind).to_json())
    sweep = _usage(mass.mass_sweep, source, chart, radii, args.formula, degree=args.quad_deg)
    fit = _usage(mass.extrapolate_mass, sweep)
    ok = fit.fit_quality >= FIT_QUALITY_THRESHOLD
    if args.format == "csv":
        return [["radius", "mass"]] + [[e.radius, e.value] for e in sweep], ok
    return {
        "surface": surface_json,
        "sweeps": [e.to_json() for e in sweep],
        "symbolic_cancellation": cancellation,
        **fit.to_json(),  # m_inf, decay_exponent, fit_quality, formula, chart
    }, ok


def cmd_decay(args) -> Tuple[object, bool]:
    S = _load_surface(args)
    chart = _usage(asymptotic.chart_for, S, args.chart)
    radii = _radii(args)
    _usage(asymptotic.check_decay_radii, radii)
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, not {args.seed}")
    fit = _usage(asymptotic.decay_order_estimate, S, chart, radii, seed=args.seed)
    expected = EXPECTED_DECAY[chart.kind]
    ok = fit.tau_hat >= expected - DECAY_TOLERANCE
    if args.format == "csv":
        return fit.csv_rows(), ok
    return {
        "surface": S.to_json(),
        "expected_order": expected,
        "ok": ok,
        "fit": fit.to_json(),
    }, ok


def cmd_expand(args) -> Tuple[object, bool]:
    _check_window(args, 0)
    S = _load_surface(args)
    series = obstruction.script_R_series(S.f_jet, W=args.window)
    coeffs = [
        {"order": w, "coefficient": series_to_json(series.coefficient(w))}
        for w in range(0, args.window + 1)
    ]
    return {
        "surface": S.to_json(),
        "window": args.window,
        "coefficients": coeffs,
    }, True


def cmd_ctheta(args) -> Tuple[object, bool]:
    if args.order < 3:
        raise UsageError(f"--order must be at least 3 (the cubic part), not {args.order}")
    S = _load_surface(args)
    _, parts = obstruction.umbilical_decompose(S.f_jet.poly)
    A3 = parts.get(3, MultiPoly.zero(S.n))
    ct = obstruction.c_theta(A3)
    return {
        "surface": S.to_json(),
        "cubic_coefficient": poly_to_json(A3),
        "c_theta": series_to_json(ct),
        "identically_zero": ct.is_zero,
    }, True


# -- parser ----------------------------------------------------------------------


def _add_surface_flags(p: argparse.ArgumentParser) -> None:
    source = p.add_mutually_exclusive_group()
    source.add_argument("--builtin", choices=["flat", "sphere", "quartic_x1", "cubic_x1"])
    source.add_argument("--poly", help="surface description JSON file")
    p.add_argument("--radius", help="sphere radius (rational, default 1)")
    p.add_argument("--n", type=int, default=None, help="ambient graph dimension")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER, help="jet truncation order")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="umbilic",
        description="verify curvature expansions, decay, and mass integrals "
        "of inverted graph hypersurfaces",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="run the exact identity suite")
    _add_surface_flags(pv)
    pv.add_argument("--window", type=int, default=3, help="expansion window")
    pv.add_argument("--seed", type=int, default=0, help="ignored; kept for callers that pass it")
    pv.set_defaults(fn=cmd_verify)

    pm = sub.add_parser("mass", help="mass sweep and extrapolation")
    _add_surface_flags(pm)
    pm.add_argument("--format", choices=["json", "csv"], default="json")
    pm.add_argument("--fixture", help="use a reference metric, e.g. schwarzschild")
    pm.add_argument("--m", type=float, default=None, help="fixture mass (default 1.0)")
    pm.add_argument("--chart", choices=["y", "z"], default=None,
                    help="inversion chart of a surface (default y)")
    pm.add_argument("--radii", help="comma-separated sweep radii")
    pm.add_argument("--quad-deg", type=int, default=None, metavar="D",
                    help="largest sphere-rule degree (default: by dimension; an odd D "
                         "runs the rule of D - 1, which is exact to D); each radius climbs "
                         "the rules below it and stops after two consecutive steps within "
                         f"{mass.QUAD_TOL:g} relative; the radii after one that needed it "
                         "run it alone")
    pm.add_argument(
        "--formula",
        choices=[mass.STANDARD, mass.LEE_PARKER],
        default=mass.STANDARD,
    )
    pm.set_defaults(fn=cmd_mass, order=None)

    pd = sub.add_parser("decay", help="fit the metric deviation decay order")
    _add_surface_flags(pd)
    pd.add_argument("--format", choices=["json", "csv"], default="json")
    pd.add_argument("--chart", choices=["y", "z"], default="y")
    pd.add_argument("--radii", help="comma-separated sweep radii")
    pd.add_argument("--seed", type=int, default=0, help="direction grid seed")
    pd.set_defaults(fn=cmd_decay)

    pe = sub.add_parser("expand", help="dump the curvature expansion")
    _add_surface_flags(pe)
    pe.add_argument("--window", type=int, default=3)
    pe.set_defaults(fn=cmd_expand)

    pc = sub.add_parser("ctheta", help="dump the obstruction function")
    _add_surface_flags(pc)
    pc.set_defaults(fn=cmd_ctheta)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one subcommand, which returns its report (a JSON object, or CSV
    rows as a list) and its verdict; write the report to stdout or --out
    and map the verdict to the exit code."""
    args = build_parser().parse_args(argv)
    try:
        report, ok = args.fn(args)
        text = _csv_text(report) if isinstance(report, list) else dumps(report) + "\n"
        if not args.out:
            sys.stdout.write(text)
        else:
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise UsageError(f"cannot write {args.out}: {exc.strerror}")
    except (UsageError, NotUmbilical) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return 0 if ok else CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
