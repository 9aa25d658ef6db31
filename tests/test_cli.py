"""Command-line interface: exit codes, report schemas, determinism."""

import json
import warnings
from fractions import Fraction

import pytest

from umbilic import asymptotic, cli, mass
from umbilic.polyjet import MultiPoly
from umbilic.quadrature import QuadratureRule
from umbilic.surface import GraphSurface


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load(out):
    return json.loads(out)


# -- verify ---------------------------------------------------------------------


def test_verify_flat_all_zero(capsys):
    code, out, _ = run(["verify", "--builtin", "flat", "--n", "3"], capsys)
    assert code == 0
    d = load(out)
    assert d["ok"] is True
    assert d["checks"]["c0_zero"] and d["checks"]["c1_zero"]
    assert d["rho_identities"]["max_residual"] == 0.0


def test_verify_sphere(capsys):
    code, out, _ = run(["verify", "--builtin", "sphere", "--n", "5"], capsys)
    assert code == 0
    d = load(out)
    assert d["checks"]["all_identities_hold"] is True
    # the series is zero through the window W = 3 >= n - 4, so k > n - 4
    # (this read "inconclusive" while a zero series gave no verdict)
    assert d["integrability"] == {"n": 5, "k": None, "verdict": "integrable"}


@pytest.mark.parametrize("window, verdict", [(3, "inconclusive"), (5, "integrable")])
def test_verify_sphere_n9_needs_window_n_minus_4(window, verdict, capsys):
    # zero through W only proves k >= W + 1, which exceeds n - 4 = 5 from W = 5
    code, out, _ = run(["verify", "--builtin", "sphere", "--n", "9",
                        "--window", str(window)], capsys)
    assert code == 0
    assert load(out)["integrability"] == {"n": 9, "k": None, "verdict": verdict}


def test_verify_cubic_not_integrable(capsys):
    code, out, _ = run(["verify", "--builtin", "cubic_x1", "--n", "6"], capsys)
    assert code == 0
    d = load(out)
    # the obstruction function is nonzero and sits at the critical order
    assert d["checks"]["c2"] != []
    assert d["checks"]["c2_matches_c_theta"] is True
    assert d["integrability"] == {"n": 6, "k": 2, "verdict": "not_integrable"}
    assert d["checks"]["dim6"]["residual_zero"] is False


def test_verify_poly_file(tmp_path, capsys):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(GraphSurface.quartic_x1(4).to_json()))
    code, out, _ = run(["verify", "--poly", str(path)], capsys)
    assert code == 0
    assert load(out)["ok"] is True


def test_verify_poly_file_dimension_mismatch(tmp_path, capsys):
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(GraphSurface.quartic_x1(4).to_json()))
    code, _, err = run(["verify", "--poly", str(path), "--n", "5"], capsys)
    assert code == 2
    assert "disagrees" in err


def test_verify_requires_surface(capsys):
    code, _, err = run(["verify", "--n", "3"], capsys)
    assert code == 2
    assert "error" in err


def test_non_umbilical_surface_is_usage_error(tmp_path, capsys):
    # quadratic part x1^2/2 + x2^2 + x3^2/2 is not a multiple of |x|^2
    x1, x2, x3 = (MultiPoly.var(3, i) for i in range(3))
    poly = (x1 * x1 + x3 * x3).scale(Fraction(1, 2)) + x2 * x2
    path = tmp_path / "anisotropic.json"
    path.write_text(json.dumps(GraphSurface.polynomial(poly).to_json()))
    for argv in (
        ["mass", "--chart", "y"],
        ["mass", "--chart", "z"],
        ["decay", "--chart", "z"],
        ["verify"],
        ["expand"],
        ["ctheta"],
    ):
        code, _, err = run(argv + ["--poly", str(path)], capsys)
        assert code == 2, argv
        assert err.startswith("error: "), argv


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2


# -- mass -----------------------------------------------------------------------


def test_mass_schwarzschild_fixture(capsys):
    code, out, _ = run(
        ["mass", "--fixture", "schwarzschild", "--m", "1.0", "--quad-deg", "8"],
        capsys,
    )
    assert code == 0
    d = load(out)
    assert abs(d["m_inf"] - 1.0) < 1e-3
    assert d["formula"] == "standard_adm"
    assert d["symbolic_cancellation"] is None
    assert len(d["sweeps"]) == 5
    assert {"radius", "value", "formula", "chart"} <= set(d["sweeps"][0])


def test_mass_sphere_inverted(capsys):
    code, out, _ = run(["mass", "--builtin", "sphere", "--n", "3"], capsys)
    assert code == 0
    d = load(out)
    assert abs(d["m_inf"]) < 1e-6
    assert d["chart"] == "inverted_y"
    assert d["symbolic_cancellation"]["mass_vanishes"] is True


def test_mass_corrected_chart_rejects_cubic(capsys):
    code, _, err = run(
        ["mass", "--builtin", "cubic_x1", "--n", "5", "--chart", "z"], capsys
    )
    assert code == 2
    assert "cubic" in err


def test_mass_csv_output(capsys):
    code, out, _ = run(
        [
            "mass",
            "--fixture",
            "schwarzschild",
            "--m",
            "0.5",
            "--quad-deg",
            "6",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,mass"
    assert len(lines) == 6
    assert abs(float(lines[-1].split(",")[1]) - 0.5) < 1e-3


def test_mass_bad_radii(capsys):
    code, _, err = run(
        ["mass", "--builtin", "sphere", "--n", "3", "--radii", "10,20"], capsys
    )
    assert code == 2
    code, _, err = run(
        ["mass", "--builtin", "sphere", "--n", "3", "--radii", "ten"], capsys
    )
    assert code == 2
    # each of these is refused before any sweep runs, with exit 2 and an
    # error line instead of a traceback
    for argv in (
        ["--builtin", "sphere", "--n", "3", "--radii", "10,20,30,40", "--quad-deg", "6"],
        ["--builtin", "sphere", "--n", "3", "--quad-deg", "-2"],
        ["--fixture", "schwarzschild", "--m", "1.0", "--radii", "0.2,1,10,100"],
        ["--fixture", "schwarzschild", "--m", "1.0", "--radii", "10,10,10,1000"],
    ):
        code, out, err = run(["mass"] + argv, capsys)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:"), argv


def test_mass_schwarzschild_horizon_guard(capsys):
    # both formulas evaluate on the sphere of radius r only, so radii down
    # to just outside the horizon |y| = |m|/2 = 1 run
    argv = ["mass", "--fixture", "schwarzschild", "--m", "2.0", "--quad-deg", "8",
            "--radii"]
    code, out, err = run(argv + ["1.0,10,100,1000"], capsys)
    assert code == 2
    assert out == "" and "horizon" in err
    code, out, _ = run(argv + ["1.00005,10,100,1000"], capsys)
    assert code in (0, 1)
    assert load(out)["sweeps"][0]["radius"] == 1.00005


def test_mass_quad_deg_zero_is_not_the_default(capsys):
    argv = ["mass", "--fixture", "schwarzschild", "--m", "0.5", "--quad-deg"]
    code, out, _ = run(argv + ["0"], capsys)
    assert code in (0, 1)
    assert {e["quad_degree"] for e in load(out)["sweeps"]} == {0}


def test_mass_odd_quad_deg_runs_the_rule_below(capsys):
    # --quad-deg 13 runs the rule of half-degree 6, as --quad-deg 12 does:
    # the same walk and values, each report naming the degree it asked for
    argv = ["mass", "--builtin", "quartic_x1", "--n", "7", "--chart", "z",
            "--formula", "lee_parker", "--quad-deg"]
    (code13, out13, _), (code12, out12, _) = (run(argv + [d], capsys) for d in ("13", "12"))
    assert code13 == code12
    odd, even = load(out13), load(out12)
    assert odd["m_inf"] == even["m_inf"]
    assert len(odd["sweeps"]) == len(even["sweeps"]) == len(mass.DEFAULT_RADII)
    for a, b in zip(odd["sweeps"], even["sweeps"]):
        keys = ("radius", "value", "quad_nodes")
        assert [a[k] for k in keys] == [b[k] for k in keys]
        assert a["quad_degree"] == (13 if b["quad_degree"] == 12 else b["quad_degree"])


def test_mass_schwarzschild_fixture_needs_n3(capsys):
    code, out, err = run(
        ["mass", "--fixture", "schwarzschild", "--n", "4", "--m", "1.0",
         "--quad-deg", "8"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "R^3" in err


@pytest.mark.parametrize("command", ["verify", "mass", "decay", "expand", "ctheta"])
def test_builtin_and_poly_are_exclusive(command, tmp_path, capsys):
    # verify used to run the file and ignore --builtin
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(GraphSurface.quartic_x1(3).to_json()))
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--builtin", "sphere", "--n", "3", "--poly", str(path)])
    assert exc.value.code == 2
    assert "not allowed with" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "--fixture schwarzschild --builtin sphere --n 3",
    "--fixture schwarzschild --poly {path}",
    "--fixture schwarzschild --chart z",
    "--fixture schwarzschild --chart y",
    "--fixture schwarzschild --radius 5",
    "--fixture schwarzschild --order 3",
    "--fixture schwarzschild --radius 5 --order 3",
    "--builtin sphere --n 3 --m 2",
    "--poly {path} --m 2",
], ids=["fixture-builtin", "fixture-poly", "fixture-chart-z", "fixture-chart-y",
        "fixture-radius", "fixture-order", "fixture-radius-order", "builtin-m", "poly-m"])
def test_mass_takes_one_metric_source(argv, tmp_path, capsys):
    # the fixture used to win over a surface and report a --chart z run as
    # "inverted_y", and to ignore the surface flags --radius and --order; a
    # surface run used to ignore --m
    path = tmp_path / "quartic.json"
    path.write_text(json.dumps(GraphSurface.quartic_x1(3).to_json()))
    code, out, err = run(["mass"] + argv.format(path=path).split(), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_mass_nonzero_cubic_reports_certificate(capsys):
    # the inverted chart certifies every umbilical jet: with a nonzero cubic
    # the one nonzero boundary integral, 9/4 at order -5, lies below
    # -(n - 1) at n = 4 and on it at n = 6
    for n, vanishes in ((4, True), (6, False)):
        code, out, _ = run(
            ["mass", "--builtin", "cubic_x1", "--n", str(n), "--chart", "y",
             "--radii", "10,31.6,100,1000", "--quad-deg", "6"],
            capsys,
        )
        assert code in (0, 1)
        d = load(out)
        cert = d["symbolic_cancellation"]
        assert cert["mass_vanishes"] is vanishes
        assert cert["boundary_integrals"]["-5"] == [{"exp": [0] * n, "num": "9", "den": "4"}]
        assert [e["radius"] for e in d["sweeps"]] == [10.0, 31.6, 100.0, 1000.0]


# -- decay ----------------------------------------------------------------------


def test_decay_flat_sentinel(capsys):
    code, out, _ = run(["decay", "--builtin", "flat", "--n", "3"], capsys)
    assert code == 0
    d = load(out)
    assert d["fit"]["tau_hat"] == float("inf")
    assert d["ok"] is True


def test_decay_quartic_corrected_csv(capsys):
    code, out, _ = run(
        [
            "decay",
            "--builtin",
            "quartic_x1",
            "--n",
            "6",
            "--chart",
            "z",
            "--format",
            "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,max_h,max_dh,max_ddh"
    assert len(lines) == 6


def test_decay_needs_two_distinct_radii(capsys):
    for radii in ("100", "100,100"):
        code, out, err = run(
            ["decay", "--builtin", "sphere", "--n", "3", "--radii", radii], capsys
        )
        assert code == 2, radii
        assert out == ""
        assert err.startswith("error:")


@pytest.mark.parametrize("radii, message", [
    ("", "bad --radii value ''"),
    ("1e-200,1e-100,1e-50,1", "radius 1e-200 is too small: its square underflows float64"),
], ids=["empty", "square-underflow"])
@pytest.mark.parametrize("command", ["mass", "decay"])
def test_radii_refused_before_any_work(command, radii, message, capsys, monkeypatch):
    # an empty --radii used to run the default radii; a radius whose square
    # underflows died in a traceback (mass) or was refused without being
    # named (decay).  Neither the mass certificate nor a sweep may start.
    def never(*args, **kwargs):
        raise AssertionError("ran before the radii were checked")

    for module, name in ((mass, "symbolic_mass_cancellation"), (mass, "mass_sweep"),
                         (asymptotic, "decay_order_estimate")):
        monkeypatch.setattr(module, name, never)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run([command, "--builtin", "sphere", "--n", "3", "--radii", radii],
                             capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_decay_sphere_inverted(capsys):
    code, out, _ = run(["decay", "--builtin", "sphere", "--n", "4"], capsys)
    assert code == 0
    d = load(out)
    assert 1.9 <= d["fit"]["tau_hat"] <= 2.1
    assert d["expected_order"] == 2.0


# -- expand / ctheta ------------------------------------------------------------


def test_expand_orders(capsys):
    code, out, _ = run(["expand", "--builtin", "cubic_x1", "--n", "4"], capsys)
    assert code == 0
    d = load(out)
    orders = [c["order"] for c in d["coefficients"]]
    assert orders == [0, 1, 2, 3]
    assert d["coefficients"][0]["coefficient"] == []
    assert d["coefficients"][2]["coefficient"] != []


def test_ctheta_sphere_zero(capsys):
    code, out, _ = run(["ctheta", "--builtin", "sphere", "--n", "4"], capsys)
    assert code == 0
    d = load(out)
    assert d["identically_zero"] is True
    assert d["c_theta"] == []


def test_ctheta_cubic_nonzero(capsys):
    code, out, _ = run(["ctheta", "--builtin", "cubic_x1", "--n", "5"], capsys)
    assert code == 0
    d = load(out)
    assert d["identically_zero"] is False
    # rationals serialize as strings
    entry = d["c_theta"][0]["poly"][0]
    assert isinstance(entry["num"], str) and isinstance(entry["den"], str)


# -- serialization and environment ----------------------------------------------


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["mass", "--builtin", "sphere", "--n", "3", "--quad-deg", "12"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv, code", [
    ("verify --builtin sphere --n 3", 0),
    ("mass --fixture schwarzschild --m 0.5 --quad-deg 6", 0),
    ("mass --fixture schwarzschild --m 0.5 --quad-deg 6 --format csv", 0),
    ("decay --builtin sphere --n 3 --radii 0.1,0.2", 1),  # fails its decay bound
    ("decay --builtin sphere --n 3 --format csv", 0),
    ("expand --builtin sphere --n 3 --window 0", 0),
    ("ctheta --builtin cubic_x1 --n 4", 0),
], ids=["verify", "mass", "mass-csv", "decay-fails", "decay-csv", "expand", "ctheta"])
def test_out_gets_the_stdout_bytes(argv, code, tmp_path, capsys):
    # one write path: --out FILE holds exactly what stdout would, with the
    # same exit code
    got, out, err = run(argv.split(), capsys)
    assert (got, err) == (code, "") and out
    path = tmp_path / "report"
    assert run(argv.split() + ["--out", str(path)], capsys) == (code, "", "")
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_unwritable_out_is_usage_error(where, tmp_path, capsys):
    # both used to end in a traceback with exit 1
    path = tmp_path if where == "directory" else tmp_path / "missing" / "report.json"
    code, out, err = run(["ctheta", "--builtin", "cubic_x1", "--n", "4", "--out", str(path)],
                         capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1


def test_usage_error_writes_no_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(["verify", "--builtin", "sphere", "--n", "1", "--out", str(path)], capsys)
    assert code == 2 and out == ""
    assert not path.exists()


@pytest.mark.parametrize("action", ["error", "default"])
def test_non_finite_mass_estimate_is_usage_error(action, capsys, monkeypatch):
    # at r = 1e-60 the chart point has |z| = 1e60, so the jet's degree-6
    # monomials overflow float64.  This used to exit 0 with m_inf NaN and
    # fit_quality 1, or end in a traceback with RuntimeWarnings as errors,
    # and it ran every radius first.  The sweep stops at the first estimate.
    estimate, radii = mass.adm_mass_standard, []

    def counted(source, chart, r, rule):
        radii.append(r)
        return estimate(source, chart, r, rule)

    monkeypatch.setattr(mass, "adm_mass_standard", counted)
    with warnings.catch_warnings():
        warnings.simplefilter(action, RuntimeWarning)
        code, out, err = run(["mass", "--builtin", "sphere", "--n", "3", "--quad-deg", "4",
                              "--radii", "1e-60,1e-50,1e-40,1"], capsys)
    assert code == 2
    assert out == ""
    assert err == "error: the mass estimate at radius 1e-60 is nan, not finite\n"
    assert radii == [1e-60]


def test_non_finite_mass_estimate_stops_on_the_first_rung(capsys, monkeypatch):
    # on the default 235,298-node rule the refusal took 2.3-2.7 s; the
    # sweep's walk refuses the NaN on its degree-2 rung and runs nothing more
    estimate, nodes = mass.adm_mass_standard, []

    def counted(source, chart, r, rule):
        nodes.append((r, len(rule.weights)))
        return estimate(source, chart, r, rule)

    monkeypatch.setattr(mass, "adm_mass_standard", counted)
    code, out, err = run(["mass", "--builtin", "sphere", "--n", "7",
                          "--radii", "1e-60,1e-50,1e-40,1"], capsys)
    assert (code, out) == (2, "")
    assert err == "error: the mass estimate at radius 1e-60 is nan, not finite\n"
    assert nodes == [(1e-60, len(QuadratureRule.sphere(7, 2).weights))]


def test_mass_fit_over_small_radii_does_not_overflow(capsys):
    # every estimate is finite, but the fit's column r^-p overflowed at
    # r = 1e-60: m_inf NaN, or a traceback with RuntimeWarnings as errors.
    # The constant values below r = 1 and the drop at r = 1 fit poorly.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(["mass", "--builtin", "quartic_x1", "--n", "4", "--chart", "z",
                              "--formula", "lee_parker", "--quad-deg", "4",
                              "--radii", "1e-60,1e-20,1e-8,1"], capsys)
    assert code == 1 and err == ""
    d = load(out)
    assert abs(d["m_inf"]) < 1.0 and d["fit_quality"] < 0.99


def test_float_formatting_seventeen_digits():
    text = cli.dumps({"x": 1.0 / 3.0, "frac": [0.1]})
    assert "0.33333333333333331" in text
    assert "0.10000000000000001" in text
    assert json.loads(text) == {"x": 1.0 / 3.0, "frac": [0.1]}


@pytest.mark.parametrize("command, flag, value", [
    ("verify", "--format", "csv"),
    ("expand", "--format", "csv"),
    ("ctheta", "--format", "csv"),
    ("mass", "--seed", "1"),
    ("expand", "--seed", "1"),
    ("ctheta", "--seed", "1"),
], ids=["verify", "expand", "ctheta", "mass-seed", "expand-seed", "ctheta-seed"])
def test_format_rejected_where_unused(command, flag, value, capsys):
    # only mass and decay read --format, and only decay reads --seed (verify
    # accepts and ignores it); elsewhere argparse rejects them
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--builtin", "cubic_x1", "--n", "4", flag, value])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    "mass --builtin sphere --n 3 --chart y --radii 10,31.6,100,inf",
    "mass --fixture schwarzschild --m nan",
    "decay --builtin sphere --n 3 --radii 10,100,inf",
    "verify --builtin cubic_x1 --n 5 --window 1",
    "verify --builtin cubic_x1 --n 5 --window 0",
    "verify --builtin sphere --n 3 --window -1",
    "expand --builtin sphere --n 3 --window -1",
    "mass --builtin sphere --n 3 --chart y --order 1",
    "verify --builtin flat --n 3 --order 1",
    "verify --builtin sphere --n 3 --radius 0",
    "verify --builtin sphere --n 3 --radius -1",
    "ctheta --builtin flat --n 0",
    "verify --builtin sphere --n 1",
    "verify --builtin cubic_x1 --n 6 --order 2",
    "verify --builtin cubic_x1 --n 6 --order 4",
    "expand --builtin cubic_x1 --n 4 --order 4",
    "ctheta --builtin cubic_x1 --n 6 --order 2",
    "decay --builtin sphere --n 3 --seed -1",
    "decay --builtin sphere --n 3 --radii 10,1e100",
    "decay --builtin sphere --n 3 --radii 10,1e200",
    "mass --builtin sphere --n 3 --chart y --radii 10,31.6,100,316,1e160",
], ids=["radius-inf", "fixture-nan", "decay-radius-inf", "verify-window-1",
        "verify-window-0", "verify-window-negative", "expand-window-negative",
        "mass-order-1", "verify-order-1", "sphere-radius-0", "sphere-radius-negative",
        "ctheta-n-0", "verify-n-1", "verify-order-2", "verify-order-4",
        "expand-order-4", "ctheta-order-2", "decay-seed-negative", "decay-ddh-underflow",
        "decay-step-overflow", "mass-area-overflow"])
def test_out_of_range_values_are_usage_errors(argv, capsys):
    # each of these used to exit 0 with a NaN or an empty report, exit 1 on
    # a false identity failure, or die in a traceback
    code, out, err = run(argv.split(), capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def malformed_surface_file(case):
    """A surface file the loader must refuse, from a valid quartic_x1 file."""
    good = GraphSurface.quartic_x1(3).to_json()
    if case == "den-0":
        return dict(good, poly=[dict(good["poly"][0], den="0")] + good["poly"][1:])
    if case == "top-level-list":
        return [good]
    if case == "poly-entry-not-object":
        return dict(good, poly=[3] + good["poly"][1:])
    if case == "sphere-radius-negative":
        return {"n": 3, "kind": "sphere", "radius": "-1"}
    if case == "n-fractional":
        return {"n": 3.7, "kind": "sphere"}
    if case == "fd-step-negative":
        return {"n": 3, "kind": "sphere", "fd_step": "-1"}
    last = good["poly"][-1]  # x1^4
    if case == "exp-fractional":
        return dict(good, poly=good["poly"][:-1] + [dict(last, exp=[1.5, 0, 4])])
    if case == "exp-negative":
        return dict(good, poly=good["poly"][:-1] + [dict(last, exp=[-1, 0, 4])])
    if case == "num-float":
        return dict(good, poly=good["poly"][:-1] + [dict(last, num=2.7)])
    return {"n": {"n-1": 1, "n-0": 0}[case], "kind": "sphere"}


@pytest.mark.parametrize("command,case", [
    ("verify", "den-0"),
    ("ctheta", "top-level-list"),
    ("verify", "poly-entry-not-object"),
    ("verify", "n-1"),
    ("ctheta", "n-1"),
    ("verify", "n-0"),
    ("ctheta", "n-0"),
    ("verify", "sphere-radius-negative"),
    ("verify", "n-fractional"),
    ("verify", "fd-step-negative"),
    ("verify", "exp-fractional"),
    ("mass", "exp-negative"),
    ("verify", "num-float"),
])
def test_malformed_surface_files_are_usage_errors(command, case, tmp_path, capsys):
    # each of these used to die in a traceback (exit 1) or, for n < 2, a
    # negative sphere radius, n = 3.7 (run as n = 3), a negative fd_step
    # and exponents or numerators truncated to integers (1.5 -> 1, -1 read
    # as 1, 2.7 -> 2), exit 0 with a report; --n < 2 and --radius -1 were
    # already refused
    path = tmp_path / "surface.json"
    path.write_text(json.dumps(malformed_surface_file(case)))
    code, out, err = run([command, "--poly", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_ignores_negative_seed(capsys):
    # only decay reads --seed; verify accepts any integer and ignores it
    code, out, _ = run(["verify", "--builtin", "sphere", "--n", "3", "--seed", "-1"], capsys)
    assert code == 0
    assert load(out)["ok"] is True


def test_verify_smallest_order_for_the_window(capsys):
    # with the default window 3, order 5 is the first that keeps A_5, the
    # last part the order-3 coefficient reads
    code, out, _ = run(["verify", "--builtin", "cubic_x1", "--n", "6", "--order", "5"], capsys)
    assert code == 0
    assert load(out)["integrability"] == {"n": 6, "k": 2, "verdict": "not_integrable"}


def test_dimension_two_is_accepted(capsys):
    code, out, _ = run(["mass", "--builtin", "sphere", "--n", "2", "--chart", "y"], capsys)
    assert code == 0
    assert load(out)["surface"]["n"] == 2


def test_expand_window_zero(capsys):
    code, out, _ = run(["expand", "--builtin", "sphere", "--n", "3", "--window", "0"], capsys)
    assert code == 0
    assert [c["order"] for c in load(out)["coefficients"]] == [0]
