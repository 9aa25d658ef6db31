"""Spans around the public functions of each `umbilic` module, recorded from
outside the package.

`Tracer.install()` replaces every wrapped function in every `umbilic`
module namespace that holds it (so names imported with `from .x import y`
are caught too) and `uninstall()` puts the originals back.  Each call
records a span: name, start, end, parent span and job id.  Spans stay in
memory; `save()` writes them out as columns once the run is over.

Self time is a span's duration minus the durations of its direct children.
Children never overlap because the program is single-threaded at the
Python level, so that difference is exactly the uncovered time.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

# (module, attribute path, span name).  The span name's prefix before the
# first dot is the layer.
TARGETS: List[Tuple[str, str, str]] = [
    ("polyjet", "MultiPoly.__mul__", "polyjet.mul"),
    ("polyjet", "MultiPoly.mul_truncated", "polyjet.mul"),
    ("polyjet", "MultiPoly.__add__", "polyjet.add"),
    ("polyjet", "poly_divexact", "polyjet.divexact"),
    ("polyjet", "SphericalSeries.canonicalize", "polyjet.canonicalize"),
    ("polyjet", "Jet.power_unit", "polyjet.power_unit"),
    ("polyjet", "SphericalSeries.power_unit", "polyjet.power_unit"),
    ("obstruction", "script_R_series", "obstruction.script_R_series"),
    ("obstruction", "c_theta", "obstruction.c_theta"),
    ("obstruction", "integrated_identity", "obstruction.integrated_identity"),
    ("obstruction", "dim6_check", "obstruction.dim6_check"),
    ("surface", "BatchPoly.__call__", "surface.batch_eval"),
    ("surface", "point_geometry", "surface.point_geometry"),
    ("surface", "verify_rho_identities", "surface.rho_identities"),
    ("asymptotic", "ghat_deviation_batch", "asymptotic.deviation"),
    ("asymptotic", "decay_order_estimate", "asymptotic.decay_fit"),
    ("asymptotic", "ghat_radial_trace_series", "asymptotic.trace_series"),
    ("quadrature", "QuadratureRule.sphere", "quadrature.rule_build"),
    ("quadrature", "QuadratureRule.integrate", "quadrature.integrate"),
    ("mass", "adm_mass_standard", "mass.estimate"),
    ("mass", "adm_mass_lee_parker", "mass.estimate"),
    ("mass", "SchwarzschildField.deviation_batch", "mass.fixture_deviation"),
    ("mass", "extrapolate_mass", "mass.extrapolate"),
    ("mass", "symbolic_mass_cancellation", "mass.certificate"),
    ("conformal", "curvature_density_factor", "conformal.density"),
    ("conformal", "integrability_probe", "conformal.probe"),
    ("conformal", "leading_order_of_R", "conformal.leading_order"),
    ("numdiff", "gradient", "numdiff.fd"),
    ("numdiff", "hessian", "numdiff.fd"),
    ("numdiff", "metric_derivatives", "numdiff.fd"),
    ("numdiff", "scalar_curvature_fd", "numdiff.fd"),
    ("numdiff", "power_law_fit", "numdiff.fit"),
    ("cli", "main", "cli.main"),
    ("cli", "dumps", "cli.render"),
    ("cli", "_csv_text", "cli.render"),
]

# Per-layer metrics: (name, unit, better).  BENCHMARK.json lists the same.
LAYER_METRICS: List[Tuple[str, str, str]] = [
    ("polyjet.mul_calls", "count", "lower"),
    ("polyjet.mul_s", "s", "lower"),
    ("polyjet.add_calls", "count", "lower"),
    ("polyjet.add_s", "s", "lower"),
    ("polyjet.divexact_calls", "count", "lower"),
    ("polyjet.divexact_hits", "count", "higher"),
    ("polyjet.divexact_hit_ratio", "ratio", "higher"),
    ("polyjet.divexact_s", "s", "lower"),
    ("polyjet.canonicalize_calls", "count", "lower"),
    ("polyjet.canonicalize_self_s", "s", "lower"),
    ("polyjet.power_unit_calls", "count", "lower"),
    ("polyjet.power_unit_s", "s", "lower"),
    ("obstruction.script_R_series_s", "s", "lower"),
    ("obstruction.c_theta_s", "s", "lower"),
    ("obstruction.integrated_identity_s", "s", "lower"),
    ("obstruction.dim6_check_s", "s", "lower"),
    ("surface.batch_eval_calls", "count", "lower"),
    ("surface.batch_eval_points", "count", "lower"),
    ("surface.batch_eval_term_points", "count", "lower"),
    ("surface.batch_eval_s", "s", "lower"),
    ("surface.points_per_call", "points/call", "higher"),
    ("surface.point_geometry_calls", "count", "lower"),
    ("surface.point_geometry_self_s", "s", "lower"),
    ("surface.rho_identities_calls", "count", "lower"),
    ("surface.rho_identities_distinct_ratio", "ratio", "higher"),
    ("surface.rho_identities_s", "s", "lower"),
    ("asymptotic.deviation_calls", "count", "lower"),
    ("asymptotic.deviation_points", "count", "lower"),
    ("asymptotic.deviation_self_s", "s", "lower"),
    ("asymptotic.decay_fit_s", "s", "lower"),
    ("asymptotic.trace_series_s", "s", "lower"),
    ("quadrature.rule_build_s", "s", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.integrate_calls", "count", "lower"),
    ("mass.estimate_calls", "count", "lower"),
    ("mass.estimate_self_s", "s", "lower"),
    ("mass.deviation_evals_per_estimate", "evals/estimate", "lower"),
    ("mass.fd_bytes_computed", "B", "lower"),
    ("mass.extrapolate_s", "s", "lower"),
    ("mass.certificate_s", "s", "lower"),
    ("conformal.density_calls", "count", "lower"),
    ("conformal.probe_s", "s", "lower"),
    ("conformal.leading_order_s", "s", "lower"),
    ("numdiff.fd_calls", "count", "lower"),
    ("numdiff.fd_s", "s", "lower"),
    ("numdiff.fit_calls", "count", "lower"),
    ("cli.calls", "count", "lower"),
    ("cli.render_s", "s", "lower"),
]


def _resolve(owner, path: str):
    """The attribute holder and the raw attribute (staticmethod objects kept
    as such, so they can be wrapped and put back unchanged)."""
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def _rho_key(S, x):
    """What one rho-identity call actually depends on: the exact jet on the
    symbolic path (which ignores x), the evaluator and x on the numeric one."""
    if S.symbolic:
        return ("jet", S.f_jet)
    base = getattr(S.f_num, "__self__", None)
    ident = base.f_jet if base is not None and getattr(base, "symbolic", False) else id(S.f_num)
    return ("num", ident, S.fd_step, tuple(float(v) for v in x))


class Tracer:
    """In-memory span store plus the counters measured at the same calls."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.outer = array("b")  # 1 unless a span of the same name encloses it
        self.job_names: List[str] = []
        self.counters: Dict[Tuple[str, int], float] = defaultdict(float)
        self._stack: List[int] = []
        self._active: Dict[int, int] = defaultdict(int)
        self._job_id = -1
        self._saved: List[Tuple[object, str, object]] = []
        self._rho_keys: set = set()

    # -- recording ---------------------------------------------------------

    def begin_job(self, name: str) -> None:
        self.job_names.append(name)
        self._job_id = len(self.job_names) - 1

    def count(self, key: str, value: float = 1.0) -> None:
        self.counters[(key, self._job_id)] += value

    def _wrap(self, fn: Callable, span: str, after: Optional[Callable]) -> Callable:
        sid_name = self._name_ids.setdefault(span, len(self.names))
        if sid_name == len(self.names):
            self.names.append(span)
        stack, active, clock = self._stack, self._active, time.perf_counter
        name_col, start_col, end_col = self.name, self.start, self.end
        parent_col, job_col, outer_col = self.parent, self.job, self.outer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(name_col)
            name_col.append(sid_name)
            parent_col.append(stack[-1] if stack else -1)
            job_col.append(self._job_id)
            outer_col.append(0 if active[sid_name] else 1)
            start_col.append(0.0)
            end_col.append(0.0)
            stack.append(sid)
            active[sid_name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                active[sid_name] -= 1
                stack.pop()
                start_col[sid] = t0
                end_col[sid] = t1
            if after is not None:
                after(sid, args, result)
            return result

        return traced

    def _after(self, span: str) -> Optional[Callable]:
        """Work counters taken from a call's arguments and result."""
        if span == "surface.batch_eval":

            def batch(sid, args, result):
                points = len(result)
                self.count("surface.batch_eval_points", points)
                self.count("surface.batch_eval_term_points", points * args[0].coeffs.size)

            return batch
        if span == "polyjet.divexact":
            return lambda sid, args, result: self.count(
                "polyjet.divexact_hits", result is not None
            )
        if span == "surface.rho_identities":

            def rho(sid, args, result):
                self._rho_keys.add(_rho_key(args[0], args[1]))

            return rho
        if span in ("asymptotic.deviation", "mass.fixture_deviation"):

            def deviation(sid, args, result):
                if span == "asymptotic.deviation":
                    self.count("asymptotic.deviation_points", result.shape[0])
                parent = self.parent[sid]
                if parent >= 0 and self.names[self.name[parent]] == "mass.estimate":
                    self.count("mass.deviation_evals", 1)
                    self.count("mass.fd_bytes_computed", result.nbytes)

            return deviation
        if span == "quadrature.rule_build":
            return lambda sid, args, result: self.count(
                "quadrature.nodes", len(result.weights)
            )
        return None

    def install(self) -> None:
        for module_name, path, span in TARGETS:
            module = sys.modules[f"umbilic.{module_name}"]
            owner, attr, raw = _resolve(module, path)
            is_static = isinstance(raw, staticmethod)
            fn = raw.__func__ if is_static else raw
            traced = self._wrap(fn, span, self._after(span))
            setattr(owner, attr, staticmethod(traced) if is_static else traced)
            self._saved.append((owner, attr, raw))
            if not isinstance(owner, type):
                # the same function object imported by name elsewhere
                for name, mod in list(sys.modules.items()):
                    if name.split(".")[0] != "umbilic" or mod is module:
                        continue
                    for key, val in list(vars(mod).items()):
                        if val is fn:
                            setattr(mod, key, traced)
                            self._saved.append((mod, key, fn))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    # -- analysis ------------------------------------------------------------

    def _durations(self):
        n = len(self.name)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summary(self) -> Tuple[Dict[str, Dict[str, float]], Dict[int, Dict[str, float]]]:
        """Per span name: calls, inclusive time (outermost spans only) and
        self time, over the run and per job."""
        dur, self_t = self._durations()
        total: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        per_job: Dict[int, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i in range(len(self.name)):
            name = self.names[self.name[i]]
            t = total[name]
            t["calls"] += 1
            t["self_s"] += self_t[i]
            if self.outer[i]:
                t["incl_s"] += dur[i]
            per_job[self.job[i]][name] += self_t[i]
        return total, per_job

    def layer_metrics(self) -> Dict[str, float]:
        total, _ = self.summary()

        def get(name: str, key: str) -> float:
            return float(total.get(name, {}).get(key, 0.0))

        def counter(key: str) -> float:
            return float(sum(v for (k, _), v in self.counters.items() if k == key))

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        calls = lambda name: int(get(name, "calls"))  # noqa: E731
        incl = lambda name: get(name, "incl_s")  # noqa: E731
        selfs = lambda name: get(name, "self_s")  # noqa: E731
        divexact_hits = int(counter("polyjet.divexact_hits"))
        batch_points = int(counter("surface.batch_eval_points"))
        estimates = calls("mass.estimate")
        rho_calls = calls("surface.rho_identities")
        out = {
            "polyjet.mul_calls": calls("polyjet.mul"),
            "polyjet.mul_s": incl("polyjet.mul"),
            "polyjet.add_calls": calls("polyjet.add"),
            "polyjet.add_s": incl("polyjet.add"),
            "polyjet.divexact_calls": calls("polyjet.divexact"),
            "polyjet.divexact_hits": divexact_hits,
            "polyjet.divexact_hit_ratio": ratio(divexact_hits, calls("polyjet.divexact")),
            "polyjet.divexact_s": incl("polyjet.divexact"),
            "polyjet.canonicalize_calls": calls("polyjet.canonicalize"),
            "polyjet.canonicalize_self_s": selfs("polyjet.canonicalize"),
            "polyjet.power_unit_calls": calls("polyjet.power_unit"),
            "polyjet.power_unit_s": incl("polyjet.power_unit"),
            "obstruction.script_R_series_s": incl("obstruction.script_R_series"),
            "obstruction.c_theta_s": incl("obstruction.c_theta"),
            "obstruction.integrated_identity_s": incl("obstruction.integrated_identity"),
            "obstruction.dim6_check_s": incl("obstruction.dim6_check"),
            "surface.batch_eval_calls": calls("surface.batch_eval"),
            "surface.batch_eval_points": batch_points,
            "surface.batch_eval_term_points": int(counter("surface.batch_eval_term_points")),
            "surface.batch_eval_s": incl("surface.batch_eval"),
            "surface.points_per_call": ratio(batch_points, calls("surface.batch_eval")),
            "surface.point_geometry_calls": calls("surface.point_geometry"),
            "surface.point_geometry_self_s": selfs("surface.point_geometry"),
            "surface.rho_identities_calls": rho_calls,
            "surface.rho_identities_distinct_ratio": ratio(len(self._rho_keys), rho_calls),
            "surface.rho_identities_s": incl("surface.rho_identities"),
            "asymptotic.deviation_calls": calls("asymptotic.deviation"),
            "asymptotic.deviation_points": int(counter("asymptotic.deviation_points")),
            "asymptotic.deviation_self_s": selfs("asymptotic.deviation"),
            "asymptotic.decay_fit_s": incl("asymptotic.decay_fit"),
            "asymptotic.trace_series_s": incl("asymptotic.trace_series"),
            "quadrature.rule_build_s": incl("quadrature.rule_build"),
            "quadrature.nodes": int(counter("quadrature.nodes")),
            "quadrature.integrate_calls": calls("quadrature.integrate"),
            "mass.estimate_calls": estimates,
            "mass.estimate_self_s": selfs("mass.estimate"),
            "mass.deviation_evals_per_estimate": ratio(counter("mass.deviation_evals"), estimates),
            "mass.fd_bytes_computed": int(counter("mass.fd_bytes_computed")),
            "mass.extrapolate_s": incl("mass.extrapolate"),
            "mass.certificate_s": incl("mass.certificate"),
            "conformal.density_calls": calls("conformal.density"),
            "conformal.probe_s": incl("conformal.probe"),
            "conformal.leading_order_s": incl("conformal.leading_order"),
            "numdiff.fd_calls": calls("numdiff.fd"),
            "numdiff.fd_s": incl("numdiff.fd"),
            "numdiff.fit_calls": calls("numdiff.fit"),
            "cli.calls": calls("cli.main"),
            "cli.render_s": incl("cli.render"),
        }
        assert list(out) == [m[0] for m in LAYER_METRICS]
        return out

    def job_breakdown(self) -> List[dict]:
        """Per job: self time by span name, largest first, and the work
        counters recorded inside it."""
        _, per_job = self.summary()
        rows = []
        for jid, name in enumerate(self.job_names):
            selfs = sorted(per_job.get(jid, {}).items(), key=lambda kv: -kv[1])
            counters = {k: v for (k, j), v in self.counters.items() if j == jid}
            rows.append({"job": name, "self_s": dict(selfs), "counters": counters})
        return rows

    def save(self, path) -> None:
        """Write the spans as columns (npz): name ids, start, end, parent,
        job, plus the name and job tables."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            jobs=np.array(self.job_names),
            name=np.array(self.name),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            job=np.array(self.job),
        )
