"""Per-layer timing from outside the library.

The tracer wraps named functions of each lqconic module and rebinds the
wrapper in every lqconic module namespace that holds the original (a
`from .riccati import _sweep` makes a second binding that must be patched
too). Each call records a span (id, name, layer, start, end, parent, case);
spans stay in memory until the run ends. A hook point that no longer exists
is reported as absent, never as an error. Uninstalling restores every
binding, so untraced runs execute the library unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (module, hook points)
HOOKS = {
    "cli": ("lqconic.cli", ("_load_json", "parse_problem",
                            "_certificate_from_document",
                            "certificate_document", "_emit")),
    "model": ("lqconic.model", ("validate",)),
    "riccati": ("lqconic.riccati", ("solve_dre_final", "_sweep",
                                    "_residual_sweep", "_refine_escape")),
    "dlmi": ("lqconic.dlmi", ("feasibility", "dual_objective")),
    "covariance": ("lqconic.covariance", (
        "gain_from_dual", "closed_loop_simulate", "deterministic_covariance",
        "stochastic_covariance", "primal_objective", "descriptor_residual",
        "alignment_residual")),
    "analyzers": ("lqconic.analyzers", (
        "solve_lqr", "solve_stoch_lqr", "iqc_infimum", "verify_solution",
        "hinf_norm_bisection", "bounded_real_test", "passivity_test",
        "_certify_finite", "dri_cloud")),
}

# unit of every per-layer metric, in report order
UNITS = {
    "cli.parse_ms": "ms", "cli.emit_ms": "ms", "cli.result_bytes": "bytes",
    "model.validate_ms": "ms", "model.calls": "count",
    "riccati.solves": "count", "riccati.sweep_ms": "ms",
    "riccati.sweep_ms.const": "ms", "riccati.sweep_ms.sampled": "ms",
    "riccati.residual_ms": "ms", "riccati.refines": "count",
    "riccati.refine_ms": "ms", "riccati.node_steps": "count",
    "riccati.node_steps.const": "count", "riccati.node_steps.sampled": "count",
    "riccati.us_per_node_step": "us", "riccati.us_per_node_step.const": "us",
    "riccati.us_per_node_step.sampled": "us",
    "dlmi.feasibility_ms": "ms", "dlmi.dual_ms": "ms", "dlmi.us_per_node": "us",
    "covariance.gain_ms": "ms", "covariance.propagate_ms": "ms",
    "covariance.quadrature_ms": "ms", "covariance.us_per_node": "us",
    "analyzers.solve_self_ms": "ms", "analyzers.verify_ms": "ms",
    "analyzers.verify_share": "ratio",
    "hinf.probes": "count", "hinf.probe_ms": "ms",
    "hinf.certified_probes": "count", "hinf.certify_share": "ratio",
    "hinf.useful_certify_ratio": "ratio",
    "cloud.escaped_frac": "ratio", "cloud.compare_ms": "ms",
    "cloud.batch_mb": "MB",
    "trace.overhead_frac": "ratio",
}

# the hook point each metric is measured at; a missing hook (say, after a
# rename) makes its metrics absent while the rest of the layer still reports
_SWEEP = tuple(k for k in UNITS if k.startswith(
    ("riccati.sweep_ms", "riccati.node_steps", "riccati.us_per_node_step")))
NEEDS = {
    "parse_problem": ("cli.parse_ms",),
    "certificate_document": ("cli.emit_ms",),
    "validate": ("model.validate_ms", "model.calls"),
    "solve_dre_final": ("riccati.solves",),
    "_sweep": _SWEEP + ("cloud.batch_mb",),
    "_residual_sweep": ("riccati.residual_ms",),
    "_refine_escape": ("riccati.refines", "riccati.refine_ms"),
    "feasibility": ("dlmi.feasibility_ms", "dlmi.us_per_node"),
    "dual_objective": ("dlmi.dual_ms",),
    "gain_from_dual": ("covariance.gain_ms", "covariance.us_per_node"),
    "closed_loop_simulate": ("covariance.propagate_ms",),
    "alignment_residual": ("covariance.quadrature_ms",),
    "solve_lqr": ("analyzers.solve_self_ms",),
    "verify_solution": ("analyzers.verify_ms", "analyzers.verify_share"),
    "bounded_real_test": ("hinf.probes", "hinf.probe_ms"),
    "_certify_finite": ("hinf.certified_probes", "hinf.certify_share",
                        "hinf.useful_certify_ratio"),
    "dri_cloud": ("cloud.compare_ms",),
}


def _sweep_info(args, result):
    flow, lam0 = args[0], args[1]
    values, escaped, _ = result
    valid = np.isfinite(values).all(axis=(2, 3)).sum(axis=1)
    # the batch steps together until its last member escapes
    steps = int(valid.max()) - 1 + int(bool(np.all(escaped)))
    return {"const": bool(flow.const), "node_steps": lam0.shape[0] * steps,
            "bytes": int(values.nbytes)}


def _nodes_info(args, result):
    return {"nodes": int(args[0].values.shape[0])}


def _gain_info(args, result):
    return {"nodes": int(result.K.shape[0])}


INFO = {"_sweep": _sweep_info, "feasibility": _nodes_info,
        "dual_objective": _nodes_info, "gain_from_dual": _gain_info,
        "_residual_sweep": lambda args, r: {"const": bool(args[1].const)},
        "_refine_escape": lambda args, r: {"const": bool(args[0].const)}}


class Tracer:
    """Installs timing wrappers and keeps the spans they record."""

    def __init__(self):
        self.spans = []      # [id, name, layer, start, end, parent, case, info]
        self.absent = []     # hook points that do not exist
        self._stack = []
        self._case = None
        self._patched = []   # (module, attribute, original)

    def _wrap(self, layer, name, fn):
        tracer = self
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(tracer.spans), name, layer, time.perf_counter(), None,
                    tracer._stack[-1] if tracer._stack else None,
                    tracer._case, None]
            tracer.spans.append(span)
            tracer._stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer._stack.pop()
            if info is not None:
                span[7] = info(args, result)
            return result

        return traced

    def install(self):
        for layer, (modname, names) in HOOKS.items():
            try:
                module = importlib.import_module(modname)
            except ImportError:
                self.absent.extend(f"{modname}.{n}" for n in names)
                continue
            for name in names:
                original = getattr(module, name, None)
                if not callable(original):
                    self.absent.append(f"{modname}.{name}")
                    continue
                wrapper = self._wrap(layer, name, original)
                for mod in list(sys.modules.values()):
                    modname_ = getattr(mod, "__name__", "")
                    if modname_ != "lqconic" and not modname_.startswith("lqconic."):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    @contextlib.contextmanager
    def case(self, case_id):
        """Root span for one case; the spans inside it carry its id."""
        span = [len(self.spans), "case", "case", time.perf_counter(), None,
                None, case_id, None]
        self.spans.append(span)
        self._stack.append(span[0])
        self._case = case_id
        try:
            yield
        finally:
            span[4] = time.perf_counter()
            self._stack.pop()
            self._case = None

    def self_times(self):
        """Span duration minus the part its children cover, per span id."""
        child = defaultdict(float)
        for s in self.spans:
            if s[5] is not None:
                child[s[5]] += s[4] - s[3]
        return {s[0]: (s[4] - s[3]) - child[s[0]] for s in self.spans}

    def dump(self):
        keys = ("id", "name", "layer", "start", "end", "parent", "case", "info")
        return [dict(zip(keys, s)) for s in self.spans]


def layer_metrics(tracer, outcomes, kinds, overhead, time_scale=1.0):
    """Per-layer metrics of a traced run. Times and counts are per case of
    the workload; hinf.* are per norm case and cloud.* per cloud; times are
    multiplied by `time_scale`, the run's factor to nominal host speed.
    Returns the metrics and the names of those whose hook is absent."""
    self_t = tracer.self_times()
    by_id = {s[0]: s for s in tracer.spans}
    total, selfsum, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    info = defaultdict(float)
    for s in tracer.spans:
        name = s[1]
        total[name] += s[4] - s[3]
        selfsum[name] += self_t[s[0]]
        calls[name] += 1
        if not s[7]:
            continue
        # riccati hooks say whether the coefficients were constant
        tag = ("const" if s[7]["const"] else "sampled") if "const" in s[7] \
            else None
        if tag:
            selfsum[f"{name}.{tag}"] += self_t[s[0]]
        for k, v in s[7].items():
            info[f"{name}.{k}"] += float(v)
            if tag:
                info[f"{name}.{k}.{tag}"] += float(v)

    n = max(1, len(outcomes))
    n_hinf = max(1, sum(1 for k in kinds if k == "hinf"))
    n_cloud = max(1, sum(1 for k in kinds if k in ("preset", "cloud_system")))

    def ms(*names):
        return 1e3 * sum(selfsum[x] for x in names)

    def ratio(a, b):
        return a / b if b else 0.0

    probes = [s for s in tracer.spans if s[1] == "bounded_real_test"]
    probe_ids = {s[0] for s in probes}
    cert_in_probe = [s for s in tracer.spans
                     if s[1] == "_certify_finite" and s[5] in probe_ids]
    cloud_sweeps = [s for s in tracer.spans if s[1] == "_sweep"
                    and s[5] is not None and by_id[s[5]][1] == "dri_cloud"]
    case_time = total["case"]
    cloud_esc = [o.extra["escaped_frac"] for o in outcomes
                 if "escaped_frac" in o.extra]
    sizes = [o.extra["result_bytes"] for o in outcomes
             if "result_bytes" in o.extra]
    analyzer_names = [x for x in HOOKS["analyzers"][1] if x != "verify_solution"]
    cov_names = HOOKS["covariance"][1]

    m = {
        "cli.parse_ms": ms("_load_json", "parse_problem",
                           "_certificate_from_document") / n,
        "cli.emit_ms": ms("certificate_document", "_emit") / n,
        "cli.result_bytes": float(np.mean(sizes)) if sizes else 0.0,
        "model.validate_ms": 1e3 * total["validate"] / n,
        "model.calls": calls["validate"] / n,
        "riccati.solves": calls["solve_dre_final"] / n,
        "riccati.sweep_ms": ms("_sweep") / n,
        "riccati.sweep_ms.const": ms("_sweep.const") / n,
        "riccati.sweep_ms.sampled": ms("_sweep.sampled") / n,
        "riccati.residual_ms": ms("_residual_sweep") / n,
        "riccati.refines": calls["_refine_escape"] / n,
        "riccati.refine_ms": ms("_refine_escape") / n,
        "riccati.node_steps": info["_sweep.node_steps"] / n,
        "riccati.node_steps.const": info["_sweep.node_steps.const"] / n,
        "riccati.node_steps.sampled": info["_sweep.node_steps.sampled"] / n,
        "riccati.us_per_node_step": ratio(ms("_sweep") * 1e3,
                                          info["_sweep.node_steps"]),
        "riccati.us_per_node_step.const": ratio(
            ms("_sweep.const") * 1e3, info["_sweep.node_steps.const"]),
        "riccati.us_per_node_step.sampled": ratio(
            ms("_sweep.sampled") * 1e3, info["_sweep.node_steps.sampled"]),
        "dlmi.feasibility_ms": ms("feasibility") / n,
        "dlmi.dual_ms": ms("dual_objective") / n,
        "dlmi.us_per_node": ratio(ms("feasibility", "dual_objective") * 1e3,
                                  info["feasibility.nodes"]),
        "covariance.gain_ms": ms("gain_from_dual") / n,
        "covariance.propagate_ms": ms("closed_loop_simulate",
                                      "deterministic_covariance",
                                      "stochastic_covariance") / n,
        "covariance.quadrature_ms": ms("primal_objective",
                                       "descriptor_residual",
                                       "alignment_residual") / n,
        "covariance.us_per_node": ratio(ms(*cov_names) * 1e3,
                                        info["gain_from_dual.nodes"]),
        "analyzers.solve_self_ms": ms(*analyzer_names) / n,
        "analyzers.verify_ms": 1e3 * total["verify_solution"] / n,
        "analyzers.verify_share": ratio(total["verify_solution"], case_time),
        "hinf.probes": len(probes) / n_hinf,
        "hinf.probe_ms": 1e3 * sum(s[4] - s[3] for s in probes) / n_hinf,
        "hinf.certified_probes": len(cert_in_probe) / n_hinf,
        "hinf.certify_share": ratio(sum(s[4] - s[3] for s in cert_in_probe),
                                    sum(s[4] - s[3] for s in probes)),
        "hinf.useful_certify_ratio": ratio(
            sum(1 for k in kinds if k == "hinf"), len(cert_in_probe)),
        "cloud.escaped_frac": float(np.mean(cloud_esc)) if cloud_esc else 0.0,
        "cloud.compare_ms": ms("dri_cloud") / n_cloud,
        "cloud.batch_mb": sum(s[7]["bytes"] for s in cloud_sweeps) / 1e6
        / n_cloud,
        "trace.overhead_frac": overhead,
    }
    for k, unit in UNITS.items():
        if unit in ("ms", "us"):
            m[k] *= time_scale
    missing = {a.rsplit(".", 1)[1] for a in tracer.absent}
    absent = sorted(k for hook in missing for k in NEEDS.get(hook, ()))
    for k in absent:
        m[k] = 0.0
    return m, absent
