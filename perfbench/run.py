"""lqconic benchmark: certified answers per second on three workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see cases.py for the schedules and why each was chosen):
regulator-roundtrip, norm-bisect, cloud-batch. One client in one process
runs a closed loop: the next case starts when the previous answer is back.
The loop runs whole schedule cycles until --seconds have passed. Every case
is then checked against an independent reference (reference.py); a failed
case makes the run exit 1. Set-up is timed in fresh interpreters
(warmup.py) before the loop.

Times are calibrated to a nominal host speed. The speed of a shared host
drifts by tens of percent over minutes: a fixed kernel of small numpy
operations that uses no lqconic code (`host_kernel`) took from 2.6 to 5.1 ms
across runs on one 2-core machine, and case times moved with it. The kernel
runs before every case and every set-up probe, and each reported time is the
wall time times CAL_NOMINAL_S over the median kernel time of its phase. In
two ten-seed batches this moved the spread (interquartile range over median)
of cases_per_s from 0.10-0.19 to 0.05-0.14 on norm-bisect and cloud-batch;
on regulator-roundtrip it stayed at 0.07-0.13. The raw wall-clock figures
stay in the record under diagnostics.wall, next to the kernel times.

With --trace 1 the loop runs for half the time untraced, then repeats the
same cases with timing wrappers around each layer's functions (tracing.py);
the per-layer metrics come from the second pass and trace.overhead_frac
compares the two.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, the metrics being those BENCHMARK.json names
for the mode. The lines before it print every metric with its unit; the full
record (environment, shares of case properties, per-case rows, spans) goes
to perfbench/out/.
"""

import os

# pin BLAS to one thread before numpy loads; recorded in the environment
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORK = os.path.join(OUT, "work")

E2E_UNITS = {
    "setup_s": "s", "cases_per_s": "1/s", "case_ms.p50": "ms",
    "failed_frac": "ratio", "value_err.max": "relative",
    "escape_err.max": "grid_steps", "peak_rss_mb": "MB",
}
SETUP_TIMEOUT_S = 60
# host-kernel time that counts as nominal host speed
CAL_NOMINAL_S = 4.0e-3
_KERNEL_A = np.array([[0.1, 0.3, -0.2], [0.0, -0.4, 0.5], [0.2, 0.1, -0.3]])


def _layout_error():
    for rel in (("src", "lqconic", "__init__.py"), ("src", "lqconic", "cli.py"),
                ("tests", "oracles.py"), ("BENCHMARK.json",)):
        if not os.path.isfile(os.path.join(ROOT, *rel)):
            return f"{os.path.join(*rel)} not found under {ROOT}"
    return None


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "seed": seed,
    }


def host_kernel():
    """Seconds for a fixed kernel of small numpy operations in a Python
    loop, the kind of work lqconic does per grid node. It uses no lqconic
    code, so a change to the library cannot move it."""
    t0 = time.perf_counter()
    y = np.eye(3)
    for _ in range(200):
        k = _KERNEL_A.T @ y + y @ _KERNEL_A - y @ y
        y = y + 0.01 * k
        y = 0.5 * (y + y.T)
        np.linalg.eigvalsh(y)
    return time.perf_counter() - t0


def speed(host):
    """Factor that turns wall time into time at nominal host speed, from
    the host-kernel times of one phase."""
    return CAL_NOMINAL_S / statistics.median(host)


def measure_setup(workload, seed, probes):
    """Wall times of fresh interpreters that import lqconic and lqconic.cli
    and finish the warm-up case, one after another, and the host-kernel
    times taken around them."""
    times, host = [], [host_kernel()]
    for _ in range(probes):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "warmup.py"), workload,
             str(seed)], cwd=ROOT, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=SETUP_TIMEOUT_S)
        times.append(time.perf_counter() - t0)
        host.append(host_kernel())
        if proc.returncode != 0:
            raise RuntimeError("set-up probe failed: "
                               + proc.stderr.decode(errors="replace")[-500:])
    return times, host


def _steady_loop(workload, seed, seconds, scale):
    """Closed loop over whole schedule cycles until `seconds` have passed.
    Returns the (case, outcome) pairs and the host-kernel times."""
    import cases

    cycle = len(cases.SCHEDULES[workload])
    done, host, start = [], [], time.perf_counter()
    while not done or time.perf_counter() - start < seconds:
        for _ in range(cycle):
            case = cases.make_case(workload, seed, len(done), scale)
            prepared = cases.prepare(case, WORK)
            host.append(host_kernel())
            done.append((case, cases.run_case(case, prepared, scale)))
    return done, host


def _traced_pass(runs, scale):
    import cases
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    outcomes, host = [], []
    try:
        for case, _ in runs:
            prepared = cases.prepare(case, WORK)
            host.append(host_kernel())
            with tracer.case(case.index):
                outcomes.append(cases.run_case(case, prepared, scale))
    finally:
        tracer.uninstall()
    return tracer, outcomes, host


def _tail(ms):
    """Highest percentile with at least ten cases above it, or None."""
    if len(ms) < 11:
        return None
    ordered = sorted(ms)
    k = len(ordered) - 11
    return {"percentile": round(100.0 * (k + 1) / len(ordered), 1),
            "ms": ordered[k], "cases": len(ordered)}


def _shares(workload, runs):
    kinds = [c.kind for c, _ in runs]
    n = len(runs)
    shares = {f"kind.{k}": kinds.count(k) / n for k in sorted(set(kinds))}
    shares["sampled"] = sum(c.sampled for c, _ in runs) / n
    if workload == "norm-bisect":
        verdicts = [o.verdict for c, o in runs if c.kind == "passivity"]
        shares["passive_of_passivity"] = (sum(bool(v) for v in verdicts)
                                          / max(1, len(verdicts)))
    if workload == "cloud-batch":
        esc = [o.extra.get("escaped_frac", 0.0) for _, o in runs]
        shares["escaped_samples.mean"] = statistics.fmean(esc)
        shares["escaped_samples.min"] = min(esc)
        shares["escaped_samples.max"] = max(esc)
        shares["extremal_escaped"] = sum(o.verdict is False
                                         for _, o in runs) / n
    return shares


def evaluate(runs, refs, traced_outcomes=None):
    """Check every outcome against its reference; returns per-case rows and
    the failure count. Traced outcomes are checked too."""
    from reference import check

    rows, failed = [], 0
    passes = [[o for _, o in runs]]
    if traced_outcomes is not None:
        passes.append(traced_outcomes)
    for pass_no, outcomes in enumerate(passes):
        for (case, _), out, ref in zip(runs, outcomes, refs):
            errors, value_err, escape_err = check(case, out, ref)
            failed += bool(errors)
            rows.append({
                "pass": "traced" if pass_no else "untraced",
                "index": case.index, "kind": case.kind, "n": case.n,
                "m": case.m, "sampled": case.sampled, "steps": case.steps,
                "ms": 1e3 * out.seconds, "value": out.value,
                "reference": ref.value, "escape_time": out.escape_time,
                "reference_escape_time": ref.escape_time,
                "verdict": out.verdict, "reference_verdict": ref.verdict,
                "value_err": value_err, "escape_err": escape_err,
                "reference_err": ref.error, "reference_source": ref.source,
                "errors": errors, "extra": out.extra,
            })
    return rows, failed


def _max(values):
    values = [v for v in values if v is not None]
    return max(values) if values else None


def measure(workload, seed, seconds, trace, scale=None, corrupt=None):
    """One benchmark run in this process. `corrupt`, if given, maps each
    reference before checking (the self-test uses it to prove that a wrong
    reference fails the run)."""
    import cases

    scale = scale or cases.FULL
    setup, setup_host = measure_setup(workload, seed, scale.setup_probes)

    warm = cases.warmup_case(workload, seed)
    warm_out = cases.run_case(warm, cases.prepare(warm, WORK), cases.TINY)

    runs, host = _steady_loop(workload, seed,
                              seconds / 2 if trace else seconds, scale)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    tracer = traced = None
    if trace:
        tracer, traced, traced_host = _traced_pass(runs, scale)

    from reference import reference
    refs = [reference(case) for case, _ in runs]
    if corrupt is not None:
        refs = [corrupt(r) for r in refs]
    rows, failed = evaluate(runs, refs, traced)
    if warm_out.error:
        failed += 1
    attempted = len(rows) + 1

    steady = [r for r in rows if r["pass"] == "untraced"]
    wall_ms = [r["ms"] for r in steady]
    ms = [v * speed(host) for v in wall_ms]
    passed = sum(not r["errors"] for r in steady)
    e2e = {
        "setup_s": statistics.median(setup) * speed(setup_host),
        "cases_per_s": passed / (sum(ms) / 1e3),
        "case_ms.p50": statistics.median(ms),
        "failed_frac": failed / attempted,
        "value_err.max": _max(r["value_err"] for r in rows),
        "escape_err.max": _max(r["escape_err"] for r in rows),
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(bool(trace)), "why": cases.WHY[workload],
        "environment": environment(seed),
        "closed_loop": {"clients": 1, "cycle": len(cases.SCHEDULES[workload]),
                        "cases": len(steady)},
        "shares": _shares(workload, runs),
        "end_to_end": {k: {"value": v, "unit": E2E_UNITS[k]}
                       for k, v in e2e.items()},
        "diagnostics": {
            "case_ms.tail": _tail(ms),
            "value_ref_err.max": _max(r["reference_err"] for r in rows
                                      if r["reference"] is not None),
            "escape_ref_err.max": _max(r["reference_err"] for r in rows
                                       if r["reference_escape_time"]
                                       is not None),
            "wall": {"setup_s": statistics.median(setup),
                     "setup_samples_s": setup,
                     "cases_per_s": passed / (sum(wall_ms) / 1e3),
                     "case_ms.p50": statistics.median(wall_ms)},
            "host_kernel_ms": {"nominal": 1e3 * CAL_NOMINAL_S,
                               "setup.p50": 1e3 * statistics.median(setup_host),
                               "loop.p50": 1e3 * statistics.median(host)},
        },
        "attempted": attempted, "failed": failed,
        "failures": [r for r in rows if r["errors"]][:10]
        + ([{"warmup": warm_out.error}] if warm_out.error else []),
        "cases": rows,
    }
    if trace:
        from tracing import UNITS, layer_metrics
        traced_s = sum(o.seconds for o in traced) * speed(traced_host)
        metrics, absent = layer_metrics(
            tracer, traced, [c.kind for c, _ in runs],
            overhead=1.0 - sum(ms) / 1e3 / traced_s,
            time_scale=speed(traced_host))
        record["diagnostics"]["host_kernel_ms"]["traced.p50"] = \
            1e3 * statistics.median(traced_host)
        record["per_layer"] = {k: {"value": metrics[k], "unit": UNITS[k]}
                               for k in UNITS}
        record["absent"] = absent
        record["absent_hooks"] = tracer.absent
        record["spans"] = tracer.dump()
    return record


def result_line(record, spec):
    """The result line: correct/attempted/failed and the metrics
    BENCHMARK.json lists for this mode."""
    if record["trace"]:
        source, names = record["per_layer"], spec["per_layer"]
    else:
        source, names = record["end_to_end"], spec["end_to_end"]
    return {"correct": record["failed"] == 0,
            "attempted": record["attempted"], "failed": record["failed"],
            "metrics": {m["name"]: {"value": source[m["name"]]["value"],
                                    "unit": m["unit"]} for m in names}}


def _print_report(record):
    print(f"{record['workload']} seed={record['seed']} "
          f"trace={record['trace']}: {record['attempted']} cases attempted, "
          f"{record['failed']} failed")
    diag = record["diagnostics"]
    own_error = {"value_err.max": ("value_ref_err.max", "relative"),
                 "escape_err.max": ("escape_ref_err.max", "grid_steps")}
    blocks = [record["end_to_end"], record.get("per_layer", {})]
    for block in blocks:
        for name, m in block.items():
            lines = [(name, m["value"], m["unit"])]
            if name in own_error:
                ref_name, unit = own_error[name]
                lines.append((f"  reference's own: {ref_name}",
                              diag[ref_name], unit))
            for label, v, unit in lines:
                shown = "n/a" if v is None else f"{v:.6g}"
                print(f"  {label:34s} {shown:>14s} {unit}")
    tail = diag["case_ms.tail"]
    if tail:
        print(f"  case_ms.p{tail['percentile']:g} {tail['ms']:.6g} ms "
              f"over {tail['cases']} cases")
    for f in record["failures"]:
        print(f"  FAILED {json.dumps(f, default=str)[:300]}")
    print(json.dumps({"environment": record["environment"],
                      "shares": record["shares"],
                      "diagnostics": record["diagnostics"]}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = _layout_error()
    if problem:
        print(f"error: {problem}; run from a full lqconic checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import cases

    if args.workload not in cases.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(cases.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    record = measure(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}"
                             f"-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)
    _print_report(record)
    print(json.dumps(result_line(record, spec)))
    return 0 if record["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
