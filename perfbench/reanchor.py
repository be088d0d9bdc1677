"""First traced record: the ROADMAP's re-anchor figures, measured.

    python3 perfbench/reanchor.py [--seconds 20] [--seed 1] > perfbench/records/reanchor.json

Times, with the benchmark's tracer, the figures the ROADMAP estimated by
hand: the stage split of solve_lqr on the 2-state example at K = 4096 and of
its verify, the time per grid node per stage, and the number of probes per
hinf_norm_bisection norm at tol 1e-4. Each stage is the minimum over three
runs, as in the ROADMAP table. Then runs every workload once traced and
keeps its end-to-end and per-layer metrics. Prints one JSON record.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import defaultdict  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import cases  # noqa: E402
import run  # noqa: E402
from lqconic import (CostData, LQR, ProblemSpec, StateSpace,  # noqa: E402
                     TimeGrid, hinf_norm_bisection, solve_lqr,
                     verify_solution)
from tracing import Tracer  # noqa: E402

# the ROADMAP's hand-measured K = 4096 split, ms
ROADMAP_SPLIT_MS = {"dre": 419, "feasibility": 271, "closed_loop": 230,
                    "alignment": 193, "descriptor": 81, "gain": 61,
                    "primal": 28}
STAGES = {"dre": ("_sweep", "_residual_sweep", "_refine_escape"),
          "feasibility": ("feasibility",),
          "closed_loop": ("closed_loop_simulate", "deterministic_covariance"),
          "alignment": ("alignment_residual",),
          "descriptor": ("descriptor_residual",),
          "gain": ("gain_from_dual",), "primal": ("primal_objective",),
          "dual": ("dual_objective",), "validate": ("validate",)}
STEPS = 4096
REPEATS = 3


def _stage_ms(call):
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.case(0):
            call()
    finally:
        tracer.uninstall()
    self_t = tracer.self_times()
    per_name = defaultdict(float)
    for s in tracer.spans:
        per_name[s[1]] += self_t[s[0]]
    total = tracer.spans[0][4] - tracer.spans[0][3]
    out = {k: 1e3 * sum(per_name[n] for n in names)
           for k, names in STAGES.items()}
    out["total"] = 1e3 * total
    return out


def _min_split(call):
    runs = [_stage_ms(call) for _ in range(REPEATS)]
    return {k: min(r[k] for r in runs) for k in runs[0]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    spec = ProblemSpec(
        sys=StateSpace(A=[[0.0, 1.0], [-1.0, -0.5]], B=[[0.0], [1.0]]),
        grid=TimeGrid(T=1.0, steps=STEPS),
        variant=LQR(cost=CostData(Q=np.eye(2), N=None, R=np.eye(1)),
                    x_i=[1.0, -0.5]))
    cert = solve_lqr(spec)
    solve = _min_split(lambda: solve_lqr(spec))
    verify = _min_split(lambda: verify_solution(spec, cert))
    nodes = STEPS + 1
    per_node = {k: 1e3 * v / nodes for k, v in solve.items()
                if k in ROADMAP_SPLIT_MS}

    probes = []
    for index in range(0, 12, 4):  # the 2-state hinf slot of norm-bisect
        case = cases.make_case("norm-bisect", 0, index)
        tracer = Tracer()
        tracer.install()
        try:
            hinf_norm_bisection(cases.prepare(case, None)["sys"], case.T,
                                steps=case.steps, tol=1e-4)
        finally:
            tracer.uninstall()
        probes.append(sum(s[1] == "bounded_real_test" for s in tracer.spans))

    traced_runs = {}
    for workload in cases.WORKLOADS:
        # a process per workload, so peak memory is that workload's own
        subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                        "--workload", workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "1"],
                       check=True, stdout=subprocess.DEVNULL)
        with open(os.path.join(run.OUT, f"{workload}-seed{args.seed}"
                                        "-trace1.json")) as f:
            record = json.load(f)
        traced_runs[workload] = {
            k: record[k] for k in ("attempted", "failed", "shares",
                                   "end_to_end", "per_layer", "absent")}
        traced_runs[workload]["host_kernel_ms"] = \
            record["diagnostics"]["host_kernel_ms"]

    print(json.dumps({
        "environment": run.environment(seed=args.seed),
        "host_kernel_ms": 1e3 * statistics.median(
            run.host_kernel() for _ in range(20)),
        "case": "solve_lqr, README 2-state example, T=1, K=4096",
        "solve_ms": {"roadmap": ROADMAP_SPLIT_MS, "measured": solve},
        "verify_ms": {"roadmap_total": 2645, "measured": verify},
        "us_per_node_per_stage": {"roadmap": 100.0, "measured": per_node},
        "hinf_probes_per_norm": {"roadmap": 15, "measured": probes,
                                 "case": "norm-bisect n=2 slot, T=2, "
                                         "K=512, tol=1e-4"},
        "traced_runs": traced_runs,
    }, indent=1))


if __name__ == "__main__":
    main()
