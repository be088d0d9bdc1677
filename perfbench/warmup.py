"""Set-up probe: what a fresh interpreter pays before its first answer.

    python3 perfbench/warmup.py <workload> <seed>

imports lqconic and lqconic.cli, then runs the workload's warm-up case and
exits 0 if it raised nothing. run.py times this process from spawn to exit.
"""

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import lqconic  # noqa: E402,F401
import lqconic.cli  # noqa: E402,F401

import cases  # noqa: E402


def main(workload, seed):
    case = cases.warmup_case(workload, seed)
    out = cases.run_case(case, cases.prepare(case, os.path.join(HERE, "out",
                                                                "work")),
                         cases.TINY)
    if out.error:
        print(out.error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
