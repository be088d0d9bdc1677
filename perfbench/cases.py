"""Seeded inputs for the three benchmark workloads, and how one case runs.

Each workload cycles through a fixed schedule of case shapes (variant, state
and input sizes, constant or node-sampled coefficients); the seed draws only
the coefficients. Runs are measured in whole cycles, so every seed times the
same mix of shapes and the figures compare across seeds.

Node-sampled cases sample the plant (A and B) and keep the weights
constant, which already takes the library off its constant-coefficient
path. Sampled coefficients are affine in time. Linear interpolation between
nodes, which is how the library reads samples, is then exact, so a reference
that integrates the continuous coefficients answers the same problem.

This module imports numpy and lqconic only: the benchmark reads its peak
memory before any reference code (scipy) is loaded.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("regulator-roundtrip", "norm-bisect", "cloud-batch")

WHY = {
    "regulator-roundtrip":
        "CLI solve then verify on long grids: per-node certification and the "
        "2x-grid verify dominate; the node-sampled cases (3 of 5) bypass any "
        "constant-coefficient fast path",
    "norm-bisect":
        "many short Riccati sweeps with escape detection, and a full "
        "certificate on every bounded probe that the bisection then discards",
    "cloud-batch":
        "sample-batched sweeps, per-sample escape refinement and the Loewner "
        "comparison; the certification layers do nothing here",
}

# (kind, n, m, sampled) per schedule slot. Node-sampled cases cost more than
# constant ones and escaping or scalar clouds less than the others; the slot
# counts put the median case inside one such group instead of in the gap
# between two, where it would be the extreme of either and jump with noise.
SCHEDULES = {
    "regulator-roundtrip": (
        ("lqr", 4, 2, False),
        ("lqr", 3, 2, True),
        ("stoch_lqr", 2, 1, True),
        ("iqc", 2, 1, True),
        ("iqc_escape", 2, 2, False),
    ),
    "norm-bisect": (
        ("hinf", 2, 1, False),
        ("hinf", 3, 2, False),
        ("hinf", 3, 1, False),
        ("passivity", 2, 1, False),
    ),
    "cloud-batch": (
        ("preset", 1, 1, False),
        ("preset", 1, 1, False),
        ("preset", 1, 1, False),
        ("preset", 1, 1, False),
        ("cloud_system", 3, 1, False),
        ("cloud_system", 4, 1, False),
        ("cloud_system", 3, 2, False),
        ("cloud_system", 4, 2, False),
        ("cloud_system", 4, 1, False),
    ),
}

# sign pairs (q, m) of the paper's scalar presets, in schedule order
PRESET_SIGNS = ((1, 1), (1, -1), (-1, 1), (-1, -1))

CLI_COMMAND = {"lqr": "lqr", "stoch_lqr": "slqr", "iqc": "iqc",
               "iqc_escape": "iqc"}
CLI_VARIANT = {"lqr": "lqr", "stoch_lqr": "stoch_lqr", "iqc": "general_iqc",
               "iqc_escape": "general_iqc"}


@dataclass(frozen=True)
class Scale:
    """Problem sizes of one run; FULL is the benchmark, TINY the self-test."""

    regulator_steps: int
    norm_steps: int
    gamma_tol: float
    cloud_steps: int
    cloud_samples: int
    setup_probes: int


FULL = Scale(regulator_steps=2048, norm_steps=512, gamma_tol=1e-4,
             cloud_steps=512, cloud_samples=100, setup_probes=7)
TINY = Scale(regulator_steps=256, norm_steps=64, gamma_tol=1e-2,
             cloud_steps=64, cloud_samples=8, setup_probes=1)


@dataclass
class Case:
    """One generated input. Coefficients are (value at 0, value at T); the
    second entry is None for a constant coefficient."""

    workload: str
    index: int
    kind: str
    n: int
    m: int
    sampled: bool
    T: float
    steps: int
    coef: dict
    extra: dict = field(default_factory=dict)

    def at(self, name, t):
        v0, v1 = self.coef[name]
        if v1 is None:
            return v0
        s = t / self.T
        return (1.0 - s) * v0 + s * v1

    def nodes(self, name):
        """Coefficient as the library receives it: a matrix, or node samples."""
        v0, v1 = self.coef[name]
        if v1 is None:
            return v0
        s = np.linspace(0.0, 1.0, self.steps + 1)[:, None, None]
        return (1.0 - s) * v0 + s * v1

    @property
    def h(self):
        return self.T / self.steps


@dataclass
class Outcome:
    """What the program answered for one case, and how long it took."""

    seconds: float
    value: float = None
    escape_time: float = None
    verdict: bool = None
    error: str = None
    extra: dict = field(default_factory=dict)


def _psd(rng, n, shift):
    g = rng.uniform(-1.0, 1.0, (n, n))
    return g @ g.T + shift * np.eye(n)


def _pair(rng, make, sampled):
    return (make(), make() if sampled else None)


def _regulator_case(rng, kind, n, m, sampled):
    T = 1.0
    coef = {
        "A": _pair(rng, lambda: rng.uniform(-1.0, 1.0, (n, n)), sampled),
        "B": _pair(rng, lambda: rng.uniform(-1.0, 1.0, (n, m)), sampled),
        "R": (_psd(rng, m, 0.5), None),
    }
    extra = {}
    if kind == "iqc_escape":
        # A = 0, B = beta I, R = rho I, Q = -U diag(c^2) U^T decouples into
        # scalar flows lam' = k lam^2 + c^2 with k = beta^2/rho, each
        # -(c/sqrt(k)) tan(sqrt(k) c (T - t)); the largest c escapes first,
        # at T - pi / (2 sqrt(k) c).
        beta, rho = rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0)
        k = beta * beta / rho
        t_esc = rng.uniform(0.3, 0.7) * T
        c_max = math.pi / (2.0 * math.sqrt(k) * (T - t_esc))
        c = np.array([c_max, c_max * rng.uniform(0.2, 0.8)])
        u, _ = np.linalg.qr(rng.standard_normal((n, n)))
        coef = {"A": (np.zeros((n, n)), None), "B": (beta * np.eye(n), None),
                "R": (rho * np.eye(m), None),
                "Q": (-(u * c ** 2) @ u.T, None)}
        extra.update(escape_time=t_esc, k=k, c=c.tolist())
    elif kind == "iqc":
        # sign-indefinite state weight; small enough that the flow stays
        # bounded on the horizon (the reference decides either way)
        coef["Q"] = (_psd(rng, n, 0.0) - 0.3 * np.eye(n), None)
    else:
        coef["Q"] = (_psd(rng, n, 0.1), None)
    if kind == "stoch_lqr":
        extra["X_i"] = _psd(rng, n, 0.0)
        coef["W"] = (0.5 * _psd(rng, n, 0.0), None)
    else:
        x = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
        extra["x_i"] = x
    return T, coef, extra


def _stable(rng, n):
    while True:
        a = rng.uniform(-1.5, 1.5, (n, n)) - np.eye(n)
        if np.linalg.eigvals(a).real.max() < -0.2:
            return a


def _coarse_gain(a, b, c, T, steps=100):
    """Rough induced norm of w -> Cx on a coarse grid, numpy only. Used to
    scale C so every norm case lands in the same bisection bracket, which
    keeps the probe count the same across seeds."""
    h = T / steps
    e, term = np.eye(a.shape[0]), np.eye(a.shape[0])
    for j in range(1, 20):
        term = term @ (a * h) / j
        e = e + term
    kernel, phi = [], np.eye(a.shape[0])
    for _ in range(steps + 1):
        kernel.append(c @ phi @ b)
        phi = e @ phi
    kernel[0] = 0.5 * kernel[0]
    p, m = c.shape[0], b.shape[1]
    big = np.zeros(((steps + 1) * p, (steps + 1) * m))
    for i in range(steps + 1):
        for j in range(i + 1):
            big[i * p:(i + 1) * p, j * m:(j + 1) * m] = kernel[i - j]
    w = np.full(steps + 1, h)
    w[0] = w[-1] = 0.5 * h
    rw = np.sqrt(w)
    big *= np.repeat(rw, p)[:, None] * np.repeat(rw, m)[None, :]
    return float(np.linalg.svd(big, compute_uv=False)[0])


def make_case(workload, seed, index, scale=FULL):
    """The index-th case of a workload; the same (seed, index) gives the
    same case."""
    schedule = SCHEDULES[workload]
    slot = index % len(schedule)
    kind, n, m, sampled = schedule[slot]
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    if workload == "regulator-roundtrip":
        T, coef, extra = _regulator_case(rng, kind, n, m, sampled)
        return Case(workload, index, kind, n, m, sampled, T,
                    scale.regulator_steps, coef, extra)
    if workload == "norm-bisect":
        T = 2.0
        b = rng.uniform(-1.0, 1.0, (n, m))
        if kind == "hinf":
            a = _stable(rng, n)
            c = rng.uniform(-1.0, 1.0, (1, n))
            c *= rng.uniform(1.5, 3.5) / _coarse_gain(a, b, c, T)
            coef = {"A": (a, None), "B": (b, None), "C": (c, None)}
        else:
            # A + A^T < 0 with C = B^T is passive (storage x^T x / 2); a
            # strongly negative C with a small D is not. Verdicts alternate
            # by cycle.
            skew = rng.uniform(-1.0, 1.0, (n, n))
            a = -rng.uniform(1.0, 1.5) * np.eye(n) + 0.5 * (skew - skew.T)
            if (index // len(schedule)) % 2 == 0:
                c = rng.uniform(0.5, 2.0) * b.T
                d = rng.uniform(0.5, 1.5) * np.eye(m)
            else:
                c, d = -5.0 * b.T, 0.01 * np.eye(m)
            coef = {"A": (a, None), "B": (b, None), "C": (c, None),
                    "D": (d, None)}
        return Case(workload, index, kind, n, m, sampled, T, scale.norm_steps,
                    coef)
    T = 2.0
    extra = {"cloud_seed": int(rng.integers(0, 2 ** 31))}
    if kind == "preset":
        q_sign, m_sign = PRESET_SIGNS[slot]
        coef = {"A": (np.zeros((1, 1)), None), "B": (np.ones((1, 1)), None),
                "Q": (np.array([[float(q_sign)]]), None),
                "R": (np.array([[float(m_sign)]]), None)}
        extra.update(signs=(q_sign, m_sign), x_i=np.ones(1))
    else:
        coef = {"A": (rng.uniform(-1.0, 1.0, (n, n)), None),
                "B": (rng.uniform(-1.0, 1.0, (n, m)), None),
                "Q": (_psd(rng, n, 0.0), None), "R": (np.eye(m), None)}
        extra["x_i"] = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return Case(workload, index, kind, n, m, sampled, T, scale.cloud_steps,
                coef, extra)


def warmup_case(workload, seed):
    """The workload's first case at the self-test size: it loads the code
    paths and caches a first call needs, at a fraction of a case's cost."""
    return make_case(workload, seed, 0, TINY)


def problem_document(case):
    """The JSON problem document a CLI user would write for a case."""
    def lst(name):
        return np.asarray(case.nodes(name)).tolist()

    variant = {"type": CLI_VARIANT[case.kind], "Q": lst("Q"), "R": lst("R")}
    if case.kind == "stoch_lqr":
        variant["X_i"] = case.extra["X_i"].tolist()
        variant["W"] = lst("W")
    else:
        variant["x_i"] = case.extra["x_i"].tolist()
    return {"schema_version": "1",
            "system": {"A": lst("A"), "B": lst("B")},
            "horizon": {"T": case.T, "steps": case.steps},
            "variant": variant}


def prepare(case, workdir):
    """Untimed set-up of a case: write its problem document (CLI cases) or
    build the library objects (Python API cases)."""
    from lqconic import CostData, LQR, ProblemSpec, StateSpace, TimeGrid

    if case.workload == "regulator-roundtrip":
        os.makedirs(workdir, exist_ok=True)
        stem = os.path.join(workdir, f"case{os.getpid()}_{case.index}")
        with open(stem + "_problem.json", "w") as f:
            json.dump(problem_document(case), f)
        return {"problem": stem + "_problem.json",
                "result": stem + "_result.json"}
    sys_kw = {k: case.nodes(k) for k in ("A", "B", "C", "D") if k in case.coef}
    system = StateSpace(**sys_kw)
    if case.workload == "norm-bisect":
        return {"sys": system}
    cost = CostData(Q=case.nodes("Q"), N=None, R=case.nodes("R"))
    spec = ProblemSpec(sys=system, grid=TimeGrid(T=case.T, steps=case.steps),
                       variant=LQR(cost=cost, x_i=case.extra["x_i"]))
    return {"spec": spec}


def _cli(argv):
    from lqconic import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def run_case(case, prepared, scale=FULL):
    """Run one case; only the call into the program is timed. Never raises:
    an exception becomes the outcome's error."""
    from lqconic import dri_cloud, hinf_norm_bisection, passivity_test

    t0 = time.perf_counter()
    try:
        if case.workload == "regulator-roundtrip":
            prob, res = prepared["problem"], prepared["result"]
            code, said = _cli([CLI_COMMAND[case.kind], prob, "--out", res])
            vcode, vout = _cli(["verify", prob, res])
            seconds = time.perf_counter() - t0
            if not os.path.exists(res):
                return Outcome(seconds, error=f"exit code {code}: {said[-300:]}")
            out = Outcome(seconds, extra={"exit": code, "verify_exit": vcode,
                                          "verify_pass": vout.rstrip()
                                          .endswith("PASS")})
            with open(res) as f:
                doc = json.load(f)
            out.extra["result_bytes"] = os.path.getsize(res)
            out.value, out.escape_time = doc["optimal_value"], doc["escape_time"]
            out.verdict = not doc["minus_infinity"]
            for path in (prob, res):
                os.remove(path)
            return out
        if case.kind == "hinf":
            r = hinf_norm_bisection(prepared["sys"], case.T, steps=case.steps,
                                    tol=scale.gamma_tol)
            return Outcome(time.perf_counter() - t0, value=r.gamma_star,
                           extra={"iterations": r.iterations})
        if case.kind == "passivity":
            ok, _ = passivity_test(prepared["sys"], case.T, steps=case.steps)
            return Outcome(time.perf_counter() - t0, verdict=bool(ok))
        rep = dri_cloud(prepared["spec"], n_samples=scale.cloud_samples,
                        switch_points=10, seed=case.extra["cloud_seed"])
        out = Outcome(time.perf_counter() - t0, verdict=not rep.dre.escaped,
                      extra={"maximal": bool(rep.maximal),
                             "escaped_frac": rep.n_escaped / len(rep.samples)})
        if rep.dre.escaped:
            out.escape_time = rep.dre.escape_time
        else:
            x = case.extra["x_i"]
            out.value = float(x @ rep.dre.lam.node(0) @ x)
        return out
    except Exception:  # a crash is a failed case, never a crashed run
        return Outcome(time.perf_counter() - t0,
                       error=traceback.format_exc(limit=-3))
