"""Expected answers for benchmark cases, computed without the library.

Closed forms where they exist (the tanh/tan scalar families and their
rotated matrix versions); otherwise the test suite's independent oracles in
tests/oracles.py (reference_dre, convolution_norm, passivity_form_min_eig).
Node-sampled problems and escape times of generic problems need a
time-varying Riccati integral that the oracles do not offer; `dre_path`
gives it with the same scipy integrator the oracles use, plus an escape
event. Every reference carries an estimate of its own error.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "tests"))
from oracles import (convolution_norm, passivity_form_min_eig,  # noqa: E402
                     reference_dre)

ESCAPE_TOL_STEPS = 2.0
# norm past which the reference integration calls the flow escaped; the
# solution grows like 1/(t - t*), so this pins t* to about 1/ESCAPE_NORM
ESCAPE_NORM = 1e8


@dataclass
class Reference:
    """Expected outcome: value (finite case) or escape time, the verdict
    (True = bounded / passive), and the reference's own error estimate in
    the unit it is checked in (relative for values, grid steps for escape
    times)."""

    value: float = None
    escape_time: float = None
    verdict: bool = None
    error: float = 0.0
    source: str = ""


def value_tol(case):
    """Relative tolerance on a case's value. Riccati values are second order
    in the step (the trapezoid quadrature of the stochastic cost is the
    coarsest part): 4 h^2 is about 1e-6 at 2048 steps on [0, 1]. Norms are
    first order, because the boundedness test cannot see an escape just past
    the horizon: 1.25 h is about 5e-3 at 512 steps on [0, 2]."""
    if case.kind == "hinf":
        return 1.25 * case.h
    return 4.0 * case.h ** 2


def _payload_value(case, lam0, w_integral=0.0):
    if "X_i" in case.extra:
        return float(np.trace(lam0 @ case.extra["X_i"])) + w_integral
    x = case.extra["x_i"]
    return float(x @ lam0 @ x)


def dre_path(case, rtol=1e-12):
    """Backward Riccati flow of a case from Lam(T) = 0 with DOP853 on the
    continuous (affine-in-time) coefficients. Returns (value, escape time
    or None); a W coefficient adds the integral of tr(Lam W) as one more
    state, so the stochastic value needs no quadrature."""
    n = case.n
    has_w = "W" in case.coef

    def rhs(s, y):
        t = case.T - s
        lam = y[:n * n].reshape(n, n)
        a, b = case.at("A", t), case.at("B", t)
        q, r = case.at("Q", t), case.at("R", t)
        g = lam @ b
        dlam = a.T @ lam + lam @ a + q - g @ np.linalg.solve(r, g.T)
        out = [dlam.ravel()]
        if has_w:
            out.append([np.sum(lam * case.at("W", t))])
        return np.concatenate(out)

    def blowup(_s, y):
        return ESCAPE_NORM - np.max(np.abs(y[:n * n]))

    blowup.terminal = True
    y0 = np.zeros(n * n + (1 if has_w else 0))
    sol = solve_ivp(rhs, (0.0, case.T), y0, method="DOP853", rtol=rtol,
                    atol=1e-14, events=blowup)
    if sol.status == 1:
        return None, case.T - float(sol.t_events[0][0])
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    yT = sol.y[:, -1]
    lam0 = yT[:n * n].reshape(n, n)
    return _payload_value(case, 0.5 * (lam0 + lam0.T),
                          float(yT[-1]) if has_w else 0.0), None


def _oracle_value(case):
    """Value of a constant-coefficient deterministic case from
    oracles.reference_dre, its error estimated against dre_path at a looser
    tolerance."""
    a, b, q, r = (case.at(k, 0.0) for k in ("A", "B", "Q", "R"))
    lam = reference_dre(a, b, q, None, r, np.zeros((case.n, case.n)), case.T)
    value = _payload_value(case, lam(0.0))
    loose, _ = dre_path(case, rtol=1e-10)
    return Reference(value=value, verdict=True,
                     error=abs(value - loose) / (1.0 + abs(value)),
                     source="oracles.reference_dre")


def _regulator(case):
    if case.kind == "iqc_escape":
        return Reference(escape_time=case.extra["escape_time"], verdict=False,
                         source="closed form (rotated tan)")
    if not case.sampled:
        return _oracle_value(case)
    value, esc = dre_path(case)
    loose, loose_esc = dre_path(case, rtol=1e-10)
    if esc is not None:
        return Reference(escape_time=esc, verdict=False,
                         error=abs(esc - loose_esc) / case.h,
                         source="DOP853 time-varying")
    return Reference(value=value, verdict=True,
                     error=abs(value - loose) / (1.0 + abs(value)),
                     source="DOP853 time-varying")


def _norm(case):
    a, b, c = (case.at(k, 0.0) for k in ("A", "B", "C"))
    if case.kind == "passivity":
        d = case.at("D", 0.0)
        min_eig, scale = passivity_form_min_eig(a, b, c, d, case.T, steps=400)
        return Reference(verdict=bool(min_eig >= -1e-8 * scale),
                         source="oracles.passivity_form_min_eig")
    fine = convolution_norm(a, b, c, case.T, steps=800)
    coarse = convolution_norm(a, b, c, case.T, steps=400)
    # second-order quadrature: Richardson estimate of the fine error
    return Reference(value=fine, error=abs(fine - coarse) / 3.0 / (1.0 + fine),
                     source="oracles.convolution_norm")


def _cloud(case):
    if case.kind == "preset":
        q_sign, m_sign = case.extra["signs"]
        if q_sign == m_sign:
            # lam = q tanh(T - t): q=r=1 gives tanh, q=r=-1 gives -tanh
            return Reference(value=q_sign * math.tanh(case.T), verdict=True,
                             source="closed form (tanh)")
        return Reference(escape_time=case.T - math.pi / 2, verdict=False,
                         source="closed form (tan)")
    return _oracle_value(case)


def reference(case):
    """Expected outcome of a case."""
    if case.workload == "regulator-roundtrip":
        return _regulator(case)
    if case.workload == "norm-bisect":
        return _norm(case)
    return _cloud(case)


def check(case, outcome, ref):
    """Compare an outcome with its reference. Returns (errors, value_err,
    escape_err): a list of reasons the case failed (empty when it passed),
    the relative value error |v - ref| / (1 + |ref|) and the escape-time
    error in grid steps (None where not applicable)."""
    errors = []
    if outcome.error:
        return [outcome.error], None, None
    ex = outcome.extra
    if "exit" in ex:
        want = 0 if ref.verdict else 2
        if ex["exit"] != want:
            errors.append(f"exit code {ex['exit']}, expected {want}")
        if ex["verify_exit"] != 0 or not ex["verify_pass"]:
            errors.append(f"verify exit code {ex['verify_exit']}")
    if ex.get("maximal") is False:
        errors.append("cloud not dominated by the extremal")
    if ref.verdict is not None and outcome.verdict != ref.verdict:
        errors.append(f"verdict {outcome.verdict}, expected {ref.verdict}")
    value_err = escape_err = None
    if ref.value is not None:
        if outcome.value is None or not math.isfinite(outcome.value):
            errors.append("no finite value reported")
        else:
            value_err = abs(outcome.value - ref.value) / (1.0 + abs(ref.value))
            if value_err > value_tol(case):
                errors.append(f"value error {value_err:.3g} above "
                              f"{value_tol(case):.3g}")
    if ref.escape_time is not None:
        if outcome.escape_time is None:
            errors.append("no escape time reported")
        else:
            escape_err = abs(outcome.escape_time - ref.escape_time) / case.h
            if escape_err > ESCAPE_TOL_STEPS:
                errors.append(f"escape time off by {escape_err:.3g} steps")
    return errors, value_err, escape_err
