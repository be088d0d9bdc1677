"""End-to-end variant solvers, each emitting a machine-checkable certificate.

Every analyzer is one route, `analyze`: integrate the backward Riccati flow
to get the maximal dual trajectory, read the optimal value off its initial
node, derive the feedback gain, rebuild the primal covariance side, and
report the evidence (primal value, duality gap, descriptor residual). Finite
escape of the Riccati flow is the boundary between verdicts, and the
variants differ only in what it means: the regulator hypotheses rule it out
(an error), the constrained quadratic form is unbounded below (value minus
infinity), or the gain bound or passivity fails (verdict False). The public
solvers are thin wrappers that build the problem and call `analyze`;
`verify_solution` rebuilds the same primal side on a refined grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ._num import node_blocks
from .covariance import (Gain, alignment_residual, descriptor_residual,
                         gain_from_dual, stochastic_covariance)
from .dlmi import dual_objective
from .model import (BoundedReal, CostData, GeneralIQC, LQR, PositiveReal,
                    ProblemSpec, StateSpace, StochLQR, TimeGrid,
                    ValidationError, _non_finite, _too_few_steps,
                    assemble_quadform, coeff_on, effective_cost, validate)
from .riccati import (DreSolution, DriSample, MatTrajectory, _dre_solution,
                      _RicFlow, _step_intervals, _sweep, draw_forcing,
                      forcing_amplitude, solve_dre_final, switch_bounds)

__all__ = [
    "Certificate",
    "NormResult",
    "DriCloudReport",
    "VerificationCheck",
    "VerificationReport",
    "EscapeUnexpected",
    "BracketFailure",
    "solve_lqr",
    "solve_stoch_lqr",
    "iqc_infimum",
    "bounded_real_test",
    "hinf_norm_bisection",
    "passivity_test",
    "dri_cloud",
    "verify_solution",
    "scalar_preset",
]

DEFAULT_STEPS = 512
# (sample, node) pairs per batched eigvalsh of the cloud's Loewner comparison
COMPARE_BLOCK = 512


class EscapeUnexpected(RuntimeError):
    """The Riccati flow escaped although the variant's hypotheses rule that
    out; the input data must violate them."""


class BracketFailure(RuntimeError):
    """Geometric bracket growth failed to straddle the critical gain."""


@dataclass(frozen=True)
class Certificate:
    """Optimality evidence emitted by an analyzer.

    When optimal_value is finite: primal_value is the cost of the gain's
    closed loop, duality_gap the primal minus dual difference and
    descriptor_residual the covariance dynamics' worst violation; verdict
    variants add lam_max_eig, the dual's largest eigenvalue.
    minus_infinity certificates instead carry the escape time and leave the
    evidence fields at their NaN/None defaults.
    """

    variant: str
    minus_infinity: bool
    grid: TimeGrid
    optimal_value: Optional[float] = None
    escape_time: Optional[float] = None
    gain: Optional[Gain] = None
    duality_gap: float = math.nan
    primal_value: Optional[float] = None
    descriptor_residual: float = math.nan
    lam: Optional[MatTrajectory] = None
    lam_max_eig: Optional[float] = None
    verdict: Optional[bool] = None


@dataclass(frozen=True)
class NormResult:
    """Bisection output for the finite-horizon induced norm.

    gamma_star is the smallest bracketed gain that passes the boundedness
    test; the true critical gain lies in [bracket lo, hi]. The test finds an
    escape anywhere inside the horizon, one within the last step included,
    as a singular denominator of the step's Hamiltonian map, so near the
    critical gain it errs only by the map's fourth-order truncation and the
    accuracy of gamma_star is set by the bracket width.
    """

    gamma_star: float
    iterations: int
    bracket: tuple


@dataclass(frozen=True)
class DriCloudReport:
    """Inequality-solution cloud against the equation's extremal."""

    dre: DreSolution
    samples: List[DriSample]
    maximal: bool
    worst_margin: Optional[float]
    n_escaped: int
    tol: float
    seed: int
    switch_points: int


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    value: float
    threshold: float
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    checks: List[VerificationCheck]
    grid: TimeGrid
    notes: List[str] = field(default_factory=list)


def _primal_side(spec: ProblemSpec, qf, lam: MatTrajectory, gain: Gain):
    """Dual value of lam, then the gain's closed-loop second moment (one
    flow from S(0) = X_i under W, x_i x_i^T without noise, or rest for the
    gain and passivity tests), its descriptor residual and its cost."""
    sys, var = spec.sys, spec.variant
    x_i = getattr(var, "x_i", np.zeros(sys.n))
    s0, w = getattr(var, "X_i", np.outer(x_i, x_i)), getattr(var, "W", None)
    dual = dual_objective(lam, X_i=s0, W=w)
    sigma, primal = stochastic_covariance(sys, gain, w, s0, spec.grid, qf)
    return dual, sigma, descriptor_residual(sigma, sys, W=w), primal


def _certify_finite(spec: ProblemSpec, cost: CostData, dre: DreSolution,
                    tag: str, judged: bool) -> Certificate:
    """Certificate of a bounded flow; a judged (verdict) variant passes and
    reports the dual's largest eigenvalue, whose sign verify checks."""
    lam = dre.lam
    gain = gain_from_dual(lam, spec.sys, cost)
    dual, _, desc, primal = _primal_side(spec, assemble_quadform(spec), lam,
                                         gain)

    return Certificate(
        variant=tag,
        minus_infinity=False,
        grid=spec.grid,
        optimal_value=dual,
        gain=gain,
        duality_gap=primal - dual,
        primal_value=primal,
        descriptor_residual=desc,
        lam=lam,
        lam_max_eig=float(np.linalg.eigvalsh(lam.values).max())
        if judged else None,
        verdict=True if judged else None,
    )


# variant -> (certificate tag, what a finite escape of the Riccati flow
# means): "raise" where the hypotheses rule escape out, "minus_infinity"
# for an unbounded infimum, "verdict" for a failed gain or passivity test
_ESCAPE_POLICY = {
    LQR: ("lqr", "raise"),
    StochLQR: ("stoch_lqr", "raise"),
    GeneralIQC: ("general_iqc", "minus_infinity"),
    BoundedReal: ("bounded_real", "verdict"),
    PositiveReal: ("positive_real", "verdict"),
}


def _check_tol(tol: float) -> None:
    """A tolerance must be a positive number; NaN is not one."""
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol!r}")


def analyze(spec: ProblemSpec) -> Certificate:
    """The one analyzer route: validate, solve the backward Riccati flow
    from a zero final value, then certify a bounded flow or apply the
    variant's escape policy. Verdict variants (bounded and positive real)
    carry verdict True or False and the dual's largest eigenvalue."""
    validate(spec)
    cost = effective_cost(spec)
    dre = solve_dre_final(spec.sys, cost, np.zeros((spec.sys.n, spec.sys.n)),
                          spec.grid)
    tag, policy = _ESCAPE_POLICY[type(spec.variant)]
    judged = policy == "verdict"
    if not dre.escaped:
        return _certify_finite(spec, cost, dre, tag, judged)
    if policy == "raise":
        raise EscapeUnexpected(
            f"Riccati flow escaped at t={dre.escape_time:.6g} although the "
            "regulator hypotheses exclude escape; check the cost signs")
    return Certificate(variant=tag, minus_infinity=True, grid=spec.grid,
                       escape_time=dre.escape_time, lam=dre.lam,
                       verdict=False if judged else None)


def solve_lqr(spec: ProblemSpec) -> Certificate:
    """Deterministic regulator: optimal value x_i^T Lam(0) x_i with the
    feedback gain that attains it; the data's sign hypotheses make escape
    impossible, so escape is reported as a hard error."""
    return analyze(spec)


def solve_stoch_lqr(spec: ProblemSpec) -> Certificate:
    """Stochastic regulator: value tr(Lam(0) X_i) + integral of tr(Lam W);
    the gain equals the deterministic one (it never depends on X_i or W)."""
    return analyze(spec)


def iqc_infimum(spec: ProblemSpec) -> Certificate:
    """Infimum of a sign-indefinite quadratic form over the trajectories:
    finite (with certificate) when the Riccati flow stays bounded, minus
    infinity (with the escape time) when it does not."""
    return analyze(spec)


def bounded_real_test(sys: StateSpace, gamma: float, T: float,
                      steps: int = DEFAULT_STEPS):
    """Finite-horizon induced-norm test: the gain bound gamma holds iff the
    associated Riccati flow stays bounded on the horizon. Returns
    (verdict, Certificate); a bounded dual trajectory is also checked to be
    negative semidefinite."""
    cert = analyze(ProblemSpec(sys=sys, grid=TimeGrid(T=T, steps=steps),
                               variant=BoundedReal(gamma=gamma)))
    return cert.verdict, cert


def hinf_norm_bisection(sys: StateSpace, T: float, steps: int = DEFAULT_STEPS,
                        tol: float = 1e-4) -> NormResult:
    """Bisect the gain bound down to a bracket of width tol.

    The bracket is grown geometrically (factor 4) from gamma=1 until the
    boundedness test passes at the top and fails at the bottom, then halved
    until it is no wider than tol or its midpoint no longer lies strictly
    inside it (the ends are adjacent floats, so a tol below their spacing
    returns a wider bracket). Data that pass validate with a zero output
    map short-circuit to norm zero.
    """
    _check_tol(tol)
    validate(ProblemSpec(sys=sys, grid=TimeGrid(T=T, steps=steps),
                         variant=BoundedReal(gamma=1.0)))
    if not np.any(sys.C):
        return NormResult(gamma_star=0.0, iterations=0, bracket=(0.0, 0.0))

    def ok(g: float) -> bool:
        verdict, _ = bounded_real_test(sys, g, T, steps)
        return verdict

    iterations = 0
    if ok(1.0):
        hi = 1.0
        lo = 0.25
        while ok(lo):
            hi = lo
            lo /= 4.0
            iterations += 1
            if iterations > 60:
                raise BracketFailure(
                    "test passes at arbitrarily small gain; output map is "
                    "numerically zero but not exactly zero")
    else:
        lo = 1.0
        hi = 4.0
        while not ok(hi):
            lo = hi
            hi *= 4.0
            iterations += 1
            if iterations > 60:
                raise BracketFailure("no finite gain passes the test")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if ok(mid):
            hi = mid
        else:
            lo = mid
        iterations += 1
    return NormResult(gamma_star=hi, iterations=iterations, bracket=(lo, hi))


def passivity_test(sys: StateSpace, T: float, steps: int = DEFAULT_STEPS):
    """Finite-horizon passivity of the input/output inner product: holds iff
    the Riccati flow of the half-sum quadratic form stays bounded. Returns
    (verdict, Certificate). A feedthrough with D + D^T not strictly
    positive definite at some sample is rejected by validate
    (ValidationError with code DNotStrictlyPassive)."""
    cert = analyze(ProblemSpec(sys=sys, grid=TimeGrid(T=T, steps=steps),
                               variant=PositiveReal()))
    return cert.verdict, cert


def scalar_preset(q_sign: int, m_sign: int, T: float = 2.0,
                  steps: int = DEFAULT_STEPS) -> ProblemSpec:
    """Scalar benchmark family: a=0, b=1, state weight q = +/-1, effective
    quadratic coefficient m = b^2/r = +/-1 via the sign of r. Two of the four
    sign pairs escape in finite time at T - pi/2."""
    if q_sign not in (-1, 1) or m_sign not in (-1, 1):
        raise ValueError("signs must be +1 or -1")
    sys = StateSpace(A=[[0.0]], B=[[1.0]])
    cost = CostData(Q=[[float(q_sign)]], N=None, R=[[float(m_sign)]])
    variant = LQR(cost=cost, x_i=[0.0])
    return ProblemSpec(sys=sys, grid=TimeGrid(T=T, steps=steps), variant=variant)


def _worst_margin(values: np.ndarray) -> Optional[float]:
    """Smallest eigenvalue of values[0] - values[i] over every sample i >= 1
    and every node where both are valid (None if there is none): the
    least semidefinite-order margin of the first trajectory over each of
    the others. One eigvalsh takes a node block of at most COMPARE_BLOCK
    (sample, node) pairs, which bounds the temporaries."""
    size = max(1, COMPARE_BLOCK // max(1, values.shape[0] - 1))
    worst = None
    for block in node_blocks(values.shape[1], size):
        v = values[:, block]
        valid = np.isfinite(v).all(axis=(2, 3))
        shared = valid[1:] & valid[0]
        if shared.any():
            diff = (v[0] - v[1:])[shared]
            diff = 0.5 * (diff + diff.transpose(0, 2, 1))
            low = float(np.linalg.eigvalsh(diff)[:, 0].min())
            worst = low if worst is None else min(worst, low)
    return worst


def dri_cloud(spec: ProblemSpec, n_samples: int = 100,
              switch_points: int = 10, seed: int = 0,
              tol: float = 1e-7) -> DriCloudReport:
    """Sample a cloud of forced inequality solutions against the equation's
    extremal and report whether the extremal dominates every sample at every
    shared node.

    One batched sweep integrates the extremal, as sample 0 with a zero
    forcing (adding it changes no value), and the forced samples behind it,
    all under the same escape test. The extremal reproduces solve_dre_final
    bitwise, residual included, and sample i is bitwise the one sample of
    a one-sample cloud with seed seed+i. Forced samples get no residual
    sweep (the cloud's contract is the ordering, not integration accuracy).
    Data with NaN or infinite entries, and a one-step grid, are rejected
    (ValidationError) before anything runs; the full `validate` is not
    applied, since the cloud also samples problems outside the regulator
    hypotheses (an indefinite R).
    """
    rejected = _non_finite(spec) or _too_few_steps(spec.grid)
    if rejected:
        raise ValidationError(rejected)
    _check_tol(tol)
    if n_samples < 0:
        raise ValueError(f"n_samples must be >= 0, got {n_samples}")
    sys, grid = spec.sys, spec.grid
    cost = effective_cost(spec)
    n = sys.n

    amp = forcing_amplitude(cost)
    hvals = np.zeros((n_samples + 1, switch_points, n, n))
    for i in range(n_samples):
        hvals[i + 1] = draw_forcing(n, switch_points, seed + i, amp)
    step_to_interval = _step_intervals(switch_bounds(grid.steps,
                                                     switch_points))
    flow = _RicFlow(sys, cost, grid)
    lam0 = np.zeros((n_samples + 1, n, n))
    values, escaped, escape_time = _sweep(flow, lam0, grid,
                                          (hvals, step_to_interval))
    dre = _dre_solution(flow, grid, values[0], escaped[0], escape_time[0])

    samples: List[DriSample] = []
    node_interval = np.append(step_to_interval, step_to_interval[-1])
    for i in range(n_samples):
        esc = bool(escaped[i + 1])
        samples.append(DriSample(
            lam=MatTrajectory(grid, values[i + 1]),
            forcing=MatTrajectory(grid, hvals[i + 1][node_interval]),
            escaped=esc,
            escape_time=float(escape_time[i + 1]) if esc else None,
        ))
    worst = _worst_margin(values)
    maximal = worst is None or worst >= -tol

    return DriCloudReport(
        dre=dre,
        samples=samples,
        maximal=maximal,
        worst_margin=worst,
        n_escaped=int(escaped[1:].sum()),
        tol=tol,
        seed=seed,
        switch_points=switch_points,
    )


def verify_solution(spec: ProblemSpec, certificate: Certificate,
                    tol: float = 1e-8) -> VerificationReport:
    """Independently re-derive the certificate's claims on a twice-refined
    grid and compare each with its refined counterpart; the claimed gain is
    the one input reused.

    The refinement exposes certificates that merely echo discretization
    artifacts; the gain reuse makes tampered or zeroed gains fail on the
    alignment residual rather than being silently replaced. The variant
    tag and the meaning of an escape come from the problem, so a relabelled
    certificate fails variant_match.
    """
    _check_tol(tol)
    validate(spec)
    sys = spec.sys
    grid2 = spec.grid.refined(2)
    spec2 = ProblemSpec(sys=sys, grid=grid2, variant=spec.variant)
    cost = effective_cost(spec2)
    dre2 = solve_dre_final(sys, cost, np.zeros((sys.n, sys.n)), grid2)
    checks: List[VerificationCheck] = []
    notes: List[str] = []

    def check(name, value, threshold, ok=None):
        ok = bool(value <= threshold) if ok is None else bool(ok)
        checks.append(VerificationCheck(name, float(value), float(threshold), ok))
        return ok

    tag, policy = _ESCAPE_POLICY[type(spec.variant)]
    judged = policy == "verdict"
    check("variant_match", float(certificate.variant != tag), 0.0)
    # a verdict claims the flow stays bounded; other variants carry none
    check("verdict_match", float(certificate.verdict != (
        not dre2.escaped if judged else None)), 0.0)
    if certificate.minus_infinity:
        if not dre2.escaped:
            check("escape_confirmed", 0.0, 0.0, ok=False)
            notes.append("refined solve stayed bounded; claimed escape absent")
            return VerificationReport(False, checks, grid2, notes=notes)
        check("escape_confirmed", 1.0, 1.0, ok=True)
        err = abs((certificate.escape_time or math.nan) - dre2.escape_time)
        check("escape_time_match", err, 2.0 * spec.grid.h)
        return VerificationReport(all(c.ok for c in checks), checks, grid2,
                                  notes=notes)

    if dre2.escaped:
        check("bounded_confirmed", 0.0, 0.0, ok=False)
        notes.append("refined solve escaped; claimed finite value impossible")
        return VerificationReport(False, checks, grid2, notes=notes)
    if certificate.gain is None:
        check("gain_present", 0.0, 0.0, ok=False)
        return VerificationReport(False, checks, grid2, notes=notes)

    def off(claim, ref):  # infinitely far when only one of them exists
        if claim is None or ref is None:
            return 0.0 if claim is ref else math.inf
        return abs(claim - ref)

    lam2 = dre2.lam
    gain2 = Gain(grid2, coeff_on(certificate.gain.K, grid2.times(),
                                 certificate.gain.grid))
    qf2 = assemble_quadform(spec2)
    dual2, sigma2, desc, primal2 = _primal_side(spec2, qf2, lam2, gain2)

    scale = 1.0 + abs(dual2)
    close = max(1e-5, 1e-4 * scale)
    value, primal = certificate.optimal_value, certificate.primal_value
    check("value_match", off(value, dual2), close)
    check("primal_match", off(primal, primal2), close)
    check("gap_match", off(certificate.duality_gap, primal2 - dual2), close)
    check("gap_consistent", off(certificate.duality_gap, None if None in (
        value, primal) else primal - value), 0.0)

    smax = float(np.abs(np.linalg.eigvalsh(sigma2.values)).max())
    check("descriptor", desc, 1e-3 * (1.0 + smax))
    # the residual is second order, so the grids' values differ about 4x
    claim = certificate.descriptor_residual
    check("descriptor_match", math.inf if claim is None else max(
        claim - 16.0 * desc, desc - 16.0 * claim), 1e-12 * (1.0 + smax))
    # the claimed gain against the refined extremal's: fails unless the
    # gain is the extremal's own
    check("alignment", alignment_residual(sigma2, lam2, sys, cost, qf2),
          max(1e-6, 1e-4 * scale))
    check("weak_duality", dual2 - primal2, 1e-6 * scale)

    lmax = float(np.linalg.eigvalsh(lam2.values).max()) if judged else None
    check("lam_max_match", off(certificate.lam_max_eig, lmax), tol)
    if judged:
        check("dual_sign", lmax, tol)
        # the primal side starts at rest and never sees the gain, so it is
        # compared with the refined extremal's gain; the allowance covers
        # the linear interpolation of the claimed gain between its nodes
        k2 = gain_from_dual(lam2, sys, cost).K
        check("gain_match", float(np.max(np.abs(gain2.K - k2))),
              1e-2 * (1.0 + float(np.max(np.abs(k2)))))

    passed = all(c.ok for c in checks)
    return VerificationReport(passed, checks, grid2, notes=notes)
