"""Problem schema and structured operators.

Holds the state-space data, cost data, horizon and variant payloads; builds
the joint quadratic-form matrix for each problem variant; and provides the
restriction operator (top-left block), the dynamics operator, and their
adjoints, which together express the covariance differential equation and
the differential LMI.

Time-varying coefficients are stored as node samples on the problem grid.
`coeff_on` is the one evaluator: piecewise-linear interpolation at one time
or a batch of times, which reproduces the stored sample exactly at a node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._num import as_matrix
from .symmat import _as_sym

__all__ = [
    "TimeGrid",
    "StateSpace",
    "CostData",
    "LQR",
    "StochLQR",
    "BoundedReal",
    "PositiveReal",
    "GeneralIQC",
    "ProblemSpec",
    "QuadForm",
    "Violation",
    "ValidationError",
    "validate",
    "assemble_quadform",
    "effective_cost",
    "coeff_on",
    "apply_E",
    "apply_Aop",
    "apply_E_adj",
    "apply_A_adj",
]

PSD_TOL = 1e-9


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of steps+1 nodes on [0, T]."""

    T: float
    steps: int

    def __post_init__(self):
        if not (self.T > 0 and math.isfinite(self.T)):
            raise ValueError(f"horizon T must be positive and finite, got {self.T}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")

    @property
    def h(self) -> float:
        return self.T / self.steps

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.steps + 1)

    def refined(self, factor: int = 2) -> "TimeGrid":
        return TimeGrid(self.T, self.steps * factor)


def _as_coeff(value, rows: int = None, cols: int = None) -> np.ndarray:
    """Coerce a constant matrix (2-D) or node-sampled matrix (3-D) array."""
    a = as_matrix(value)
    if a.ndim == 1:
        raise ValueError(f"expected a matrix, got 1-D array of length {a.shape[0]}")
    if a.ndim not in (2, 3):
        raise ValueError(f"expected 2-D or 3-D array, got ndim={a.ndim}")
    if rows is not None and a.shape[-2] != rows:
        raise ValueError(f"expected {rows} rows, got {a.shape[-2]}")
    if cols is not None and a.shape[-1] != cols:
        raise ValueError(f"expected {cols} columns, got {a.shape[-1]}")
    return a


def coeff_on(coeff: np.ndarray, times, grid: TimeGrid) -> np.ndarray:
    """Evaluate a constant (2-D) or node-sampled (3-D) coefficient at a
    time or an array of times.

    A sampled coefficient is linearly interpolated between its samples, and
    a time within 1e-12 (in units of the sample spacing) of a sample
    reproduces that sample exactly. The sample count itself fixes the
    spacing over [0, grid.T], so a coefficient sampled on a coarser grid
    still evaluates correctly against a refined one. An array of times
    gives one matrix per time, stacked along a leading axis; a scalar time
    gives one matrix. A constant coefficient is returned as is; it
    broadcasts against the stacked samples of the others.
    """
    if coeff.ndim == 2:
        return coeff
    pos = np.asarray(times, dtype=float) * (coeff.shape[0] - 1) / grid.T
    k = np.clip(np.floor(pos), 0, coeff.shape[0] - 2).astype(int)
    w = pos - k
    k = np.where(w >= 1.0 - 1e-12, k + 1, k)
    mix = (w > 1e-12) & (w < 1.0 - 1e-12)
    out = coeff[k]
    if mix.any():
        km, wm = k[mix], w[mix][:, None, None]
        out[mix] = (1.0 - wm) * coeff[km] + wm * coeff[km + 1]
    return out


class StateSpace:
    """Linear system data dx/dt = A x + B u, y = C x + D u.

    Each coefficient is a constant matrix or an array of node samples
    (steps+1, rows, cols) on the problem grid. Output data C, D default to
    empty (no output channel), which the regulator variants never use.
    """

    def __init__(self, A, B, C=None, D=None):
        self.A = _as_coeff(A)
        n = self.A.shape[-1]
        if self.A.shape[-2] != n:
            raise ValueError(f"A must be square, got {self.A.shape[-2:]}")
        self.B = _as_coeff(B, rows=n)
        m = self.B.shape[-1]
        if C is None:
            self.C = np.zeros((0, n))
        else:
            self.C = _as_coeff(C, cols=n)
        p = self.C.shape[-2]
        if D is None:
            self.D = np.zeros((p, m))
        else:
            self.D = _as_coeff(D, rows=p, cols=m)
        self.n = n
        self.m = m
        self.p = p


@dataclass(frozen=True)
class CostData:
    """Quadratic cost blocks: state weight Q, cross term N, input weight R.

    Each block may be constant or node-sampled. The solvers require R
    invertible; the regulator variants additionally require R strictly
    positive definite (checked by validate()).
    """

    Q: np.ndarray
    N: np.ndarray
    R: np.ndarray

    def __init__(self, Q, N, R):
        object.__setattr__(self, "Q", _as_coeff(Q))
        object.__setattr__(self, "R", _as_coeff(R))
        n = self.Q.shape[-1]
        m = self.R.shape[-1]
        if N is None:
            N = np.zeros((n, m))
        object.__setattr__(self, "N", _as_coeff(N, rows=n, cols=m))


@dataclass(frozen=True)
class LQR:
    """Deterministic regulator: minimize the quadratic cost from a fixed
    initial state."""

    cost: CostData
    x_i: np.ndarray

    def __init__(self, cost: CostData, x_i):
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "x_i", np.atleast_1d(np.asarray(x_i, dtype=float)))


@dataclass(frozen=True)
class StochLQR:
    """Stochastic regulator: random initial state with second moment X_i and
    additive white disturbance with intensity W (constant or node-sampled)."""

    cost: CostData
    X_i: np.ndarray
    W: np.ndarray

    def __init__(self, cost: CostData, X_i, W):
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "X_i", _as_sym(X_i))
        object.__setattr__(self, "W", _as_coeff(W))


@dataclass(frozen=True)
class BoundedReal:
    """Finite-horizon induced-norm test: gain bound gamma on the map from
    disturbance to output."""

    gamma: float


@dataclass(frozen=True)
class PositiveReal:
    """Finite-horizon passivity test on the input/output inner product."""


@dataclass(frozen=True)
class GeneralIQC:
    """Sign-indefinite quadratic form in (state, signal); the infimum may be
    minus infinity."""

    cost: CostData
    x_i: np.ndarray

    def __init__(self, cost: CostData, x_i):
        object.__setattr__(self, "cost", cost)
        object.__setattr__(self, "x_i", np.atleast_1d(np.asarray(x_i, dtype=float)))


@dataclass(frozen=True)
class ProblemSpec:
    sys: StateSpace
    grid: TimeGrid
    variant: object


@dataclass(frozen=True)
class Violation:
    field: str
    code: str
    message: str

    def __str__(self):
        return f"{self.field}: [{self.code}] {self.message}"


class ValidationError(ValueError):
    """Problem data violates a variant invariant; carries the full list."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


def _min_eig(mat: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (mat + mat.T)).min())


def _coeff_samples(coeff: np.ndarray):
    return coeff if coeff.ndim == 3 else coeff[None, :, :]


def _check_psd(coeff, name, out, strict=False, tol=PSD_TOL):
    for sample in _coeff_samples(coeff):
        scale = max(1.0, float(np.max(np.abs(sample))) if sample.size else 0.0)
        w = _min_eig(sample) if sample.size else 0.0
        if strict and w <= tol * scale:
            out.append(Violation(name, "RNotPD" if name.endswith("R") else "NotPD",
                                 f"min eigenvalue {w:.3e} is not strictly positive"))
            return
        if not strict and w < -tol * scale:
            out.append(Violation(name, "NotPSD",
                                 f"min eigenvalue {w:.3e} is negative"))
            return


def _check_sampled_length(coeff, name, grid, out):
    if coeff.ndim == 3 and coeff.shape[0] != grid.steps + 1:
        out.append(Violation(name, "BadSampleCount",
                             f"sampled coefficient has {coeff.shape[0]} samples, "
                             f"grid needs {grid.steps + 1}"))


def _check_cost(cost: CostData, sys: StateSpace, grid, out, require_q_psd: bool):
    if cost.Q.shape[-1] != sys.n:
        out.append(Violation("cost.Q", "BadShape",
                             f"Q is {cost.Q.shape[-2:]}, state dimension is {sys.n}"))
        return
    if cost.R.shape[-1] != sys.m:
        out.append(Violation("cost.R", "BadShape",
                             f"R is {cost.R.shape[-2:]}, input dimension is {sys.m}"))
        return
    for name, coeff in (("cost.Q", cost.Q), ("cost.N", cost.N), ("cost.R", cost.R)):
        _check_sampled_length(coeff, name, grid, out)
    _check_psd(cost.R, "cost.R", out, strict=True)
    if require_q_psd:
        _check_psd(cost.Q, "cost.Q", out, strict=False)


def _non_finite(spec: ProblemSpec) -> list:
    """One NonFinite violation per coefficient or payload holding NaN or
    infinity; such data has no verdict, so no other check runs on it."""
    sys, var = spec.sys, spec.variant
    fields = [("system.A", sys.A), ("system.B", sys.B),
              ("system.C", sys.C), ("system.D", sys.D)]
    cost = getattr(var, "cost", None)
    if cost is not None:
        fields += [("cost.Q", cost.Q), ("cost.N", cost.N), ("cost.R", cost.R)]
    for name in ("x_i", "X_i", "W", "gamma"):
        if hasattr(var, name):
            fields.append((f"variant.{name}", getattr(var, name)))
    return [Violation(name, "NonFinite", "contains NaN or infinite entries")
            for name, value in fields
            if not np.isfinite(np.asarray(value, dtype=float)).all()]


def _too_few_steps(grid: TimeGrid) -> list:
    """The TooFewSteps violation of a one-step grid, which has too few nodes
    for the finite differences of a certificate's residual."""
    if grid.steps >= 2:
        return []
    return [Violation("grid.steps", "TooFewSteps",
                      f"need at least 2 steps, got {grid.steps}")]


def validate(spec: ProblemSpec) -> None:
    """Check dimensions and the variant-specific definiteness constraints.

    Raises ValidationError carrying per-field diagnostics; returns None when
    the spec is well posed. Non-finite data is rejected first, with code
    NonFinite; a grid of one step (too few nodes for the certificate's
    finite differences) with code TooFewSteps.
    """
    non_finite = _non_finite(spec)
    if non_finite:
        raise ValidationError(non_finite)
    sys, grid, var = spec.sys, spec.grid, spec.variant
    out = _too_few_steps(grid)
    for name, coeff in (("system.A", sys.A), ("system.B", sys.B),
                        ("system.C", sys.C), ("system.D", sys.D)):
        _check_sampled_length(coeff, name, grid, out)

    if isinstance(var, LQR) or isinstance(var, GeneralIQC):
        _check_cost(var.cost, sys, grid, out, require_q_psd=isinstance(var, LQR))
        if var.x_i.shape != (sys.n,):
            out.append(Violation("variant.x_i", "BadShape",
                                 f"x_i has shape {var.x_i.shape}, expected ({sys.n},)"))
    elif isinstance(var, StochLQR):
        _check_cost(var.cost, sys, grid, out, require_q_psd=True)
        if var.X_i.shape != (sys.n, sys.n):
            out.append(Violation("variant.X_i", "BadShape",
                                 f"X_i has shape {var.X_i.shape}, expected ({sys.n}, {sys.n})"))
        else:
            _check_psd(var.X_i, "variant.X_i", out)
        if var.W.shape[-2:] != (sys.n, sys.n):
            out.append(Violation("variant.W", "BadShape",
                                 f"W blocks have shape {var.W.shape[-2:]}, expected ({sys.n}, {sys.n})"))
        else:
            _check_sampled_length(var.W, "variant.W", grid, out)
            _check_psd(var.W, "variant.W", out)
    elif isinstance(var, BoundedReal):
        if not (var.gamma > 0):
            out.append(Violation("variant.gamma", "GammaNotPositive",
                                 f"gamma must be positive, got {var.gamma}"))
        if sys.p == 0:
            out.append(Violation("system.C", "MissingOutput",
                                 "bounded-real test needs an output map C"))
        if sys.D.size and float(np.max(np.abs(sys.D))) > 0.0:
            out.append(Violation("system.D", "DNotZero",
                                 "the bounded-real quadratic form carries no "
                                 "feedthrough term; D must be zero"))
    elif isinstance(var, PositiveReal):
        if sys.p != sys.m:
            out.append(Violation("system.C", "DimMismatch",
                                 f"passivity pairs inputs with outputs; p={sys.p} != m={sys.m}"))
        elif sys.p == 0:
            out.append(Violation("system.C", "MissingOutput",
                                 "passivity test needs an output map C"))
        else:
            for d in _coeff_samples(sys.D):
                if _min_eig(d + d.T) <= PSD_TOL * max(1.0, float(np.max(np.abs(d)))):
                    out.append(Violation("system.D", "DNotStrictlyPassive",
                                         "D + D^T must be strictly positive definite"))
                    break
    else:
        out.append(Violation("variant", "UnknownVariant",
                             f"unrecognized variant {type(var).__name__}"))

    if out:
        raise ValidationError(out)


def _stack_cost_blocks(Q, N, R):
    """[[Q, N], [N^T, R]]: one matrix, or one per node when any block is
    node-sampled (the constant blocks broadcast along the node axis)."""
    lead = np.broadcast_shapes(Q.shape[:-2], N.shape[:-2], R.shape[:-2])
    rows = ([Q, N], [N.swapaxes(-1, -2), R])
    return np.concatenate([np.concatenate(
        [np.broadcast_to(c, lead + c.shape[-2:]) for c in row], axis=-1)
        for row in rows], axis=-2)


def effective_cost(spec: ProblemSpec) -> CostData:
    """Cost blocks (Q, N, R) driving the Riccati flow for each variant.

    The regulator and general-IQC variants carry their cost directly; the
    bounded-real test uses Q=-C^T C, N=0, R=gamma^2 I; the passivity test
    uses Q=0, N=C^T/2, R=(D+D^T)/2 (the half is kept inside the quadratic
    form, which rescales the Riccati solution but not any verdict).
    """
    sys, var = spec.sys, spec.variant
    if isinstance(var, (LQR, StochLQR, GeneralIQC)):
        return var.cost
    if isinstance(var, BoundedReal):
        if sys.C.ndim == 2:
            Q = -sys.C.T @ sys.C
        else:
            Q = -np.einsum("kpi,kpj->kij", sys.C, sys.C)
        N = np.zeros((sys.n, sys.m))
        R = var.gamma ** 2 * np.eye(sys.m)
        return CostData(Q, N, R)
    if isinstance(var, PositiveReal):
        Q = np.zeros((sys.n, sys.n))
        N = 0.5 * sys.C.swapaxes(-1, -2)
        R = 0.5 * (sys.D + sys.D.swapaxes(-1, -2))
        return CostData(Q, N, R)
    raise ValidationError([Violation("variant", "UnknownVariant",
                                     f"unrecognized variant {type(var).__name__}")])


@dataclass(frozen=True)
class QuadForm:
    """Joint quadratic-form matrix on (state, input), constant or sampled."""

    nq: int
    grid: TimeGrid
    Qmat: np.ndarray


def assemble_quadform(spec: ProblemSpec) -> QuadForm:
    """Build the variant's joint quadratic-form matrix [[Q, N], [N^T, R]].

    Raises ValidationError with code RNotPD when the effective input-weight
    block is not strictly positive definite.
    """
    cost = effective_cost(spec)
    out = []
    _check_psd(cost.R, "quadform.R", out, strict=True)
    if out:
        raise ValidationError(out)
    stacked = _stack_cost_blocks(cost.Q, cost.N, cost.R)
    return QuadForm(nq=spec.sys.n + spec.sys.m, grid=spec.grid, Qmat=stacked)


def apply_E(s, n: int) -> np.ndarray:
    """Restriction operator: top-left n-by-n block of a joint matrix."""
    sa = _as_sym(s)
    if sa.shape[0] < n:
        raise ValueError(f"joint matrix of size {sa.shape[0]} cannot restrict to {n}")
    return sa[:n, :n]


def apply_Aop(s, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Dynamics operator [A B] s [I;0] + [I 0] s [A^T;B^T] on a joint matrix."""
    sa = _as_sym(s)
    n = A.shape[0]
    ab = np.hstack([A, B])
    if sa.shape[0] != ab.shape[1]:
        raise ValueError(f"joint matrix size {sa.shape[0]} != n+m = {ab.shape[1]}")
    g = (ab @ sa)[:, :n]
    return g + g.T


def apply_E_adj(y, m: int) -> np.ndarray:
    """Adjoint of the restriction: embed y as the top-left block, zero-pad by
    m rows/columns."""
    ya = _as_sym(y)
    n = ya.shape[0]
    out = np.zeros((n + m, n + m))
    out[:n, :n] = ya
    return out


def apply_A_adj(y, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Adjoint of the dynamics operator: [A^T;B^T] y [I 0] + [I;0] y [A B]."""
    ya = _as_sym(y)
    n, m = B.shape
    if ya.shape[0] != n:
        raise ValueError(f"state-sized matrix expected, got {ya.shape[0]} != {n}")
    w = np.zeros((n + m, n + m))
    w[:, :n] = np.vstack([A.T, B.T]) @ ya
    return w + w.T
