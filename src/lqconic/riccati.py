"""Differential Lyapunov and Riccati solvers with finite-escape handling.

Backward (final-value) integration of the quadratic matrix flow

    d(Lam)/dt + A^T Lam + Lam A - (N + Lam B) R^{-1} (N + Lam B)^T + Q = H

on a uniform grid. H=0 gives the Riccati equation whose final-value
solution is the maximal solution of the matching differential matrix
inequality; H is a positive semidefinite forcing used to sample the
inequality's other solutions. By Radon's lemma the flow is the Moebius
image Lam = Y X^{-1} of a linear (Hamiltonian) flow of [X; Y], scanned
like the primal flows by `_num`: the RK4 maps M of a run of steps come from
`run_maps`, and within a block of SCAN_STEPS that starts from Lam_0 the
prefix products P_j = M_j ... M_1 (for constant unforced data the powers
of the one map, built once per sweep) give [X_j; Y_j] = P_j [I; Lam_0] and
Lam_j = Y_j X_j^{-1} in one batched solve.

Solutions may escape in finite time: escape is an outcome, not an error,
and it is where a step's denominator D_j = X_j X_{j-1}^{-1} =
M11 + M12 Lam_{j-1} turns singular. The denominators of a whole block are
tested in one call; the first failing step ends the sample's sweep, and
its time is refined by bisecting the partial step with the same test. No
norm cap and no step-size dependence beyond the RK4 error are involved.

A sweep integrates a batch of samples; one that escapes leaves the batch,
and after the sweep the escapes of all samples are refined together in
one vectorized bisection. The block layout depends only on the grid, and
samples run in fixed chunks, so each sample's values and escape time are
those of a sweep of that sample alone.

Node-sampled coefficients are tabulated at the nodes and midpoints of a
run of NODE_BLOCK steps (of a block, if forced: a forcing is constant on a
step and adds to F at its three stages); the finite-difference residual
sweep evaluates the Riccati operator along the node axis in the same
blocks, which bounds its temporaries.

R may be positive or negative definite (it only needs to be invertible with
fixed sign); the regulator-level validation is stricter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._num import (NODE_BLOCK, SCAN_STEPS, as_matrix, fd_derivative,
                   node_blocks, prefix_products, propagate_lyapunov, rk4_map,
                   run_maps)
from .model import CostData, StateSpace, TimeGrid, coeff_on

__all__ = [
    "MatTrajectory",
    "DreSolution",
    "DriSample",
    "solve_lyapunov_final",
    "solve_dre_final",
    "forcing_amplitude",
]

# Samples per chunk of a block, which bounds its (chunk, SCAN_STEPS, 2n, 2n)
# temporaries however many samples a sweep carries.
SAMPLE_CHUNK = 16


class MatTrajectory:
    """Symmetric-matrix-valued function sampled on a uniform grid.

    ``values`` has shape (steps+1, n, n); invalid nodes (beyond a finite
    escape) hold NaN. Linear interpolation between nodes; node evaluations
    reproduce stored samples exactly.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid: TimeGrid, values):
        v = np.asarray(values, dtype=float)
        if v.ndim != 3 or v.shape[1] != v.shape[2]:
            raise ValueError(f"expected (nodes, n, n) samples, got {v.shape}")
        if v.shape[0] != grid.steps + 1:
            raise ValueError(
                f"{v.shape[0]} samples do not fit a grid with {grid.steps + 1} nodes"
            )
        v.flags.writeable = False
        self.grid = grid
        self.values = v

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def at(self, t: float) -> np.ndarray:
        return coeff_on(self.values, t, self.grid)

    def node(self, k: int) -> np.ndarray:
        return self.values[k]

    def valid_mask(self) -> np.ndarray:
        return np.isfinite(self.values).all(axis=(1, 2))


@dataclass(frozen=True)
class DreSolution:
    """Riccati-equation solution with escape diagnostics.

    The solve runs backward from the final value, so an escape at time t*
    leaves the nodes with t <= t* invalid. residual_max is a post-hoc
    finite-difference residual sweep over the valid nodes, independent of
    the integrator.
    """

    lam: MatTrajectory
    escaped: bool
    escape_time: Optional[float]
    residual_max: float


@dataclass(frozen=True)
class DriSample:
    """One forced Riccati-inequality solution: trajectory plus its PSD
    forcing (piecewise constant, sampled at nodes)."""

    lam: MatTrajectory
    forcing: MatTrajectory
    escaped: bool
    escape_time: Optional[float]


def _ric_data(A, B, Q, N, R):
    """Riccati right-hand-side data (A^T, B, sym(Q), N, R^{-1}); each entry
    is one matrix or a stack of them along a leading node axis."""
    return (A.swapaxes(-1, -2).copy(), B, 0.5 * (Q + Q.swapaxes(-1, -2)), N,
            np.linalg.inv(R))


def _ric_rhs(data, lam: np.ndarray) -> np.ndarray:
    """Riccati time derivative of a stack of solutions; the data broadcasts
    against the stack (one set for all, or one per solution)."""
    At, B, Q, N, Rinv = data
    lin = np.matmul(At, lam)
    shifted = N + np.matmul(lam, B)
    quad = np.matmul(np.matmul(shifted, Rinv), shifted.swapaxes(-1, -2))
    return quad - lin - lin.swapaxes(-1, -2) - Q


class _RicFlow:
    """Riccati right-hand-side data of a system and cost, tabulated on
    demand at batches of times."""

    def __init__(self, sys: StateSpace, cost: CostData, grid: TimeGrid):
        self.sys = sys
        self.cost = cost
        self.grid = grid
        self.const = sys.A.ndim == 2 and sys.B.ndim == 2 and \
            cost.Q.ndim == 2 and cost.N.ndim == 2 and cost.R.ndim == 2
        if self.const:
            self._data = _ric_data(sys.A, sys.B, cost.Q, cost.N, cost.R)

    def table(self, times):
        """Data at each of the given times, stacked along leading axes of
        their shape (constant coefficients stay single matrices)."""
        if self.const:
            return self._data
        g = self.grid
        return _ric_data(*(coeff_on(c, times, g) for c in (
            self.sys.A, self.sys.B, self.cost.Q, self.cost.N, self.cost.R)))

    def hamiltonian(self, times):
        """Matrix F of the linear flow d/dt [X; Y] = F [X; Y] whose solutions
        give the Riccati flow as Lam = Y X^{-1} (Radon's lemma), at the
        given times (the generator `run_maps` reads):

            F = [[A - B R^{-1} N^T,      -B R^{-1} B^T        ],
                 [-(Q - N R^{-1} N^T),  -(A^T - N R^{-1} B^T)]].
        """
        At, B, Q, N, Rinv = self.table(times)
        BRi, NRi = np.matmul(B, Rinv), np.matmul(N, Rinv)
        Bt, Nt = B.swapaxes(-1, -2), N.swapaxes(-1, -2)
        blocks = np.broadcast_arrays(
            At.swapaxes(-1, -2) - np.matmul(BRi, Nt), -np.matmul(BRi, Bt),
            np.matmul(NRi, Nt) - Q, np.matmul(NRi, Bt) - At)
        return np.concatenate([np.concatenate(blocks[:2], axis=-1),
                               np.concatenate(blocks[2:], axis=-1)], axis=-2)


def _past_singular(d: np.ndarray) -> np.ndarray:
    """Whether each step denominator D (..., n, n) passed a singular matrix
    on its way from I: det D <= 0 or non-finite, or a real eigenvalue <= 0
    (a pair crossing zero keeps det D > 0), computed only where
    ||D - I||_F >= 0.9: nearer I all lie within 0.9 of 1, a margin that no
    rounding of the norm or of the eigenvalues can cross (at ||D - I||_F = 1
    an eigenvalue can round to 0). A blocked sweep tests all the steps of
    a block in one call; values past a failed step may be non-finite."""
    shape = d.shape[:-2]
    d = d.reshape((-1,) + d.shape[-2:])
    det = np.linalg.det(d)
    out = ~((det > 0.0) & (det < np.inf))
    off = d - np.eye(d.shape[-1])
    far = ~out & ~(np.einsum("sij,sij->s", off, off) < 0.81)
    if far.any():
        ev = np.linalg.eigvals(d[far])
        out[far] = ((ev.imag == 0.0) & (ev.real <= 0.0)).any(axis=1)
    return out.reshape(shape)


def _refine_escape(flow, t_good, y_good, h, shift):
    """Bisect, per sample, the size of the backward step from its last good
    node at which the step's denominator first turns singular.

    t_good (E,), y_good (E, n, n) and shift ((E, 2n, 2n) or None) hold each
    escaped sample's last good node and what the forcing of the step it
    failed adds to F. All samples bisect together until no bracket splits;
    returns (E,) times.
    """
    n = y_good.shape[-1]
    lo, hi = np.zeros(t_good.shape), np.full(t_good.shape, h)
    if flow.const:  # the Hamiltonian does not depend on the step
        f = flow.hamiltonian(None)
        stages = [f if shift is None else f + shift] * 3
    while True:
        mid = 0.5 * (lo + hi)
        split = (mid != lo) & (mid != hi)
        if not split.any():
            return t_good - mid
        m = rk4_map(stages, -mid) if flow.const else run_maps(
            flow.hamiltonian, np.stack([t_good, t_good - mid]), -mid,
            shift)[0]
        over = _past_singular(m[:, :n, :n] + np.matmul(m[:, :n, n:], y_good))
        hi = np.where(split & over, mid, hi)
        lo = np.where(split & ~over, mid, lo)


def _scan_block(m, p, y):
    """Carry samples y (C, n, n) across one block of steps with maps m and
    their prefix products p (each (b, 2n, 2n), or (C, b, 2n, 2n) per
    sample): [X_j; Y_j] = P_j [I; y] and Lam_j = sym(Y_j X_j^{-1}), and the
    step denominators D_j = X_j X_{j-1}^{-1} = M11 + M12 Lam_{j-1}, tested in
    one call. A step whose Lam_j is not finite (X_j exactly singular or
    overflowed) counts as failed. Returns (Lam (C, b, n, n), good (C, b)):
    good marks the steps before each sample's first failed one."""
    n = y.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        z = p[..., :n] + np.matmul(p[..., n:], y[:, None])
        # Lam_j^T solves X_j^T Lam_j^T = Y_j^T
        xt, yt = z[..., :n, :].swapaxes(-1, -2), z[..., n:, :].swapaxes(-1, -2)
        try:
            lam = np.linalg.solve(xt, yt)
        except np.linalg.LinAlgError:  # a zero pivot: solve around it
            singular = np.linalg.slogdet(xt)[0] == 0.0
            lam = np.linalg.solve(
                np.where(singular[..., None, None], np.eye(n), xt), yt)
            lam[singular] = np.nan
        lam = 0.5 * (lam + lam.swapaxes(-1, -2))
        prev = np.concatenate([y[:, None], lam[:, :-1]], axis=1)
        d = m[..., :n, :n] + np.matmul(m[..., :n, n:], prev)
        failed = _past_singular(d) | ~np.isfinite(lam).all(axis=(-2, -1))
    return lam, np.cumsum(failed, axis=1) == 0


def _sweep(flow: _RicFlow, lam0: np.ndarray, grid: TimeGrid, forcing=None):
    """Integrate a batch of Riccati flows backward across the grid from
    their final values lam0 (S, n, n).

    forcing: None, or (values (S, P, n, n), interval (K,)): each sample's
    forcing on P intervals and the interval of each step (entry k for the
    step between nodes k and k+1). The steps run in blocks of SCAN_STEPS,
    laid out by the grid alone. Within a block, each sample starts from its
    value Lam_0 at the block's first node and takes every step at once:
    prefix products P_j of the block's step maps give [X_j; Y_j] =
    P_j [I; Lam_0] and Lam_j = Y_j X_j^{-1} (`_scan_block`). The maps are one
    for constant unforced data, whose powers are built once per sweep and
    serve every block; one per sample and interval for constant forced
    data; one per step (and sample, if forced) for sampled data. Samples
    run in chunks of SAMPLE_CHUNK, which bounds the temporaries. A sample
    whose step denominator turns singular leaves the batch with its last
    good node, and the sweep ends when none is left. The escape times of
    all escaped samples are refined together after the sweep.

    Returns (values (S, K+1, n, n) with NaN beyond escape, escaped (S,),
    escape_time (S,)).
    """
    s, n = lam0.shape[0], lam0.shape[1]
    k_steps = grid.steps
    h = grid.h
    times = grid.times()
    values = np.full((s, k_steps + 1, n, n), np.nan)
    escape_time = np.full(s, np.nan)
    last_good = np.full(s, -1)  # node each escaped sample last reached
    forced = forcing is not None
    shift, interval = None, None
    if forced:  # a forcing H adds [[0, 0], [H, 0]] to F
        shift = np.pad(forcing[0], [(0, 0), (0, 0), (n, 0), (0, n)])
        interval = forcing[1]
    rev = times[::-1]  # rev[j]: the node j steps back from T
    if flow.const:
        maps = run_maps(flow.hamiltonian, rev[:2], -h, shift)
        if not forced:
            powers = prefix_products(np.repeat(
                maps[None], min(SCAN_STEPS, k_steps), axis=0))

    y = 0.5 * (lam0 + lam0.transpose(0, 2, 1))
    values[:, k_steps] = y
    live = np.arange(s)
    for block in node_blocks(k_steps, SCAN_STEPS):
        ks = k_steps - np.arange(block.start, block.stop)  # step k: k -> k-1
        if not forced and flow.const:
            m, p = maps, powers[:ks.size]
        elif not forced:
            # maps are built NODE_BLOCK steps at a time (a whole number of
            # blocks), which amortizes tabulating the coefficients
            if block.start % NODE_BLOCK == 0:
                maps = run_maps(flow.hamiltonian, rev[
                    block.start:block.start + NODE_BLOCK + 1], -h)
            m = maps[block.start % NODE_BLOCK:][:ks.size]
            p = prefix_products(m)
        for chunk in node_blocks(live.size, SAMPLE_CHUNK):
            idx = live[chunk]
            if forced:
                pick = (idx[:, None], interval[ks - 1])
                m = maps[pick] if flow.const else run_maps(
                    flow.hamiltonian, rev[block.start:block.stop + 1], -h,
                    shift[pick])
                p = prefix_products(m)
            lam, good = _scan_block(m, p, y[idx])
            values[idx[:, None], ks - 1] = np.where(good[..., None, None],
                                                    lam, np.nan)
            taken = good.sum(axis=1)
            over = taken < ks.size
            last_good[idx[over]] = ks[taken[over]]
            y[idx[~over]] = lam[~over, -1]
        live = live[last_good[live] < 0]
        if live.size == 0:
            break

    escaped = last_good >= 0
    if escaped.any():
        idx, k = np.nonzero(escaped)[0], last_good[escaped]
        escape_time[idx] = _refine_escape(
            flow, times[k], values[idx, k], h,
            shift[idx, interval[k - 1]] if forced else None)
    return values, escaped, escape_time


def _step_intervals(bounds: np.ndarray) -> np.ndarray:
    """Forcing interval of each step, from the node indices that delimit
    the intervals."""
    return np.searchsorted(bounds, np.arange(bounds[-1]), side="right") - 1


def forcing_amplitude(cost: CostData) -> float:
    """Default scale for random forcing draws: 0.5 * (1 + largest singular
    value of the state weight)."""
    q = cost.Q if cost.Q.ndim == 3 else cost.Q[None]
    qnorm = max(float(np.abs(np.linalg.eigvalsh(0.5 * (qk + qk.T))).max())
                for qk in q)
    return 0.5 * (1.0 + qnorm)


def draw_forcing(n: int, switch_points: int, seed: int, amplitude: float) -> np.ndarray:
    """Piecewise-constant PSD forcing: one G G^T per switch interval, with G
    entries standard normal scaled by ``amplitude``. Reproducible per seed."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((switch_points, n, n)) * amplitude
    return np.matmul(g, g.transpose(0, 2, 1))


def switch_bounds(steps: int, switch_points: int) -> np.ndarray:
    """Node indices delimiting the forcing intervals, snapped to the grid."""
    if switch_points < 1:
        raise ValueError("need at least one forcing interval")
    if switch_points > steps:
        raise ValueError(f"{switch_points} intervals do not fit {steps} steps")
    bounds = np.round(np.linspace(0, steps, switch_points + 1)).astype(int)
    if np.any(np.diff(bounds) < 1):
        raise ValueError("grid too coarse for the requested switch count")
    return bounds


def _operator_blocks(flow: _RicFlow, grid: TimeGrid, idx: np.ndarray,
                     seg: np.ndarray):
    """Riccati operator dLam/dt - rhs(Lam) on the contiguous valid segment
    ``seg`` at nodes ``idx``, with dLam/dt by finite differences; yields
    (block slice, residual block) pairs over node blocks."""
    ldot = fd_derivative(seg, grid.h)
    times = grid.times()[idx]
    for block in node_blocks(idx.size):
        rhs = _ric_rhs(flow.table(times[block]), seg[block])
        yield block, ldot[block] - rhs


def _residual_sweep(lam_values: np.ndarray, flow: _RicFlow,
                    grid: TimeGrid) -> float:
    """Max finite-difference residual over valid nodes."""
    valid = np.isfinite(lam_values).all(axis=(1, 2))
    idx = np.nonzero(valid)[0]
    if idx.size < 3:
        return float("nan")
    worst = 0.0
    for _, r in _operator_blocks(flow, grid, idx, lam_values[idx]):
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def _dre_solution(flow, grid, values, escaped, escape_time):
    """DreSolution of one unforced sample of a sweep, with its residual."""
    return DreSolution(
        lam=MatTrajectory(grid, values),
        escaped=bool(escaped),
        escape_time=float(escape_time) if escaped else None,
        residual_max=_residual_sweep(values, flow, grid),
    )


def solve_dre_final(sys: StateSpace, cost: CostData, lambda_f,
                    grid: TimeGrid) -> DreSolution:
    """Backward Riccati solve from the final value; maximal solution of the
    final-value differential matrix inequality."""
    flow = _RicFlow(sys, cost, grid)
    lam0 = as_matrix(lambda_f)
    if lam0.shape != (sys.n, sys.n):
        raise ValueError(f"boundary value has shape {lam0.shape}, expected "
                         f"({sys.n}, {sys.n})")
    values, escaped, escape_time = _sweep(flow, lam0[None], grid)
    return _dre_solution(flow, grid, values[0], escaped[0], escape_time[0])


def solve_lyapunov_final(F, H, X_T, grid: TimeGrid) -> MatTrajectory:
    """Backward RK4 integration of -dX/dt = F^T X + X F + H from X(T)=X_T,
    that is of dX/dt = G X + X G^T - H with G = -F^T.

    Linear flow: cannot escape on a finite horizon with bounded data. For
    X_T = 0 and H PSD the solution is PSD for all t.
    """
    g, hc, xt = -as_matrix(F).swapaxes(-1, -2), as_matrix(H), as_matrix(X_T)
    values, _ = propagate_lyapunov(lambda t: coeff_on(g, t, grid),
                                   lambda t: -coeff_on(hc, t, grid),
                                   0.5 * (xt + xt.T), grid, backward=True)
    return MatTrajectory(grid, values)
