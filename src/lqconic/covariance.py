"""Primal-side constructions: closed-loop signals, covariance trajectories,
objective and residual evaluation, and a Monte Carlo cost oracle.

The primal variable is a PSD-valued function Sigma(t) of size (n+m) pairing
state and input. The analyzers build it one way: the closed-loop second
moment of the state from X_i, or from x_i x_i^T (the outer product of the
deterministic case) without noise, completed through the feedback law and
carrying its cost as one more state (`stochastic_covariance`). A primal
trajectory certifies optimality when it satisfies the descriptor dynamics
and is aligned (trace-orthogonal) with the dual's residual matrix. No
analyzer calls `closed_loop_simulate`, `deterministic_covariance` or
`primal_objective`; they check that flow independently.

Per-node work (gain solves, quadratures, residuals, and the closed-loop
matrix A - BK at the RK4 stage times) is done with numpy over the node
axis, in fixed blocks of NODE_BLOCK nodes so that peak memory stays
bounded; the covariance is assembled in one product no larger than it. Both
forward propagations are linear flows (the second moment and its cost as the
flow of [vech S; c; 1]) that `_num` scans as it scans the Riccati sweep.
"""

from __future__ import annotations

import numpy as np

from ._num import (as_matrix, fd_derivative, node_blocks, propagate,
                   propagate_lyapunov, trapz)
from .dlmi import _assemble_on
from .model import CostData, QuadForm, StateSpace, TimeGrid, coeff_on
from .riccati import MatTrajectory, _ric_rhs, _RicFlow
from .symmat import sym_factor

__all__ = [
    "Gain",
    "gain_from_dual",
    "closed_loop_simulate",
    "deterministic_covariance",
    "stochastic_covariance",
    "primal_objective",
    "descriptor_residual",
    "alignment_residual",
    "monte_carlo_cost",
]


class Gain:
    """Feedback gain trajectory; the control law is u = -K(t) x."""

    __slots__ = ("grid", "K")

    def __init__(self, grid: TimeGrid, K):
        k = np.asarray(K, dtype=float)
        if k.ndim == 2:
            k = np.repeat(k[None], grid.steps + 1, axis=0)
        if k.ndim != 3 or k.shape[0] != grid.steps + 1:
            raise ValueError(
                f"gain samples {k.shape} do not fit a grid with "
                f"{grid.steps + 1} nodes")
        k.flags.writeable = False
        self.grid = grid
        self.K = k

    @property
    def m(self) -> int:
        return self.K.shape[1]

    @property
    def n(self) -> int:
        return self.K.shape[2]

    def at(self, t: float) -> np.ndarray:
        return coeff_on(self.K, t, self.grid)


def gain_from_dual(lambda_bar: MatTrajectory, sys: StateSpace,
                   cost: CostData) -> Gain:
    """K(t) = R^{-1} (N^T + B^T Lam(t)), the feedback that closes the
    duality gap when Lam is the backward Riccati extremal."""
    if not np.isfinite(lambda_bar.values).all():
        raise ValueError("dual trajectory has invalid nodes; no gain exists")
    grid = lambda_bar.grid
    times = grid.times()
    kvals = np.empty((grid.steps + 1, sys.m, sys.n))
    for block in node_blocks(times.size):
        t = times[block]
        b = coeff_on(sys.B, t, grid)
        nmat, r = coeff_on(cost.N, t, grid), coeff_on(cost.R, t, grid)
        lam = lambda_bar.values[block]
        rhs = nmat.swapaxes(-1, -2) + b.swapaxes(-1, -2) @ lam
        kvals[block] = np.linalg.solve(r, rhs)
    return Gain(grid, kvals)


def _closed_loop(sys: StateSpace, gain: Gain, grid: TimeGrid):
    """Generator of the closed loop: A - B K at a batch of times."""
    return lambda t: coeff_on(sys.A, t, grid) - coeff_on(sys.B, t, grid) @ \
        coeff_on(gain.K, t, gain.grid)


def closed_loop_simulate(sys: StateSpace, gain: Gain, x_i,
                         grid: TimeGrid):
    """RK4 integration of dx/dt = (A - B K(t)) x from x(0); returns node
    samples (x, u) with u = -K x."""
    x0 = np.asarray(x_i, dtype=float).reshape(-1)
    if x0.size != sys.n:
        raise ValueError(f"initial state has {x0.size} entries, expected {sys.n}")
    x = propagate(_closed_loop(sys, gain, grid), x0, grid)
    u = (-gain.K @ x[:, :, None])[:, :, 0]
    return x, u


def deterministic_covariance(x, u, grid: TimeGrid) -> MatTrajectory:
    """Rank-one outer product of the stacked signal at every node."""
    xv = np.asarray(x, dtype=float)
    uv = np.asarray(u, dtype=float)
    if xv.ndim == 1:
        xv = xv[:, None]
    if uv.ndim == 1:
        uv = uv[:, None]
    if xv.shape[0] != uv.shape[0]:
        raise ValueError("state and input have different sample counts")
    z = np.hstack([xv, uv])
    values = np.einsum("ki,kj->kij", z, z)
    return MatTrajectory(grid, values)


def stochastic_covariance(sys: StateSpace, gain: Gain, W, X_i,
                          grid: TimeGrid, quadform: QuadForm):
    """Forward closed-loop second moment and its cost under quadform.

    S solves dS/dt = (A-BK) S + S (A-BK)^T + W from X_i (W None: no noise)
    and u = -Kx completes Sigma = [I; -K] S [I; -K]^T, which stays PSD. The
    cost, the integral of tr(Q_cl S) with Q_cl = [I; -K]^T QF [I; -K], is
    one more state of the RK4 flow, so it is fourth order like S (the gain
    is linear between nodes: every kink of the integrand is on a node). A
    zero payload gives zero without integrating. Returns (Sigma, cost).
    """
    n, nm = sys.n, sys.n + gain.m
    w = None if W is None else as_matrix(W)
    xi = np.asarray(X_i, dtype=float).reshape(n, n)
    if not xi.any() and (w is None or not w.any()):
        return MatTrajectory(grid, np.zeros((grid.steps + 1, nm, nm))), 0.0

    def lift(k):  # [I; -K] of a stack of gains
        eye = np.broadcast_to(np.eye(n), k.shape[:-2] + (n, n))
        return np.concatenate([eye, -k], axis=-2)

    def closed_cost(t):
        ik = lift(coeff_on(gain.K, t, gain.grid))
        return ik.swapaxes(-1, -2) @ coeff_on(quadform.Qmat, t,
                                              quadform.grid) @ ik

    sxx, cost = propagate_lyapunov(
        _closed_loop(sys, gain, grid),
        None if w is None else (lambda t: coeff_on(w, t, grid)),
        0.5 * (xi + xi.T), grid, q=closed_cost)
    ik = lift(gain.K)
    return MatTrajectory(grid, ik @ sxx @ ik.swapaxes(-1, -2)), float(cost[-1])


def primal_objective(sigma: MatTrajectory, quadform: QuadForm) -> float:
    """End-corrected trapezoid quadrature (`_num.trapz`) of the trace
    pairing of the stacked cost with the covariance trajectory: second
    order for a gain linear between nodes, whose kinks sit on the nodes."""
    if quadform.grid != sigma.grid:
        raise ValueError("covariance and quadratic form use different grids")
    times = sigma.grid.times()
    vals = np.empty(times.size)
    for block in node_blocks(times.size):
        qm = coeff_on(quadform.Qmat, times[block], quadform.grid)
        vals[block] = np.sum(qm * sigma.values[block], axis=(1, 2))
    return trapz(vals, sigma.grid.h)


def descriptor_residual(sigma: MatTrajectory, sys: StateSpace,
                        W=None) -> float:
    """Max violation of the covariance dynamics over interior nodes.

    Checks the top-left block of d(Sigma)/dt (centered differences) against
    the dynamics image of Sigma plus the noise intensity.
    """
    grid = sigma.grid
    n = sys.n
    sdot = fd_derivative(sigma.values, grid.h)
    w = None if W is None else as_matrix(W)
    times = grid.times()
    worst = 0.0
    for block in node_blocks(grid.steps - 1):
        ks = slice(block.start + 1, block.stop + 1)  # interior nodes only
        t, sig = times[ks], sigma.values[ks]
        lead = sig.shape[:1]
        a, b = coeff_on(sys.A, t, grid), coeff_on(sys.B, t, grid)
        ab = np.concatenate([np.broadcast_to(a, lead + a.shape[-2:]),
                             np.broadcast_to(b, lead + b.shape[-2:])], axis=-1)
        g = (ab @ (0.5 * (sig + sig.swapaxes(-1, -2))))[..., :n]
        r = sdot[ks, :n, :n] - (g + g.swapaxes(-1, -2))
        if w is not None:
            r = r - coeff_on(w, t, grid)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def alignment_residual(sigma: MatTrajectory, lambda_bar: MatTrajectory,
                       sys: StateSpace, cost: CostData,
                       quadform: QuadForm) -> float:
    """End-corrected trapezoid quadrature (`_num.trapz`) of the trace
    pairing between the dual residual matrix M(Lam) and the primal covariance.

    dLam/dt is the Riccati right-hand side of the cost, so M(Lam) is the
    PSD rank-m product U U^T of `dlmi.extremal_factorization`, the integrand
    is nonnegative and the value bounds the duality gap from above. For a
    feedback u = -K x it is the integral of |R^{1/2}(K - K_Lam) x|^2, with
    K_Lam the gain of Lam: it measures how far the gain is from Lam's.
    """
    grid = sigma.grid
    if lambda_bar.grid != grid or quadform.grid != grid:
        raise ValueError("primal, dual, and cost grids must agree")
    flow = _RicFlow(sys, cost, grid)
    times = grid.times()
    vals = np.empty(times.size)
    for block in node_blocks(times.size):
        t = times[block]
        lam = lambda_bar.values[block]
        m = _assemble_on(lam, _ric_rhs(flow.table(t), lam), sys, quadform, t)
        vals[block] = np.sum(m * sigma.values[block], axis=(1, 2))
    return trapz(vals, grid.h)


def monte_carlo_cost(sys: StateSpace, gain: Gain, cost: CostData, W, X_i,
                     grid: TimeGrid, n_paths: int, seed: int):
    """Sample mean and standard error of the quadratic cost under the
    feedback u = -K(t) x, by Euler-Maruyama at the grid step, with every
    coefficient read once at the grid nodes.

    The initial state is drawn through a symmetric factor of X_i with
    independent unit-variance sign flips, which reproduces the requested
    covariance exactly and makes a rank-one point mass exact pathwise.
    """
    if n_paths < 2:
        raise ValueError("need at least two paths for a standard error")
    rng = np.random.default_rng(seed)
    n = sys.n
    h = grid.h
    times = grid.times()

    xi = np.asarray(X_i, dtype=float).reshape(n, n)
    fx = sym_factor(xi)
    if fx.r:
        signs = rng.integers(0, 2, size=(fx.r, n_paths)) * 2.0 - 1.0
        x = fx.U @ signs
    else:
        x = np.zeros((n, n_paths))

    def on_nodes(c):
        # one matrix per node; a constant repeats as a broadcast view
        c = coeff_on(c, times, grid)
        return np.broadcast_to(c, times.shape + c.shape[-2:])

    a, b, q, nmat, r = (on_nodes(c) for c in (sys.A, sys.B, cost.Q, cost.N,
                                              cost.R))
    kk = gain.K
    w = as_matrix(W)
    w_nodes = coeff_on(w, times, grid)
    fw = sym_factor(w) if w.ndim == 2 else None

    integrand = np.empty((grid.steps + 1, n_paths))

    def node_cost(k, xs):
        us = -(kk[k] @ xs)
        return (np.sum(xs * (q[k] @ xs), axis=0)
                + 2.0 * np.sum(xs * (nmat[k] @ us), axis=0)
                + np.sum(us * (r[k] @ us), axis=0))

    sqrt_h = np.sqrt(h)
    for k in range(grid.steps):
        integrand[k] = node_cost(k, x)
        x = x + h * ((a[k] - b[k] @ kk[k]) @ x)
        fw_k = sym_factor(w_nodes[k]) if fw is None else fw
        if fw_k.r:
            x = x + fw_k.U @ (sqrt_h * rng.standard_normal((fw_k.r, n_paths)))
    integrand[-1] = node_cost(grid.steps, x)

    costs = trapz(integrand, h)
    mean = float(np.mean(costs))
    # the spread about the first path: the std does not change under a
    # shift, and identical paths give exactly 0 (np.mean can round them)
    stderr = float(np.std(costs - costs[0], ddof=1) / np.sqrt(n_paths))
    return mean, stderr
