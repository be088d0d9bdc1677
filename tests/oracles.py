"""Independent reference computations used by the test suite.

Everything here is assembled from generic dense linear algebra (numpy,
scipy) without calling into the library's solvers, so agreement between
the library and these oracles is evidence rather than tautology.

Scope deliberately kept narrow: constant (time-invariant) matrices,
zero-order-hold inputs, dense stacked quadratic programs. Fine for the
small instances the tests use (a few states, tens of steps). The one
time-varying piece is `coeff_at`, the scalar interpolation of a
node-sampled coefficient that the library's batched evaluator is tested
against and that the per-node reference loops read. `loewner_compare`,
one eigendecomposition per shared node of two trajectories, is the
reference for the batched comparison of `dri_cloud`.
"""

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm


def coeff_at(coeff, t, grid):
    """A constant (2-D) or node-sampled (3-D) coefficient at one time t.

    Sampled coefficients are linearly interpolated between their samples,
    spread evenly over [0, grid.T]; a time within 1e-12 of a sample (in
    units of the sample spacing) returns that sample exactly.
    """
    if coeff.ndim == 2:
        return coeff
    pos = t * (coeff.shape[0] - 1) / grid.T
    k = int(np.floor(pos))
    k = min(max(k, 0), coeff.shape[0] - 2)
    w = pos - k
    if w <= 1e-12:
        return coeff[k]
    if w >= 1.0 - 1e-12:
        return coeff[k + 1]
    return (1.0 - w) * coeff[k] + w * coeff[k + 1]


@dataclass(frozen=True)
class LoewnerVerdict:
    """Nodewise semidefinite-order comparison of two trajectories."""

    a_ge_b: bool
    b_ge_a: bool
    verdict: str           # "both", "a_ge_b", "b_ge_a", "incomparable"
    margin_ab: float       # min over shared nodes of min-eig(a - b)
    margin_ba: float
    shared_nodes: int


def loewner_compare(a, b, tol: float = 1e-9) -> LoewnerVerdict:
    """Compare two trajectories (`MatTrajectory`) in the semidefinite order
    at every node both have valid samples."""
    if a.grid != b.grid or a.n != b.n:
        raise ValueError("trajectories must share grid and dimension")
    shared = a.valid_mask() & b.valid_mask()
    count = int(np.count_nonzero(shared))
    if count == 0:
        return LoewnerVerdict(False, False, "incomparable",
                              float("nan"), float("nan"), 0)
    diff = a.values[shared] - b.values[shared]
    diff = 0.5 * (diff + diff.transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(diff)
    margin_ab = float(eigs[:, 0].min())
    margin_ba = float((-eigs[:, -1]).min())
    a_ge = margin_ab >= -tol
    b_ge = margin_ba >= -tol
    if a_ge and b_ge:
        verdict = "both"
    elif a_ge:
        verdict = "a_ge_b"
    elif b_ge:
        verdict = "b_ge_a"
    else:
        verdict = "incomparable"
    return LoewnerVerdict(a_ge, b_ge, verdict, margin_ab, margin_ba, count)


def zoh_pair(a, b, h):
    """Exact discrete pair (Ad, Bd) for a zero-order-hold input.

    Both come out of one matrix exponential of the augmented block
    [[A, B], [0, 0]] scaled by the step.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    n, m = b.shape
    aug = np.zeros((n + m, n + m))
    aug[:n, :n] = a * h
    aug[:n, n:] = b * h
    e = expm(aug)
    return e[:n, :n], e[:n, n:]


def _stacked_qp(a, b, q, nmat, r, x0, T, steps):
    """Dense data (H, bvec, c0) of the hold-discretized quadratic program.

    Decision vector: interval-constant inputs u_0..u_{K-1}, stacked. State
    follows the exact hold discretization; the running cost applies the
    trapezoid rule to the state-dependent terms while u is constant per
    interval, so the quadrature error is second order in the step.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    n, m = b.shape
    nmat = np.zeros((n, m)) if nmat is None else \
        np.asarray(nmat, dtype=float).reshape(n, m)
    x0 = np.asarray(x0, dtype=float).reshape(n)
    K = int(steps)
    h = T / K

    ad, bd = zoh_pair(a, b, h)
    powers = [np.eye(n)]
    for _ in range(K):
        powers.append(ad @ powers[-1])

    # x_k = powers[k] x0 + sum_{j<k} powers[k-1-j] bd u_j
    x0vec = np.concatenate([p @ x0 for p in powers])
    smap = np.zeros(((K + 1) * n, K * m))
    for k in range(1, K + 1):
        for j in range(k):
            smap[k * n:(k + 1) * n, j * m:(j + 1) * m] = powers[k - 1 - j] @ bd

    w = np.full(K + 1, h)
    w[0] = w[-1] = 0.5 * h
    wq = np.kron(np.diag(w), q)
    # cross block: interval k pairs u_k with both endpoint states
    e1 = np.zeros((K + 1, K))
    idx = np.arange(K)
    e1[idx, idx] = 1.0
    e1[idx + 1, idx] = 1.0
    cross = h * np.kron(e1, nmat)
    wr = np.kron(h * np.eye(K), r)

    hmat = smap.T @ wq @ smap + smap.T @ cross + cross.T @ smap + wr
    hmat = 0.5 * (hmat + hmat.T)
    bvec = smap.T @ (wq @ x0vec) + cross.T @ x0vec
    c0 = float(x0vec @ wq @ x0vec)
    return hmat, bvec, c0


def zoh_qp_value(a, b, q, nmat, r, x0, T, steps):
    """Optimal value of the hold-discretized program by normal equations."""
    hmat, bvec, c0 = _stacked_qp(a, b, q, nmat, r, x0, T, steps)
    u = np.linalg.solve(hmat, -bvec)
    return c0 + float(bvec @ u)


def passivity_form_min_eig(a, b, c, d, T, steps):
    """(min eigenvalue, scale) of the discretized supply-rate form.

    The supplied energy from rest is a quadratic form in the input; its
    discretized Gram matrix comes from the same stacked program with
    Q = 0, N = C^T / 2, R = (D + D^T) / 2 and zero initial state. A
    negative eigenvalue beyond discretization error disproves passivity.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    d = np.atleast_2d(np.asarray(d, dtype=float))
    n = a.shape[0]
    hmat, _, _ = _stacked_qp(a, b, np.zeros((n, n)), 0.5 * c.T,
                             0.5 * (d + d.T), np.zeros(n), T, steps)
    eigs = np.linalg.eigvalsh(hmat)
    scale = max(1.0, float(np.abs(eigs).max()))
    return float(eigs.min()), scale


def convolution_norm(a, b, c, T, steps=800):
    """Finite-horizon induced norm of w -> y = int C e^{A(t-s)} B w(s) ds.

    Top singular value of the kernel matrix sampled on a uniform grid,
    weighted by trapezoid quadrature on both sides. The kernel jumps from 0
    to CB across the diagonal, so the diagonal entry takes the midpoint
    value CB/2; that restores second-order accuracy.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    c = np.atleast_2d(np.asarray(c, dtype=float))
    K = int(steps)
    h = T / K
    p, m = c.shape[0], b.shape[1]

    e = expm(a * h)
    kernel = np.empty((K + 1, p, m))
    phi = np.eye(a.shape[0])
    for k in range(K + 1):
        kernel[k] = c @ phi @ b
        phi = e @ phi
    kernel[0] *= 0.5

    blocks = np.zeros((K + 1, K + 1, p, m))
    for k in range(K + 1):
        idx = np.arange(K + 1 - k)
        blocks[idx + k, idx] = kernel[k]

    w = np.full(K + 1, h)
    w[0] = w[-1] = 0.5 * h
    root = np.sqrt(w)
    blocks *= root[:, None, None, None] * root[None, :, None, None]
    big = blocks.transpose(0, 2, 1, 3).reshape((K + 1) * p, (K + 1) * m)
    return float(np.linalg.svd(big, compute_uv=False)[0])


def reference_dre(a, b, q, nmat, r, boundary, T, direction="final"):
    """High-accuracy Riccati reference via an adaptive integrator.

    direction "final": boundary is the value at t=T, integrated backward.
    direction "initial": boundary is the value at t=0, integrated forward.
    Returns a callable t -> matrix.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    q = np.atleast_2d(np.asarray(q, dtype=float))
    r = np.atleast_2d(np.asarray(r, dtype=float))
    n, m = b.shape
    nmat = np.zeros((n, m)) if nmat is None else \
        np.asarray(nmat, dtype=float).reshape(n, m)
    rinv = np.linalg.inv(r)
    y0 = np.asarray(boundary, dtype=float).reshape(n, n)

    def flow(lam):
        gain = nmat + lam @ b
        return gain @ rinv @ gain.T - a.T @ lam - lam @ a - q

    if direction == "final":
        # reversed clock s = T - t turns the backward equation forward
        def rhs(_s, y):
            lam = y.reshape(n, n)
            return (-flow(lam)).ravel()
    elif direction == "initial":
        def rhs(_s, y):
            lam = y.reshape(n, n)
            return flow(lam).ravel()
    else:
        raise ValueError(f"unknown direction {direction!r}")

    sol = solve_ivp(rhs, (0.0, T), y0.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-14, dense_output=True)
    if not sol.success:
        raise RuntimeError(f"reference integration failed: {sol.message}")

    def at(t):
        s = T - t if direction == "final" else t
        lam = sol.sol(s).reshape(n, n)
        return 0.5 * (lam + lam.T)

    return at
