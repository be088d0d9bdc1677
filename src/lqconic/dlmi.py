"""Differential linear matrix inequality assembly and certification.

The object of interest is the (n+m)-dimensional symmetric matrix function

    M(Lam)(t) = QF(t) + embed(dLam/dt) + adjoint_dynamics(Lam)(t)
              = [[Q + dLam/dt + A^T Lam + Lam A,  N + Lam B],
                 [(N + Lam B)^T,                  R        ]]

built from a stacked quadratic form QF and a symmetric trajectory Lam.
Feasibility means M(Lam)(t) is positive semidefinite on the horizon with the
required final value. Along the backward Riccati extremal the inequality is
tight: M factors exactly as U U^T with U of width m, the minimal possible
rank. That factorization and its residual checks (classical Lur'e equations)
live here, as does the dual objective read off a trajectory.

Nodewise checks (M assembly, its eigenvalues and rank, the dual quadrature)
are numpy operations over the node axis, run in fixed blocks of NODE_BLOCK
nodes so that peak memory stays bounded however long the grid is.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import as_matrix, fd_derivative, node_blocks, trapz
from .model import QuadForm, StateSpace, coeff_on
from .riccati import MatTrajectory, _ric_data, _ric_rhs
from .symmat import M22NotPDError, SymFactor, SymMat

__all__ = [
    "DlmiCertificate",
    "ResidualTooLarge",
    "assemble_M",
    "feasibility",
    "extremal_factorization",
    "lure_residuals",
    "dual_objective",
]

BOUNDARY_TOL = 1e-9


class ResidualTooLarge(ValueError):
    """The supplied matrix does not satisfy the Riccati equation at the
    requested time, so the rank-m factorization identity would not hold."""


@dataclass(frozen=True)
class DlmiCertificate:
    """Nodewise feasibility record for M(Lam) >= 0 with a final condition.

    min_eig holds the smallest eigenvalue of M at every node; feasible
    requires both the eigenvalue floor (psd_ok) and the final-value match
    (boundary_ok).
    """

    min_eig: np.ndarray
    feasible: bool
    psd_ok: bool
    boundary_ok: bool
    rank_trace: np.ndarray


def _assemble_raw(lam: np.ndarray, lam_dot: np.ndarray, a: np.ndarray,
                  b: np.ndarray, qmat: np.ndarray) -> np.ndarray:
    """M(Lam) from value and derivative samples: one node, or a stack of
    nodes along a leading axis that the coefficients broadcast against."""
    n = lam.shape[-1]
    shifted = lam @ b
    out = np.array(np.broadcast_to(qmat, lam.shape[:-2] + qmat.shape[-2:]),
                   dtype=float)
    out[..., :n, :n] += lam_dot + a.swapaxes(-1, -2) @ lam + lam @ a
    out[..., :n, n:] += shifted
    out[..., n:, :n] += shifted.swapaxes(-1, -2)
    return 0.5 * (out + out.swapaxes(-1, -2))


def _assemble_on(lam: np.ndarray, lam_dot: np.ndarray, sys: StateSpace,
                 quadform: QuadForm, times: np.ndarray) -> np.ndarray:
    """M(Lam) at a block of nodes with the given times."""
    g = quadform.grid
    return _assemble_raw(lam, lam_dot, coeff_on(sys.A, times, g),
                         coeff_on(sys.B, times, g),
                         coeff_on(quadform.Qmat, times, g))


def assemble_M(lam, lam_dot, sys: StateSpace, quadform: QuadForm,
               t: float) -> SymMat:
    """Evaluate M(Lam) at one time from a value and a derivative sample."""
    lam, lam_dot = as_matrix(lam), as_matrix(lam_dot)
    if lam.shape != (sys.n, sys.n) or lam_dot.shape != (sys.n, sys.n):
        raise ValueError(
            f"need ({sys.n}, {sys.n}) value and derivative, got "
            f"{lam.shape} and {lam_dot.shape}")
    if quadform.nq != sys.n + sys.m:
        raise ValueError(
            f"quadratic form dimension {quadform.nq} does not match "
            f"state+input dimension {sys.n + sys.m}")
    return SymMat(_assemble_on(lam, lam_dot, sys, quadform, t))


def feasibility(lam: MatTrajectory, sys: StateSpace, quadform: QuadForm,
                tol: float = 1e-9) -> DlmiCertificate:
    """Check M(Lam) >= -tol at every node plus the final-value condition
    Lam(T) = 0.

    dLam/dt is taken from the samples by centered differences (endpoints
    one-sided, second order), so any trajectory can fail the check; tol
    must cover the O(h^2) differencing error. Substituting the Riccati
    right-hand side instead would make M = U U^T an identity for every
    symmetric Lam (see extremal_factorization), a check that cannot fail.
    """
    grid = lam.grid
    if quadform.grid != grid:
        raise ValueError("trajectory and quadratic form use different grids")
    values = lam.values
    if not np.isfinite(values).all():
        raise ValueError("feasibility needs a complete (non-escaped) trajectory")

    lam_dot = fd_derivative(values, grid.h)
    times = grid.times()
    min_eig = np.empty(grid.steps + 1)
    rank_trace = np.empty(grid.steps + 1, dtype=int)
    for block in node_blocks(grid.steps + 1):
        t = times[block]
        m = _assemble_on(values[block], lam_dot[block], sys, quadform, t)
        eigs = np.linalg.eigvalsh(m)
        min_eig[block] = eigs[:, 0]
        cut = tol * np.maximum(1.0, np.abs(eigs).max(axis=1))
        rank_trace[block] = np.count_nonzero(np.abs(eigs) > cut[:, None],
                                             axis=1)
    boundary_ok = float(np.max(np.abs(values[-1]))) <= BOUNDARY_TOL

    psd_ok = bool(min_eig.min() >= -tol)
    return DlmiCertificate(
        min_eig=min_eig,
        feasible=psd_ok and boundary_ok,
        psd_ok=psd_ok,
        boundary_ok=boundary_ok,
        rank_trace=rank_trace,
    )


def _data_at(sys: StateSpace, cost, t: float, grid):
    """(A, B, Q, N, R) at time t; sampled coefficients need the grid."""
    coeffs = (sys.A, sys.B, cost.Q, cost.N, cost.R)
    if grid is None and any(c.ndim == 3 for c in coeffs):
        raise ValueError("sampled coefficients need a grid to evaluate at t")
    return [coeff_on(c, t, grid) for c in coeffs]


def _pd_sqrt_pair(r: np.ndarray, tol: float = 1e-12):
    """(R^{1/2}, R^{-1/2}) for symmetric positive definite R."""
    w, v = np.linalg.eigh(0.5 * (r + r.T))
    if w.min() <= tol * max(1.0, w.max()):
        raise M22NotPDError(
            f"input-weight block must be positive definite "
            f"(min eigenvalue {w.min():.3e})")
    root = (v * np.sqrt(w)) @ v.T
    inv_root = (v / np.sqrt(w)) @ v.T
    return root, inv_root


def _factor_from_parts(lam, b, nmat, r, nq) -> SymFactor:
    root, inv_root = _pd_sqrt_pair(r)
    top = (nmat + lam @ b) @ inv_root
    u = np.vstack([top, root])
    return SymFactor(n=nq, r=r.shape[0], U=u)


def extremal_factorization(lambda_bar, sys: StateSpace, cost, t: float,
                           grid=None, lambda_dot=None,
                           tol: float = 1e-6) -> SymFactor:
    """Width-m factor U with U U^T = M(Lam) at time t, valid when Lam is the
    Riccati extremal there: U = [(N + Lam B) R^{-1/2}; R^{1/2}].

    When a derivative sample is supplied it is checked against the Riccati
    right-hand side; a mismatch means the identity would fail, reported as
    ResidualTooLarge.
    """
    lam = as_matrix(lambda_bar)
    if lam.shape != (sys.n, sys.n):
        raise ValueError(f"value has shape {lam.shape}, expected ({sys.n}, {sys.n})")

    a, b, q, nmat, r = _data_at(sys, cost, t, grid)

    if lambda_dot is not None:
        ld = np.asarray(lambda_dot, dtype=float).reshape(sys.n, sys.n)
        rhs = _ric_rhs(_ric_data(a, b, q, nmat, r), lam)
        err = float(np.max(np.abs(ld - rhs)))
        if err > tol * (1.0 + float(np.max(np.abs(rhs)))):
            raise ResidualTooLarge(
                f"derivative deviates from the Riccati flow by {err:.3e} "
                f"at t={t:.6g}; not an extremal there")

    return _factor_from_parts(lam, b, nmat, r, sys.n + sys.m)


def lure_residuals(lam, lam_dot, U1, U2, sys: StateSpace, cost,
                   t: float = 0.0, grid=None):
    """Entrywise max residuals of the three coupled factor equations:

        U1 U1^T = Q + dLam/dt + A^T Lam + Lam A
        U1 U2^T = N + Lam B
        U2 U2^T = R
    """
    lam = np.asarray(lam, dtype=float).reshape(sys.n, sys.n)
    lam_dot = np.asarray(lam_dot, dtype=float).reshape(sys.n, sys.n)
    u1 = np.atleast_2d(np.asarray(U1, dtype=float))
    u2 = np.atleast_2d(np.asarray(U2, dtype=float))

    a, b, q, nmat, r = _data_at(sys, cost, t, grid)
    block11 = q + lam_dot + a.T @ lam + lam @ a
    r1 = float(np.max(np.abs(u1 @ u1.T - block11)))
    r2 = float(np.max(np.abs(u1 @ u2.T - (nmat + lam @ b))))
    r3 = float(np.max(np.abs(u2 @ u2.T - r)))
    return r1, r2, r3


def dual_objective(lam: MatTrajectory, X_i=None, W=None) -> float:
    """Value certified by a dual trajectory: tr(Lam(0) X_i) plus the
    end-corrected trapezoid quadrature of tr(Lam(t) W(t)). A deterministic
    initial state x_i is the payload X_i = x_i x_i^T.
    """
    lam0 = lam.node(0)
    if not np.isfinite(lam0).all():
        raise ValueError("trajectory has no valid value at t=0")

    total = 0.0
    if X_i is not None:
        xi = np.asarray(X_i, dtype=float).reshape(lam.n, lam.n)
        total += float(np.trace(lam0 @ xi))
    if W is not None:
        w = as_matrix(W)
        if not np.isfinite(lam.values).all():
            raise ValueError("trajectory has invalid nodes; cannot integrate")
        times = lam.grid.times()
        vals = np.empty(times.size)
        for block in node_blocks(times.size):
            prod = lam.values[block] @ coeff_on(w, times[block], lam.grid)
            vals[block] = np.trace(prod, axis1=1, axis2=2)
        total += trapz(vals, lam.grid.h)
    if X_i is None and W is None:
        raise ValueError("no payload given")
    return total
