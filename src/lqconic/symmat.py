"""Symmetric-matrix and positive-cone primitives.

Inner products, the dual pair of norms (nuclear / largest singular value)
and the matrix attaining their duality, rank-revealing symmetric
factorization and epsilon-rank. Everything here is a pure function of
immutable inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._num import as_matrix

__all__ = [
    "SymMat",
    "SymFactor",
    "NotPSDError",
    "M22NotPDError",
    "trace_inner",
    "nuclear_norm",
    "sigma_max_norm",
    "trace_duality_maximizer",
    "sym_factor",
    "eps_rank",
]

DEFAULT_TOL = 1e-9


class NotPSDError(ValueError):
    """Input matrix has an eigenvalue below the allowed negative tolerance."""


class M22NotPDError(ValueError):
    """Lower-right (input-weight) block of a joint matrix is not strictly
    positive definite."""


class SymMat:
    """Dense real symmetric matrix.

    The upper triangle of the input is authoritative: construction mirrors it
    onto the lower triangle, so ``entries[i, j] == entries[j, i]`` holds
    exactly afterwards. The stored array is read-only.
    """

    __slots__ = ("n", "mat")

    def __init__(self, entries):
        a = np.asarray(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("dimension must be at least 1")
        upper = np.triu(a)
        m = upper + upper.T - np.diag(np.diag(a))
        m.flags.writeable = False
        self.n = a.shape[0]
        self.mat = m

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self.mat.astype(dtype)
        return self.mat

    def __repr__(self):
        return f"SymMat(n={self.n})"


@dataclass(frozen=True)
class SymFactor:
    """Tall factor U of a PSD matrix, with U @ U.T reconstructing the source.

    When produced by :func:`sym_factor`, the width ``r`` equals the
    epsilon-rank of the source matrix.
    """

    n: int
    r: int
    U: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.U @ self.U.T


def _as_sym(m) -> np.ndarray:
    """Coerce SymMat or array-like to a symmetric ndarray."""
    if isinstance(m, SymMat):
        return m.mat
    a = as_matrix(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


def trace_inner(h, m) -> float:
    """Trace inner product tr(h m) of two symmetric matrices."""
    ha, ma = _as_sym(h), _as_sym(m)
    if ha.shape != ma.shape:
        raise ValueError(f"dimension mismatch: {ha.shape} vs {ma.shape}")
    # tr(h m) = sum of elementwise products for symmetric arguments
    return float(np.sum(ha * ma))


def nuclear_norm(m) -> float:
    """Sum of singular values; for symmetric m, the sum of |eigenvalues|."""
    return float(np.sum(np.abs(np.linalg.eigvalsh(_as_sym(m)))))


def sigma_max_norm(m) -> float:
    """Largest singular value; for symmetric m, the largest |eigenvalue|."""
    w = np.linalg.eigvalsh(_as_sym(m))
    return float(np.max(np.abs(w)))


def trace_duality_maximizer(h) -> SymMat:
    """Unit-nuclear-norm matrix m attaining trace_inner(h, m) = sigma_max_norm(h).

    Construction: outer product of the eigenvector with the largest
    |eigenvalue|, signed by that eigenvalue.
    """
    ha = _as_sym(h)
    w, v = np.linalg.eigh(ha)
    k = int(np.argmax(np.abs(w)))
    if w[k] == 0.0:
        raise ValueError("trace_duality_maximizer requires a nonzero matrix")
    sign = 1.0 if w[k] > 0 else -1.0
    vec = v[:, k]
    return SymMat(sign * np.outer(vec, vec))


def _eig_threshold(w: np.ndarray, tol: float) -> float:
    # relative to max(1, ||m||_inf) with ||.||_inf the largest |eigenvalue|
    return tol * max(1.0, float(np.max(np.abs(w))) if w.size else 0.0)


def sym_factor(m, tol: float = DEFAULT_TOL) -> SymFactor:
    """Rank-revealing factor U with U @ U.T = m for PSD m.

    Columns are eigenvectors scaled by sqrt(eigenvalue); eigenvalues within
    the (relative) tolerance band of zero are dropped, so the factor width is
    the epsilon-rank. Uses eigendecomposition rather than Cholesky so rank
    deficiency is handled.

    Raises NotPSDError if any eigenvalue falls below -tol (relative).
    """
    ma = _as_sym(m)
    w, v = np.linalg.eigh(ma)
    cut = _eig_threshold(w, tol)
    if np.any(w < -cut):
        raise NotPSDError(f"matrix has eigenvalue {w.min():.3e} < {-cut:.3e}")
    keep = w > cut
    U = v[:, keep] * np.sqrt(w[keep])
    return SymFactor(n=ma.shape[0], r=int(np.count_nonzero(keep)), U=U)


def eps_rank(m, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues with |lambda| > tol * max(1, ||m||)."""
    w = np.linalg.eigvalsh(_as_sym(m))
    return int(np.count_nonzero(np.abs(w) > _eig_threshold(w, tol)))
