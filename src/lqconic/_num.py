"""Small shared numerics: trapezoid quadrature, finite differences, and the
fixed node blocks that node-axis work runs in."""

from __future__ import annotations

import numpy as np

# Node-axis work (batched eigenvalues, solves, quadratures, coefficient
# tables) runs in blocks of this many nodes, so its temporaries stay bounded
# however long the grid is.
NODE_BLOCK = 256


def node_blocks(count: int):
    """Slices covering range(count) in consecutive blocks of NODE_BLOCK."""
    return [slice(s, min(s + NODE_BLOCK, count))
            for s in range(0, count, NODE_BLOCK)]


def trapz(values: np.ndarray, h: float):
    """Trapezoid rule on uniformly spaced node values.

    Reduces along the leading (node) axis; scalar node values give a float,
    batched node values give an array of integrals.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 2:
        return 0.0 if v.ndim <= 1 else np.zeros(v.shape[1:])
    out = h * (v.sum(axis=0) - 0.5 * (v[0] + v[-1]))
    return float(out) if v.ndim == 1 else out


def fd_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order finite-difference time derivative of node samples.

    Centered differences at interior nodes, one-sided three-point stencils at
    the endpoints. ``values`` has the node axis first; needs >= 3 nodes.
    """
    v = np.asarray(values, dtype=float)
    k = v.shape[0]
    if k < 3:
        raise ValueError("need at least 3 nodes for a second-order derivative")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out
