"""Small shared numerics: the one RK4 stepper, trapezoid quadrature, finite
differences, and the fixed node blocks that node-axis work runs in."""

from __future__ import annotations

import numpy as np

# Node-axis work (batched eigenvalues, solves, quadratures, coefficient
# tables) runs in blocks of this many nodes, so its temporaries stay bounded
# however long the grid is.
NODE_BLOCK = 256


def node_blocks(count: int, size: int = NODE_BLOCK):
    """Slices covering range(count) in consecutive blocks of size."""
    return [slice(s, min(s + size, count)) for s in range(0, count, size)]


def as_matrix(value) -> np.ndarray:
    """Float array of a value; a scalar becomes a 1 x 1 matrix."""
    a = np.asarray(value, dtype=float)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    return a


def _row(data, j: int):
    """Data at the j-th time of a table; constant entries pass through."""
    return [d[j] if d.ndim == 3 else d for d in data]


def rk4_step(rhs, stages, y: np.ndarray, dt):
    """One classical RK4 step of dy/dt = rhs(data, y) from y over dt.

    stages holds the right-hand-side data at the stage times t, t + dt/2
    and t + dt. dt may be negative (a backward step) or an array that
    broadcasts against y (one step size per sample).
    """
    d1, d2, d4 = stages
    k1 = rhs(d1, y)
    k2 = rhs(d2, y + (0.5 * dt) * k1)
    k3 = rhs(d2, y + (0.5 * dt) * k2)
    k4 = rhs(d4, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(rhs, tables, y0: np.ndarray, grid, backward: bool = False,
              sym: bool = False) -> np.ndarray:
    """RK4 of a flow that cannot escape, node to node across the grid.

    Starts from y0 at t = 0, or at t = T when backward. tables(t, dt)
    returns the right-hand-side data at the three stage times of the steps
    that start at the times t, one block of NODE_BLOCK steps at a time;
    each entry is one matrix for all steps or one per step. sym keeps a
    matrix state symmetric after every step. Returns the node values.
    """
    steps, times = grid.steps, grid.times()
    if backward:
        order, dt, move = np.arange(steps, 0, -1), -grid.h, -1
    else:
        order, dt, move = np.arange(steps), grid.h, 1
    out = np.empty((steps + 1,) + np.shape(y0))
    out[order[0]] = y0
    for block in node_blocks(steps):
        ks = order[block]
        tabs = tables(times[ks], dt)
        for j, k in enumerate(ks.tolist()):
            nxt = rk4_step(rhs, [_row(tab, j) for tab in tabs], out[k], dt)
            out[k + move] = 0.5 * (nxt + nxt.swapaxes(-1, -2)) if sym else nxt
    return out


def trapz(values: np.ndarray, h: float):
    """Trapezoid rule with Gregory end corrections on uniformly spaced node
    values: end weights 3/8, 7/6, 23/24, then 1, so the rule is exact on
    cubics and fourth order, like the RK4 propagations whose samples it
    integrates. The weights stay positive (a PSD integrand keeps a
    nonnegative integral). Fewer than four nodes fall back to the plain
    trapezoid.

    Reduces along the leading (node) axis; scalar node values give a float,
    batched node values give an array of integrals.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[0] < 2:
        return 0.0 if v.ndim <= 1 else np.zeros(v.shape[1:])
    out = h * (v.sum(axis=0) - 0.5 * (v[0] + v[-1]))
    if v.shape[0] >= 4:
        out = out - (h / 24.0) * (3.0 * (v[0] + v[-1]) - 4.0 * (v[1] + v[-2])
                                  + (v[2] + v[-3]))
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
