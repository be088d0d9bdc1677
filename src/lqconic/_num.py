"""Small shared numerics: the one RK4 integrator (the step map of a linear
flow) and the linear propagations built on it, trapezoid quadrature, finite
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


def rk4_map(stages, dt) -> np.ndarray:
    """RK4 map M, y(t + dt) = M y(t), of the linear flow y' = F(t) y:
    M = I + (dt/6)(K1 + 2 K2 + 2 K3 + K4) with K1 = F(t),
    K2 = F(t + dt/2)(I + dt/2 K1), K3 = F(t + dt/2)(I + dt/2 K2) and
    K4 = F(t + dt)(I + dt K3). stages holds F at t, t + dt/2 and t + dt
    (matrices or stacks); dt is a number or one step size per map."""
    f1, f2, f4 = stages
    eye = np.eye(f1.shape[-1])
    dt = np.asarray(dt, dtype=float)[..., None, None]
    k2 = np.matmul(f2, eye + (0.5 * dt) * f1)
    k3 = np.matmul(f2, eye + (0.5 * dt) * k2)
    k4 = np.matmul(f4, eye + dt * k3)
    return eye + (dt / 6.0) * (f1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate(generator, y0: np.ndarray, grid, backward: bool = False):
    """RK4 of the linear flow y' = F(t) y across the grid from y0 at t = 0
    (t = T when backward); generator(t) gives F at a batch of times. Each
    NODE_BLOCK of steps gets its maps in one batched call, then y <- M y
    node by node. Returns the node values."""
    steps, times = grid.steps, grid.times()
    if backward:
        order, dt, move = np.arange(steps, 0, -1), -grid.h, -1
    else:
        order, dt, move = np.arange(steps), grid.h, 1
    out = np.empty((steps + 1,) + np.shape(y0))
    out[order[0]] = y0
    for block in node_blocks(steps):
        ks = order[block]
        t = times[ks]
        maps = rk4_map([generator(s) for s in (t, t + 0.5 * dt, t + dt)], dt)
        maps = np.broadcast_to(maps, ks.shape + maps.shape[-2:])
        for k, m in zip(ks.tolist(), maps):
            out[k + move] = m @ out[k]
    return out


def propagate_lyapunov(f, w, s0: np.ndarray, grid, q=None,
                       backward: bool = False):
    """Node values of S' = F S + S F^T + W from the symmetric s0 and of
    c' = tr(Q S) from 0: `propagate` on the flow of [vech S; c; 1], vech S
    being the p = n(n+1)/2 upper-triangle entries, whose matrix is
    [[L(F), 0, vech W], [vec(Q) D, 0, 0], 0] with L(F) S = F S + S F^T and
    D: vech S -> vec S. f, w and q give F, W and Q at a batch of times."""
    n = s0.shape[-1]
    iu, ju = np.triu_indices(n)
    p = iu.size
    dup = np.zeros((n, n, p))
    dup[iu, ju, np.arange(p)] = dup[ju, iu, np.arange(p)] = 1.0
    # L(F) is linear in F: vec F times a fixed 0/1/2 matrix
    lin = (np.einsum("ua,vac->uvac", np.eye(n)[:, iu], dup[:, ju])
           + np.einsum("ua,avc->uvac", np.eye(n)[:, ju], dup[iu])).reshape(
               n * n, -1)
    dup = dup.reshape(n * n, p)

    def generator(t):
        ft, wt, qt = (None if c is None else c(t) for c in (f, w, q))
        g = np.zeros(np.broadcast_shapes(*(c.shape[:-2] for c in (
            ft, wt, qt) if c is not None)) + (p + 2, p + 2))
        g[..., :p, :p] = (ft.reshape(-1, n * n) @ lin).reshape(
            ft.shape[:-2] + (p, p))
        if wt is not None:
            g[..., :p, -1] = wt[..., iu, ju]
        if qt is not None:
            g[..., p, :p] = qt.reshape(qt.shape[:-2] + (n * n,)) @ dup
        return g

    y = propagate(generator, np.r_[s0[iu, ju], 0.0, 1.0], grid, backward)
    return (y[:, :p] @ dup.T).reshape(-1, n, n), y[:, p]


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
