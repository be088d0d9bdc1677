"""Small shared numerics: the one RK4 integrator (the maps of a run of steps
of a linear flow, scanned by their prefix products) and the propagations on
it, trapezoid quadrature, finite differences, and the fixed node blocks."""

from __future__ import annotations

import numpy as np

# Node-axis work (batched eigenvalues, solves, quadratures, coefficient
# tables) runs in blocks of this many nodes, so its temporaries stay bounded
# however long the grid is.
NODE_BLOCK = 256
# Steps per block of a linear-flow scan: a block applies prefix products of
# its step maps, whose norm grows with the time the block spans, so the
# blocks stay short (see the growth guards in tests/test_batched.py). A
# divisor of NODE_BLOCK, the steps whose maps are built at once.
SCAN_STEPS = 64


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


def run_maps(generator, t, dt, shift=None) -> np.ndarray:
    """`rk4_map` of each step between the nodes t (axis 0, spaced dt: a
    number, or one per trailing entry of t), or one map for all steps if
    generator(t), F at a batch of times, returns one matrix. The generator
    is read once, at every node and midpoint; shift, if given, is added to
    F at all three stages of a step."""
    k = t.shape[0] - 1
    f = generator(np.concatenate([t, t[:-1] + 0.5 * dt]))
    stages = [f] * 3 if f.ndim == 2 else [f[:k], f[k + 1:], f[1:k + 1]]
    return rk4_map(stages if shift is None else [s + shift for s in stages],
                   dt)


def prefix_products(m: np.ndarray) -> np.ndarray:
    """Prefix products P_j = M_j ... M_1 of step maps stacked along axis -3,
    by a Hillis-Steele scan (log2 of the count of batched matmuls). P_j
    depends only on M_1 .. M_j, so the leading products of a longer run
    equal those of a shorter one bitwise."""
    p = np.array(m)
    span = 1
    while span < p.shape[-3]:
        p[..., span:, :, :] = np.matmul(p[..., span:, :, :],
                                        p[..., :-span, :, :])
        span *= 2
    return p


def propagate(generator, y0: np.ndarray, grid, backward: bool = False):
    """RK4 of the linear flow y' = F(t) y across the grid from y0 at t = 0
    (t = T when backward); generator(t) gives F at a batch of times. Each
    NODE_BLOCK of steps gets its maps from `run_maps`, and each SCAN_STEPS
    of them carry y across at once: y_j = P_j y_0 with the prefix products
    P_j of their maps. Returns the node values."""
    times, dt = grid.times(), grid.h
    if backward:
        times, dt = times[::-1], -dt
    ys = np.empty((grid.steps + 1,) + np.shape(y0))  # in the order stepped
    ys[0] = y0
    for run in node_blocks(grid.steps):
        maps = run_maps(generator, times[run.start:run.stop + 1], dt)
        maps = np.broadcast_to(maps, (run.stop - run.start,) + maps.shape[-2:])
        for block in node_blocks(maps.shape[0], SCAN_STEPS):
            j = run.start + block.start
            ys[j + 1:run.start + block.stop + 1] = \
                prefix_products(maps[block]) @ ys[j]
    return ys[::-1] if backward else ys


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
