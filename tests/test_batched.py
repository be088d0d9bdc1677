"""Node-batched certificate stages against their per-node loops, and the
sample-batched escape refinement against its per-sample bisection.

The certificate stages (DLMI feasibility, gain, quadratures, residual
sweeps) evaluate along the node axis in blocks of NODE_BLOCK nodes, with
coefficients tabulated by coeff_on; the forward and backward propagations
build the RK4 maps of their linear flows a run at a time, reading the
generator once per node and midpoint, and carry the state across each
block of SCAN_STEPS steps at once by the prefix products of its maps (the
scan the Riccati sweep uses). The loops below are the reference: one node
at a time, every coefficient read by the scalar interpolator
oracles.coeff_at (the independent reference that coeff_on is tested
against bitwise), each RK4 step taken on the state itself. Grids have
2 * NODE_BLOCK + 3 steps, so a partial tail block is covered, and the
coefficients are constant, node-sampled, or sampled on a grid and
evaluated on its 2x refinement (as verify_solution does). The
propagations also hold over an unstable flow whose state grows to 1e17.

The Riccati sweep takes blocks of SCAN_STEPS steps: prefix products of
the block's RK4 maps of the Hamiltonian flow carry [I; Lam] across the
block, and one batched solve gives every node's Moebius image. Its
reference builds each step's map from coefficients read by
oracles.coeff_at and applies it as a Moebius update one node at a time.
The two agree to rounding across block edges, with escapes at either end
of a block and in the partial tail block, and over blocks whose products
grow. The sweep refines the escapes of all its samples in one vectorized
bisection after the sweep; the reference bisects one sample at a time
from its last good state, with each step's three RK4 stages read
separately and the unscreened denominator test, and must give the same
escape times bitwise.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqconic._num import (NODE_BLOCK, SCAN_STEPS, fd_derivative, node_blocks,
                          propagate, propagate_lyapunov, rk4_map, trapz)
from lqconic.covariance import (alignment_residual,
                                closed_loop_simulate,
                                deterministic_covariance, descriptor_residual,
                                gain_from_dual, primal_objective,
                                stochastic_covariance)
from lqconic.dlmi import dual_objective, feasibility
from lqconic.model import (CostData, ProblemSpec, StateSpace, StochLQR,
                           TimeGrid, apply_Aop, assemble_quadform, coeff_on)
from lqconic.riccati import (SAMPLE_CHUNK, _operator_blocks, _residual_sweep,
                             _RicFlow, _step_intervals, _sweep, draw_forcing,
                             solve_dre_final, solve_lyapunov_final,
                             switch_bounds)
from oracles import coeff_at

STEPS = 2 * NODE_BLOCK + 3
RTOL = 1e-12
KINDS = ("constant", "sampled", "coarse-on-2x")


def assert_close(got, want):
    """Agreement to RTOL relative, floored at an absolute RTOL."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    assert got.shape == want.shape
    err = np.abs(got - want)
    assert np.all(err <= RTOL * np.maximum(1.0, np.abs(want))), float(err.max())


# ---------------------------------------------------------------------------
# per-node reference loops

def ab_at(sys, t, grid):
    return coeff_at(sys.A, t, grid), coeff_at(sys.B, t, grid)


def cost_at(cost, t, grid):
    return tuple(coeff_at(c, t, grid) for c in (cost.Q, cost.N, cost.R))


def ref_rhs(lam, a, b, q, nmat, r):
    shifted = nmat + lam @ b
    lin = a.T @ lam
    return shifted @ np.linalg.inv(r) @ shifted.T - lin - lin.T - q


def ref_m(lam, lam_dot, a, b, qmat):
    n = a.shape[0]
    out = np.array(qmat, dtype=float)
    shifted = lam @ b
    out[:n, :n] += lam_dot + a.T @ lam + lam @ a
    out[:n, n:] += shifted
    out[n:, :n] += shifted.T
    return 0.5 * (out + out.T)


def ref_feasibility(lam, sys, qf, tol):
    grid = lam.grid
    fd = fd_derivative(lam.values, grid.h)
    min_eig, rank = [], []
    for k, t in enumerate(grid.times()):
        a, b = ab_at(sys, t, grid)
        qm = coeff_at(qf.Qmat, t, qf.grid)
        eigs = np.linalg.eigvalsh(ref_m(lam.values[k], fd[k], a, b, qm))
        min_eig.append(eigs[0])
        cut = tol * max(1.0, float(np.abs(eigs).max()))
        rank.append(int(np.count_nonzero(np.abs(eigs) > cut)))
    return np.array(min_eig), np.array(rank)


def ref_gain(lam, sys, cost):
    grid = lam.grid
    out = []
    for k, t in enumerate(grid.times()):
        _, b = ab_at(sys, t, grid)
        _, nmat, r = cost_at(cost, t, grid)
        out.append(np.linalg.solve(r, nmat.T + b.T @ lam.values[k]))
    return np.stack(out)


def ref_rk4(f, y0, grid, sym=False):
    h = grid.h
    out = [y0]
    for t in grid.times()[:-1]:
        y = out[-1]
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        nxt = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(0.5 * (nxt + nxt.T) if sym else nxt)
    return np.stack(out)


def ref_closed_loop(sys, gain, x0, grid):
    def f(t, x):
        a, b = ab_at(sys, t, grid)
        return (a - b @ coeff_at(gain.K, t, gain.grid)) @ x

    x = ref_rk4(f, x0, grid)
    return x, np.stack([-gain.K[k] @ x[k] for k in range(len(x))])


def ref_stochastic(sys, gain, W, X_i, grid, qf):
    """Sigma and its cost: RK4 of the block-diagonal state diag(S, c) with
    c' = tr(Q_cl S), Q_cl = [I; -K]^T QF [I; -K]."""
    n = sys.n

    def f(t, y):
        a, b = ab_at(sys, t, grid)
        kk = coeff_at(gain.K, t, gain.grid)
        fcl, lift = a - b @ kk, np.vstack([np.eye(n), -kk])
        s, out = y[:n, :n], np.zeros_like(y)
        out[:n, :n] = fcl @ s + s @ fcl.T + coeff_at(W, t, grid)
        out[n, n] = np.sum(lift.T @ coeff_at(qf.Qmat, t, qf.grid) @ lift * s)
        return out

    y0 = np.zeros((n + 1, n + 1))
    y0[:n, :n] = 0.5 * (X_i + X_i.T)
    y = ref_rk4(f, y0, grid, sym=True)
    blocks = []
    for k, s in enumerate(y[:, :n, :n]):
        kk = gain.K[k]
        cross = -s @ kk.T
        blocks.append(np.block([[s, cross], [cross.T, kk @ s @ kk.T]]))
    return np.stack(blocks), y[-1, n, n]


def ref_primal(sig, qf):
    grid = sig.grid
    return trapz(np.array([np.sum(coeff_at(qf.Qmat, t, grid)
                                  * sig.values[k])
                           for k, t in enumerate(grid.times())]), grid.h)


def ref_descriptor(sig, sys, W=None):
    grid, n = sig.grid, sys.n
    sdot = fd_derivative(sig.values, grid.h)
    times = grid.times()
    worst = 0.0
    for k in range(1, grid.steps):
        a, b = ab_at(sys, times[k], grid)
        r = sdot[k][:n, :n] - apply_Aop(sig.values[k], a, b)
        if W is not None:
            r = r - coeff_at(W, times[k], grid)
        worst = max(worst, float(np.max(np.abs(r))))
    return worst


def ref_alignment(sig, lam, sys, cost, qf):
    grid = lam.grid
    vals = []
    for k, t in enumerate(grid.times()):
        a, b = ab_at(sys, t, grid)
        ld = ref_rhs(lam.values[k], a, b, *cost_at(cost, t, grid))
        qm = coeff_at(qf.Qmat, t, grid)
        vals.append(np.sum(ref_m(lam.values[k], ld, a, b, qm)
                           * sig.values[k]))
    return trapz(np.array(vals), grid.h)


def ref_dual_w(lam, W):
    grid = lam.grid
    return trapz(np.array([np.trace(lam.values[k] @ coeff_at(W, t, grid))
                           for k, t in enumerate(grid.times())]), grid.h)


def ref_hamiltonian(t, sys, cost, grid, forcing=0.0):
    """The linear flow d/dt [X; Y] = F [X; Y] with Lam = Y X^{-1}, under a
    forcing matrix H."""
    a, b = ab_at(sys, t, grid)
    q, nmat, r = cost_at(cost, t, grid)
    ri = np.linalg.inv(r)
    return np.block([
        [a - b @ ri @ nmat.T, -b @ ri @ b.T],
        [nmat @ ri @ nmat.T - 0.5 * (q + q.T) + forcing,
         nmat @ ri @ b.T - a.T]])


def ref_rk4_map(f1, f2, f4, dt):
    """The classical RK4 step of y' = F y as a map, from F at the start,
    middle and end of the step."""
    eye = np.eye(f1.shape[0])
    k2 = f2 @ (eye + (0.5 * dt) * f1)
    k3 = f2 @ (eye + (0.5 * dt) * k2)
    k4 = f4 @ (eye + dt * k3)
    return eye + (dt / 6.0) * (f1 + 2.0 * k2 + 2.0 * k3 + k4)


def ref_sweep(sys, cost, grid, lam0=None, forcing=0.0):
    """Backward Riccati sweep from lam0 (zero by default) under a constant
    forcing matrix: per step the RK4 map of the Hamiltonian flow,
    coefficients read by oracles.coeff_at at every stage, applied to Lam as a
    Moebius update. From the first step whose denominator M11 + M12 Lam has
    a nonpositive determinant or real eigenvalue (an escape) on, the nodes
    hold NaN."""
    n = sys.n
    times = grid.times()
    out = np.full((grid.steps + 1, n, n), np.nan)
    out[-1] = 0.0 if lam0 is None else lam0
    for k in range(grid.steps, 0, -1):
        t, lam, dt = times[k], out[k], -grid.h
        m = ref_rk4_map(*(ref_hamiltonian(s, sys, cost, grid, forcing)
                          for s in (t, t + 0.5 * dt, t + dt)), dt)
        d = m[:n, :n] + m[:n, n:] @ lam
        ev = np.linalg.eigvals(d)
        if not np.linalg.det(d) > 0 or \
                ((ev.imag == 0) & (ev.real <= 0)).any():
            break
        nxt = (m[n:, :n] + m[n:, n:] @ lam) @ np.linalg.inv(d)
        out[k - 1] = 0.5 * (nxt + nxt.T)
    return out


def ref_operator(values, sys, cost, grid):
    """Per-node Riccati operator over the valid segment, NaN elsewhere."""
    out = np.full_like(values, np.nan)
    idx = np.nonzero(np.isfinite(values).all(axis=(1, 2)))[0]
    ldot = fd_derivative(values[idx], grid.h)
    times = grid.times()
    for j, k in enumerate(idx):
        a, b = ab_at(sys, times[k], grid)
        q, nmat, r = cost_at(cost, times[k], grid)
        out[k] = ldot[j] - ref_rhs(values[k], a, b, 0.5 * (q + q.T), nmat, r)
    return out, idx


def operator_nodes(values, flow, grid):
    """The residual sweep's operator blocks put back at their nodes, NaN
    outside the valid segment."""
    out = np.full_like(values, np.nan)
    idx = np.nonzero(np.isfinite(values).all(axis=(1, 2)))[0]
    for block, r in _operator_blocks(flow, grid, idx, values[idx]):
        out[idx[block]] = r
    return out


def ref_residual_max(values, sys, cost, grid):
    out, idx = ref_operator(values, sys, cost, grid)
    worst = 0.0
    for k in idx:
        worst = max(worst, float(np.max(np.abs(out[k]))))
    return worst


# ---------------------------------------------------------------------------
# problems

class Problem:
    def __init__(self, kind):
        rng = np.random.default_rng(20)
        n, m = 3, 2
        s = np.linspace(0.0, 1.0, STEPS + 1)[:, None, None]
        wave = 1.0 + 0.3 * np.sin(7.0 * s)

        def coeff(base):
            return base if kind == "constant" else base * wave

        g = rng.uniform(-1.0, 1.0, (n, n))
        p = rng.uniform(-1.0, 1.0, (m, m))
        a0 = rng.uniform(-1.0, 1.0, (n, n))
        self.sys = StateSpace(
            A=coeff(a0),
            B=coeff(rng.uniform(-1.0, 1.0, (n, m))))
        self.cost = CostData(Q=coeff(g @ g.T + 0.1 * np.eye(n)),
                             N=coeff(0.1 * rng.uniform(-1.0, 1.0, (n, m))),
                             R=coeff(p @ p.T + 0.5 * np.eye(m)))
        h = rng.uniform(-1.0, 1.0, (n, n))
        self.W = coeff(0.5 * h @ h.T)
        x = rng.uniform(-1.0, 1.0, (n, n))
        self.X_i = x @ x.T
        self.x_i = rng.uniform(0.5, 2.0, n)
        self.grid = TimeGrid(T=1.0, steps=STEPS)
        if kind == "coarse-on-2x":
            self.grid = self.grid.refined(2)
        spec = ProblemSpec(sys=self.sys, grid=self.grid,
                           variant=StochLQR(cost=self.cost, X_i=self.X_i,
                                            W=self.W))
        self.qf = assemble_quadform(spec)
        dre = solve_dre_final(self.sys, self.cost, np.zeros((n, n)), self.grid)
        assert not dre.escaped
        self.lam = dre.lam
        self.gain = gain_from_dual(self.lam, self.sys, self.cost)
        x, u = closed_loop_simulate(self.sys, self.gain, self.x_i, self.grid)
        self.x, self.u = x, u
        self.det = deterministic_covariance(x, u, self.grid)
        self.stoch, self.cost_value = stochastic_covariance(
            self.sys, self.gain, self.W, self.X_i, self.grid, self.qf)


@pytest.fixture(scope="module", params=KINDS)
def prob(request):
    return Problem(request.param)


class TestStagesMatchLoops:
    def test_sweep_with_tabulated_coefficients(self, prob):
        n = prob.sys.n
        values, escaped, _ = _sweep(_RicFlow(prob.sys, prob.cost, prob.grid),
                                    np.zeros((1, n, n)), prob.grid)
        assert not escaped[0]
        assert_close(values[0], ref_sweep(prob.sys, prob.cost, prob.grid))

    # the derivative feasibility takes: centred differences
    @pytest.mark.parametrize("mode", ["fd"])
    def test_feasibility(self, prob, mode):
        cert = feasibility(prob.lam, prob.sys, prob.qf, tol=1e-9)
        min_eig, rank = ref_feasibility(prob.lam, prob.sys, prob.qf, 1e-9)
        assert_close(cert.min_eig, min_eig)
        np.testing.assert_array_equal(cert.rank_trace, rank)

    def test_transition_matrix(self, prob):
        # forward: dPhi/dt = F Phi from the identity, F = A, by the one
        # linear propagation with F tabulated at a block's stage times
        f, grid = prob.sys.A, prob.grid
        want = ref_rk4(lambda t, y: coeff_at(f, t, grid) @ y,
                       np.eye(prob.sys.n), grid)
        got = propagate(lambda t: coeff_on(f, t, grid), np.eye(prob.sys.n),
                        grid)
        assert_close(got, want)

    def test_second_moments_exactly_symmetric(self, prob):
        # the [vech S; c; 1] flows store one triangle and mirror it
        n = prob.sys.n
        sxx = prob.stoch.values[:, :n, :n]
        lyap = solve_lyapunov_final(prob.sys.A, prob.W, prob.X_i,
                                    prob.grid).values
        for v in (sxx, lyap):
            assert np.array_equal(v, v.swapaxes(-1, -2))

    def test_lyapunov_final(self, prob):
        # backward: -dX/dt = F^T X + X F + H from X(T); in reversed time
        # s = T - t it is the forward flow the oracle steps
        f, h, grid = prob.sys.A, prob.W, prob.grid
        x_t = 0.5 * (prob.X_i + prob.X_i.T)

        def rev(s, x):
            fs = coeff_at(f, grid.T - s, grid)
            return fs.T @ x + x @ fs + coeff_at(h, grid.T - s, grid)

        want = ref_rk4(rev, x_t, grid, sym=True)[::-1]
        got = solve_lyapunov_final(f, h, prob.X_i, grid).values
        assert_close(got, want)

    def test_gain(self, prob):
        assert_close(prob.gain.K, ref_gain(prob.lam, prob.sys, prob.cost))

    def test_closed_loop(self, prob):
        x, u = ref_closed_loop(prob.sys, prob.gain, prob.x_i, prob.grid)
        assert_close(prob.x, x)
        assert_close(prob.u, u)

    def test_stochastic_covariance(self, prob):
        values, cost = ref_stochastic(prob.sys, prob.gain, prob.W, prob.X_i,
                                      prob.grid, prob.qf)
        assert_close(prob.stoch.values, values)
        assert_close(prob.cost_value, cost)

    @pytest.mark.parametrize("side", ["det", "stoch"])
    def test_primal_and_descriptor(self, prob, side):
        sig = getattr(prob, side)
        w = prob.W if side == "stoch" else None
        assert_close(primal_objective(sig, prob.qf),
                     ref_primal(sig, prob.qf))
        assert_close(descriptor_residual(sig, prob.sys, W=w),
                     ref_descriptor(sig, prob.sys, w))

    # the derivative alignment takes: the Riccati right-hand side
    @pytest.mark.parametrize("mode", ["dre"])
    def test_alignment(self, prob, mode):
        got = alignment_residual(prob.stoch, prob.lam, prob.sys, prob.cost,
                                 prob.qf)
        assert_close(got, ref_alignment(prob.stoch, prob.lam, prob.sys,
                                        prob.cost, prob.qf))

    def test_dual_w_integral(self, prob):
        got = dual_objective(prob.lam, X_i=np.zeros_like(prob.X_i), W=prob.W)
        assert_close(got, ref_dual_w(prob.lam, prob.W))

    def test_residual_sweep_and_riccati_residual(self, prob):
        flow = _RicFlow(prob.sys, prob.cost, prob.grid)
        values = prob.lam.values
        assert_close(_residual_sweep(values, flow, prob.grid),
                     ref_residual_max(values, prob.sys, prob.cost, prob.grid))
        got = operator_nodes(values, flow, prob.grid)
        assert_close(got, ref_operator(values, prob.sys, prob.cost,
                                       prob.grid)[0])

    def test_gain_resampled_on_refined_grid(self, prob):
        fine = prob.grid.refined(2)
        got = coeff_on(prob.gain.K, fine.times(), prob.grid)
        want = np.stack([coeff_at(prob.gain.K, t, prob.grid)
                         for t in fine.times()])
        np.testing.assert_array_equal(got, want)


def test_residual_sweep_on_escaped_trajectory():
    # only the valid segment before the escape is swept
    sys = StateSpace(A=[[0.0]], B=[[1.0]])
    cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
    grid = TimeGrid(T=2.0, steps=STEPS)
    dre = solve_dre_final(sys, cost, np.zeros((1, 1)), grid)
    assert dre.escaped
    flow = _RicFlow(sys, cost, grid)
    assert_close(_residual_sweep(dre.lam.values, flow, grid),
                 ref_residual_max(dre.lam.values, sys, cost, grid))
    got = operator_nodes(dre.lam.values, flow, grid)
    want = ref_operator(dre.lam.values, sys, cost, grid)[0]
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    valid = ~np.isnan(want)
    assert_close(got[valid], want[valid])


class TestCoeffOn:
    def test_constant_passes_through(self):
        c = np.array([[2.0, 1.0]])
        assert coeff_on(c, np.linspace(0.0, 1.0, 7), TimeGrid(1.0, 4)) is c

    @settings(max_examples=40, deadline=None)
    @given(samples=st.integers(2, 40), steps=st.integers(1, 80),
           T=st.floats(0.05, 20.0), seed=st.integers(0, 2 ** 16))
    def test_bitwise_equal_to_coeff_at(self, samples, steps, T, seed):
        coeff = np.random.default_rng(seed).standard_normal((samples, 2, 3))
        grid = TimeGrid(T=T, steps=steps)
        t, h = grid.times(), grid.h
        # nodes, midpoints, the RK4 stage times of forward and backward
        # steps (t + dt/2 and t + dt with dt = +h or -h), and times on
        # either side of the 1e-12 snapping band around the sample nodes
        nodes = np.linspace(0.0, T, samples)
        gap = T / (samples - 1)
        times = np.concatenate([t, t[:-1] + 0.5 * h, t + 0.5 * h, t + h,
                                t + 0.5 * -h, t + -h]
                               + [nodes + d * gap for d in
                                  (-1e-11, -1e-13, 1e-13, 1e-11)])
        got = coeff_on(coeff, times, grid)
        for i, ti in enumerate(times):
            want = coeff_at(coeff, float(ti), grid)
            assert got[i].tobytes() == want.tobytes(), (ti, i)
            # a scalar time gives the one (rows, cols) matrix
            one = coeff_on(coeff, float(ti), grid)
            assert one.shape == (2, 3)
            assert one.tobytes() == want.tobytes(), (ti, i)


# ---------------------------------------------------------------------------
# the RK4 map of a linear flow

def taylor4(f, dt):
    """I + hF + (hF)^2/2 + (hF)^3/6 + (hF)^4/24: the RK4 map of a constant
    F is the degree-4 Taylor polynomial of exp(hF)."""
    hf = np.asarray(dt)[..., None, None] * f
    term, out = np.eye(f.shape[-1]), np.eye(f.shape[-1])
    for j in range(1, 5):
        term = term @ hf / j
        out = out + term
    return out


class TestRk4Map:
    @pytest.mark.parametrize("dt", [0.1, -0.25, 1.5])
    def test_constant_flow_is_taylor_polynomial(self, dt):
        f = np.random.default_rng(1).standard_normal((4, 4))
        got = rk4_map([f] * 3, dt)
        np.testing.assert_allclose(got, taylor4(f, dt), rtol=1e-14,
                                   atol=1e-14)

    def test_stacked_flows_with_one_step_each(self):
        rng = np.random.default_rng(2)
        f = rng.standard_normal((5, 3, 3))
        dt = rng.uniform(-0.5, 0.5, 5)
        got = rk4_map([f] * 3, dt)
        assert got.shape == (5, 3, 3)
        np.testing.assert_allclose(got, taylor4(f, dt), rtol=1e-14,
                                   atol=1e-14)
        for j in range(5):
            np.testing.assert_array_equal(got[j], rk4_map([f[j]] * 3, dt[j]))

    def test_map_steps_a_time_varying_flow_like_rk4(self):
        # the map applied to y is the classical RK4 step of y' = F(t) y
        rng = np.random.default_rng(3)
        f0, f1 = rng.standard_normal((2, 3, 3))

        def flow(t):
            return f0 + t * f1

        t, dt, y = 0.3, 0.2, rng.standard_normal(3)
        k1 = flow(t) @ y
        k2 = flow(t + 0.5 * dt) @ (y + 0.5 * dt * k1)
        k3 = flow(t + 0.5 * dt) @ (y + 0.5 * dt * k2)
        k4 = flow(t + dt) @ (y + dt * k3)
        want = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        got = rk4_map([flow(s) for s in (t, t + 0.5 * dt, t + dt)], dt) @ y
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=1e-14)


# ---------------------------------------------------------------------------
# the blocked sweep: block edges and the growth of the prefix products

class TestBlockEdges:
    """Escapes on the first, a middle and the last step of a block, and in
    the partial tail block, against the per-step reference.

    A = 0, B = 1, R = 1 and Q = H - 1 under a forcing H: backward from
    -tan(phi) the flow is Lam = -tan(phi + s) at s = T - t, which escapes at
    s = pi/2 - phi. Each sample's phi puts its escape in the middle of a
    chosen step, counted backward from T; the batch spans more than one
    chunk of samples."""

    STEPS = 2 * SCAN_STEPS + 22  # two full blocks and a partial tail
    # the step each sample escapes on (0: never); SCAN_STEPS + 1 is the
    # first step of the second block, 2 * SCAN_STEPS + 1 that of the tail
    ESCAPE_STEP = (1, 2, SCAN_STEPS // 2, SCAN_STEPS - 1, SCAN_STEPS,
                   SCAN_STEPS + 1, SCAN_STEPS + 2, 3 * SCAN_STEPS // 2,
                   2 * SCAN_STEPS - 1, 2 * SCAN_STEPS, 2 * SCAN_STEPS + 1,
                   2 * SCAN_STEPS + 2, 2 * SCAN_STEPS + 12, STEPS - 1, STEPS,
                   0, 0)

    @pytest.mark.parametrize("kind", ["constant", "sampled"])
    @pytest.mark.parametrize("forced", [False, True])
    def test_escape_steps_and_values_match_reference(self, kind, forced):
        grid = TimeGrid(T=1.5, steps=self.STEPS)
        amp = 0.5 if forced else 0.0

        def coeff(v):
            return np.full((self.STEPS + 1, 1, 1), v) if kind == "sampled" \
                else [[v]]

        sys = StateSpace(A=coeff(0.0), B=coeff(1.0))
        cost = CostData(Q=coeff(amp - 1.0), N=None, R=coeff(1.0))
        phi = np.array([np.pi / 2 - (e - 0.5) * grid.h if e else 0.0
                        for e in self.ESCAPE_STEP])
        lam0 = -np.tan(phi)[:, None, None]
        assert lam0.shape[0] > SAMPLE_CHUNK
        flow = _RicFlow(sys, cost, grid)
        forcing = (np.full((lam0.shape[0], 1, 1, 1), amp),
                   np.zeros(self.STEPS, dtype=int)) if forced else None
        values, escaped, _ = _sweep(flow, lam0, grid, forcing)
        for i, e in enumerate(self.ESCAPE_STEP):
            want = ref_sweep(sys, cost, grid, lam0[i], amp * np.eye(1))
            valid = np.isfinite(want).all(axis=(1, 2))
            # an escape on step e leaves the e nodes after it valid
            assert valid.sum() == (e or self.STEPS + 1)
            np.testing.assert_array_equal(
                np.isfinite(values[i]).all(axis=(1, 2)), valid)
            assert escaped[i] == bool(e)
            assert_close(values[i][valid], want[valid])
            # and the sample alone gives the same sweep
            alone = _sweep(flow, lam0[i:i + 1], grid, None if forcing is None
                           else (forcing[0][i:i + 1], forcing[1]))[0]
            assert np.array_equal(values[i], alone[0], equal_nan=True)

    def test_exactly_singular_denominator(self):
        # A = Q = 0, B = R = 1: the maps are [[1, h], [0, 1]] exactly, and
        # from Lam = -16 with h = 1/64 the block's X_4 = 1 - 4 h 16 is
        # exactly 0; the escape is reported on step 4, not raised
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        cost = CostData(Q=[[0.0]], N=None, R=[[1.0]])
        grid = TimeGrid(T=1.0, steps=64)
        values, escaped, _ = _sweep(_RicFlow(sys, cost, grid),
                                    np.full((1, 1, 1), -16.0), grid)
        assert escaped[0]
        np.testing.assert_array_equal(
            np.isfinite(values[0, :, 0, 0]), np.arange(65) > 60)


def growth_problem(kind):
    """A stable regulator: constant over T = 60 with 1024 steps (a block of
    SCAN_STEPS spans 3.75 time units), or node-sampled over T = 20 with 512
    steps."""
    rng = np.random.default_rng(5)
    n, m = 3, 2
    a = rng.uniform(-1.0, 1.0, (n, n))
    a -= (np.abs(np.linalg.eigvals(a)).max() + 0.5) * np.eye(n)
    b = rng.uniform(-1.0, 1.0, (n, m))
    g = rng.uniform(-1.0, 1.0, (n, n))
    p = rng.uniform(-1.0, 1.0, (m, m))
    cost = CostData(Q=g @ g.T + 0.1 * np.eye(n), N=None,
                    R=p @ p.T + 0.5 * np.eye(m))
    if kind == "constant":
        return StateSpace(A=a, B=b), cost, TimeGrid(T=60.0, steps=1024)
    wave = 1.0 + 0.3 * np.sin(7.0 * np.linspace(0.0, 1.0, 513))[:, None, None]
    return StateSpace(A=a * wave, B=b * wave), cost, \
        TimeGrid(T=20.0, steps=512)


@pytest.mark.parametrize("kind", ["constant", "sampled"])
def test_block_growth_guard(kind):
    # the prefix products of a block grow with the time it spans (here to
    # ||P|| ~ 1e5), and so does the rounding of Lam = Y X^{-1}; blocks of
    # SCAN_STEPS stay at the per-step reference's accuracy, where blocks of
    # twice that lose it on the constant data (1e-11) and powers over the
    # whole horizon turn singular
    sys, cost, grid = growth_problem(kind)
    values, escaped, _ = _sweep(_RicFlow(sys, cost, grid),
                                np.zeros((1, sys.n, sys.n)), grid)
    assert not escaped[0]
    assert_close(values[0], ref_sweep(sys, cost, grid))


def unstable_flow():
    """A node-sampled flow with eigenvalues of positive real part over
    T = 30 with 1024 steps (a block of SCAN_STEPS spans 1.875 time units):
    the state grows to about 1e17."""
    rng = np.random.default_rng(6)
    grid = TimeGrid(T=30.0, steps=1024)
    a = rng.uniform(-1.0, 1.0, (3, 3)) + 0.6 * np.eye(3)
    wave = 1.0 + 0.3 * np.sin(7.0 * np.linspace(0.0, 1.0, 1025))
    return a * wave[:, None, None], grid


@pytest.mark.parametrize("backward", [False, True])
def test_propagation_growth_guard(backward):
    # the primal propagations apply prefix products of SCAN_STEPS maps;
    # forward from t = 0 under F, W and Q, or backward from t = T under
    # -F, -W and -Q (in reversed time s = T - t the same flow as forward,
    # which the oracle steps), they stay at the per-step reference's
    # accuracy while the state grows
    f, grid = unstable_flow()
    w = np.diag([1.0, 2.0, 0.5])
    sign = -1.0 if backward else 1.0

    def at(t):
        return coeff_at(f, grid.T - t if backward else t, grid)

    def flip(values):
        return values[::-1] if backward else values

    x0 = np.array([1.0, -0.5, 0.25])
    want = ref_rk4(lambda t, x: at(t) @ x, x0, grid)
    got = propagate(lambda t: sign * coeff_on(f, t, grid), x0, grid, backward)
    assert np.abs(want).max() > 1e12
    assert_close(flip(got), want)

    def lyap(t, y):  # S' = F S + S F^T + W and c' = tr(Q S), Q = I
        out = np.zeros_like(y)
        out[:3, :3] = at(t) @ y[:3, :3] + y[:3, :3] @ at(t).T + w
        out[3, 3] = np.trace(y[:3, :3])
        return out

    y0 = np.zeros((4, 4))
    y0[:3, :3] = np.eye(3)
    want = ref_rk4(lyap, y0, grid, sym=True)
    s, c = propagate_lyapunov(lambda t: sign * coeff_on(f, t, grid),
                              lambda t: sign * w, np.eye(3), grid,
                              q=lambda t: sign * np.eye(3), backward=backward)
    assert_close(flip(s), want[:, :3, :3])
    assert_close(flip(c), want[:, 3, 3])


class TestGeneratorReads:
    """A run of K steps reads its generator once at each of its K + 1 nodes
    and K midpoints, 2K + 1 times, where three RK4 stages per step read it
    3K times; each NODE_BLOCK of steps is one run, whose first node is the
    last of the run before."""

    @staticmethod
    def spy(calls, read):
        def wrapped(*args):
            calls.append(np.array(args[-1], dtype=float).ravel())
            return read(*args)
        return wrapped

    def check(self, calls, steps, runs):
        times = np.concatenate(calls)
        assert np.unique(times).size == 2 * steps + 1
        assert times.size == 2 * steps + runs

    @pytest.mark.parametrize("backward", [False, True])
    def test_primal(self, backward):
        prob, calls = Problem("sampled"), []
        grid = prob.grid
        propagate(self.spy(calls, lambda t: coeff_on(prob.sys.A, t, grid)),
                  np.ones(prob.sys.n), grid, backward)
        self.check(calls, STEPS, len(node_blocks(STEPS)))

    @pytest.mark.parametrize("forced", [False, True])
    def test_riccati(self, monkeypatch, forced):
        prob, calls = Problem("sampled"), []
        monkeypatch.setattr(_RicFlow, "table", self.spy(calls, _RicFlow.table))
        forcing = (np.full((1, 1, 3, 3), 0.1), np.zeros(STEPS, dtype=int)) \
            if forced else None
        _, escaped, _ = _sweep(_RicFlow(prob.sys, prob.cost, prob.grid),
                               np.zeros((1, 3, 3)), prob.grid, forcing)
        assert not escaped[0]
        # a forced sample's maps are built per block of the scan
        self.check(calls, STEPS, len(node_blocks(
            STEPS, SCAN_STEPS if forced else NODE_BLOCK)))


# ---------------------------------------------------------------------------
# escape refinement

def ref_refine_escape(flow, t_good, y_good, h, forcing):
    """Bisect the size of the backward step at which the denominator
    M11 + M12 Lam of one sample's step map first has a nonpositive
    determinant or real eigenvalue (eigenvalues on every trial, no screen),
    until the bracket stops splitting; returns the escape time and the
    bisection steps taken."""
    n = y_good.shape[-1]
    shift = np.zeros((2 * n, 2 * n))
    shift[n:, :n] = forcing[0]  # a forcing H adds [[0, 0], [H, 0]] to F
    lo, hi = 0.0, h
    taken = 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        taken += 1
        dt = -mid
        m = ref_rk4_map(*(flow.hamiltonian(s) + shift
                          for s in (t_good, t_good + 0.5 * dt, t_good + dt)),
                        dt)
        d = m[:n, :n] + m[:n, n:] @ y_good[0]
        ev = np.linalg.eigvals(d)
        if not np.linalg.det(d) > 0 or \
                ((ev.imag == 0) & (ev.real <= 0)).any():
            hi = mid
        else:
            lo = mid
    return t_good - 0.5 * (lo + hi), taken


class TestEscapeRefinement:
    """One sweep over a batch whose samples escape at different steps (one
    on the first step, some never), with per-sample forcings, against the
    per-sample bisection from each escaped sample's last good node."""

    # starting distance along the escape path and forcing amplitude
    LAM0 = (0.0, 0.0, 0.0, 1.0, 3.0, 10.0, 1e3, 0.5)
    AMP = (0.0, 0.3, 2.0, 0.5, 0.0, 1.0, 0.0, 4.0)

    def _batch(self, kind, steps):
        rng = np.random.default_rng(8)
        n = 2
        s = np.linspace(0.0, 1.0, steps + 1)[:, None, None]
        wave = 1.0 + 0.3 * np.sin(5.0 * s) if kind == "sampled" else 1.0
        g = rng.uniform(-1.0, 1.0, (n, n))
        # a negative definite state weight: the flow escapes downward
        # backward in time
        sys = StateSpace(A=0.3 * rng.uniform(-1.0, 1.0, (n, n)) * wave,
                         B=rng.uniform(0.5, 1.0, (n, 1)) * wave)
        cost = CostData(Q=-(g @ g.T + 0.5 * np.eye(n)), N=None, R=[[1.0]])
        grid = TimeGrid(T=1.0, steps=steps)
        lam0 = np.stack([-c * np.eye(n) for c in self.LAM0])
        hvals = np.stack([draw_forcing(n, 6, 30 + i, a)
                          for i, a in enumerate(self.AMP)])
        interval = _step_intervals(switch_bounds(steps, 6))
        flow = _RicFlow(sys, cost, grid)
        return flow, grid, lam0, hvals, interval

    # three grids, so the escapes fall on different steps of each; the
    # 150-step one spans three blocks of the sweep
    @pytest.mark.parametrize("steps", [40, 64, 150])
    @pytest.mark.parametrize("kind", ["constant", "sampled"])
    def test_batched_refinement_matches_per_sample(self, kind, steps):
        flow, grid, lam0, hvals, interval = self._batch(kind, steps)
        values, escaped, escape_time = _sweep(flow, lam0, grid,
                                              (hvals, interval))
        valid = np.isfinite(values).all(axis=(2, 3))
        escape_steps, taken = set(), []
        for i in np.nonzero(escaped)[0]:
            nodes = np.nonzero(valid[i])[0]
            k = nodes[0]  # the last good node, stepping backward
            want, used = ref_refine_escape(
                flow, grid.times()[k], values[i, k][None], grid.h,
                hvals[i:i + 1, interval[k - 1]])
            assert escape_time[i] == want
            escape_steps.add(nodes.size)
            taken.append(used)
        assert np.isnan(escape_time[~escaped]).all()

        # each sample swept alone gives the same result
        for i in range(lam0.shape[0]):
            v1, e1, t1 = _sweep(flow, lam0[i:i + 1], grid,
                                (hvals[i:i + 1], interval))
            assert np.array_equal(values[i], v1[0], equal_nan=True)
            assert escaped[i] == e1[0]
            assert np.array_equal(escape_time[i:i + 1], t1, equal_nan=True)

        # the batch covers what it is meant to cover: escapes on several
        # steps, the first among them, and brackets that stop splitting
        # after different numbers of bisection steps
        assert not escaped.all() and len(escape_steps) >= 3
        assert 1 in escape_steps  # escaped on the first step
        assert len(set(taken)) > 1
