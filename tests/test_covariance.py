"""Primal covariance side: feedback gains, closed-loop propagation,
objectives, dynamics/alignment residuals, Monte Carlo.

Scalar ground truth (a=0, b=1, q=r=1, zero final value): the optimal gain
is K(t) = tanh(1-t), the closed loop from x(0)=1 is
x(t) = cosh(1-t)/cosh(1), and the optimal value is tanh(1).
"""
import numpy as np
import pytest

from lqconic import (
    CostData,
    Gain,
    LQR,
    ProblemSpec,
    StateSpace,
    TimeGrid,
    alignment_residual,
    assemble_M,
    assemble_quadform,
    closed_loop_simulate,
    descriptor_residual,
    deterministic_covariance,
    dual_objective,
    eps_rank,
    gain_from_dual,
    monte_carlo_cost,
    primal_objective,
    solve_dre_final,
    stochastic_covariance,
    sym_factor,
)
from lqconic._num import fd_derivative, trapz
from oracles import coeff_at

SYS = StateSpace(A=[[0.0]], B=[[1.0]])
COST = CostData(Q=[[1.0]], N=None, R=[[1.0]])


def scalar_setup(steps=512):
    grid = TimeGrid(T=1.0, steps=steps)
    spec = ProblemSpec(sys=SYS, grid=grid, variant=LQR(cost=COST, x_i=[1.0]))
    qf = assemble_quadform(spec)
    dre = solve_dre_final(SYS, COST, [[0.0]], grid)
    return grid, qf, dre


class TestGain:
    def test_constant_coercion(self):
        grid = TimeGrid(T=1.0, steps=4)
        g = Gain(grid, np.array([[1.0, 2.0]]))
        assert g.m == 1 and g.n == 2
        np.testing.assert_allclose(g.K[3], [[1.0, 2.0]])

    def test_interpolation_midpoint(self):
        grid = TimeGrid(T=1.0, steps=2)
        kvals = np.array([[[0.0]], [[2.0]], [[4.0]]])
        g = Gain(grid, kvals)
        assert g.at(0.25)[0, 0] == pytest.approx(1.0)

    def test_gain_from_dual_is_dual_state(self):
        # scalar identity data make K(t) = lam(t) = tanh(1 - t)
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        t = grid.times()
        np.testing.assert_allclose(gain.K[:, 0, 0], np.tanh(1.0 - t),
                                   atol=1e-8)

    def test_gain_from_dual_rejects_escaped(self):
        grid = TimeGrid(T=2.0, steps=128)
        bad = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        sol = solve_dre_final(SYS, bad, [[0.0]], grid)
        assert sol.escaped
        with pytest.raises(ValueError):
            gain_from_dual(sol.lam, SYS, bad)


class TestClosedLoopSimulate:
    def test_zero_gain_zero_flow(self):
        grid = TimeGrid(T=1.0, steps=16)
        g = Gain(grid, np.zeros((1, 1)))
        x, u = closed_loop_simulate(SYS, g, [3.0], grid)
        np.testing.assert_allclose(x[:, 0], 3.0)
        np.testing.assert_allclose(u, 0.0)

    def test_decay_closed_form(self):
        grid = TimeGrid(T=1.0, steps=128)
        sys = StateSpace(A=[[-1.0]], B=[[1.0]])
        g = Gain(grid, np.zeros((1, 1)))
        x, _ = closed_loop_simulate(sys, g, [1.0], grid)
        np.testing.assert_allclose(x[:, 0], np.exp(-grid.times()), atol=1e-9)

    def test_optimal_loop_closed_form(self):
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        t = grid.times()
        xref = np.cosh(1.0 - t) / np.cosh(1.0)
        np.testing.assert_allclose(x[:, 0], xref, atol=1e-6)
        np.testing.assert_allclose(u[:, 0], -gain.K[:, 0, 0] * x[:, 0],
                                   atol=1e-12)


class TestDeterministicCovariance:
    def test_outer_product_blocks(self):
        grid = TimeGrid(T=1.0, steps=1)
        x = np.array([[2.0], [1.0]])
        u = np.array([[-1.0], [0.5]])
        sig = deterministic_covariance(x, u, grid)
        np.testing.assert_allclose(sig.node(0), [[4.0, -2.0], [-2.0, 1.0]])

    def test_rank_one_everywhere(self):
        grid, qf, dre = scalar_setup(steps=64)
        gain = gain_from_dual(dre.lam, SYS, COST)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        sig = deterministic_covariance(x, u, grid)
        assert all(eps_rank(sig.node(k)) <= 1 for k in range(65))


class TestStochasticCovariance:
    def test_no_noise_no_state(self):
        grid, qf, _ = scalar_setup(steps=32)
        g = Gain(grid, np.zeros((1, 1)))
        sig, cost = stochastic_covariance(SYS, g, [[0.0]], [[0.0]], grid, qf)
        assert np.abs(sig.values).max() == 0.0
        assert cost == 0.0

    def test_zero_payload_not_integrated(self, monkeypatch):
        # the gain and passivity tests start at rest without noise
        from lqconic import covariance

        def fail(*args, **kwargs):
            raise AssertionError("a zero payload was integrated")

        monkeypatch.setattr(covariance, "propagate_lyapunov", fail)
        grid, qf, dre = scalar_setup(steps=32)
        gain = gain_from_dual(dre.lam, SYS, COST)
        sig, cost = stochastic_covariance(SYS, gain, None, [[0.0]], grid, qf)
        assert sig.values.shape == (33, 2, 2)
        assert not sig.values.any() and cost == 0.0

    def test_pure_diffusion_linear_growth(self):
        # S(t) = t with Q_cl = 1: the cost is the integral of t, 1/2
        grid, qf, _ = scalar_setup(steps=64)
        g = Gain(grid, np.zeros((1, 1)))
        sig, cost = stochastic_covariance(SYS, g, [[1.0]], [[0.0]], grid, qf)
        t = grid.times()
        np.testing.assert_allclose(sig.values[:, 0, 0], t, atol=1e-10)
        assert cost == pytest.approx(0.5, abs=1e-12)

    def test_block_structure(self):
        grid, qf, dre = scalar_setup(steps=64)
        gain = gain_from_dual(dre.lam, SYS, COST)
        sig, _ = stochastic_covariance(SYS, gain, [[1.0]], [[1.0]], grid, qf)
        for k in (0, 32, 64):
            s = sig.node(k)
            kk = gain.K[k, 0, 0]
            assert s[0, 1] == pytest.approx(-s[0, 0] * kk, abs=1e-12)
            assert s[1, 1] == pytest.approx(s[0, 0] * kk * kk, abs=1e-12)

    def test_psd_along_trajectory(self):
        grid, qf, dre = scalar_setup(steps=64)
        gain = gain_from_dual(dre.lam, SYS, COST)
        sig, _ = stochastic_covariance(SYS, gain, [[1.0]], [[2.0]], grid, qf)
        eigs = np.linalg.eigvalsh(sig.values)
        assert eigs.min() >= -1e-12

    def test_outer_product_payload_is_the_closed_loop(self):
        # S(0) = x_i x_i^T without noise is the deterministic run: the outer
        # product of the closed loop, and the cost of the optimal gain is
        # the optimal value tanh(1), to the flow's fourth order
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        sig, cost = stochastic_covariance(SYS, gain, None, [[1.0]], grid, qf)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        np.testing.assert_allclose(
            sig.values, deterministic_covariance(x, u, grid).values,
            rtol=0.0, atol=1e-12)
        assert cost == pytest.approx(np.tanh(1.0), abs=1e-12)

    def test_half_vector_state(self, monkeypatch):
        # n = 4: the flow carries vech S (10 entries), c and 1
        from lqconic import _num
        sizes = []
        propagate = _num.propagate

        def spy(generator, y0, grid, backward=False):
            sizes.append(y0.size)
            return propagate(generator, y0, grid, backward)

        monkeypatch.setattr(_num, "propagate", spy)
        n = 4
        sys4 = StateSpace(A=np.eye(n), B=np.ones((n, 1)))
        grid = TimeGrid(T=1.0, steps=8)
        spec = ProblemSpec(sys=sys4, grid=grid, variant=LQR(
            cost=CostData(Q=np.eye(n), N=None, R=[[1.0]]), x_i=np.ones(n)))
        sig, _ = stochastic_covariance(sys4, Gain(grid, np.ones((1, n))),
                                       None, np.eye(n), grid,
                                       assemble_quadform(spec))
        assert sizes == [12]
        assert np.array_equal(sig.values, sig.values.swapaxes(-1, -2))


class TestPrimalObjective:
    def test_constant_identity(self):
        grid, qf, _ = scalar_setup(steps=8)
        from lqconic import MatTrajectory
        sig = MatTrajectory(grid, np.stack([np.eye(2)] * 9))
        assert primal_objective(sig, qf) == pytest.approx(2.0, abs=1e-12)

    def test_optimal_value_matches_dual(self):
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        primal = primal_objective(deterministic_covariance(x, u, grid), qf)
        dual = dual_objective(dre.lam, X_i=[[1.0]])
        assert primal == pytest.approx(dual, abs=1e-5)
        assert primal == pytest.approx(np.tanh(1.0), abs=1e-5)


class TestDescriptorResidual:
    def test_static_zero_system(self):
        grid = TimeGrid(T=1.0, steps=16)
        sys = StateSpace(A=[[0.0]], B=[[0.0]])
        from lqconic import MatTrajectory
        sig = MatTrajectory(grid, np.stack([np.eye(2)] * 17))
        assert descriptor_residual(sig, sys) == 0.0

    def test_simulated_loop_small(self):
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        sig = deterministic_covariance(x, u, grid)
        assert descriptor_residual(sig, SYS) <= 10.0 * grid.h ** 2

    def test_second_order_in_step(self):
        vals = []
        for steps in (128, 256):
            grid = TimeGrid(T=1.0, steps=steps)
            dre = solve_dre_final(SYS, COST, [[0.0]], grid)
            gain = gain_from_dual(dre.lam, SYS, COST)
            x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
            sig = deterministic_covariance(x, u, grid)
            vals.append(descriptor_residual(sig, SYS))
        assert vals[1] <= vals[0] / 3.0

    def test_stochastic_needs_noise_term(self):
        grid = TimeGrid(T=1.0, steps=64)
        g = Gain(grid, np.zeros((1, 1)))
        sig, _ = stochastic_covariance(SYS, g, [[1.0]], [[0.0]], grid,
                                       scalar_setup(steps=64)[1])
        with_w = descriptor_residual(sig, SYS, W=[[1.0]])
        without = descriptor_residual(sig, SYS)
        assert with_w <= 1e-10
        assert without >= 0.9

    def test_arbitrary_matrix_fails(self):
        grid = TimeGrid(T=1.0, steps=32)
        rng = np.random.default_rng(30)
        vals = np.stack([np.eye(2) * (1 + k) for k in range(33)])
        from lqconic import MatTrajectory
        sig = MatTrajectory(grid, vals)
        assert descriptor_residual(sig, SYS) > 1.0


class TestAlignmentResidual:
    def test_optimal_pair_near_zero(self):
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        sig = deterministic_covariance(x, u, grid)
        assert alignment_residual(sig, dre.lam, SYS, COST, qf) <= 1e-10

    def test_zero_covariance_zero_residual(self):
        grid, qf, dre = scalar_setup(steps=32)
        from lqconic import MatTrajectory
        sig = MatTrajectory(grid, np.zeros((33, 2, 2)))
        assert alignment_residual(sig, dre.lam, SYS, COST, qf) == 0.0

    def test_suboptimal_gain_reproduces_gap(self):
        grid, qf, dre = scalar_setup()
        zero = Gain(grid, np.zeros((1, 1)))
        x, u = closed_loop_simulate(SYS, zero, [1.0], grid)
        sig = deterministic_covariance(x, u, grid)
        align = alignment_residual(sig, dre.lam, SYS, COST, qf)
        gap = primal_objective(sig, qf) - dual_objective(dre.lam, X_i=[[1.0]])
        assert align == pytest.approx(gap, abs=1e-5)
        assert align > 0.2

    def test_fd_mode_close_to_dre_mode(self):
        # alignment takes dLam/dt from the Riccati right-hand side; along
        # the extremal the pairing with centred differences of the samples
        # differs from it by the differencing error alone
        grid, qf, dre = scalar_setup()
        gain = gain_from_dual(dre.lam, SYS, COST)
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        sig = deterministic_covariance(x, u, grid)
        fd = fd_derivative(dre.lam.values, grid.h)
        pairing = [np.sum(np.asarray(assemble_M(lam, d, SYS, qf, t)) * s)
                   for t, lam, d, s in zip(grid.times(), dre.lam.values, fd,
                                           sig.values)]
        a = trapz(np.array(pairing), grid.h)
        b = alignment_residual(sig, dre.lam, SYS, COST, qf)
        assert abs(a - b) <= 10.0 * grid.h ** 2


def euler_maruyama_cost(sys, gain, cost, W, X_i, grid, n_paths, seed):
    """Per-step reference for monte_carlo_cost: every coefficient read at
    the step's time by the scalar interpolator, the same draws in the same
    order (sign flips of the initial factor, then one normal block per
    step)."""
    rng = np.random.default_rng(seed)
    h, times = grid.h, grid.times()
    fx = sym_factor(X_i)
    x = fx.U @ (rng.integers(0, 2, size=(fx.r, n_paths)) * 2.0 - 1.0)

    def running(t, x):
        q, nmat, r = (coeff_at(c, t, grid) for c in (cost.Q, cost.N, cost.R))
        u = -coeff_at(gain.K, t, gain.grid) @ x
        return np.einsum("ip,ij,jp->p", x, q, x) \
            + 2.0 * np.einsum("ip,ij,jp->p", x, nmat, u) \
            + np.einsum("ip,ij,jp->p", u, r, u)

    integrand = []
    for t in times[:-1]:
        integrand.append(running(t, x))
        a, b = coeff_at(sys.A, t, grid), coeff_at(sys.B, t, grid)
        x = x + h * ((a - b @ coeff_at(gain.K, t, gain.grid)) @ x)
        fw = sym_factor(coeff_at(W, t, grid))
        x = x + fw.U @ (np.sqrt(h) * rng.standard_normal((fw.r, n_paths)))
    integrand.append(running(times[-1], x))
    costs = trapz(np.array(integrand), h)
    return np.mean(costs), np.std(costs, ddof=1) / np.sqrt(n_paths)


class TestMonteCarloCost:
    def test_node_sampled_data_match_per_step_loop(self):
        # A, B, Q and N sampled at the grid's 41 nodes, W at 17 samples
        grid = TimeGrid(T=1.3, steps=40)
        wave = 1.0 + 0.3 * np.sin(6.0 * np.linspace(0.0, 1.0, 41))
        wave = wave[:, None, None]
        rng = np.random.default_rng(8)
        g, h, x = (rng.uniform(-1.0, 1.0, (3, 3)) for _ in range(3))
        sys = StateSpace(A=rng.uniform(-1.0, 1.0, (3, 3)) * wave,
                         B=rng.uniform(-1.0, 1.0, (3, 2)) * wave)
        cost = CostData(Q=(g @ g.T + 0.1 * np.eye(3)) * wave,
                        N=0.1 * rng.uniform(-1.0, 1.0, (3, 2)) * wave,
                        R=np.diag([1.0, 2.0]))
        w = 0.3 * (h @ h.T) * (1.0 + 0.5 * np.sin(
            4.0 * np.linspace(0.0, 1.0, 17)))[:, None, None]
        dre = solve_dre_final(sys, cost, np.zeros((3, 3)), grid)
        gain = gain_from_dual(dre.lam, sys, cost)
        got = monte_carlo_cost(sys, gain, cost, w, x @ x.T, grid,
                               n_paths=50, seed=3)
        want = euler_maruyama_cost(sys, gain, cost, w, x @ x.T, grid, 50, 3)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


    # on most grids the mean of the identical path costs rounds off them
    @pytest.mark.parametrize("steps", [64, 512])
    def test_point_mass_exact_pathwise(self, steps):
        grid, qf, dre = scalar_setup(steps)
        gain = gain_from_dual(dre.lam, SYS, COST)
        mean, err = monte_carlo_cost(SYS, gain, COST, [[0.0]], [[1.0]],
                                     grid, n_paths=200, seed=11)
        assert err == 0.0  # rank-one start, no noise: every path identical
        x, u = closed_loop_simulate(SYS, gain, [1.0], grid)
        cost = primal_objective(deterministic_covariance(x, u, grid), qf)
        # paths step with Euler, so first-order agreement is the ceiling
        assert mean == pytest.approx(cost, abs=5.0 * grid.h)

    def test_stderr_scales_with_paths(self):
        grid, qf, dre = scalar_setup(steps=128)
        gain = gain_from_dual(dre.lam, SYS, COST)
        _, e1 = monte_carlo_cost(SYS, gain, COST, [[1.0]], [[1.0]],
                                 grid, n_paths=400, seed=11)
        _, e2 = monte_carlo_cost(SYS, gain, COST, [[1.0]], [[1.0]],
                                 grid, n_paths=1600, seed=11)
        assert 1.4 <= e1 / e2 <= 2.8  # fourfold paths halve the error

    def test_seed_determinism(self):
        grid, qf, dre = scalar_setup(steps=64)
        gain = gain_from_dual(dre.lam, SYS, COST)
        a = monte_carlo_cost(SYS, gain, COST, [[1.0]], [[1.0]], grid, 64, 5)
        b = monte_carlo_cost(SYS, gain, COST, [[1.0]], [[1.0]], grid, 64, 5)
        assert a == b

    def test_needs_two_paths(self):
        grid, qf, dre = scalar_setup(steps=16)
        gain = gain_from_dual(dre.lam, SYS, COST)
        with pytest.raises(ValueError):
            monte_carlo_cost(SYS, gain, COST, [[1.0]], [[1.0]], grid, 1, 0)
