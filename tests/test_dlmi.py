"""Differential matrix-inequality assembly, feasibility certification,
extremal factorization, coupled factor residuals, and the dual objective.

Scalar ground truth (a=0, b=1, q=r=1, zero final value): the backward
extremal is lam(t) = tanh(1-t), whose inequality matrix
[[1 + dlam, lam], [lam, 1]] has determinant exactly zero, eigenvalue
floor zero, and rank one.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lqconic import (
    CostData,
    LQR,
    MatTrajectory,
    ProblemSpec,
    ResidualTooLarge,
    StateSpace,
    StochLQR,
    TimeGrid,
    assemble_M,
    assemble_quadform,
    dri_cloud,
    dual_objective,
    eps_rank,
    extremal_factorization,
    feasibility,
    lure_residuals,
    solve_dre_final,
)
from lqconic.model import QuadForm, _stack_cost_blocks
from lqconic.riccati import _ric_data, _ric_rhs

SYS = StateSpace(A=[[0.0]], B=[[1.0]])
COST = CostData(Q=[[1.0]], N=None, R=[[1.0]])


def riccati_m(lam, sys, cost, qf, t=0.0):
    """M(Lam) with dLam/dt replaced by the Riccati right-hand side, the
    substitution the certificate's feasibility check used to make."""
    lam = np.asarray(lam, dtype=float)
    rhs = _ric_rhs(_ric_data(sys.A, sys.B, cost.Q, cost.N, cost.R), lam)
    return np.asarray(assemble_M(lam, rhs, sys, qf, t))


def scalar_setup(steps=512, T=1.0):
    grid = TimeGrid(T=T, steps=steps)
    spec = ProblemSpec(sys=SYS, grid=grid,
                       variant=LQR(cost=COST, x_i=[1.0]))
    return grid, assemble_quadform(spec)


def forced_sample(grid, seed):
    """One forced Riccati-inequality solution from a zero final value."""
    spec = ProblemSpec(sys=SYS, grid=grid,
                       variant=LQR(cost=COST, x_i=[1.0]))
    return dri_cloud(spec, n_samples=1, seed=seed).samples[0]


class TestAssembleM:
    def test_scalar_hand_expansion(self):
        grid, qf = scalar_setup(steps=8)
        lam, dlam = 0.4, -0.84
        m = assemble_M([[lam]], [[dlam]], SYS, qf, 0.0)
        np.testing.assert_allclose(
            np.asarray(m), [[1.0 + dlam, lam], [lam, 1.0]], atol=1e-15)

    def test_matches_block_construction(self):
        rng = np.random.default_rng(20)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        q = rng.standard_normal((3, 3))
        q = 0.5 * (q + q.T)
        nmat = rng.standard_normal((3, 2))
        base = rng.standard_normal((2, 2))
        r = base @ base.T + np.eye(2)
        sys = StateSpace(A=a, B=b)
        cost = CostData(Q=q, N=nmat, R=r)
        grid = TimeGrid(T=1.0, steps=4)
        spec = ProblemSpec(sys=sys, grid=grid,
                           variant=LQR(cost=cost, x_i=np.zeros(3)))
        # indefinite q would fail LQR validation but the assembly is
        # variant-agnostic; build the quadratic form directly
        from lqconic.model import QuadForm, _stack_cost_blocks
        qf = QuadForm(nq=5, grid=grid, Qmat=_stack_cost_blocks(q, nmat, r))

        lam = rng.standard_normal((3, 3))
        lam = 0.5 * (lam + lam.T)
        dlam = rng.standard_normal((3, 3))
        dlam = 0.5 * (dlam + dlam.T)
        got = np.asarray(assemble_M(lam, dlam, sys, qf, 0.5))
        want = np.block([
            [q + dlam + a.T @ lam + lam @ a, nmat + lam @ b],
            [(nmat + lam @ b).T, r],
        ])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_output_symmetric(self):
        grid, qf = scalar_setup(steps=8)
        m = np.asarray(assemble_M([[0.3]], [[0.1]], SYS, qf, 0.0))
        np.testing.assert_allclose(m, m.T)

    def test_shape_mismatch_rejected(self):
        grid, qf = scalar_setup(steps=8)
        with pytest.raises(ValueError):
            assemble_M(np.eye(2), np.eye(2), SYS, qf, 0.0)


class TestFeasibility:
    def test_extremal_feasible_dre_mode(self):
        # with the Riccati right-hand side as the derivative, M along the
        # extremal is PSD with the minimal rank one at every node
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        for t, lam in zip(grid.times(), dre.lam.values):
            m = riccati_m(lam, SYS, COST, qf, t)
            assert np.linalg.eigvalsh(m)[0] >= -1e-12
            assert eps_rank(m, tol=1e-9) == 1

    def test_extremal_feasible_fd_mode(self):
        # finite differencing injects O(h^2) noise; the tolerance covers it
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        cert = feasibility(dre.lam, SYS, qf, tol=1e-5)
        assert cert.feasible
        assert cert.min_eig.min() >= -1e-5

    def test_modes_agree_within_fd_noise(self):
        # feasibility differentiates the samples; along the extremal that
        # differs from the Riccati derivative by the differencing error
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        fd = feasibility(dre.lam, SYS, qf, tol=1e-5).min_eig
        exact = [np.linalg.eigvalsh(riccati_m(lam, SYS, COST, qf, t))[0]
                 for t, lam in zip(grid.times(), dre.lam.values)]
        assert np.max(np.abs(fd - exact)) <= 10.0 * grid.h ** 2

    def test_upward_shift_infeasible(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        shifted = MatTrajectory(grid, dre.lam.values + 1e-3)
        cert = feasibility(shifted, SYS, qf, tol=1e-6)
        assert not cert.feasible
        assert not cert.psd_ok      # determinant goes negative where lam > 0
        assert not cert.boundary_ok  # final value no longer zero

    def test_forced_sample_strictly_feasible(self):
        grid, qf = scalar_setup()
        s = forced_sample(grid, seed=2)
        cert = feasibility(s.lam, SYS, qf, tol=1e-3)
        assert cert.feasible
        assert cert.min_eig.min() > 1e-4  # forcing pushes M inside the cone

    def test_final_value_argument(self):
        # the certificate's final condition is Lam(T) = 0, so the extremal
        # from another final value fails it
        grid, qf = scalar_setup(steps=64)
        dre = solve_dre_final(SYS, COST, [[0.5]], grid)
        cert = feasibility(dre.lam, SYS, qf, tol=1e-5)
        assert not cert.boundary_ok
        assert not cert.feasible

    def test_escaped_trajectory_rejected(self):
        grid = TimeGrid(T=2.0, steps=128)
        spec = ProblemSpec(sys=SYS, grid=grid,
                           variant=LQR(cost=COST, x_i=[1.0]))
        qf = assemble_quadform(spec)
        bad = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        sol = solve_dre_final(SYS, bad, [[0.0]], grid)
        assert sol.escaped
        with pytest.raises(ValueError):
            feasibility(sol.lam, SYS, qf)


class TestRiccatiDerivativeIsAnIdentity:
    """Why the certificate no longer reports the dual slack's eigenvalue
    floor and rank: with dLam/dt replaced by the Riccati right-hand side,
    M(Lam) = U U^T (U of width m) holds for every symmetric Lam, extremal
    or not, so that floor and rank could not fail. Differentiating the
    samples, as feasibility does, tells the extremal from a trajectory
    that solves nothing."""

    RNG = np.random.default_rng(31)
    A = RNG.standard_normal((2, 2))
    B = RNG.standard_normal((2, 1))
    Q = RNG.standard_normal((2, 2))
    N = RNG.standard_normal((2, 1))
    SYS2 = StateSpace(A=A, B=B)
    COST2 = CostData(Q=0.5 * (Q + Q.T), N=N, R=[[1.5]])
    QF2 = QuadForm(nq=3, grid=TimeGrid(T=1.0, steps=4),
                   Qmat=_stack_cost_blocks(COST2.Q, COST2.N, COST2.R))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-5.0, 5.0), min_size=3, max_size=3))
    def test_any_symmetric_lam_factors(self, entries):
        lam = np.array([[entries[0], entries[1]], [entries[1], entries[2]]])
        m = riccati_m(lam, self.SYS2, self.COST2, self.QF2)
        u = extremal_factorization(lam, self.SYS2, self.COST2, 0.0).U
        assert u.shape == (3, 1)
        scale = 1.0 + float(np.max(np.abs(m)))
        assert np.max(np.abs(m - u @ u.T)) <= 1e-12 * scale

    def test_centred_differences_reject_a_scaled_extremal(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        scaled = MatTrajectory(grid, 1.5 * dre.lam.values)
        # the substituted derivative passes both, scaled or not
        for values in (dre.lam.values, scaled.values):
            assert min(np.linalg.eigvalsh(riccati_m(lam, SYS, COST, qf))[0]
                       for lam in values) >= -1e-12
        # 1e-5 covers the O(h^2) differencing noise on the extremal
        assert feasibility(dre.lam, SYS, qf, tol=1e-5).feasible
        cert = feasibility(scaled, SYS, qf, tol=1e-5)
        assert cert.boundary_ok and not cert.psd_ok
        assert cert.min_eig.min() < -0.1


class TestExtremalFactorization:
    def test_scalar_factor(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        lam0 = dre.lam.node(0)[0, 0]
        f = extremal_factorization(dre.lam.node(0), SYS, COST, 0.0)
        np.testing.assert_allclose(f.U, [[lam0], [1.0]], atol=1e-12)
        assert f.r == 1

    def test_reconstruction_matches_assembled_m(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        t = grid.times()[100]
        lam = dre.lam.node(100)
        # substitute the flow derivative so M sits exactly on the extremal
        dlam = lam @ lam - np.array([[1.0]])
        m = np.asarray(assemble_M(lam, dlam, SYS, qf, t))
        f = extremal_factorization(lam, SYS, COST, t)
        np.testing.assert_allclose(f.reconstruct(), m, atol=1e-12)
        assert eps_rank(m) == 1

    def test_two_state_rank_law(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((2, 2)) * 0.3
        b = rng.standard_normal((2, 1))
        sys = StateSpace(A=a, B=b)
        cost = CostData(Q=np.eye(2), N=None, R=[[2.0]])
        grid = TimeGrid(T=1.0, steps=128)
        dre = solve_dre_final(sys, cost, np.zeros((2, 2)), grid)
        for k in (0, 64, 128):
            f = extremal_factorization(dre.lam.node(k), sys, cost,
                                       grid.times()[k])
            assert f.U.shape == (3, 1)
            assert np.linalg.matrix_rank(f.reconstruct(), tol=1e-10) == 1

    def test_wrong_derivative_rejected(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        with pytest.raises(ResidualTooLarge):
            extremal_factorization(dre.lam.node(0), SYS, COST, 0.0,
                                   lambda_dot=[[123.0]])

    def test_consistent_derivative_accepted(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        lam = dre.lam.node(0)
        dlam = lam @ lam - np.array([[1.0]])
        f = extremal_factorization(dre.lam.node(0), SYS, COST, 0.0,
                                   lambda_dot=dlam)
        assert f.r == 1


class TestSampledDataNeedAGrid:
    # a node-sampled coefficient has no value at t without its grid; the
    # input check names that instead of failing inside the interpolation
    @pytest.mark.parametrize("field", ["A", "Q"])
    def test_rejected_without_grid(self, field):
        samples = np.linspace(0.5, 1.5, 5).reshape(5, 1, 1)
        sys = StateSpace(A=samples if field == "A" else [[0.0]], B=[[1.0]])
        cost = CostData(Q=samples if field == "Q" else [[1.0]], N=None,
                        R=[[1.0]])
        args = ([[0.5]], [[0.0]], [[0.5]], [[1.0]], sys, cost)
        with pytest.raises(ValueError, match="need a grid"):
            extremal_factorization([[0.5]], sys, cost, 0.3)
        with pytest.raises(ValueError, match="need a grid"):
            lure_residuals(*args, t=0.3)
        grid = TimeGrid(T=1.0, steps=4)
        assert extremal_factorization([[0.5]], sys, cost, 0.3,
                                      grid=grid).r == 1
        assert len(lure_residuals(*args, t=0.3, grid=grid)) == 3


class TestLureResiduals:
    def test_extremal_factors_satisfy_equations(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        lam = dre.lam.node(0)
        dlam = lam @ lam - np.array([[1.0]])
        f = extremal_factorization(lam, SYS, COST, 0.0)
        u1, u2 = f.U[:1], f.U[1:]
        r1, r2, r3 = lure_residuals(lam, dlam, u1, u2, SYS, COST, t=0.0)
        assert max(r1, r2, r3) <= 1e-12

    def test_perturbed_factor_grows_residual(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        lam = dre.lam.node(0)
        dlam = lam @ lam - np.array([[1.0]])
        f = extremal_factorization(lam, SYS, COST, 0.0)
        u1, u2 = f.U[:1] + 0.1, f.U[1:]
        r1, r2, r3 = lure_residuals(lam, dlam, u1, u2, SYS, COST, t=0.0)
        assert max(r1, r2) > 0.05
        assert r3 <= 1e-12

    def test_zero_data_zero_residual(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        cost = CostData(Q=[[0.0]], N=None, R=[[1.0]])
        r1, r2, r3 = lure_residuals([[0.0]], [[0.0]], [[0.0]], [[1.0]],
                                    sys, cost)
        assert (r1, r2, r3) == (0.0, 0.0, 0.0)


class TestDualObjective:
    def test_deterministic_quadratic(self):
        grid = TimeGrid(T=1.0, steps=4)
        vals = np.stack([np.diag([2.0, 3.0])] * 5)
        lam = MatTrajectory(grid, vals)
        x = np.ones(2)
        assert dual_objective(lam, X_i=np.outer(x, x)) == pytest.approx(5.0)

    def test_stochastic_initial_covariance(self):
        grid = TimeGrid(T=1.0, steps=4)
        vals = np.stack([np.diag([2.0, 3.0])] * 5)
        lam = MatTrajectory(grid, vals)
        got = dual_objective(lam, X_i=np.diag([1.0, 2.0]))
        assert got == pytest.approx(8.0)

    def test_noise_quadrature_log_cosh(self):
        grid = TimeGrid(T=1.0, steps=512)
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        got = dual_objective(dre.lam, X_i=[[0.0]], W=[[1.0]])
        assert got == pytest.approx(np.log(np.cosh(1.0)), abs=1e-6)

    def test_invalid_initial_node_rejected(self):
        grid = TimeGrid(T=1.0, steps=4)
        vals = np.zeros((5, 1, 1))
        vals[0] = np.nan
        lam = MatTrajectory(grid, vals)
        with pytest.raises(ValueError):
            dual_objective(lam, X_i=[[1.0]])

    def test_forced_sample_certifies_less(self):
        grid, qf = scalar_setup()
        dre = solve_dre_final(SYS, COST, [[0.0]], grid)
        s = forced_sample(grid, seed=2)
        assert dual_objective(s.lam, X_i=[[1.0]]) <= \
            dual_objective(dre.lam, X_i=[[1.0]]) + 1e-12
