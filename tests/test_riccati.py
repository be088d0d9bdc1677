"""Riccati sweeps and their supporting integrators.

Known closed forms used as ground truth (scalar system a=0, b=1):
  q=+1, r=+1, zero final value:  lam(t) =  tanh(T - t)
  q=-1, r=+1, zero final value:  lam(t) = -tan(T - t), escapes at T - pi/2
Scalar damped Lyapunov (f=-1, h=1, T=1): x(t) = (1 - exp(-2(1-t))) / 2.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lqconic import (
    CostData,
    StateSpace,
    TimeGrid,
    solve_dre_final,
    solve_lyapunov_final,
)
from lqconic import riccati
from lqconic._num import propagate
from lqconic.analyzers import dri_cloud, scalar_preset
from lqconic.model import effective_cost
from lqconic.riccati import draw_forcing, forcing_amplitude, switch_bounds

from oracles import loewner_compare, reference_dre


def scalar_system():
    return StateSpace(A=[[0.0]], B=[[1.0]])


def scalar_cost(q=1.0, r=1.0):
    return CostData(Q=[[q]], N=None, R=[[r]])


def transition(f, grid):
    """Phi(t_k, 0) at every node for a constant F: dPhi/dt = F Phi from the
    identity, stepped by the one linear propagation."""
    f = np.asarray(f, dtype=float)
    return propagate(lambda t: f, np.eye(f.shape[0]), grid)


class TestTransitionMatrix:
    def test_zero_flow_is_identity(self):
        g = TimeGrid(T=1.0, steps=16)
        phi = transition(np.zeros((2, 2)), g)
        np.testing.assert_allclose(phi[-1], np.eye(2), atol=1e-14)

    def test_scalar_exponential(self):
        g = TimeGrid(T=1.0, steps=128)
        phi = transition(np.array([[-2.0]]), g)
        assert phi[-1][0, 0] == pytest.approx(np.exp(-2.0), abs=1e-9)

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((3, 3))
        g = TimeGrid(T=1.0, steps=200)
        phi = transition(f, g)
        np.testing.assert_allclose(phi[-1], expm(f), atol=1e-8)
        np.testing.assert_allclose(phi[100], expm(0.5 * f), atol=1e-8)

    def test_composition(self):
        # for a constant F, Phi(1, 0.5) = Phi(0.5, 0)
        rng = np.random.default_rng(11)
        f = rng.standard_normal((2, 2))
        g = TimeGrid(T=1.0, steps=100)
        phi = transition(f, g)
        np.testing.assert_allclose(phi[-1], phi[50] @ phi[50], atol=1e-10)


class TestLyapunovFinal:
    def test_zero_flow_linear_growth(self):
        g = TimeGrid(T=2.0, steps=64)
        x = solve_lyapunov_final(np.zeros((2, 2)), np.eye(2), np.zeros((2, 2)), g)
        np.testing.assert_allclose(x.node(0), 2.0 * np.eye(2), atol=1e-12)
        np.testing.assert_allclose(x.at(1.5), 0.5 * np.eye(2), atol=1e-12)

    def test_scalar_damped_closed_form(self):
        g = TimeGrid(T=1.0, steps=256)
        x = solve_lyapunov_final([[-1.0]], [[1.0]], [[0.0]], g)
        t = g.times()
        expected = (1.0 - np.exp(-2.0 * (1.0 - t))) / 2.0
        np.testing.assert_allclose(x.values[:, 0, 0], expected, atol=1e-10)

    def test_zero_forcing_zero_solution(self):
        g = TimeGrid(T=1.0, steps=32)
        x = solve_lyapunov_final([[-1.0]], [[0.0]], [[0.0]], g)
        assert np.abs(x.values).max() == 0.0

    def test_psd_forcing_gives_psd_solution(self):
        rng = np.random.default_rng(12)
        g = TimeGrid(T=1.0, steps=64)
        for _ in range(10):
            f = rng.standard_normal((3, 3))
            base = rng.standard_normal((3, 3))
            h = base @ base.T
            x = solve_lyapunov_final(f, h, np.zeros((3, 3)), g)
            eigs = np.linalg.eigvalsh(x.values)
            assert eigs.min() >= -1e-10 * max(1.0, np.abs(x.values).max())


class TestDreFinal:
    def test_tanh_closed_form(self):
        g = TimeGrid(T=1.0, steps=512)
        sol = solve_dre_final(scalar_system(), scalar_cost(), [[0.0]], g)
        assert not sol.escaped
        t = g.times()
        np.testing.assert_allclose(sol.lam.values[:, 0, 0],
                                   np.tanh(1.0 - t), atol=1e-8)

    def test_equilibrium_final_value(self):
        # lam = 1 solves the stationary scalar equation for q = r = 1
        g = TimeGrid(T=1.0, steps=64)
        sol = solve_dre_final(scalar_system(), scalar_cost(), [[1.0]], g)
        np.testing.assert_allclose(sol.lam.values[:, 0, 0], 1.0, atol=1e-12)

    def test_escape_time_location(self):
        g = TimeGrid(T=2.0, steps=512)
        sol = solve_dre_final(scalar_system(), scalar_cost(q=-1.0), [[0.0]], g)
        assert sol.escaped
        assert sol.escape_time == pytest.approx(2.0 - np.pi / 2.0, abs=2 * g.h)
        # the solved branch matches -tan(T - t) on its valid window
        mask = sol.lam.valid_mask()
        t = g.times()[mask]
        keep = t > sol.escape_time + 0.1
        np.testing.assert_allclose(
            sol.lam.values[mask][keep][:, 0, 0],
            -np.tan(2.0 - t[keep]), atol=1e-6)

    def test_escaped_nodes_flagged_invalid(self):
        g = TimeGrid(T=2.0, steps=256)
        sol = solve_dre_final(scalar_system(), scalar_cost(q=-1.0), [[0.0]], g)
        mask = sol.lam.valid_mask()
        assert not mask.all() and mask.any()
        t = g.times()
        assert t[~mask].max() <= sol.escape_time + g.h

    def test_matches_adaptive_reference(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((2, 2)) * 0.5
        b = rng.standard_normal((2, 1))
        q = np.eye(2)
        r = np.array([[1.5]])
        g = TimeGrid(T=1.0, steps=400)
        sol = solve_dre_final(StateSpace(A=a, B=b), CostData(Q=q, N=None, R=r),
                              np.zeros((2, 2)), g)
        ref = reference_dre(a, b, q, None, r, np.zeros((2, 2)), 1.0, "final")
        err = max(np.abs(sol.lam.node(k) - ref(t)).max()
                  for k, t in enumerate(g.times()))
        assert err <= 1e-8

    def test_residual_fourth_order_floor(self):
        r1 = solve_dre_final(scalar_system(), scalar_cost(), [[0.0]],
                             TimeGrid(T=1.0, steps=128)).residual_max
        r2 = solve_dre_final(scalar_system(), scalar_cost(), [[0.0]],
                             TimeGrid(T=1.0, steps=256)).residual_max
        assert r2 < r1
        assert r1 / r2 >= 3.5  # differencing noise floors the RK4 order at 2


class TestForcingDraws:
    def test_amplitude_scales_with_state_weight(self):
        amp1 = forcing_amplitude(scalar_cost(q=1.0))
        amp9 = forcing_amplitude(scalar_cost(q=9.0))
        assert amp9 > amp1

    def test_draw_is_psd_and_deterministic(self):
        h1 = draw_forcing(3, 10, seed=42, amplitude=1.0)
        h2 = draw_forcing(3, 10, seed=42, amplitude=1.0)
        assert np.array_equal(h1, h2)
        eigs = np.linalg.eigvalsh(h1)
        assert eigs.min() >= -1e-12

    def test_switch_bounds_partition(self):
        b = switch_bounds(256, 10)
        assert b[0] == 0 and b[-1] == 256
        assert (np.diff(b) > 0).all()
        assert len(b) == 11

    def test_switch_points_must_fit(self):
        with pytest.raises(ValueError):
            switch_bounds(5, 10)


def forced_samples(steps, n_samples=1, seed=0, switch_points=10):
    """Forced Riccati-inequality solutions of the scalar q = r = 1 problem
    on [0, 1] from a zero final value, with the cloud's extremal."""
    return dri_cloud(scalar_preset(1, 1, T=1.0, steps=steps),
                     n_samples=n_samples, switch_points=switch_points,
                     seed=seed)


class TestSampleDri:
    def test_zero_amplitude_reproduces_dre(self):
        # the cloud's extremal is a sample of the forced sweep whose
        # forcing is zero
        g = TimeGrid(T=1.0, steps=256)
        dre = solve_dre_final(scalar_system(), scalar_cost(), [[0.0]], g)
        report = forced_samples(256, n_samples=3, seed=3)
        assert np.array_equal(dre.lam.values, report.dre.lam.values)

    def test_samples_below_final_extremal(self):
        g = TimeGrid(T=1.0, steps=256)
        dre = solve_dre_final(scalar_system(), scalar_cost(), [[0.0]], g)
        for s in forced_samples(256, n_samples=10).samples:
            v = loewner_compare(dre.lam, s.lam)
            assert v.margin_ab >= -1e-7

    def test_residual_matches_stored_forcing(self):
        g = TimeGrid(T=1.0, steps=256)
        s = forced_samples(256, seed=5).samples[0]
        # the Riccati operator along the sample, node by node
        res = np.empty_like(s.lam.values)
        flow = riccati._RicFlow(scalar_system(), scalar_cost(), g)
        nodes = np.arange(g.steps + 1)
        for block, r in riccati._operator_blocks(flow, g, nodes,
                                                 s.lam.values):
            res[block] = r
        bounds = switch_bounds(g.steps, 10)
        clean = np.ones(g.steps + 1, dtype=bool)
        for b in bounds[1:-1]:
            clean[max(0, b - 2):min(g.steps, b + 2) + 1] = False
        diff = np.abs(res - s.forcing.values)[clean]
        scale = 1.0 + np.abs(s.forcing.values).max()
        assert np.nanmax(diff) <= 1e-3 * scale

    def test_forcing_piecewise_constant(self):
        s = forced_samples(100, seed=7, switch_points=5).samples[0]
        distinct = {tuple(v.ravel()) for v in s.forcing.values}
        assert len(distinct) <= 5

    def test_seed_determinism(self):
        a = forced_samples(64, seed=9).samples[0]
        b = forced_samples(64, seed=9).samples[0]
        c = forced_samples(64, seed=10).samples[0]
        assert np.array_equal(a.lam.values, b.lam.values)
        assert not np.array_equal(a.lam.values, c.lam.values)


class TestLoewnerCompare:
    def _traj(self, values, g):
        from lqconic import MatTrajectory
        return MatTrajectory(g, np.asarray(values, dtype=float))

    def test_equal_trajectories(self):
        g = TimeGrid(T=1.0, steps=2)
        vals = np.stack([np.eye(2)] * 3)
        v = loewner_compare(self._traj(vals, g), self._traj(vals, g))
        assert v.verdict == "both"

    def test_strict_order(self):
        g = TimeGrid(T=1.0, steps=2)
        a = np.stack([2.0 * np.eye(1)] * 3)
        b = np.stack([np.eye(1)] * 3)
        v = loewner_compare(self._traj(a, g), self._traj(b, g))
        assert v.verdict == "a_ge_b"
        assert v.margin_ab == pytest.approx(1.0)

    def test_incomparable(self):
        g = TimeGrid(T=1.0, steps=1)
        a = np.stack([np.diag([2.0, 0.0])] * 2)
        b = np.stack([np.diag([1.0, 1.0])] * 2)
        v = loewner_compare(self._traj(a, g), self._traj(b, g))
        assert v.verdict == "incomparable"

    def test_shared_nodes_skip_invalid(self):
        g = TimeGrid(T=1.0, steps=3)
        a = np.stack([np.eye(1)] * 4)
        b = a.copy()
        b[0] = np.nan
        v = loewner_compare(self._traj(a, g), self._traj(b, g))
        assert v.shared_nodes == 3


class TestRiccatiResidual:
    """The finite-difference residual sweep, which needs no integrator."""

    def test_extremal_residual_small(self):
        g = TimeGrid(T=1.0, steps=256)
        sol = solve_dre_final(scalar_system(), scalar_cost(), [[0.0]], g)
        flow = riccati._RicFlow(scalar_system(), scalar_cost(), g)
        res = riccati._residual_sweep(sol.lam.values, flow, g)
        assert res == sol.residual_max
        assert res <= 1e-4

    def test_non_extremal_residual_large(self):
        g = TimeGrid(T=1.0, steps=64)
        flow = riccati._RicFlow(scalar_system(), scalar_cost(), g)
        res = riccati._residual_sweep(np.full((65, 1, 1), 0.5), flow, g)
        # constant 0.5 leaves q - lam^2 = 0.75 at every node
        assert res == pytest.approx(0.75, abs=1e-10)


def unscreened_past_singular(d):
    """The escape test of step denominators without the screen: eigenvalues
    of every denominator with a positive finite determinant."""
    det = np.linalg.det(d)
    out = ~((det > 0.0) & (det < np.inf))
    ev = np.linalg.eigvals(d[~out])
    out[~out] = ((ev.imag == 0.0) & (ev.real <= 0.0)).any(axis=1)
    return out


class TestEscapePrescreen:
    """The screen ||X - I||_F >= 0.9 changes which step denominators reach
    eigvals, never an escape verdict."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_singular_verdict_equals_unscreened(self, data):
        n = data.draw(st.integers(1, 4))
        size = data.draw(st.integers(1, 10))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        # per denominator: I + E with E random, a pair of eigenvalues
        # moving to zero together (det X stays positive), or a rank-one
        # shrink of one eigenvalue, at a distance from the identity just
        # inside or outside the screen's bound (0.9) or the distance at
        # which an eigenvalue reaches zero (1), or clearly on either side
        d = np.empty((size, n, n))
        for i in range(size):
            shape = data.draw(st.sampled_from(["random", "pair", "rank1"]))
            if shape == "random":
                e = rng.standard_normal((n, n))
            elif shape == "pair" and n >= 2:
                q, _ = np.linalg.qr(rng.standard_normal((n, n)))
                e = -q[:, :2] @ q[:, :2].T
            else:
                u = rng.standard_normal(n)
                e = -np.outer(u, u)
            dist = data.draw(st.sampled_from(
                [0.5, 0.9 - 1e-12, 0.9, 0.9 + 1e-12, 1.0 - 1e-12, 1.0,
                 1.0 + 1e-12, 1.5, 2.0, 10.0]))
            d[i] = np.eye(n) + e * (dist / np.linalg.norm(e))
            bad = data.draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
            if bad is not None:
                d[i, 0, n - 1] = bad
        with np.errstate(invalid="ignore"):  # det of non-finite samples
            np.testing.assert_array_equal(riccati._past_singular(d),
                                          unscreened_past_singular(d))

    def _unscreened(self, monkeypatch, call):
        with monkeypatch.context() as m:
            m.setattr(riccati, "_past_singular", unscreened_past_singular)
            return call()

    @pytest.mark.parametrize("q_sign", [1, -1])
    @pytest.mark.parametrize("m_sign", [1, -1])
    def test_scalar_preset_escapes_unchanged(self, monkeypatch, q_sign,
                                             m_sign):
        spec = scalar_preset(q_sign, m_sign)

        def solve():
            return solve_dre_final(spec.sys, effective_cost(spec),
                                   np.zeros((1, 1)), spec.grid)

        screened, plain = solve(), self._unscreened(monkeypatch, solve)
        assert screened.escaped == plain.escaped
        assert screened.escape_time == plain.escape_time
        assert np.array_equal(screened.lam.values, plain.lam.values,
                              equal_nan=True)
        if screened.escaped:
            assert screened.escape_time == pytest.approx(
                spec.grid.T - np.pi / 2.0, abs=1e-6)

    @pytest.mark.parametrize("signs", [(1, 1), (1, -1), (-1, 1), (-1, -1)])
    def test_preset_clouds_unchanged(self, monkeypatch, signs):
        spec = scalar_preset(*signs, steps=256)

        def cloud():
            return dri_cloud(spec, n_samples=40, seed=11)

        screened, plain = cloud(), self._unscreened(monkeypatch, cloud)
        assert screened.n_escaped == plain.n_escaped
        assert screened.maximal == plain.maximal
        assert [s.escape_time for s in screened.samples] == \
            [s.escape_time for s in plain.samples]


class TestEscapeStepIndependence:
    """An escape is the first singular denominator of the Hamiltonian step
    maps, refined on the partial step, so its time carries the maps'
    fourth-order error and no dependence on the step size beyond it."""

    @pytest.mark.parametrize("steps,tol", [
        # the RK4 map of the rotation X = cos s lags by h^5/120 a step,
        # (pi/2) h^4 / 120 = 3.2e-6 at h = 1/8 by the escape
        (16, 5e-6), (64, 1e-6), (512, 1e-6)])
    def test_preset_escape_at_t_minus_half_pi(self, steps, tol):
        spec = scalar_preset(-1, 1, steps=steps)
        sol = solve_dre_final(spec.sys, effective_cost(spec),
                              np.zeros((1, 1)), spec.grid)
        assert sol.escaped
        assert abs(sol.escape_time - (2.0 - np.pi / 2.0)) <= tol

    def test_indefinite_escape_agrees_across_grids(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(-1.0, 1.0, (3, 3))
        b = rng.uniform(-1.0, 1.0, (3, 2))
        g = rng.uniform(-1.0, 1.0, (3, 3))
        sys_ = StateSpace(A=a, B=b)
        cost = CostData(Q=0.5 * (g + g.T), N=None, R=np.eye(2))
        times = [solve_dre_final(sys_, cost, np.zeros((3, 3)),
                                 TimeGrid(T=3.0, steps=k)).escape_time
                 for k in (128, 2048)]
        assert None not in times
        assert abs(times[0] - times[1]) <= 1e-6

    @pytest.mark.parametrize("q", [(-1.0, -1.0), (-1.0, -1.0, 1.0)])
    def test_copies_of_the_escaping_mode(self, q):
        # X = diag(cos s, cos s[, cosh s]): det X touches zero at s = pi/2
        # without changing sign; the eigenvalues still cross it
        n = len(q)
        sol = solve_dre_final(StateSpace(A=np.zeros((n, n)), B=np.eye(n)),
                              CostData(Q=np.diag(q), N=None, R=np.eye(n)),
                              np.zeros((n, n)), TimeGrid(T=2.0, steps=64))
        assert sol.escaped
        assert abs(sol.escape_time - (2.0 - np.pi / 2.0)) <= 1e-6
