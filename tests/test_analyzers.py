"""End-to-end analyzers: regulator solves, worst-case infima, gain-bound
and passivity verdicts, inequality-solution clouds, and independent
re-verification of emitted certificates.

Scalar ground truth (a=0, b=1): value tanh(1) for the unit regulator on
T=1; log cosh(1) for the noise-driven variant; escape at T - pi/2 when
the state weight flips sign on T=2; finite value -tan(1/2) for the same
flip on the short horizon T=1/2.
"""
import dataclasses

import numpy as np
import pytest

from lqconic import (
    BoundedReal,
    CostData,
    EscapeUnexpected,
    GeneralIQC,
    LQR,
    PositiveReal,
    ProblemSpec,
    StateSpace,
    StochLQR,
    TimeGrid,
    ValidationError,
    bounded_real_test,
    dri_cloud,
    hinf_norm_bisection,
    iqc_infimum,
    passivity_test,
    scalar_preset,
    solve_lqr,
    solve_stoch_lqr,
    verify_solution,
)

from lqconic import riccati
from lqconic.analyzers import _worst_margin, analyze
from oracles import (convolution_norm, loewner_compare,
                     passivity_form_min_eig, zoh_qp_value)

SYS = StateSpace(A=[[0.0]], B=[[1.0]])
COST = CostData(Q=[[1.0]], N=None, R=[[1.0]])


def report_escape(monkeypatch):
    """Make every Riccati sweep report an escape at mid-horizon, as a
    numerical failure on data that cannot escape would."""
    real = riccati._sweep

    def sweep(flow, lam0, grid, *args):
        values, escaped, escape_time = real(flow, lam0, grid, *args)
        half = grid.steps // 2
        values[:, :half] = np.nan
        escaped[:] = True
        escape_time[:] = grid.times()[half] - 0.5 * grid.h
        return values, escaped, escape_time

    monkeypatch.setattr(riccati, "_sweep", sweep)


def lqr_spec(steps=1024, T=1.0, x0=1.0):
    return ProblemSpec(sys=SYS, grid=TimeGrid(T=T, steps=steps),
                       variant=LQR(cost=COST, x_i=[x0]))


class TestSolveLqr:
    def test_scalar_value_and_certificate(self):
        cert = solve_lqr(lqr_spec())
        assert cert.optimal_value == pytest.approx(np.tanh(1.0), abs=1e-6)
        assert not cert.minus_infinity
        assert cert.duality_gap <= 1e-6
        assert cert.duality_gap == cert.primal_value - cert.optimal_value
        assert cert.descriptor_residual <= 1e-4

    def test_zero_start_zero_value(self):
        cert = solve_lqr(lqr_spec(x0=0.0))
        assert cert.optimal_value == pytest.approx(0.0, abs=1e-12)

    def test_two_state_matches_qp_oracle(self):
        rng = np.random.default_rng(40)
        a = rng.standard_normal((2, 2)) * 0.5
        b = rng.standard_normal((2, 1))
        base = rng.standard_normal((2, 2))
        q = base @ base.T
        r = np.array([[1.5]])
        x0 = rng.standard_normal(2)
        spec = ProblemSpec(
            sys=StateSpace(A=a, B=b), grid=TimeGrid(T=1.0, steps=512),
            variant=LQR(cost=CostData(Q=q, N=None, R=r), x_i=x0))
        cert = solve_lqr(spec)
        ref = zoh_qp_value(a, b, q, None, r, x0, 1.0, 50)
        assert cert.optimal_value == pytest.approx(ref, rel=0.01)

    def test_invalid_data_rejected(self):
        bad = ProblemSpec(sys=SYS, grid=TimeGrid(T=1.0, steps=64),
                          variant=LQR(cost=CostData(Q=[[-1.0]], N=None,
                                                    R=[[1.0]]), x_i=[1.0]))
        with pytest.raises(ValidationError):
            solve_lqr(bad)

    def test_artificial_cap_reports_unexpected_escape(self, monkeypatch):
        report_escape(monkeypatch)
        with pytest.raises(EscapeUnexpected, match="regulator hypotheses"):
            solve_lqr(lqr_spec(steps=128))

    def test_gain_closes_the_loop(self):
        cert = solve_lqr(lqr_spec())
        t = cert.grid.times()
        np.testing.assert_allclose(cert.gain.K[:, 0, 0],
                                   np.tanh(1.0 - t), atol=1e-8)


class TestSolveStochLqr:
    def spec(self, steps=512, xi=0.0, w=1.0):
        return ProblemSpec(
            sys=SYS, grid=TimeGrid(T=1.0, steps=steps),
            variant=StochLQR(cost=COST, X_i=[[xi]], W=[[w]]))

    def test_log_cosh_value(self):
        cert = solve_stoch_lqr(self.spec())
        assert cert.optimal_value == pytest.approx(np.log(np.cosh(1.0)),
                                                   abs=1e-6)
        assert cert.duality_gap <= 1e-5

    def test_point_mass_reduces_to_deterministic(self):
        det = solve_lqr(lqr_spec(steps=512))
        sto = solve_stoch_lqr(self.spec(xi=1.0, w=0.0))
        assert sto.optimal_value == pytest.approx(det.optimal_value, abs=1e-9)

    def test_gain_ignores_payload(self):
        # the feedback comes from the dual trajectory alone
        det = solve_lqr(lqr_spec(steps=512))
        sto = solve_stoch_lqr(self.spec(xi=0.7, w=2.0))
        assert np.max(np.abs(det.gain.K - sto.gain.K)) <= 1e-12

    def test_indefinite_noise_rejected(self):
        spec = ProblemSpec(
            sys=SYS, grid=TimeGrid(T=1.0, steps=64),
            variant=StochLQR(cost=COST, X_i=[[1.0]], W=[[-1.0]]))
        with pytest.raises(ValidationError):
            solve_stoch_lqr(spec)


class TestIqcInfimum:
    def test_psd_data_matches_regulator(self):
        spec = ProblemSpec(sys=SYS, grid=TimeGrid(T=1.0, steps=512),
                           variant=GeneralIQC(cost=COST, x_i=[1.0]))
        cert = iqc_infimum(spec)
        assert cert.optimal_value == pytest.approx(np.tanh(1.0), abs=1e-5)

    def test_short_horizon_indefinite_finite(self):
        cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=SYS, grid=TimeGrid(T=0.5, steps=512),
                           variant=GeneralIQC(cost=cost, x_i=[1.0]))
        cert = iqc_infimum(spec)
        assert not cert.minus_infinity
        assert cert.optimal_value == pytest.approx(-np.tan(0.5), abs=1e-6)
        ref = zoh_qp_value([[0.0]], [[1.0]], [[-1.0]], None, [[1.0]],
                           [1.0], 0.5, 50)
        assert cert.optimal_value == pytest.approx(ref, rel=0.01)

    def test_long_horizon_escapes_to_minus_infinity(self):
        cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=SYS, grid=TimeGrid(T=2.0, steps=512),
                           variant=GeneralIQC(cost=cost, x_i=[1.0]))
        cert = iqc_infimum(spec)
        assert cert.minus_infinity
        assert cert.optimal_value is None
        assert cert.gain is None
        assert cert.escape_time == pytest.approx(2.0 - np.pi / 2.0,
                                                 abs=2 * spec.grid.h)

    def test_certificate_dichotomy(self):
        # exactly one of: finite value, or declared unbounded
        for T in (0.5, 2.0):
            cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
            spec = ProblemSpec(sys=SYS, grid=TimeGrid(T=T, steps=256),
                               variant=GeneralIQC(cost=cost, x_i=[1.0]))
            cert = iqc_infimum(spec)
            assert (cert.optimal_value is not None) != cert.minus_infinity

    @pytest.mark.parametrize("sampled", [False, True],
                             ids=["constant", "node-sampled"])
    def test_gap_is_fourth_order(self, sampled):
        # n = 3, indefinite Q (eigenvalues -1.18, 0.09, 1.22), T = 2; the
        # sampled case scales A and B along the grid. The primal cost is a
        # state of the RK4 flow, so primal - dual falls about 16x per
        # halving of the step
        rng = np.random.default_rng(3)
        a, b = rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 2))
        q = rng.uniform(-1, 1, (3, 3))
        cost = CostData(Q=0.5 * (q + q.T), N=None, R=np.eye(2))
        gaps = []
        for steps in (64, 128, 256):
            s = np.linspace(0.0, 1.0, steps + 1)[:, None, None]
            sys_ = StateSpace(A=a * (1 + 0.5 * np.sin(3 * s)),
                              B=b * (1 + 0.3 * np.cos(5 * s))) if sampled \
                else StateSpace(A=a, B=b)
            cert = analyze(ProblemSpec(
                sys=sys_, grid=TimeGrid(T=2.0, steps=steps),
                variant=GeneralIQC(cost=cost, x_i=[1.0, -0.5, 0.3])))
            gaps.append(abs(cert.duality_gap))
        assert gaps[0] >= 12.0 * gaps[1] and gaps[1] >= 12.0 * gaps[2]


class TestBoundedReal:
    SYS1 = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])

    def test_large_gamma_passes(self):
        ok, cert = bounded_real_test(self.SYS1, gamma=2.0, T=10.0)
        assert ok and cert.verdict
        assert not cert.minus_infinity
        assert cert.lam_max_eig is not None and cert.lam_max_eig <= 1e-9

    def test_small_gamma_fails_by_escape(self):
        ok, cert = bounded_real_test(self.SYS1, gamma=0.5, T=10.0)
        assert not ok
        assert cert.minus_infinity
        assert cert.escape_time is not None

    def test_matches_convolution_oracle(self):
        res = hinf_norm_bisection(self.SYS1, T=10.0, steps=512, tol=1e-4)
        ref = convolution_norm([[-1.0]], [[1.0]], [[1.0]], 10.0, steps=800)
        assert res.gamma_star == pytest.approx(ref, rel=0.02)

    def test_bisection_bracket_sound(self):
        res = hinf_norm_bisection(self.SYS1, T=10.0, steps=256, tol=1e-3)
        lo, hi = res.bracket
        ok_hi, _ = bounded_real_test(self.SYS1, gamma=hi, T=10.0, steps=256)
        ok_lo, _ = bounded_real_test(self.SYS1, gamma=lo, T=10.0, steps=256)
        assert ok_hi and not ok_lo
        assert hi - lo <= 1e-3

    def test_bisection_stops_when_bracket_cannot_split(self):
        # a width below the float spacing cannot be reached; the bisection
        # used to re-certify one midpoint until 200 iterations had passed
        res = hinf_norm_bisection(self.SYS1, T=2.0, steps=64, tol=1e-20)
        lo, hi = res.bracket
        assert res.iterations <= 60
        assert hi == np.nextafter(lo, np.inf)

    def test_zero_output_zero_norm(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[0.0]])
        res = hinf_norm_bisection(sys, T=5.0)
        assert res.gamma_star == 0.0

    # a zero output map does not excuse bad data: each is rejected before
    # the shortcut to norm zero
    @pytest.mark.parametrize("data, T, steps, error, code", [
        (dict(A=[[np.nan]], B=[[1.0]], C=[[0.0]]), 1.0, 64,
         ValidationError, "NonFinite"),
        (dict(A=[[-1.0]], B=[[1.0]], C=[[0.0]]), -1.0, 64, ValueError, None),
        (dict(A=[[-1.0]], B=[[1.0]], C=[[0.0]]), np.nan, 0, ValueError, None),
        (dict(A=[[-1.0]], B=[[1.0]], C=[[0.0]], D=[[5.0]]), 1.0, 64,
         ValidationError, "DNotZero"),
        (dict(A=[[-1.0]], B=[[1.0]], C=[[0.0]]), 1.0, 1, ValidationError,
         "TooFewSteps"),
    ], ids=["nan-A", "negative-T", "nan-T-zero-steps", "nonzero-D",
            "one-step"])
    def test_zero_output_data_checked(self, data, T, steps, error, code):
        with pytest.raises(error) as info:
            hinf_norm_bisection(StateSpace(**data), T=T, steps=steps)
        if code is not None:
            assert [v.code for v in info.value.violations] == [code]

    def test_norm_grows_with_horizon(self):
        vals = [hinf_norm_bisection(self.SYS1, T=T, steps=256, tol=1e-3).gamma_star
                for T in (2.0, 5.0, 10.0)]
        assert vals[0] <= vals[1] + 2e-3
        assert vals[1] <= vals[2] + 2e-3


class TestPassivity:
    GOOD = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
    BAD = StateSpace(A=[[1.0]], B=[[1.0]], C=[[-1.0]], D=[[0.2]])

    def test_passive_example(self):
        ok, cert = passivity_test(self.GOOD, T=5.0)
        assert ok and cert.verdict
        assert cert.lam_max_eig <= 1e-9

    def test_active_example(self):
        ok, cert = passivity_test(self.BAD, T=10.0)
        assert not ok
        assert cert.minus_infinity

    def test_feedthrough_precondition(self):
        # D + D^T must be strictly positive definite at every sample: zero,
        # positive but inside the PSD_TOL band, and a sampled D whose first
        # sample is fine and a later one negative all get the one error
        sampled = np.ones((17, 1, 1))
        sampled[9] = -0.5
        for d in ([[0.0]], [[4e-10]], sampled):
            sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=d)
            with pytest.raises(ValidationError) as e:
                passivity_test(sys, T=5.0, steps=16)
            assert [v.code for v in e.value.violations] == \
                ["DNotStrictlyPassive"]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_feedthrough_is_non_finite(self, bad):
        # -inf makes D + D^T look indefinite; validation must see it first
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[bad]])
        with pytest.raises(ValidationError) as e:
            passivity_test(sys, T=1.0, steps=16)
        assert [v.code for v in e.value.violations] == ["NonFinite"]

    def test_agrees_with_quadratic_form_oracle(self):
        for sys, T in ((self.GOOD, 5.0), (self.BAD, 10.0)):
            ok, _ = passivity_test(sys, T=T)
            min_eig, scale = passivity_form_min_eig(
                np.asarray(sys.A), np.asarray(sys.B), np.asarray(sys.C),
                np.asarray(sys.D), T, steps=60)
            assert ok == (min_eig >= -1e-8 * scale)


def assert_same_certificate(a, b):
    """Field by field, bitwise: arrays by their bytes, numbers by repr (so
    NaN equals NaN and -0.0 differs from 0.0)."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "lam" and x is not None:
            x, y = x.values, y.values
        if f.name == "gain" and x is not None:
            x, y = x.K, y.K
        if isinstance(x, np.ndarray):
            assert x.shape == y.shape and x.tobytes() == y.tobytes(), f.name
        else:
            assert repr(x) == repr(y), f.name


class TestAnalyzePolicy:
    """analyze is the one route; each public analyzer is a wrapper around
    it, and the variant decides what a finite escape means."""

    BR = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    PR_GOOD = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
    PR_BAD = StateSpace(A=[[1.0]], B=[[1.0]], C=[[-1.0]], D=[[0.2]])

    def case(self, variant, escape):
        """(problem, the wrapper's certificate as a thunk)."""
        grid = TimeGrid(T=1.0, steps=128)
        if variant == "lqr":
            spec = ProblemSpec(sys=SYS, grid=grid,
                               variant=LQR(cost=COST, x_i=[1.0]))
            return spec, lambda: solve_lqr(spec)
        if variant == "stoch_lqr":
            spec = ProblemSpec(sys=SYS, grid=grid, variant=StochLQR(
                cost=COST, X_i=[[1.0]], W=[[0.5]]))
            return spec, lambda: solve_stoch_lqr(spec)
        if variant == "general_iqc":
            # -tan(T - t) escapes at T - pi/2 for T = 2, not for T = 0.5
            spec = ProblemSpec(
                sys=SYS, grid=TimeGrid(T=2.0 if escape else 0.5, steps=128),
                variant=GeneralIQC(cost=CostData(Q=[[-1.0]], N=None,
                                                 R=[[1.0]]), x_i=[1.0]))
            return spec, lambda: iqc_infimum(spec)
        if variant == "bounded_real":
            gamma = 0.5 if escape else 2.0
            spec = ProblemSpec(sys=self.BR, grid=TimeGrid(T=10.0, steps=128),
                               variant=BoundedReal(gamma=gamma))
            return spec, lambda: bounded_real_test(
                self.BR, gamma, T=10.0, steps=128)[1]
        sys = self.PR_BAD if escape else self.PR_GOOD
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=10.0, steps=128),
                           variant=PositiveReal())
        return spec, lambda: passivity_test(sys, T=10.0, steps=128)[1]

    @pytest.mark.parametrize("escape", [False, True])
    @pytest.mark.parametrize("variant,policy", [
        ("lqr", "raise"),
        ("stoch_lqr", "raise"),
        ("general_iqc", "minus_infinity"),
        ("bounded_real", "verdict"),
        ("positive_real", "verdict"),
    ])
    def test_escape_policy_and_wrappers(self, monkeypatch, variant, policy,
                                        escape):
        spec, wrapper = self.case(variant, escape)
        if escape and policy == "raise":
            # the regulator flow cannot escape; a sweep that reports one
            # stands for a numerical failure
            report_escape(monkeypatch)
            with pytest.raises(EscapeUnexpected, match="regulator"):
                wrapper()
            with pytest.raises(EscapeUnexpected, match="regulator"):
                analyze(spec)
            return
        cert = wrapper()
        assert_same_certificate(cert, analyze(spec))
        assert cert.variant == variant
        assert cert.minus_infinity is escape
        assert (cert.gain is None) is escape
        assert (cert.optimal_value is None) is escape
        if policy == "verdict":
            assert cert.verdict is (not escape)
            assert (cert.lam_max_eig is None) is escape
        else:
            assert cert.verdict is None and cert.lam_max_eig is None


class TestScalarPreset:
    def test_four_sign_pairs(self):
        for qs in (-1, 1):
            for ms in (-1, 1):
                spec = scalar_preset(qs, ms)
                assert spec.grid.T == 2.0
                cost = spec.variant.cost
                assert cost.Q[0, 0] == qs
                assert cost.R[0, 0] == ms

    def test_bad_signs_rejected(self):
        with pytest.raises(ValueError):
            scalar_preset(0, 1)


BAD_TOLS = [0.0, -1.0, float("nan")]


class TestToleranceRejected:
    """A tolerance that is not a positive number is an input error. NaN
    used to pass every `tol <= 0` check and then silently turn off the
    bisection (hinf_norm_bisection returned the unbisected bracket top),
    the maximality test (dri_cloud) or the dual-sign check (verify)."""

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_hinf_norm_bisection(self, tol):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match="tol"):
            hinf_norm_bisection(sys, T=2.0, steps=64, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_dri_cloud(self, tol):
        with pytest.raises(ValueError, match="tol"):
            dri_cloud(scalar_preset(1, 1, steps=64), n_samples=2, tol=tol)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_verify_solution(self, tol):
        spec = lqr_spec(steps=64)
        cert = solve_lqr(spec)
        with pytest.raises(ValueError, match="tol"):
            verify_solution(spec, cert, tol=tol)


class TestDriCloud:
    def test_negative_sample_count_rejected(self):
        # used to end in an IndexError deep in the sweep
        with pytest.raises(ValueError, match="n_samples"):
            dri_cloud(scalar_preset(1, 1, steps=64), n_samples=-1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_data_rejected(self, bad):
        # used to run and report a maximal cloud with an escaped extremal
        spec = scalar_preset(1, 1, steps=64)
        cost = CostData(Q=[[bad]], N=None, R=[[1.0]])
        spec = dataclasses.replace(spec, variant=LQR(cost=cost, x_i=[0.0]))
        with pytest.raises(ValidationError) as info:
            dri_cloud(spec, n_samples=2)
        assert [(v.field, v.code) for v in info.value.violations] == \
            [("cost.Q", "NonFinite")]

    def test_one_step_grid_rejected(self):
        # used to run and report a NaN extremal residual_max; two steps run
        with pytest.raises(ValidationError) as info:
            dri_cloud(scalar_preset(1, 1, steps=1), n_samples=2,
                      switch_points=1)
        assert [(v.field, v.code) for v in info.value.violations] == \
            [("grid.steps", "TooFewSteps")]
        report = dri_cloud(scalar_preset(1, 1, steps=2), n_samples=2,
                           switch_points=1)
        assert np.isfinite(report.dre.residual_max)

    def test_indefinite_presets_still_run(self):
        # the finite-data check is not the regulator validation: the
        # m = -1 presets carry R = -1 under an LQR variant
        for q in (1, -1):
            report = dri_cloud(scalar_preset(q, -1, steps=64), n_samples=2)
            assert len(report.samples) == 2

    def test_contractive_preset_maximal(self):
        report = dri_cloud(scalar_preset(1, 1, steps=256), n_samples=20,
                           seed=0)
        assert report.maximal
        assert report.worst_margin >= -1e-7
        assert len(report.samples) == 20
        assert not report.dre.escaped
        # strong forcing may drive individual samples to escape downward;
        # they still sit below the extremal on their valid windows
        assert report.n_escaped < 20
        for s in report.samples:
            if s.escaped:
                assert not s.lam.valid_mask().all()

    def test_escaping_preset_still_dominated(self):
        report = dri_cloud(scalar_preset(-1, 1, steps=256), n_samples=20,
                           seed=0)
        assert report.dre.escaped
        assert report.maximal
        assert report.worst_margin >= -1e-7

    def test_worst_margin_is_the_least_pairwise_margin(self):
        # the cloud's batched comparison gives bitwise the least
        # loewner_compare margin of the first trajectory over the others;
        # 40 trajectories of 301 nodes take several node blocks, and they
        # are invalid on different windows (one throughout, one where the
        # first is)
        rng = np.random.default_rng(3)
        grid = TimeGrid(T=1.0, steps=300)
        values = rng.standard_normal((40, 301, 3, 3))
        for i in range(1, 40):
            values[i, :rng.integers(0, 301)] = np.nan
        values[7] = np.nan
        values[0, 150:160] = np.nan
        first = riccati.MatTrajectory(grid, values[0])
        margins = [loewner_compare(first, riccati.MatTrajectory(grid, v))
                   for v in values[1:]]
        assert _worst_margin(values) == min(
            c.margin_ab for c in margins if c.shared_nodes)
        values[0] = np.nan
        assert _worst_margin(values) is None

    def test_seed_reproducibility(self):
        a = dri_cloud(scalar_preset(1, 1, steps=128), n_samples=5, seed=7)
        b = dri_cloud(scalar_preset(1, 1, steps=128), n_samples=5, seed=7)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.lam.values, sb.lam.values)
            assert np.array_equal(sa.forcing.values, sb.forcing.values)

    def test_samples_match_standalone_draws(self):
        # the cloud's one batched sweep reproduces the standalone solves
        # bitwise: every sample (escapes included) is the one sample of a
        # one-sample cloud with its seed, and the extremal solve_dre_final
        from lqconic import solve_dre_final
        rng = np.random.default_rng(4)
        g = rng.uniform(-1.0, 1.0, (3, 3))
        system3 = ProblemSpec(
            sys=StateSpace(A=rng.uniform(-1.0, 1.0, (3, 3)),
                           B=rng.uniform(-1.0, 1.0, (3, 1))),
            grid=TimeGrid(T=2.0, steps=128),
            variant=LQR(cost=CostData(Q=g @ g.T, N=None, R=np.eye(1)),
                        x_i=np.ones(3)))
        specs = [scalar_preset(q, m, steps=128)
                 for q, m in ((1, 1), (1, -1), (-1, 1))] + [system3]
        escapes = []
        for spec in specs:
            n, cost = spec.sys.n, spec.variant.cost
            report = dri_cloud(spec, n_samples=6, seed=5)
            dre = solve_dre_final(spec.sys, cost, np.zeros((n, n)), spec.grid)
            assert np.array_equal(report.dre.lam.values, dre.lam.values,
                                  equal_nan=True)
            assert report.dre.escape_time == dre.escape_time
            assert report.dre.residual_max == dre.residual_max
            for i, s in enumerate(report.samples):
                solo = dri_cloud(spec, n_samples=1, seed=5 + i).samples[0]
                assert np.array_equal(s.lam.values, solo.lam.values,
                                      equal_nan=True)
                assert np.array_equal(s.forcing.values, solo.forcing.values)
                assert s.escaped == solo.escaped
                assert s.escape_time == solo.escape_time
            escapes.append((report.dre.escaped, report.n_escaped))
        # the cases cover escaping extremals and escaping samples
        assert [e for e, _ in escapes] == [False, True, True, False]
        assert [k > 0 for _, k in escapes] == [False, True, True, True]


class TestVerifySolution:
    def test_fresh_certificate_passes(self):
        spec = lqr_spec(steps=256)
        cert = solve_lqr(spec)
        report = verify_solution(spec, cert)
        assert report.passed
        assert all(c.ok for c in report.checks)
        names = {c.name for c in report.checks}
        assert {"variant_match", "verdict_match", "value_match",
                "primal_match", "gap_match", "gap_consistent", "descriptor",
                "descriptor_match", "alignment", "weak_duality",
                "lam_max_match"} == names

    def test_tampered_value_fails(self):
        spec = lqr_spec(steps=256)
        cert = solve_lqr(spec)
        forged = dataclasses.replace(cert, optimal_value=0.5)
        report = verify_solution(spec, forged)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.ok}
        assert "value_match" in failed

    def test_zeroed_gain_fails_alignment(self):
        from lqconic import Gain
        spec = lqr_spec(steps=256)
        cert = solve_lqr(spec)
        zero = Gain(cert.grid, np.zeros((1, 1)))
        forged = dataclasses.replace(cert, gain=zero)
        report = verify_solution(spec, forged)
        assert not report.passed
        failed = {c.name for c in report.checks if not c.ok}
        assert "alignment" in failed

    def test_escape_certificate_verified(self):
        cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=SYS, grid=TimeGrid(T=2.0, steps=512),
                           variant=GeneralIQC(cost=cost, x_i=[1.0]))
        cert = iqc_infimum(spec)
        report = verify_solution(spec, cert)
        assert report.passed
        names = {c.name for c in report.checks}
        assert "escape_confirmed" in names or "escape_time_match" in names

    def test_relabelled_certificate_fails(self):
        # the tag and the verdict policy come from the problem: a failed
        # passivity test relabelled as a verdict-free infimum with verdict
        # True used to verify
        sys = StateSpace(A=[[1.0]], B=[[1.0]], C=[[-1.0]], D=[[0.2]])
        ok, cert = passivity_test(sys, T=2.0, steps=128)
        spec = ProblemSpec(sys=sys, grid=cert.grid, variant=PositiveReal())
        assert not ok and verify_solution(spec, cert).passed
        forged = dataclasses.replace(cert, variant="general_iqc",
                                     verdict=True)
        report = verify_solution(spec, forged)
        assert not report.passed
        assert {"variant_match", "verdict_match"} <= {
            c.name for c in report.checks if not c.ok}

    def test_bounded_real_dual_sign_checked(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        ok, cert = bounded_real_test(sys, gamma=2.0, T=5.0, steps=256)
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=5.0, steps=256),
                           variant=BoundedReal(gamma=2.0))
        report = verify_solution(spec, cert)
        assert report.passed
        assert any(c.name == "dual_sign" for c in report.checks)
