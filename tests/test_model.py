"""Problem schema: grids, state-space and cost containers, validation,
variant quadratic forms, and the structured covariance operators with
their adjoints."""
import math

import numpy as np
import pytest

from lqconic import (
    BoundedReal,
    CostData,
    GeneralIQC,
    LQR,
    PositiveReal,
    ProblemSpec,
    StateSpace,
    StochLQR,
    TimeGrid,
    ValidationError,
    apply_A_adj,
    apply_Aop,
    apply_E,
    apply_E_adj,
    assemble_quadform,
    effective_cost,
    trace_inner,
    validate,
)
from lqconic.analyzers import analyze
from lqconic.model import coeff_on


def scalar_lqr_spec(T=1.0, steps=100):
    sys = StateSpace(A=[[0.0]], B=[[1.0]])
    cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
    return ProblemSpec(sys=sys, grid=TimeGrid(T=T, steps=steps),
                       variant=LQR(cost=cost, x_i=[1.0]))


class TestTimeGrid:
    def test_uniform_nodes(self):
        g = TimeGrid(T=2.0, steps=4)
        np.testing.assert_allclose(g.times(), [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.h == pytest.approx(0.5)

    def test_refined_doubles_steps(self):
        g = TimeGrid(T=1.0, steps=10).refined(2)
        assert g.steps == 20
        assert g.T == 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            TimeGrid(T=-1.0, steps=10)
        with pytest.raises(ValueError):
            TimeGrid(T=1.0, steps=0)
        for T in (math.inf, math.nan):
            with pytest.raises(ValueError):
                TimeGrid(T=T, steps=10)


class TestCoeffAt:
    """coeff_on at one time."""

    def test_constant_passthrough(self):
        g = TimeGrid(T=1.0, steps=4)
        c = np.array([[2.0]])
        assert coeff_on(c, 0.3, g)[0, 0] == 2.0

    def test_nodes_reproduce_samples_exactly(self):
        g = TimeGrid(T=1.0, steps=4)
        samples = np.arange(5.0).reshape(5, 1, 1)
        for k, t in enumerate(g.times()):
            assert coeff_on(samples, t, g)[0, 0] == samples[k, 0, 0]

    def test_linear_between_nodes(self):
        g = TimeGrid(T=1.0, steps=2)
        samples = np.array([0.0, 2.0, 6.0]).reshape(3, 1, 1)
        assert coeff_on(samples, 0.25, g)[0, 0] == pytest.approx(1.0)
        assert coeff_on(samples, 0.75, g)[0, 0] == pytest.approx(4.0)

    def test_sample_count_fixes_spacing(self):
        # samples laid out on a coarser grid still interpolate correctly
        # when evaluated with a refined grid of the same horizon
        coarse = TimeGrid(T=1.0, steps=2)
        fine = coarse.refined(2)
        samples = np.array([0.0, 2.0, 6.0]).reshape(3, 1, 1)
        assert coeff_on(samples, 0.5, fine)[0, 0] == pytest.approx(2.0)
        assert coeff_on(samples, 0.75, fine)[0, 0] == pytest.approx(4.0)


class TestStateSpace:
    def test_dimensions(self):
        sys = StateSpace(A=np.zeros((2, 2)), B=np.ones((2, 1)),
                         C=np.ones((1, 2)), D=np.zeros((1, 1)))
        assert (sys.n, sys.m, sys.p) == (2, 1, 1)

    def test_default_c_d_empty(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        assert sys.p == 0

    def test_scalar_coercion(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[0.5]])
        assert sys.D.shape == (1, 1)

    def test_ab_at_interpolates(self):
        g = TimeGrid(T=1.0, steps=4)
        asamp = np.linspace(0.0, 1.0, 5).reshape(5, 1, 1)
        sys = StateSpace(A=asamp, B=[[1.0]])
        a, b = coeff_on(sys.A, 0.5, g), coeff_on(sys.B, 0.5, g)
        assert a[0, 0] == pytest.approx(0.5)
        assert b[0, 0] == 1.0


class TestValidate:
    def test_well_posed_scalar_lqr(self):
        validate(scalar_lqr_spec())

    def test_r_zero_rejected(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        cost = CostData(Q=[[1.0]], N=None, R=[[0.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=LQR(cost=cost, x_i=[1.0]))
        with pytest.raises(ValidationError) as err:
            validate(spec)
        assert any(v.code == "RNotPD" for v in err.value.violations)

    def test_lqr_q_indefinite_rejected(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=LQR(cost=cost, x_i=[1.0]))
        with pytest.raises(ValidationError):
            validate(spec)

    def test_iqc_allows_indefinite_q(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        cost = CostData(Q=[[-1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=GeneralIQC(cost=cost, x_i=[1.0]))
        validate(spec)

    def test_gamma_not_positive(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=BoundedReal(gamma=-1.0))
        with pytest.raises(ValidationError) as err:
            validate(spec)
        assert any(v.code == "GammaNotPositive" for v in err.value.violations)

    def test_bounded_real_needs_output(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=BoundedReal(gamma=1.0))
        with pytest.raises(ValidationError):
            validate(spec)

    def test_bounded_real_rejects_feedthrough(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=BoundedReal(gamma=1.0))
        with pytest.raises(ValidationError) as err:
            validate(spec)
        assert any(v.code == "DNotZero" for v in err.value.violations)

    def test_positive_real_needs_pd_feedthrough(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=PositiveReal())
        with pytest.raises(ValidationError) as err:
            validate(spec)
        assert any(v.code == "DNotStrictlyPassive" for v in err.value.violations)

    def test_positive_real_square_only(self):
        sys = StateSpace(A=np.zeros((2, 2)), B=np.ones((2, 1)),
                         C=np.ones((2, 2)), D=np.ones((2, 1)))
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=PositiveReal())
        with pytest.raises(ValidationError):
            validate(spec)

    def test_stoch_lqr_psd_payloads(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]])
        cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=StochLQR(cost=cost, X_i=[[-1.0]], W=[[1.0]]))
        with pytest.raises(ValidationError):
            validate(spec)

    def test_sampled_length_mismatch(self):
        g = TimeGrid(T=1.0, steps=10)
        sys = StateSpace(A=np.zeros((4, 1, 1)), B=[[1.0]])
        cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=g, variant=LQR(cost=cost, x_i=[1.0]))
        with pytest.raises(ValidationError) as err:
            validate(spec)
        assert any(v.code == "BadSampleCount" for v in err.value.violations)


def one_of_each_variant(steps):
    """A well-posed spec of every variant on a grid of the given steps."""
    cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
    grid = TimeGrid(T=1.0, steps=steps)
    plant = StateSpace(A=[[0.0]], B=[[1.0]])
    return [
        ProblemSpec(sys=plant, grid=grid, variant=LQR(cost=cost, x_i=[1.0])),
        ProblemSpec(sys=plant, grid=grid, variant=StochLQR(
            cost=cost, X_i=[[1.0]], W=[[1.0]])),
        ProblemSpec(sys=plant, grid=grid, variant=GeneralIQC(
            cost=cost, x_i=[1.0])),
        ProblemSpec(sys=StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]]),
                    grid=grid, variant=BoundedReal(gamma=2.0)),
        ProblemSpec(sys=StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]],
                                   D=[[1.0]]),
                    grid=grid, variant=PositiveReal()),
    ]


@pytest.mark.parametrize("index", range(5), ids=[
    "lqr", "stoch_lqr", "general_iqc", "bounded_real", "positive_real"])
def test_one_step_grid_rejected(index):
    # the certificate's finite differences need three nodes: one step is
    # rejected by name for every variant, by validate and so by the
    # analyzer (which used to fail inside the certificate), and two pass
    for check in (validate, analyze):
        with pytest.raises(ValidationError) as err:
            check(one_of_each_variant(1)[index])
        assert [(v.field, v.code) for v in err.value.violations] == \
            [("grid.steps", "TooFewSteps")]
    validate(one_of_each_variant(2)[index])


class TestNonFinite:
    """NaN or infinity anywhere in the data is rejected by validate with
    code NonFinite, and the analyzers never turn it into a verdict."""

    @staticmethod
    def codes(spec):
        with pytest.raises(ValidationError) as err:
            validate(spec)
        return {(v.field, v.code) for v in err.value.violations}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["system.A", "system.B", "cost.Q",
                                       "cost.N", "cost.R", "variant.x_i"])
    def test_regulator_fields(self, field, bad):
        data = {"system.A": [[0.0]], "system.B": [[1.0]], "cost.Q": [[1.0]],
                "cost.N": [[0.0]], "cost.R": [[1.0]], "variant.x_i": [1.0]}
        data[field] = np.where(np.ones_like(data[field]), bad, 0.0)
        cost = CostData(Q=data["cost.Q"], N=data["cost.N"], R=data["cost.R"])
        for variant in (LQR(cost=cost, x_i=data["variant.x_i"]),
                        GeneralIQC(cost=cost, x_i=data["variant.x_i"])):
            spec = ProblemSpec(sys=StateSpace(A=data["system.A"],
                                              B=data["system.B"]),
                               grid=TimeGrid(T=1.0, steps=10),
                               variant=variant)
            assert self.codes(spec) == {(field, "NonFinite")}

    def test_sampled_coefficient_and_stochastic_payloads(self):
        a = np.zeros((11, 1, 1))
        a[7] = math.nan
        cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=StateSpace(A=a, B=[[1.0]]),
                           grid=TimeGrid(T=1.0, steps=10),
                           variant=StochLQR(cost=cost, X_i=[[math.inf]],
                                            W=[[math.nan]]))
        assert self.codes(spec) == {("system.A", "NonFinite"),
                                    ("variant.X_i", "NonFinite"),
                                    ("variant.W", "NonFinite")}

    @pytest.mark.parametrize("gamma", [math.nan, math.inf])
    def test_gamma_and_output_map(self, gamma):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[math.inf]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=BoundedReal(gamma=gamma))
        assert self.codes(spec) == {("system.C", "NonFinite"),
                                    ("variant.gamma", "NonFinite")}

    def test_analyzer_raises_instead_of_minus_infinity(self):
        from lqconic import iqc_infimum

        cost = CostData(Q=[[1.0]], N=None, R=[[1.0]])
        spec = ProblemSpec(sys=StateSpace(A=[[math.nan]], B=[[1.0]]),
                           grid=TimeGrid(T=1.0, steps=10),
                           variant=GeneralIQC(cost=cost, x_i=[1.0]))
        with pytest.raises(ValidationError) as err:
            iqc_infimum(spec)
        assert [v.code for v in err.value.violations] == ["NonFinite"]


class TestEffectiveCost:
    def test_bounded_real_blocks(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=BoundedReal(gamma=2.0))
        cost = effective_cost(spec)
        assert cost.Q[0, 0] == pytest.approx(-1.0)
        assert cost.N[0, 0] == 0.0
        assert cost.R[0, 0] == pytest.approx(4.0)

    def test_positive_real_blocks(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=PositiveReal())
        cost = effective_cost(spec)
        assert cost.Q[0, 0] == 0.0
        assert cost.N[0, 0] == pytest.approx(0.5)
        assert cost.R[0, 0] == pytest.approx(1.0)

    def test_lqr_passthrough(self):
        spec = scalar_lqr_spec()
        cost = effective_cost(spec)
        assert cost.Q[0, 0] == 1.0 and cost.R[0, 0] == 1.0


class TestAssembleQuadform:
    def test_bounded_real_example(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=BoundedReal(gamma=2.0))
        qf = assemble_quadform(spec)
        np.testing.assert_allclose(qf.Qmat, [[-1.0, 0.0], [0.0, 4.0]])

    def test_positive_real_example(self):
        sys = StateSpace(A=[[-1.0]], B=[[1.0]], C=[[1.0]], D=[[1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=PositiveReal())
        qf = assemble_quadform(spec)
        np.testing.assert_allclose(qf.Qmat, [[0.0, 0.5], [0.5, 1.0]])

    def test_lqr_identity(self):
        qf = assemble_quadform(scalar_lqr_spec())
        np.testing.assert_allclose(qf.Qmat, np.eye(2))

    def test_r_block_not_pd_rejected(self):
        sys = StateSpace(A=[[0.0]], B=[[1.0]], C=[[1.0]], D=[[-1.0]])
        spec = ProblemSpec(sys=sys, grid=TimeGrid(T=1.0, steps=10),
                           variant=PositiveReal())
        with pytest.raises(ValidationError) as err:
            assemble_quadform(spec)
        assert any(v.code == "RNotPD" for v in err.value.violations)

    def test_output_symmetric(self):
        qf = assemble_quadform(scalar_lqr_spec())
        m = qf.Qmat
        np.testing.assert_allclose(m, m.T)


class TestStructuredOperators:
    def test_apply_e_identity(self):
        s = np.eye(3)
        np.testing.assert_allclose(apply_E(s, 2), np.eye(2))

    def test_apply_aop_zero_data(self):
        s = np.eye(2)
        out = apply_Aop(s, np.zeros((1, 1)), np.zeros((1, 1)))
        np.testing.assert_allclose(out, np.zeros((1, 1)))

    def test_apply_aop_scalar_hand_expansion(self):
        a, b = 0.7, -1.3
        sxx, sxu, suu = 2.0, 0.5, 1.0
        s = np.array([[sxx, sxu], [sxu, suu]])
        out = apply_Aop(s, np.array([[a]]), np.array([[b]]))
        assert out[0, 0] == pytest.approx(2.0 * (a * sxx + b * sxu))

    def test_apply_e_adj_embeds(self):
        y = np.array([[3.0]])
        out = apply_E_adj(y, 1)
        np.testing.assert_allclose(out, [[3.0, 0.0], [0.0, 0.0]])

    def test_apply_a_adj_zero_data(self):
        out = apply_A_adj(np.eye(1), np.zeros((1, 1)), np.zeros((1, 1)))
        np.testing.assert_allclose(out, np.zeros((2, 2)))

    def test_adjointness_e(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s = rng.standard_normal((4, 4))
            s = 0.5 * (s + s.T)
            y = rng.standard_normal((2, 2))
            y = 0.5 * (y + y.T)
            lhs = trace_inner(apply_E_adj(y, 2), s)
            rhs = trace_inner(y, apply_E(s, 2))
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

    def test_adjointness_a(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 1))
        for _ in range(50):
            s = rng.standard_normal((3, 3))
            s = 0.5 * (s + s.T)
            y = rng.standard_normal((2, 2))
            y = 0.5 * (y + y.T)
            lhs = trace_inner(apply_A_adj(y, a, b), s)
            rhs = trace_inner(y, apply_Aop(s, a, b))
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))

    def test_adjoint_output_symmetric(self):
        rng = np.random.default_rng(9)
        y = rng.standard_normal((3, 3))
        y = 0.5 * (y + y.T)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 2))
        out = apply_A_adj(y, a, b)
        np.testing.assert_allclose(out, out.T)
