"""Randomized invariant checks (hypothesis).

Each class states one structural law the library must satisfy for every
admissible input, not just the hand-picked cases of the unit files:
operator adjointness, Riccati sign and comparison laws, forced solutions
staying below the unforced one, weak duality and the alignment identity,
second-order residual decay, rank structure, serialization round trips,
non-finite data rejected as bad input.
"""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from lqconic.covariance import (Gain, alignment_residual,
                                closed_loop_simulate,
                                deterministic_covariance, descriptor_residual,
                                primal_objective)
from lqconic.analyzers import (bounded_real_test, dri_cloud, iqc_infimum,
                               passivity_test, solve_lqr, solve_stoch_lqr)
from lqconic.cli import main, parse_problem, write_trajectory_csv
from lqconic.dlmi import dual_objective
from lqconic.model import (CostData, LQR, ProblemSpec, StateSpace, TimeGrid,
                           ValidationError, apply_A_adj, apply_Aop, apply_E,
                           apply_E_adj, assemble_quadform)
from lqconic.riccati import MatTrajectory, solve_dre_final
from lqconic.symmat import eps_rank, trace_inner

QUICK = settings(max_examples=25, deadline=None)
SOLVER = settings(max_examples=12, deadline=None)

entry = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def draw_matrix(data, rows, cols, lo=-2.0, hi=2.0):
    vals = data.draw(st.lists(st.floats(lo, hi), min_size=rows * cols,
                              max_size=rows * cols))
    return np.array(vals).reshape(rows, cols)


# Fixed two-state oscillator used by the duality laws; the extremal dual
# trajectory is solved once at module load.
_SYS2 = StateSpace(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                   B=np.array([[0.0], [1.0]]))
_GRID2 = TimeGrid(T=1.0, steps=256)
_COST2 = CostData(Q=np.eye(2), N=None, R=np.eye(1))
_X0 = np.array([1.0, -0.5])
_SPEC2 = ProblemSpec(sys=_SYS2, grid=_GRID2,
                     variant=LQR(cost=_COST2, x_i=_X0))
_QF2 = assemble_quadform(_SPEC2)
_DRE2 = solve_dre_final(_SYS2, _COST2, np.zeros((2, 2)), _GRID2)
_DUAL2 = dual_objective(_DRE2.lam, X_i=np.outer(_X0, _X0))


class TestOperatorAdjointness:
    @QUICK
    @given(data=st.data())
    def test_dynamics_pair(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        a = draw_matrix(data, n, n, -3, 3)
        b = draw_matrix(data, n, m, -3, 3)
        s_raw = draw_matrix(data, n + m, n + m, -3, 3)
        s = (s_raw + s_raw.T) / 2
        y_raw = draw_matrix(data, n, n, -3, 3)
        y = (y_raw + y_raw.T) / 2
        lhs = trace_inner(apply_Aop(s, a, b), y)
        rhs = trace_inner(s, apply_A_adj(y, a, b))
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-10 * scale

    @QUICK
    @given(data=st.data())
    def test_embedding_pair(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 3))
        s_raw = draw_matrix(data, n + m, n + m, -3, 3)
        s = (s_raw + s_raw.T) / 2
        y_raw = draw_matrix(data, n, n, -3, 3)
        y = (y_raw + y_raw.T) / 2
        lhs = trace_inner(apply_E(s, n), y)
        rhs = trace_inner(s, apply_E_adj(y, m))
        scale = 1.0 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestRiccatiSignLaw:
    # PSD running cost: the final-boundary extremal is a value function,
    # nonnegative; the initial-boundary extremal is its mirror, nonpositive.
    @SOLVER
    @given(data=st.data())
    def test_final_boundary_psd(self, data):
        n = data.draw(st.integers(1, 3))
        m = data.draw(st.integers(1, 2))
        a = draw_matrix(data, n, n)
        b = draw_matrix(data, n, m)
        g = draw_matrix(data, n, n, -1, 1)
        cost = CostData(Q=g @ g.T, N=None, R=np.eye(m))
        grid = TimeGrid(T=1.0, steps=96)
        sol = solve_dre_final(StateSpace(A=a, B=b), cost,
                              np.zeros((n, n)), grid)
        assert not sol.escaped
        for node in sol.lam.values:
            assert np.linalg.eigvalsh(node).min() >= -1e-10


class TestCostMonotonicity:
    @SOLVER
    @given(q_low=st.floats(0.0, 3.0), dq=st.floats(0.0, 3.0),
           a=st.floats(-1.5, 1.5))
    def test_larger_state_cost_larger_dual(self, q_low, dq, a):
        sys_ = StateSpace(A=np.array([[a]]), B=np.array([[1.0]]))
        grid = TimeGrid(T=1.0, steps=96)
        lo = solve_dre_final(sys_, CostData(Q=np.array([[q_low]]), N=None,
                                            R=np.eye(1)),
                             np.zeros((1, 1)), grid)
        hi = solve_dre_final(sys_, CostData(Q=np.array([[q_low + dq]]),
                                            N=None, R=np.eye(1)),
                             np.zeros((1, 1)), grid)
        diff = hi.lam.values - lo.lam.values
        assert diff.min() >= -1e-10


class TestForcedSolutionsStayBelow:
    @SOLVER
    @given(a=st.floats(-1.0, 1.0), b=st.floats(0.3, 2.0),
           seed=st.integers(0, 10_000))
    def test_forced_below_extremal(self, a, b, seed):
        sys_ = StateSpace(A=np.array([[a]]), B=np.array([[b]]))
        cost = CostData(Q=np.eye(1), N=None, R=np.eye(1))
        grid = TimeGrid(T=1.0, steps=96)
        dre = solve_dre_final(sys_, cost, np.zeros((1, 1)), grid)
        spec = ProblemSpec(sys=sys_, grid=grid,
                           variant=LQR(cost=cost, x_i=[0.0]))
        sample = dri_cloud(spec, n_samples=1, switch_points=6,
                           seed=seed).samples[0]
        mask = sample.lam.valid_mask()
        gap = dre.lam.values[mask] - sample.lam.values[mask]
        assert gap.min() >= -1e-7


class TestWeakDuality:
    # Any stabilizing-or-not feedback produces a primal trajectory whose
    # cost sits above the extremal dual value, up to quadrature error.
    @QUICK
    @given(k1=entry, k2=entry)
    def test_primal_dominates_dual(self, k1, k2):
        gain = Gain(_GRID2, np.array([[k1, k2]]))
        x, u = closed_loop_simulate(_SYS2, gain, _X0, _GRID2)
        sigma = deterministic_covariance(x, u, _GRID2)
        primal = primal_objective(sigma, _QF2)
        assert primal >= _DUAL2 - 1e-4

    @QUICK
    @given(k1=entry, k2=entry)
    def test_alignment_equals_gap(self, k1, k2):
        gain = Gain(_GRID2, np.array([[k1, k2]]))
        x, u = closed_loop_simulate(_SYS2, gain, _X0, _GRID2)
        sigma = deterministic_covariance(x, u, _GRID2)
        primal = primal_objective(sigma, _QF2)
        align = alignment_residual(sigma, _DRE2.lam, _SYS2, _COST2, _QF2)
        assert align >= -1e-12
        assert abs(align - (primal - _DUAL2)) <= 1e-3


class TestCovarianceStructure:
    @QUICK
    @given(data=st.data())
    def test_rank_one_and_psd(self, data):
        steps = 16
        grid = TimeGrid(T=1.0, steps=steps)
        n = data.draw(st.integers(1, 2))
        m = data.draw(st.integers(1, 2))
        x = draw_matrix(data, steps + 1, n, -3, 3)
        u = draw_matrix(data, steps + 1, m, -3, 3)
        sigma = deterministic_covariance(x, u, grid)
        for node in sigma.values:
            scale = 1.0 + np.abs(node).max()
            assert np.linalg.eigvalsh(node).min() >= -1e-9 * scale
            assert eps_rank(node, tol=1e-9) <= 1


class TestDescriptorConvergence:
    @QUICK
    @given(a=st.floats(-2.0, 2.0), k=entry)
    def test_residual_is_second_order(self, a, k):
        sys_ = StateSpace(A=np.array([[a]]), B=np.array([[1.0]]))
        res = []
        for steps in (64, 128):
            grid = TimeGrid(T=1.0, steps=steps)
            gain = Gain(grid, np.array([[k]]))
            x, u = closed_loop_simulate(sys_, gain, np.array([1.0]), grid)
            sigma = deterministic_covariance(x, u, grid)
            res.append(descriptor_residual(sigma, sys_))
        # below 1e-12 on both grids the residual is at the noise floor;
        # otherwise halving the step must cut it about fourfold
        if max(res) > 1e-12:
            assert res[0] >= 3.0 * res[1]


class TestSerializationRoundTrip:
    @QUICK
    @given(vals=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                   width=64),
                         min_size=5, max_size=5))
    def test_csv_preserves_every_float(self, vals):
        grid = TimeGrid(T=1.0, steps=4)
        traj = MatTrajectory(grid, np.array(vals).reshape(5, 1, 1))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "traj.csv"
            write_trajectory_csv(path, traj)
            rows = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
        assert np.array_equal(rows.ravel(), np.array(vals))


class TestValueScaling:
    @SOLVER
    @given(x0=st.floats(0.1, 3.0), alpha=st.floats(0.1, 2.0),
           a=st.floats(-1.0, 1.0))
    def test_quadratic_in_initial_state(self, x0, alpha, a):
        sys_ = StateSpace(A=np.array([[a]]), B=np.array([[1.0]]))
        cost = CostData(Q=np.eye(1), N=None, R=np.eye(1))
        grid = TimeGrid(T=1.0, steps=96)
        lam = solve_dre_final(sys_, cost, np.zeros((1, 1)), grid).lam
        base = dual_objective(lam, X_i=np.outer(x0, x0))
        scaled = dual_objective(lam, X_i=np.outer(alpha * x0, alpha * x0))
        assert math.isclose(scaled, alpha ** 2 * base,
                            rel_tol=1e-12, abs_tol=1e-300)


# Well-posed two-state problem documents: per variant the CLI subcommand,
# the feedthrough D, the variant section and the analyzer call.
_SYSTEM_DOC = {"A": [[0.0, 1.0], [-1.0, -0.5]], "B": [[0.0], [1.0]],
               "C": [[1.0, 0.0]]}
_COST_DOC = {"Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]],
             "N": [[0.0], [0.0]]}
_VARIANT_DOCS = {
    "lqr": ("lqr", 1.0, dict(_COST_DOC, type="lqr", x_i=[1.0, 0.5]),
            solve_lqr),
    "stoch_lqr": ("slqr", 1.0, dict(_COST_DOC, type="stoch_lqr",
                                    X_i=[[1.0, 0.0], [0.0, 1.0]],
                                    W=[[0.5, 0.0], [0.0, 0.5]]),
                  solve_stoch_lqr),
    "general_iqc": ("iqc", 1.0, dict(_COST_DOC, type="general_iqc",
                                     x_i=[1.0, 0.5]),
                    iqc_infimum),
    "bounded_real": ("hinf", 0.0, {"type": "bounded_real", "gamma": 2.0},
                     lambda spec: bounded_real_test(
                         spec.sys, spec.variant.gamma, spec.grid.T,
                         steps=spec.grid.steps)),
    "positive_real": ("passivity", 1.0, {"type": "positive_real"},
                      lambda spec: passivity_test(spec.sys, spec.grid.T,
                                                  steps=spec.grid.steps)),
}
_NON_FINITE = {"NaN": math.nan, "Infinity": math.inf, "-Infinity": -math.inf}


class TestNonFiniteRejected:
    """A NaN or infinity anywhere in a coefficient or payload is bad input:
    exit 1 from the CLI (never a minus-infinity or not-passive verdict), and
    NonFinite from the Python API."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_any_entry_of_any_variant(self, data):
        name = data.draw(st.sampled_from(sorted(_VARIANT_DOCS)))
        command, d, vdoc, analyze = _VARIANT_DOCS[name]
        doc = {"schema_version": "1", "system": dict(_SYSTEM_DOC, D=[[d]]),
               "horizon": {"T": 1.0, "steps": 16}, "variant": dict(vdoc)}
        fields = [("system", k) for k in sorted(doc["system"])] + \
            [("variant", k) for k in sorted(vdoc) if k != "type"]
        section, key = data.draw(st.sampled_from(fields))
        literal = data.draw(st.sampled_from(sorted(_NON_FINITE)))
        value = np.array(doc[section][key], dtype=float)
        flat = value.reshape(-1)
        flat[data.draw(st.integers(0, flat.size - 1))] = _NON_FINITE[literal]
        doc[section][key] = value.tolist() if value.ndim else float(value)

        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "problem.json"
            path.write_text(json.dumps(doc))
            assert literal in path.read_text()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                rc = main([command, str(path), "--out", str(Path(tmp) / "r")])
        assert rc == 1, err.getvalue()

        spec, _ = parse_problem(doc)
        field = "cost" if key in _COST_DOC else section
        try:
            analyze(spec)
        except ValidationError as e:
            assert [(v.field, v.code) for v in e.violations] == \
                [(f"{field}.{key}", "NonFinite")]
        else:
            raise AssertionError(f"{name}: non-finite {section}.{key} "
                                 "accepted")
