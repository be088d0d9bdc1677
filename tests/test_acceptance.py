"""Acceptance gate: ten top-level correctness criteria, one test function
each, so a verbose pytest run prints exactly one pass or fail line per
criterion.

Reference values come from closed-form solutions and from the independent
dense-algebra oracles in oracles.py; nothing here reuses solver internals
to check the solver.
"""

import math
import time

import numpy as np

from lqconic.analyzers import (bounded_real_test, dri_cloud,
                               hinf_norm_bisection, passivity_test,
                               scalar_preset, solve_lqr, solve_stoch_lqr)
from lqconic.covariance import (Gain, closed_loop_simulate,
                                deterministic_covariance, descriptor_residual,
                                monte_carlo_cost, primal_objective)
from lqconic.dlmi import assemble_M, extremal_factorization, lure_residuals
from lqconic.model import (CostData, LQR, ProblemSpec, StateSpace, StochLQR,
                           TimeGrid, apply_A_adj, apply_Aop, apply_E,
                           apply_E_adj, assemble_quadform, effective_cost)
from lqconic.riccati import solve_dre_final, solve_lyapunov_final
from lqconic.symmat import (eps_rank, nuclear_norm, sigma_max_norm,
                            trace_duality_maximizer, trace_inner)
from oracles import convolution_norm, passivity_form_min_eig, zoh_qp_value

TANH1 = math.tanh(1.0)
LNCOSH1 = math.log(math.cosh(1.0))


def random_regulator(rng, n_max=3, m_max=2, q_shift=0.0):
    n = int(rng.integers(1, n_max + 1))
    m = int(rng.integers(1, m_max + 1))
    a = rng.uniform(-2, 2, (n, n))
    b = rng.uniform(-2, 2, (n, m))
    g = rng.uniform(-1, 1, (n, n))
    q = g @ g.T + q_shift * np.eye(n)
    h = rng.uniform(-1, 1, (m, m))
    r = h @ h.T + 0.5 * np.eye(m)
    x0 = rng.uniform(0.5, 2.0, n) * rng.choice([-1.0, 1.0], n)
    return StateSpace(A=a, B=b), CostData(Q=q, N=None, R=r), x0


def dre_rhs(lam, a, b, q, nmat, r):
    s = nmat + lam @ b
    return -(q + a.T @ lam + lam @ a - s @ np.linalg.solve(r, s.T))


def test_criterion_01_forced_cloud_maximality():
    # Four scalar sign presets, 100 forced samples each at 512 steps: the
    # unforced extremal dominates every sample at every shared node, with
    # the mixed-sign presets escaping in finite time. Budget: 5 seconds.
    t0 = time.perf_counter()
    escaping = {(1, -1), (-1, 1)}
    for q_sign in (1, -1):
        for m_sign in (1, -1):
            spec = scalar_preset(q_sign, m_sign, T=2.0, steps=512)
            report = dri_cloud(spec, n_samples=100, switch_points=10, seed=0)
            assert report.maximal is True
            assert report.worst_margin >= -1e-7
            assert report.dre.escaped == ((q_sign, m_sign) in escaping)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_closed_form_and_escape_time():
    sys1 = StateSpace(A=np.array([[0.0]]), B=np.array([[1.0]]))
    cost = CostData(Q=np.eye(1), N=None, R=np.eye(1))
    grid = TimeGrid(T=1.0, steps=512)
    sol = solve_dre_final(sys1, cost, np.zeros((1, 1)), grid)
    exact = np.tanh(1.0 - grid.times())
    assert np.max(np.abs(sol.lam.values[:, 0, 0] - exact)) <= 1e-8

    spec = scalar_preset(-1, 1, T=2.0, steps=512)
    esc = solve_dre_final(spec.sys, effective_cost(spec),
                          np.zeros((1, 1)), spec.grid)
    assert esc.escaped
    assert abs(esc.escape_time - (2.0 - math.pi / 2)) <= 2 * spec.grid.h


def test_criterion_03_zero_duality_gap():
    rng = np.random.default_rng(42)
    for _ in range(20):
        sysm, cost, x0 = random_regulator(rng)
        variant = LQR(cost=cost, x_i=x0)
        coarse = solve_lqr(ProblemSpec(sys=sysm, grid=TimeGrid(T=1.0, steps=200),
                                       variant=variant))
        fine = solve_lqr(ProblemSpec(sys=sysm, grid=TimeGrid(T=1.0, steps=400),
                                     variant=variant))
        bound = max(1e-6, 1e-3 * abs(coarse.optimal_value))
        assert abs(coarse.primal_value - coarse.optimal_value) <= bound
        # quadrature converges at second order, so doubling the node count
        # shrinks the gap about 4x; skip the ratio when it is already at
        # rounding level
        if fine.duality_gap > 1e-12 * (1.0 + abs(fine.optimal_value)):
            assert coarse.duality_gap / fine.duality_gap >= 3.9


def test_criterion_04_dense_qp_oracle():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sysm, cost, x0 = random_regulator(rng, q_shift=0.25)
        spec = ProblemSpec(sys=sysm, grid=TimeGrid(T=1.0, steps=50),
                           variant=LQR(cost=cost, x_i=x0))
        cert = solve_lqr(spec)
        reference = zoh_qp_value(sysm.A, sysm.B, cost.Q, np.zeros_like(sysm.B),
                                 cost.R, x0, T=1.0, steps=50)
        assert abs(cert.optimal_value - reference) <= 0.01 * abs(reference)


def test_criterion_05_loewner_comparison():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        a = rng.uniform(-2, 2, (n, n))
        b = rng.uniform(-2, 2, (n, m))
        g2 = rng.uniform(-1, 1, (n, n))
        q2 = g2 @ g2.T
        bump = rng.uniform(-1, 1, (n, n))
        q1 = q2 + bump @ bump.T
        h = rng.uniform(-1, 1, (m, m))
        r = h @ h.T + 0.5 * np.eye(m)
        f = rng.uniform(-1, 1, (n, n))
        lam_f = f @ f.T
        sysm = StateSpace(A=a, B=b)
        grid = TimeGrid(T=1.0, steps=128)
        hi = solve_dre_final(sysm, CostData(Q=q1, N=None, R=r), lam_f, grid)
        lo = solve_dre_final(sysm, CostData(Q=q2, N=None, R=r), lam_f, grid)
        assert not hi.escaped and not lo.escaped
        diff = hi.lam.values - lo.lam.values
        for node in diff:
            assert np.linalg.eigvalsh(node).min() >= -1e-8


def test_criterion_06_rank_and_factorization_law():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(8):
        sysm, cost, _ = random_regulator(rng)
        cases.append((sysm, cost))
    # cross-weighted case, kept cost-positive so the extremal stays bounded
    nmat = np.array([[0.3], [-0.2]])
    cases.append((StateSpace(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                             B=np.array([[0.0], [1.0]])),
                  CostData(Q=nmat @ nmat.T + 0.5 * np.eye(2), N=nmat,
                           R=np.eye(1))))
    for sysm, cost in cases:
        n, m = sysm.n, sysm.m
        grid = TimeGrid(T=1.0, steps=128)
        sol = solve_dre_final(sysm, cost, np.zeros((n, n)), grid)
        assert not sol.escaped
        qf = assemble_quadform(ProblemSpec(sys=sysm, grid=grid,
                                           variant=LQR(cost=cost,
                                                       x_i=np.zeros(n))))
        nm = cost.N if cost.N is not None else np.zeros((n, m))
        for k, t in enumerate(grid.times()):
            lam = sol.lam.node(k)
            ld = dre_rhs(lam, sysm.A, sysm.B, cost.Q, nm, cost.R)
            big_m = assemble_M(lam, ld, sysm, qf, t)
            assert eps_rank(big_m) == m
            fac = extremal_factorization(lam, sysm, cost, t, lambda_dot=ld)
            u = fac.U
            scale = 1.0 + float(np.max(np.abs(big_m)))
            assert np.max(np.abs(u @ u.T - big_m)) <= 1e-8 * scale
            r1, r2, r3 = lure_residuals(lam, ld, u[:n], u[n:], sysm, cost, t)
            assert max(r1, r2, r3) <= 1e-8


def test_criterion_07_bounded_real_norm():
    sysm = StateSpace(A=np.array([[-1.0]]), B=np.array([[1.0]]),
                      C=np.array([[1.0]]))
    res = hinf_norm_bisection(sysm, T=10.0, steps=512, tol=1e-4)
    reference = convolution_norm(sysm.A, sysm.B, sysm.C, T=10.0, steps=800)
    assert abs(res.gamma_star - reference) <= 0.02 * reference

    lo, hi = res.bracket
    ok_hi, cert_hi = bounded_real_test(sysm, hi, T=10.0, steps=512)
    ok_lo, cert_lo = bounded_real_test(sysm, lo, T=10.0, steps=512)
    assert ok_hi is True and ok_lo is False
    assert cert_lo.minus_infinity
    assert cert_hi.lam_max_eig <= 1e-9


def test_criterion_08_passivity():
    good = StateSpace(A=np.array([[-1.0]]), B=np.array([[1.0]]),
                      C=np.array([[1.0]]), D=np.array([[1.0]]))
    bad = StateSpace(A=np.array([[-1.0]]), B=np.array([[1.0]]),
                     C=np.array([[-5.0]]), D=np.array([[0.01]]))
    passive_good, cert_good = passivity_test(good, T=10.0, steps=512)
    passive_bad, cert_bad = passivity_test(bad, T=10.0, steps=512)
    assert passive_good is True
    assert cert_good.lam_max_eig <= 1e-9
    assert passive_bad is False
    assert cert_bad.minus_infinity
    assert cert_bad.escape_time is not None

    for sysm, verdict in ((good, passive_good), (bad, passive_bad)):
        min_eig, scale = passivity_form_min_eig(
            sysm.A[0, 0], sysm.B[0, 0], sysm.C[0, 0], sysm.D[0, 0],
            T=10.0, steps=400)
        assert (min_eig >= -1e-8 * scale) == verdict


def test_criterion_09_stochastic_consistency():
    sys1 = StateSpace(A=np.array([[0.0]]), B=np.array([[1.0]]))
    cost = CostData(Q=np.eye(1), N=None, R=np.eye(1))
    grid = TimeGrid(T=1.0, steps=512)
    spec = ProblemSpec(sys=sys1, grid=grid,
                       variant=StochLQR(cost=cost, X_i=np.zeros((1, 1)),
                                        W=np.eye(1)))
    cert = solve_stoch_lqr(spec)
    assert abs(cert.optimal_value - LNCOSH1) <= 1e-6

    mean, stderr = monte_carlo_cost(sys1, cert.gain, cost, np.eye(1),
                                    np.zeros((1, 1)), grid,
                                    n_paths=10_000, seed=123)
    assert abs(mean - cert.optimal_value) <= 4.0 * stderr

    det = solve_lqr(ProblemSpec(sys=sys1, grid=grid,
                                variant=LQR(cost=cost, x_i=np.ones(1))))
    assert np.max(np.abs(cert.gain.K - det.gain.K)) <= 1e-12


def test_criterion_10_invariant_sweeps_under_budget():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)

    # adjointness of the structured operators
    for _ in range(200):
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        a = rng.uniform(-3, 3, (n, n))
        b = rng.uniform(-3, 3, (n, m))
        s = rng.uniform(-3, 3, (n + m, n + m))
        s = (s + s.T) / 2
        y = rng.uniform(-3, 3, (n, n))
        y = (y + y.T) / 2
        lhs = trace_inner(apply_Aop(s, a, b), y)
        rhs = trace_inner(s, apply_A_adj(y, a, b))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))
        lhs = trace_inner(apply_E(s, n), y)
        rhs = trace_inner(s, apply_E_adj(y, m))
        assert abs(lhs - rhs) <= 1e-10 * (1 + abs(lhs))

    # trace-duality tightness and the norm inequality
    for _ in range(200):
        n = int(rng.integers(1, 5))
        mmat = rng.uniform(-3, 3, (n, n))
        mmat = (mmat + mmat.T) / 2
        hmat = rng.uniform(-3, 3, (n, n))
        hmat = (hmat + hmat.T) / 2
        top = sigma_max_norm(hmat)
        if top > 1e-12:
            best = trace_duality_maximizer(hmat)
            assert nuclear_norm(best) <= 1.0 + 1e-10
            assert abs(trace_inner(best, hmat) - top) <= 1e-10 * (1 + top)
        holder = top * nuclear_norm(mmat)
        assert abs(trace_inner(hmat, mmat)) <= holder + 1e-10

    # Lyapunov sign law: PSD data propagates backward as PSD
    for _ in range(30):
        n = int(rng.integers(1, 4))
        f = rng.uniform(-2, 2, (n, n))
        g = rng.uniform(-1, 1, (n, n))
        k = rng.uniform(-1, 1, (n, n))
        sol = solve_lyapunov_final(f, g @ g.T, k @ k.T,
                                   TimeGrid(T=1.0, steps=64))
        for node in sol.values:
            assert np.linalg.eigvalsh(node).min() >= -1e-10

    # weak duality for arbitrary constant feedback
    sys2 = StateSpace(A=np.array([[0.0, 1.0], [-1.0, -0.5]]),
                      B=np.array([[0.0], [1.0]]))
    grid2 = TimeGrid(T=1.0, steps=256)
    cost2 = CostData(Q=np.eye(2), N=None, R=np.eye(1))
    x02 = np.array([1.0, -0.5])
    spec2 = ProblemSpec(sys=sys2, grid=grid2, variant=LQR(cost=cost2, x_i=x02))
    qf2 = assemble_quadform(spec2)
    dual2 = solve_lqr(spec2).optimal_value
    for _ in range(30):
        gain = Gain(grid2, rng.uniform(-3, 3, (1, 2)))
        x, u = closed_loop_simulate(sys2, gain, x02, grid2)
        sigma = deterministic_covariance(x, u, grid2)
        assert primal_objective(sigma, qf2) >= dual2 - 1e-4

    # descriptor residual decays at second order
    for _ in range(10):
        a = float(rng.uniform(-2, 2))
        kv = float(rng.uniform(-3, 3))
        sys1 = StateSpace(A=np.array([[a]]), B=np.array([[1.0]]))
        res = []
        for steps in (64, 128):
            g = TimeGrid(T=1.0, steps=steps)
            gain = Gain(g, np.array([[kv]]))
            x, u = closed_loop_simulate(sys1, gain, np.array([1.0]), g)
            res.append(descriptor_residual(deterministic_covariance(x, u, g),
                                           sys1))
        if res[1] > 1e-12:
            assert res[0] / res[1] >= 3.0
        else:
            assert res[0] <= 1e-12

    # deterministic second moments never exceed rank one
    for _ in range(30):
        n = int(rng.integers(1, 3))
        m = int(rng.integers(1, 3))
        g = TimeGrid(T=1.0, steps=16)
        x = rng.uniform(-3, 3, (17, n))
        u = rng.uniform(-3, 3, (17, m))
        sigma = deterministic_covariance(x, u, g)
        for node in sigma.values:
            assert eps_rank(node, tol=1e-9) <= 1

    assert time.perf_counter() - t0 < 60.0
