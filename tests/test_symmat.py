"""Symmetric-matrix primitives: inner products, dual norms and their
maximizer, factorization, rank counting.

Ground truth throughout: numpy.linalg eigenvalue routines and hand-computed
small cases.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqconic import (
    NotPSDError,
    SymFactor,
    SymMat,
    eps_rank,
    nuclear_norm,
    sigma_max_norm,
    sym_factor,
    trace_duality_maximizer,
    trace_inner,
)


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


class TestSymMat:
    def test_upper_triangle_authoritative(self):
        m = SymMat([[1.0, 2.0], [99.0, 5.0]])
        assert m.mat[1, 0] == m.mat[0, 1] == 2.0

    def test_mirror_exact(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        m = SymMat(a)
        assert np.array_equal(m.mat, m.mat.T)

    def test_storage_read_only(self):
        m = SymMat(np.eye(3))
        with pytest.raises(ValueError):
            m.mat[0, 0] = 2.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SymMat(np.zeros((2, 3)))

    def test_array_protocol(self):
        m = SymMat([[2.0, 1.0], [1.0, 2.0]])
        assert np.allclose(np.asarray(m) @ np.eye(2), m.mat)


class TestTraceInner:
    def test_diagonal_product(self):
        assert trace_inner(np.diag([3.0, 1.0]), np.diag([1.0, 0.0])) == pytest.approx(3.0)

    def test_identity_pair(self):
        assert trace_inner(np.eye(2), np.eye(2)) == pytest.approx(2.0)

    def test_hand_sum(self):
        h = [[1.0, 2.0], [2.0, 1.0]]
        m = [[0.0, 1.0], [1.0, 0.0]]
        assert trace_inner(h, m) == pytest.approx(4.0)

    def test_symmetric_in_arguments(self):
        rng = np.random.default_rng(1)
        h, m = random_sym(rng, 5), random_sym(rng, 5)
        assert trace_inner(h, m) == pytest.approx(trace_inner(m, h), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            trace_inner(np.eye(2), np.eye(3))

    def test_accepts_symmat_instances(self):
        assert trace_inner(SymMat(np.eye(3)), SymMat(np.eye(3))) == pytest.approx(3.0)


class TestNorms:
    def test_signed_diagonal(self):
        m = np.diag([3.0, -1.0])
        assert nuclear_norm(m) == pytest.approx(4.0)
        assert sigma_max_norm(m) == pytest.approx(3.0)

    def test_zero(self):
        z = np.zeros((2, 2))
        assert nuclear_norm(z) == 0.0
        assert sigma_max_norm(z) == 0.0

    def test_identity(self):
        assert nuclear_norm(np.eye(3)) == pytest.approx(3.0)
        assert sigma_max_norm(np.eye(3)) == pytest.approx(1.0)

    def test_against_svd(self):
        rng = np.random.default_rng(2)
        m = random_sym(rng, 7)
        sv = np.linalg.svd(m, compute_uv=False)
        assert nuclear_norm(m) == pytest.approx(sv.sum(), rel=1e-12)
        assert sigma_max_norm(m) == pytest.approx(sv[0], rel=1e-12)


class TestTraceDualityMaximizer:
    def test_top_eigenvector(self):
        m = trace_duality_maximizer(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(np.asarray(m), np.diag([1.0, 0.0]), atol=1e-12)
        assert trace_inner(np.diag([3.0, 1.0]), m) == pytest.approx(3.0)

    def test_signed_construction(self):
        h = np.diag([-5.0, 2.0])
        m = trace_duality_maximizer(h)
        np.testing.assert_allclose(np.asarray(m), np.diag([-1.0, 0.0]), atol=1e-12)
        assert trace_inner(h, m) == pytest.approx(5.0)

    def test_tightness_random(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            h = random_sym(rng, 4)
            m = trace_duality_maximizer(h)
            assert nuclear_norm(m) == pytest.approx(1.0, abs=1e-10)
            assert trace_inner(h, m) == pytest.approx(sigma_max_norm(h), abs=1e-10)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            trace_duality_maximizer(np.zeros((3, 3)))


class TestSymFactor:
    def test_rank_one_diagonal(self):
        f = sym_factor(np.diag([4.0, 0.0]))
        assert f.r == 1
        np.testing.assert_allclose(np.abs(f.U), [[2.0], [0.0]], atol=1e-12)

    def test_identity_full_rank(self):
        f = sym_factor(np.eye(2))
        assert f.r == 2
        np.testing.assert_allclose(f.reconstruct(), np.eye(2), atol=1e-12)

    def test_outer_product(self):
        z = np.array([1.0, 2.0, 3.0])
        f = sym_factor(np.outer(z, z))
        assert f.r == 1
        u = f.U[:, 0]
        assert np.allclose(u, z, atol=1e-10) or np.allclose(u, -z, atol=1e-10)

    def test_indefinite_rejected(self):
        with pytest.raises(NotPSDError):
            sym_factor(np.diag([1.0, -1.0]))

    def test_small_negative_within_tol_ok(self):
        f = sym_factor(np.diag([1.0, -1e-13]), tol=1e-9)
        assert f.r == 1

    def test_round_trip_random(self):
        rng = np.random.default_rng(4)
        for n in (1, 3, 6):
            a = rng.standard_normal((n, n + 1))
            m = a @ a.T
            f = sym_factor(m)
            scale = 1.0 + np.abs(m).max()
            assert np.max(np.abs(f.reconstruct() - m)) <= 1e-9 * n * scale

    def test_reconstruct_matches_dataclass(self):
        f = SymFactor(n=2, r=1, U=np.array([[2.0], [0.0]]))
        np.testing.assert_allclose(f.reconstruct(), np.diag([4.0, 0.0]))


class TestEpsRank:
    def test_near_zero_eigenvalue_dropped(self):
        assert eps_rank(np.diag([1.0, 1e-14]), tol=1e-9) == 1

    def test_zero_matrix(self):
        assert eps_rank(np.zeros((3, 3))) == 0

    def test_two_independent_outer_products(self):
        z = np.array([1.0, 0.0, 2.0])
        w = np.array([0.0, 1.0, -1.0])
        assert eps_rank(np.outer(z, z) + np.outer(w, w)) == 2

    def test_relative_threshold(self):
        # both eigenvalues huge: neither is dropped by the relative cut
        assert eps_rank(np.diag([1e12, 1e4]), tol=1e-9) == 2


sym3 = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False),
    min_size=6, max_size=6,
)


def unpack_sym3(vals):
    a, b, c, d, e, f = vals
    return np.array([[a, b, c], [b, d, e], [c, e, f]])


class TestTraceDualityProperties:
    @given(sym3, sym3)
    @settings(max_examples=100, deadline=None)
    def test_holder_inequality(self, hv, mv):
        h, m = unpack_sym3(hv), unpack_sym3(mv)
        assert trace_inner(h, m) <= sigma_max_norm(h) * nuclear_norm(m) + 1e-10

    @given(sym3)
    @settings(max_examples=100, deadline=None)
    def test_tightness(self, hv):
        h = unpack_sym3(hv)
        if sigma_max_norm(h) < 1e-8:
            return
        m = trace_duality_maximizer(h)
        assert abs(trace_inner(h, m) - sigma_max_norm(h)) <= 1e-10 * (
            1.0 + sigma_max_norm(h))
