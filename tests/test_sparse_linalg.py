import re
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from polyproj.bap import (
    RnnmConfig,
    classify_indices,
    generalized_jacobian,
    moreau_split,
    solve_rnnm,
)
from polyproj.factory import GenSpec, gen_bap_with_known_vertex, gen_lp
from polyproj.hlwb import HlwbConfig, solve_hlwb
from polyproj.lp import (
    SsepfState,
    _basis_zero_tol,
    _dual_feasibility_bap,
    classify_bases,
    initial_radius,
    scaled_subproblem,
)
from polyproj import sparse_linalg
from polyproj.sparse_linalg import (
    DENSE_FACTOR_MAX_DIM,
    InvalidSupportError,
    NotPositiveDefiniteError,
    SparseMatrix,
    _gather_columns,
    assemble_normal_matrix,
    cholesky_shifted,
    independent_columns,
)
from polyproj.serialize import read_matrix_market, write_matrix_market

from oracles import pair_normal_matrix


def rand_sparse(rng, m, n, density=0.3):
    mask = rng.random((m, n)) < density
    vals = rng.standard_normal((m, n)) * mask
    return SparseMatrix(vals)


def assert_canonical(M):
    """The invariants every SparseMatrix holds, however it was built."""
    csc = M.csc
    assert csc.dtype == np.float64
    for j in range(csc.shape[1]):
        idx = csc.indices[csc.indptr[j] : csc.indptr[j + 1]]
        assert np.all(np.diff(idx) > 0)  # sorted, no duplicates
    assert np.all(csc.data != 0.0)
    assert np.all(np.isfinite(csc.data))


class TestSparseMatrix:
    def test_construction_canonicalizes(self):
        A = SparseMatrix.from_coo(2, 2, [0, 0, 1], [0, 0, 1], [1.0, 2.0, 0.0])
        assert A.nnz == 1  # duplicates summed, explicit zero dropped
        assert A.toarray()[0, 0] == 3.0
        assert_canonical(A)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SparseMatrix(np.array([[np.nan, 1.0]]))

    def test_has_zero_column(self):
        A = SparseMatrix(np.array([[3.0, 0.0], [4.0, 0.0]]))
        assert A.has_zero_column()
        assert not SparseMatrix(np.eye(2)).has_zero_column()

    def test_cols_out_of_range(self):
        A = SparseMatrix(np.eye(3))
        with pytest.raises(InvalidSupportError):
            A.cols([3])

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_derived_matrices_canonical(self, seed, monkeypatch):
        # matrices derived from a validated one skip the checks, so they
        # must meet the invariants by construction
        rng = np.random.default_rng(seed)
        g = gen_bap_with_known_vertex(
            GenSpec(m=20, n=120, density=0.1, seed=seed, degeneracy="degenerate")
        )
        A = g.problem.A
        assert_canonical(A.cols(rng.permutation(A.ncols)[:40]))
        assert_canonical(A.cols([]))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14))
        for y in (np.zeros(g.problem.m), rng.standard_normal(g.problem.m), sol.y):
            sets = classify_indices(g.problem, moreau_split(g.problem, y)[2])
            V = generalized_jacobian(g.problem, sets)
            assert np.array_equal(V, V.T)
            with monkeypatch.context() as mp:  # the sparse regime
                mp.setattr(sparse_linalg, "DENSE_FACTOR_MAX_DIM", 0)
                assert_canonical(generalized_jacobian(g.problem, sets))
        for degeneracy in ("nondegenerate", "degenerate"):
            lp = gen_lp(GenSpec(m=6, n=20, density=0.4, seed=seed, degeneracy=degeneracy)).problem
            R = initial_radius(lp)
            sub = solve_rnnm(scaled_subproblem(lp, R), config=RnnmConfig(tol=1e-14))
            bases = classify_bases(sub.x, sub.z, _basis_zero_tol(sub.x, sub.z))
            state = SsepfState(R=R, w=sub.x, y=sub.y, z=sub.z, bases=bases)
            for pin_basic in (False, True):
                assert_canonical(_dual_feasibility_bap(lp, state, pin_basic)[0].A)


    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rmatvec_is_bit_identical_to_the_transpose_product(self, seed):
        rng = np.random.default_rng(seed)
        A = gen_bap_with_known_vertex(GenSpec(30, 300, 0.1, seed=seed)).problem.A
        for M in (A, A.cols(rng.choice(300, size=40, replace=False)), rand_sparse(rng, 9, 14)):
            for _ in range(3):
                y = rng.standard_normal(M.nrows)
                assert np.array_equal(M.rmatvec(y), M.csc.T @ y)

    @staticmethod
    def assert_products_match_scipy(M, x, y):
        """``matvec``/``rmatvec`` equal ``csc @ x``/``csc.T @ y`` to the byte."""
        for got, want in ((M.matvec(x), M.csc @ x), (M.rmatvec(y), M.csc.T @ y)):
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype == np.float64
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_products_are_bit_identical_for_either_index_width(self, index_dtype):
        rng = np.random.default_rng(4)
        csc = rand_sparse(rng, 17, 40).csc.copy()
        csc.indices = csc.indices.astype(index_dtype)
        csc.indptr = csc.indptr.astype(index_dtype)
        M = SparseMatrix._trusted(csc)
        assert M.csc.indices.dtype == M.csc.indptr.dtype == index_dtype
        for _ in range(3):
            self.assert_products_match_scipy(
                M, rng.standard_normal(40), rng.standard_normal(17)
            )

    def test_products_are_bit_identical_with_empty_rows_and_columns(self):
        rng = np.random.default_rng(5)
        dense = rng.standard_normal((9, 12)) * (rng.random((9, 12)) < 0.5)
        dense[[0, 4, 8], :] = 0.0
        dense[:, [0, 5, 11]] = 0.0
        M = SparseMatrix(dense)
        x, y = rng.standard_normal(12), rng.standard_normal(9)
        self.assert_products_match_scipy(M, x, y)
        assert not M.matvec(x)[[0, 4, 8]].any() and not M.rmatvec(y)[[0, 5, 11]].any()

    @pytest.mark.parametrize("dense", [np.zeros((4, 6)), np.array([[2.5]]), np.zeros((1, 1))],
                             ids=["nnz0", "1x1", "1x1-nnz0"])
    def test_products_are_bit_identical_on_tiny_matrices(self, dense):
        rng = np.random.default_rng(6)
        M = SparseMatrix(dense)
        self.assert_products_match_scipy(
            M, rng.standard_normal(M.ncols), rng.standard_normal(M.nrows)
        )

    def test_products_take_strided_and_integer_operands(self):
        rng = np.random.default_rng(7)
        M = rand_sparse(rng, 11, 30)
        x, y = rng.standard_normal(60)[::2], rng.standard_normal(33)[::3]
        assert not x.flags.c_contiguous and not y.flags.c_contiguous
        self.assert_products_match_scipy(M, x, y)
        self.assert_products_match_scipy(M, rng.integers(-9, 10, 30), rng.integers(-9, 10, 11))

    @pytest.mark.parametrize("method, length", [("matvec", 30), ("rmatvec", 11)])
    def test_products_reject_operands_of_the_wrong_shape(self, method, length):
        M = rand_sparse(np.random.default_rng(8), 11, 30)
        product = getattr(M, method)
        for bad in (np.ones(length - 1), np.ones(length + 1), np.ones((length, 1)),
                    np.ones((1, length)), np.float64(1.0)):
            with pytest.raises(ValueError, match=method):
                product(bad)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_gathered_columns_equal_the_sliced_array(self, seed):
        rng = np.random.default_rng(seed)
        A = rand_sparse(rng, 12, 40)
        for idx in (np.arange(40), np.sort(rng.choice(40, 15, replace=False)),
                    rng.permutation(40)[:9], np.empty(0, dtype=np.int64)):
            dense = _gather_columns(A.csc, idx)
            assert dense.flags.f_contiguous and dense.shape == (12, idx.size)
            assert np.array_equal(dense, A.cols(idx).toarray())


class TestAssembleNormalMatrix:
    def test_identity_case(self):
        A = SparseMatrix(np.eye(2))
        M = assemble_normal_matrix(A, np.ones(2), [0, 1])
        assert np.array_equal(M, np.eye(2))

    def test_hand_sum_of_outer_products(self):
        A = SparseMatrix(np.array([[1.0, 1.0]]))
        M = assemble_normal_matrix(A, np.ones(2), [0, 1])
        assert np.array_equal(M, np.array([[2.0]]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(42)
        A = rand_sparse(rng, 5, 8, 0.6)
        weights = rng.uniform(0.0, 1.0, 8)
        support = np.array([0, 2, 3, 7])
        M = assemble_normal_matrix(A, weights, support)
        D = A.toarray()
        w_full = np.zeros(8)
        w_full[support] = weights[support]
        expected = D @ np.diag(w_full) @ D.T
        assert np.allclose(M, expected, atol=1e-14)

    def test_bit_symmetry_and_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            m, n = rng.integers(2, 8), rng.integers(2, 12)
            A = rand_sparse(rng, m, n, 0.5)
            w = rng.uniform(0.0, 1.0, n)
            sup = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
            M = assemble_normal_matrix(A, w, sup)
            assert np.array_equal(M, M.T)
            evals = np.linalg.eigvalsh(M)
            norm = max(np.abs(evals).max(), 1e-300)
            assert evals.min() >= -1e-12 * norm

    def test_regimes_agree(self, monkeypatch):
        # dense and sparse assembly sum the same products in the same
        # order: bit-symmetric both and equal to the bit; the widest
        # support spans more than one gathered block
        rng = np.random.default_rng(21)
        for m, n, density in ((5, 12, 0.5), (40, 200, 0.1), (120, 600, 0.05), (6, 4500, 0.3)):
            A = rand_sparse(rng, m, n, density)
            w = rng.uniform(0.0, 1.0, n)
            sup = rng.permutation(n)[: max(1, 3 * n // 4)]
            dense = assemble_normal_matrix(A, w, sup)
            with monkeypatch.context() as mp:
                mp.setattr(sparse_linalg, "DENSE_FACTOR_MAX_DIM", 0)
                sparse = assemble_normal_matrix(A, w, sup).toarray()
            assert isinstance(dense, np.ndarray)
            assert np.array_equal(dense, dense.T)
            assert np.array_equal(sparse, sparse.T)
            assert np.array_equal(dense, sparse)

    @staticmethod
    def kernel_cases():
        """Seeded (A, w, support) cases for the dense assembly kernel.

        A grid of sizes and densities, a support wider than one block,
        then cases of index width, support order and weights.
        """
        rng = np.random.default_rng(2024)
        for m in (5, 50, 200):
            for density in (0.01, 0.03, 0.1, 0.3):
                n = 3 * m if density < 0.3 or m < 200 else 300
                A = rand_sparse(rng, m, n, density)
                if A.has_zero_column():  # give empty columns one entry
                    D = A.toarray()
                    empty = np.where(~D.any(axis=0))[0]
                    D[rng.integers(0, m, empty.size), empty] = rng.standard_normal(empty.size)
                    A = SparseMatrix(D)
                w = rng.uniform(0.0, 1.0, n)
                w[rng.choice(n, n // 10, replace=False)] = 0.0
                w[rng.choice(n, n // 10, replace=False)] = 1.0
                yield A, w, rng.permutation(n)[: max(1, 2 * n // 3)]
        # more support columns than one gathered block
        n = sparse_linalg._GATHER_COLS + 700
        A = rand_sparse(rng, 50, n, 0.02)
        D = A.toarray()
        empty = np.where(~D.any(axis=0))[0]
        D[rng.integers(0, 50, empty.size), empty] = 1.0 + rng.random(empty.size)
        yield SparseMatrix(D), rng.uniform(0.0, 1.0, n), rng.permutation(n)
        rng = np.random.default_rng(77)
        for index_dtype in (np.int32, np.int64):
            csc = rand_sparse(rng, 60, 150, 0.05).csc.copy()
            csc.indices = csc.indices.astype(index_dtype)
            csc.indptr = csc.indptr.astype(index_dtype)
            yield SparseMatrix._trusted(csc), rng.uniform(0.0, 1.0, 150), rng.permutation(150)
        # one entry per column, the support in descending order
        A = SparseMatrix.from_coo(80, 300, rng.integers(0, 80, 300), np.arange(300),
                                  rng.standard_normal(300))
        yield A, rng.uniform(0.0, 1.0, 300), np.arange(300)[::-1]
        # every weight zero, then half of them
        A = rand_sparse(rng, 40, 120, 0.2)
        yield A, np.zeros(120), np.arange(120)
        w = rng.uniform(0.0, 1.0, 120)
        w[::2] = 0.0
        yield A, w, rng.permutation(120)

    def test_pair_kernel_matches_the_bincount_oracle(self):
        # the compiled kernel sums each entry's products in the order
        # np.bincount does, over the whole support, both triangles at once
        for A, w, sup in self.kernel_cases():
            V = assemble_normal_matrix(A, w, sup)
            assert np.array_equal(V, pair_normal_matrix(A, w, sup))
            assert np.array_equal(V, V.T)
            assert V.flags.c_contiguous


    def test_empty_support_dense_zeros(self, monkeypatch):
        A = rand_sparse(np.random.default_rng(4), 7, 10)
        M = assemble_normal_matrix(A, np.ones(10), [])
        assert isinstance(M, np.ndarray)
        assert np.array_equal(M, np.zeros((7, 7)))
        monkeypatch.setattr(sparse_linalg, "DENSE_FACTOR_MAX_DIM", 0)  # the sparse regime
        M = assemble_normal_matrix(A, np.ones(10), [])
        assert isinstance(M, SparseMatrix) and M.shape == (7, 7) and M.nnz == 0
        assert_canonical(M)

    def test_invalid_support(self):
        A = SparseMatrix(np.eye(2))
        with pytest.raises(InvalidSupportError):
            assemble_normal_matrix(A, np.ones(2), [0, 2])
        with pytest.raises(InvalidSupportError):
            assemble_normal_matrix(A, np.ones(2), [0, 0])

    def test_weights_range_checked(self, monkeypatch):
        A = SparseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            assemble_normal_matrix(A, np.array([1.5, 0.5]), [0, 1])
        # a NaN weight fails the range test on both sides of the size
        # rule; it used to give a NaN V that was not even symmetric
        A = SparseMatrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 3.0]]))
        for dense_max in (DENSE_FACTOR_MAX_DIM, 0):
            with monkeypatch.context() as mp:
                mp.setattr(sparse_linalg, "DENSE_FACTOR_MAX_DIM", dense_max)
                with pytest.raises(ValueError, match=r"\[0, 1\]"):
                    assemble_normal_matrix(A, np.array([np.nan, 1.0, 1.0]), [0, 1, 2])


class TestCholeskyShifted:
    def test_scalar(self):
        M = SparseMatrix(np.array([[2.0]]))
        fac = cholesky_shifted(M, 1.0)
        assert np.allclose(fac.solve(np.array([3.0])), [1.0])

    def test_zero_matrix_small_shift(self):
        M = SparseMatrix(np.zeros((1, 1)))
        fac = cholesky_shifted(M, 1e-3)
        assert np.allclose(fac.solve(np.array([-1.0])), [-1000.0])

    def test_matches_dense_lu_oracle(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((20, 20))
        M = SparseMatrix(B @ B.T)
        shift = 0.5
        fac = cholesky_shifted(M, shift)
        rhs = rng.standard_normal(20)
        expected = np.linalg.solve(M.toarray() + shift * np.eye(20), rhs)
        assert np.linalg.norm(fac.solve(rhs) - expected) <= 1e-10 * (1 + np.linalg.norm(expected))

    def test_inverse_property_random_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            B = rng.standard_normal((n, n))
            M = B @ B.T + 1e-4 * np.eye(n)  # keeps cond well under 1e8
            fac = cholesky_shifted(SparseMatrix(M), 1e-6)
            r = rng.standard_normal(n)
            d = fac.solve(r)
            err = np.linalg.norm((M + 1e-6 * np.eye(n)) @ d - r)
            assert err <= 1e-12 * (1 + np.linalg.norm(r)) * np.linalg.cond(M)

    def test_sparse_path_matches_dense(self):
        rng = np.random.default_rng(3)
        n = DENSE_FACTOR_MAX_DIM + 20
        diag = np.arange(1.0, n + 1.0)
        off = 0.3 * np.ones(n - 1)
        M_dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        M = SparseMatrix(M_dense)
        fac = cholesky_shifted(M, 0.1)
        rhs = rng.standard_normal(n)
        expected = np.linalg.solve(M_dense + 0.1 * np.eye(n), rhs)
        assert np.linalg.norm(fac.solve(rhs) - expected) <= 1e-10 * (1 + np.linalg.norm(expected))

    def test_leaves_ndarray_input_unchanged(self):
        rng = np.random.default_rng(13)
        B = rng.standard_normal((30, 30))
        for M in (B @ B.T, np.asfortranarray(B @ B.T)):
            before = M.copy()
            fac = cholesky_shifted(M, 0.25)
            assert np.array_equal(M, before)
            rhs = rng.standard_normal(30)
            expected = np.linalg.solve(before + 0.25 * np.eye(30), rhs)
            err = np.linalg.norm(fac.solve(rhs) - expected)
            assert err <= 1e-10 * (1 + np.linalg.norm(expected))

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_path_is_bit_identical_to_cho_solve(self, seed):
        # PSD matrices of full rank and of rank n // 3 (singular, so the
        # shift alone makes them definite), against scipy's wrappers; the
        # shift must reach the diagonal of the private copy whatever the
        # input's layout (C is what assemble_normal_matrix returns), and
        # the input must stay as it was
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        for k in (n, max(1, n // 3)):
            B = rng.standard_normal((n, k))
            V = B @ B.T
            lam = 10.0 ** rng.uniform(-10, -2) * float(np.max(np.diagonal(V)))
            shifted = V.copy()
            shifted[np.diag_indices(n)] += lam
            oracle = scipy.linalg.cho_factor(shifted, lower=True)
            rhs = rng.standard_normal((3, n))
            for M in (V, np.asfortranarray(V)):
                before = M.copy()
                fac = cholesky_shifted(M, lam)
                assert np.array_equal(M, before)
                for r in rhs:
                    assert np.array_equal(fac.solve(r), scipy.linalg.cho_solve(oracle, r))
            assert V.flags.c_contiguous

    def test_dense_not_positive_definite_raises(self):
        with pytest.raises(NotPositiveDefiniteError, match="2-th leading minor"):
            cholesky_shifted(np.array([[1.0, 0.0], [0.0, -5.0]]), 1e-8)

    @pytest.mark.parametrize("M", [
        np.diag([2.0, np.inf, 2.0]),  # gave the finite, wrong [1/3, 0, 1/3]
        np.array([[2.0, 0.0, 0.0], [np.nan, 2.0, 0.0], [0.0, 0.0, 2.0]]),  # gave all NaN
    ])
    def test_dense_non_finite_factor_raises(self, M):
        with pytest.raises(NotPositiveDefiniteError, match="non-finite pivot"):
            cholesky_shifted(M, 1.0)

    def test_not_psd_raises(self):
        M = SparseMatrix(np.array([[1.0, 0.0], [0.0, -5.0]]))
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_shifted(M, 1e-8)

    def test_shift_must_be_positive(self):
        with pytest.raises(ValueError):
            cholesky_shifted(SparseMatrix(np.eye(2)), 0.0)


class TestIndependentColumns:
    def test_orthonormal_kept(self):
        A = SparseMatrix(np.eye(2))
        kept = independent_columns(A, [0, 1])
        assert set(kept) == {0, 1}

    def test_duplicate_scalar_columns(self):
        # columns (1,2), (2,4), (1,0): the duplicate pair collapses to
        # one representative; result must be a maximal independent set
        A = SparseMatrix(np.array([[1.0, 2.0, 1.0], [2.0, 4.0, 0.0]]))
        kept = independent_columns(A, [0, 1, 2])
        assert len(kept) == 2
        assert 2 in kept  # (1,0) is independent of the duplicated direction
        dense = A.toarray()
        assert np.linalg.matrix_rank(dense[:, kept]) == 2

    def test_zero_column(self):
        A = SparseMatrix.from_coo(2, 2, [0], [0], [1.0])
        assert independent_columns(A, [1]).size == 0

    def test_empty_candidates(self):
        A = SparseMatrix(np.eye(2))
        assert independent_columns(A, []).size == 0

    def test_maximal_and_independent_brute_force(self):
        rng = np.random.default_rng(23)
        for trial in range(25):
            m = int(rng.integers(2, 6))
            n = int(rng.integers(2, 10))
            base = rng.standard_normal((m, n))
            # inject exact dependencies
            for _ in range(rng.integers(0, 3)):
                i, j = rng.integers(0, n, 2)
                base[:, i] = rng.uniform(0.5, 2.0) * base[:, j]
            A = SparseMatrix(base)
            kept = independent_columns(A, np.arange(n))
            sub = base[:, kept]
            assert np.linalg.matrix_rank(sub, tol=1e-8) == len(kept)
            for j in range(n):
                if j in kept:
                    continue
                aug = np.column_stack([sub, base[:, j]])
                assert np.linalg.matrix_rank(aug, tol=1e-8) == len(kept)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        A = rand_sparse(rng, 4, 9, 0.7)
        first = independent_columns(A, np.arange(9))
        again = independent_columns(A, np.arange(9))
        assert np.array_equal(first, again)


def write_text(tmp_path, text):
    path = str(tmp_path / "m.mtx")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)
    return path


def assert_same_csc(got, want):
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.csc, name), getattr(want.csc, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


class TestMatrixMarket:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(101)
        dense = rand_sparse(rng, 7, 11, 0.4).toarray()
        rows, cols = np.nonzero(dense)
        A = SparseMatrix.from_coo(7, 11, rows, cols, dense[rows, cols])
        path = str(tmp_path / "a")  # written as named, no ".mtx" appended
        write_matrix_market(A, path)
        back = read_matrix_market(path)
        assert back.shape == A.shape
        assert_same_csc(back, A)  # int64 indices and bit-identical values

    def test_reads_legacy_text_bit_exact(self, tmp_path):
        # column-major, Python repr values, no comment line
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "3 2 4\n"
            "1 1 0.1\n"
            "3 1 -1.7976931348623157e+308\n"
            "2 2 5e-324\n"
            "3 2 0.3333333333333333\n"
        )
        A = read_matrix_market(write_text(tmp_path, text))
        want = SparseMatrix.from_coo(
            3, 2, [0, 2, 1, 2], [0, 0, 1, 1],
            [0.1, -1.7976931348623157e308, 5e-324, 1.0 / 3.0],
        )
        assert_same_csc(A, want)

    def test_symmetric_storage_expands(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 2.0\n2 1 3.0\n"
        A = read_matrix_market(write_text(tmp_path, text))
        assert np.array_equal(A.toarray(), np.array([[2.0, 3.0], [3.0, 0.0]]))

    def test_bad_header(self, tmp_path):
        for text in (
            "not a matrix\n",
            "%%MatrixMarket matrix array real general\n1 1\n2.0\n",
            "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n",
            "%%MatrixMarket matrix coordinate complex general\n2 2 1\n1 1 1.0 2.0\n",
            "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 1.0\n",
        ):
            path = write_text(tmp_path, text)
            with pytest.raises(ValueError, match=re.escape(path + ": ")):
                read_matrix_market(path)

    def test_missing_size_line(self, tmp_path):
        path = write_text(tmp_path, "%%MatrixMarket matrix coordinate real general\n%c\n")
        with pytest.raises(ValueError, match=re.escape(path + ": Line 3")):
            read_matrix_market(path)

    def test_short_size_line(self, tmp_path):
        path = write_text(tmp_path, "%%MatrixMarket matrix coordinate real general\n2 2\n")
        with pytest.raises(ValueError, match=re.escape(path + ": ")):
            read_matrix_market(path)

    def test_short_entry_line(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 2.0\n2 1\n"
        path = write_text(tmp_path, text)
        with pytest.raises(ValueError, match=re.escape(path + ": Line 4")):
            read_matrix_market(path)


def test_solves_transpose_the_matrix_at_most_once(monkeypatch):
    """A multi-step Newton solve and an HLWB solve each build A^T at most once."""
    g = gen_bap_with_known_vertex(GenSpec(50, 500, 0.05, seed=8))
    calls = []
    real = sp.csc_array.transpose

    def counting(self, *args, **kwargs):
        calls.append(self.shape)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(sp.csc_array, "transpose", counting)
    for solve, steps in ((solve_rnnm, "iterations"),
                         (lambda p: solve_hlwb(p, HlwbConfig(tol=1e-4)), "sweeps")):
        calls.clear()
        result = solve(g.problem)
        assert getattr(result, steps) > 1
        assert len(calls) <= 1, calls


def test_concurrent_first_rmatvec_calls_agree():
    """Threads taking A^T y of the same fresh matrices at once all get the exact product."""
    rng = np.random.default_rng(21)
    A = rand_sparse(rng, 15, 60)
    ys = rng.standard_normal((4, 15))
    want = [A.csc.T @ y for y in ys]
    rounds = 40
    barrier = threading.Barrier(len(ys))
    results = [[] for _ in ys]
    fresh = [SparseMatrix(A.csc) for _ in range(rounds)]

    def work(k):
        for M in fresh:
            barrier.wait(timeout=10)
            results[k].append(M.rmatvec(ys[k]))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(len(ys))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for k, got in enumerate(results):
        assert len(got) == rounds
        assert all(np.array_equal(g, want[k]) for g in got)
