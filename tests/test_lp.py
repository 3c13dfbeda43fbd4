import dataclasses
import math
import os
import threading

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import polyproj.lp as lp_mod
from polyproj.bap import RnnmConfig, solve_rnnm
from polyproj.factory import GenSpec, gen_lp
from polyproj.lp import (
    BasisPartition,
    InconsistentCertificateError,
    LpConfig,
    LpProblem,
    SensitivityFailureError,
    SsepfState,
    classify_bases,
    initial_radius,
    lp_bounds,
    next_stone,
    ratio_test,
    scaled_subproblem,
    solve_lp,
    _basis_dual,
    _basis_zero_tol,
    _dual_feasibility_bap,
    _factor_basis,
)
from polyproj.mps import parse_mps, to_standard_form
from polyproj.sparse_linalg import SparseMatrix, _dense_normal_matrix

from oracles import highs_optimum


def tiny_lp():
    A = SparseMatrix(np.array([[1.0, 1.0]]))
    return LpProblem(A, np.array([1.0]), np.array([1.0, 0.0]))


def state_at(problem, R):
    sol = solve_rnnm(scaled_subproblem(problem, R), config=RnnmConfig(tol=1e-14))
    bases = classify_bases(sol.x, sol.z, _basis_zero_tol(sol.x, sol.z))
    return SsepfState(R=R, w=sol.x, y=sol.y, z=sol.z, bases=bases)


def bound_calls(monkeypatch, problem):
    """Run ``solve_lp`` and return it with ``(state, pin_basic)`` per
    call it makes to ``lp_bounds``."""
    real = lp_mod.lp_bounds
    calls = []

    def spy(problem, state, pin_basic=False):
        calls.append((state, pin_basic))
        return real(problem, state, pin_basic)

    with monkeypatch.context() as mp:
        mp.setattr(lp_mod, "lp_bounds", spy)
        res = solve_lp(problem)
    return res, calls


def count_projections(monkeypatch):
    """Count the ``solve_rnnm`` calls made through the lp module from
    here until ``monkeypatch`` is undone."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return solve_rnnm(*args, **kwargs)

    monkeypatch.setattr(lp_mod, "solve_rnnm", counting)
    return calls


class TestInitialRadius:
    def test_formula(self):
        A = SparseMatrix(np.ones((4, 9)))
        b = np.zeros(4)
        b[0] = 2.0
        problem = LpProblem(A, b, np.concatenate([[1.0], np.zeros(8)]))
        # sqrt(36) * 2 / (1 + 1) = 6
        assert initial_radius(problem) == pytest.approx(6.0)

    def test_cap_at_50(self):
        A = SparseMatrix(np.ones((4, 9)))
        problem = LpProblem(A, 1e6 * np.ones(4), np.ones(9))
        assert initial_radius(problem) == 50.0

    def test_zero_rhs_floor(self):
        A = SparseMatrix(np.ones((2, 4)))
        problem = LpProblem(A, np.zeros(2), np.ones(4))
        assert initial_radius(problem) == 1.0


class TestScaledSubproblem:
    def test_unit_radius(self):
        lp = tiny_lp()
        sub = scaled_subproblem(lp, 1.0)
        assert np.array_equal(sub.v, lp.c)
        assert np.array_equal(sub.b, lp.b)

    def test_solution_scales_back(self):
        lp = tiny_lp()
        sub = scaled_subproblem(lp, 4.0)
        sol = solve_rnnm(sub, config=RnnmConfig(tol=1e-14))
        assert np.allclose(sol.x, [0.25, 0.0], atol=1e-12)
        assert np.allclose(4.0 * sol.x, [1.0, 0.0], atol=1e-11)

    def test_doubling_radius_halves_rhs(self):
        lp = tiny_lp()
        assert np.array_equal(scaled_subproblem(lp, 2.0).b * 2.0, scaled_subproblem(lp, 1.0).b)

    def test_positive_radius_required(self):
        with pytest.raises(ValueError):
            scaled_subproblem(tiny_lp(), 0.0)


class TestClassifyBases:
    def test_simple_partition(self):
        bases = classify_bases(np.array([0.5, 0.0]), np.array([0.0, 2.0]), 1e-11)
        assert list(bases.B) == [0]
        assert list(bases.N) == [1]
        assert bases.Z.size == 0

    def test_zero_set(self):
        bases = classify_bases(np.array([0.0, 0.0]), np.array([0.0, 1.0]), 1e-11)
        assert list(bases.Z) == [0]
        assert list(bases.N) == [1]

    def test_partition_covers_everything(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            w = np.where(rng.random(n) < 0.5, np.abs(rng.standard_normal(n)), 0.0)
            z = np.where(w == 0.0, np.abs(rng.standard_normal(n)), 0.0)
            bases = classify_bases(w, z, 1e-11)
            merged = np.sort(np.concatenate([bases.B, bases.N, bases.Z]))
            assert np.array_equal(merged, np.arange(n))

    def test_overlap_rejected(self):
        with pytest.raises(InconsistentCertificateError):
            classify_bases(np.array([1.0]), np.array([1.0]), 1e-11)


class TestRatioTest:
    def test_hand_example(self):
        e = np.array([1.0, -1.0, 2.0])
        f = np.array([3.0, -2.0, 1.0])
        assert ratio_test(e, f, np.ones(3)) == pytest.approx(0.5)

    def test_empty_is_infinite(self):
        assert math.isinf(ratio_test(np.array([-1.0]), np.array([1.0]), np.ones(1)))
        assert math.isinf(ratio_test(np.zeros(0), np.zeros(0), np.zeros(0)))

    def test_cancellation_floor(self):
        # e_0 = 1e-10 sits below 1e-9 times its summand scale of one
        e = np.array([1e-10, -2.0])
        f = np.array([1.0, 1.0])
        assert math.isinf(ratio_test(e, f, np.ones(2)))
        assert ratio_test(e, f, np.full(2, 1e-3)) == pytest.approx(1e10)


class TestNextStone:
    def test_stone_brackets_basis_change(self):
        gl = gen_lp(GenSpec(m=3, n=9, density=0.5, seed=5))
        lp = gl.problem
        R = initial_radius(lp)
        st = state_at(lp, R)
        step = next_stone(lp, st)
        assert math.isfinite(step.R_n)
        before = state_at(lp, step.R_n * (1 - 1e-4))
        after = state_at(lp, step.R_n * (1 + 1e-4))
        assert np.array_equal(before.bases.B, st.bases.B)
        assert np.array_equal(before.bases.N, st.bases.N)
        changed = not np.array_equal(after.bases.B, st.bases.B) or not np.array_equal(
            after.bases.N, st.bases.N
        )
        assert changed

    def test_infinite_at_final_basis(self):
        gl = gen_lp(GenSpec(m=4, n=10, density=0.5, seed=8))
        lp = gl.problem
        # far beyond any stone the partition is final
        st = state_at(lp, 1e6)
        step = next_stone(lp, st)
        assert math.isinf(step.R_n)

    def test_min_norm_step_with_strict_complement_failure(self):
        # |B| = 2 < m = 4 and Z = {2}: A_B A_B^T d = b leaves d free on the
        # 2-dimensional null(A_B^T), A_Z^T d = 0 removes one direction, and
        # the step is the min-norm d left; the reference forms it from an
        # orthonormal basis V_Z of null(A_Z^T) as V_Z pinv(A_B A_B^T V_Z) b
        rng = np.random.default_rng(1301)
        A_dense = rng.standard_normal((4, 7))
        B, Z, N = np.array([0, 1]), np.array([2]), np.array([3, 4, 5, 6])
        R = 2.0
        w = np.zeros(7)
        w[B] = [0.7, 1.3]
        z = np.zeros(7)
        z[N] = [0.4, 0.9, 1.1, 0.6]
        b = R * A_dense[:, B] @ w[B]
        lp = LpProblem(SparseMatrix(A_dense), b, rng.standard_normal(7))
        state = SsepfState(
            R=R, w=w, y=rng.standard_normal(4), z=z, bases=BasisPartition(B, N, Z)
        )
        step = next_stone(lp, state)

        AB, AN = A_dense[:, B], A_dense[:, N]
        Vz = scipy.linalg.null_space(A_dense[:, Z].T)
        d = Vz @ (np.linalg.pinv(AB @ AB.T @ Vz) @ b)
        bB, bN = AB.T @ d, AN.T @ d
        e = np.concatenate([bB - R * w[B], -(bN + R * z[N])])
        f = np.concatenate([R * bB, -R * bN])
        eligible = (e > 0) & (f > 0)
        assert eligible.any()
        R_n = max(float(np.min(f[eligible] / e[eligible])), R)
        factor = (R - R_n) / (R * R_n)

        rel = lambda got, ref: np.linalg.norm(got - ref) / np.linalg.norm(ref)
        assert abs(step.R_n - R_n) <= 1e-10 * R_n
        assert rel(step.dy, factor * d) <= 1e-10


class TestLpBounds:
    def test_tiny_lp_certificate(self):
        lp = tiny_lp()
        st = state_at(lp, 4.0)
        cert = lp_bounds(lp, st)
        assert cert.lower == pytest.approx(1.0, abs=1e-10)
        assert cert.upper == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(cert.y_lp, [1.0], atol=1e-7)
        assert cert.z_lp[1] == pytest.approx(1.0, abs=1e-7)

    def test_weak_duality_any_stone(self):
        gl = gen_lp(GenSpec(m=5, n=15, density=0.4, seed=44))
        lp = gl.problem
        for R in (initial_radius(lp), 5.0, 50.0):
            cert = lp_bounds(lp, state_at(lp, R))
            assert cert.lower <= cert.upper + 1e-8 * (1 + abs(cert.upper))

    def test_equality_when_basic_duals_vanish(self):
        gl = gen_lp(GenSpec(m=5, n=15, density=0.4, seed=44))
        lp = gl.problem
        cert = lp_bounds(lp, state_at(lp, 1e5))
        if np.max(np.abs(cert.z_lp[state_at(lp, 1e5).bases.B])) <= 1e-10:
            gap = (cert.upper - cert.lower) / (1 + (abs(cert.upper) + abs(cert.lower)) / 2)
            assert abs(gap) <= 1e-10

    def test_zero_rhs(self):
        A = SparseMatrix(np.array([[1.0, 1.0]]))
        lp = LpProblem(A, np.zeros(1), np.array([-1.0, -2.0]))
        res = solve_lp(lp)
        assert res.certificate.lower == pytest.approx(0.0, abs=1e-12)
        assert res.certificate.upper == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("pin_basic", [False, True])
    def test_empty_support_returns_the_anchor(self, pin_basic):
        # B and N empty: no dual constraint binds, so y_lp is the anchor
        # -y and z_lp is read off on Z, which is every column
        A = SparseMatrix(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]))
        lp = LpProblem(A, np.array([1.0, 2.0]), np.array([1.0, -1.0, 0.5]))
        empty = np.empty(0, dtype=np.int64)
        state = SsepfState(
            R=1.0, w=np.zeros(3), y=np.array([0.5, -2.0]), z=np.zeros(3),
            bases=BasisPartition(B=empty, N=empty, Z=np.arange(3)),
        )
        cert = lp_bounds(lp, state, pin_basic=pin_basic)
        assert np.array_equal(cert.y_lp, -state.y)
        assert np.array_equal(cert.z_lp, np.maximum(A.rmatvec(cert.y_lp) - lp.c, 0.0))
        assert np.array_equal(cert.z_lp, [0.0, 3.0, 0.5])
        assert cert.upper == float(lp.b @ cert.y_lp) == 3.5
        assert cert.warning is None


class TestBasisCertificate:
    """The pinned bound at a final stone: closed form, else projection."""

    def test_closed_form_matches_pinned_projection(self, monkeypatch):
        classes = ((10, 40, 0.3), (20, 80, 0.15), (30, 120, 0.1), (50, 200, 0.06))
        checked = 0
        for ci, (m, n, d) in enumerate(classes):
            for k in range(3):
                lp = gen_lp(GenSpec(m=m, n=n, density=d, seed=6100 + 10 * ci + k)).problem
                _, calls = bound_calls(monkeypatch, lp)
                state, pinned = calls[-1]
                assert pinned and state.bases.B.size == m
                with monkeypatch.context() as mp:
                    projections = count_projections(mp)
                    cert = lp_bounds(lp, state, pin_basic=True)
                assert projections == []
                sub, keep, _ = _dual_feasibility_bap(lp, state, pin_basic=True)
                assert keep[:m].all()
                ref = solve_rnnm(sub, None, RnnmConfig(tol=1e-14))
                y_ref, zN_ref = ref.x[:m], ref.x[m:]
                assert np.max(np.abs(cert.y_lp - y_ref)) <= 1e-10 * np.max(np.abs(y_ref))
                upper_ref = float(lp.b @ y_ref)
                assert abs(cert.upper - upper_ref) <= 1e-10 * abs(upper_ref)
                zN = cert.z_lp[state.bases.N]
                assert np.max(np.abs(zN - zN_ref)) <= 1e-10 * np.max(np.abs(zN_ref))
                assert np.all(cert.z_lp[state.bases.B] == 0.0)
                assert cert.warning is None
                assert max(cert.rel_residual_triplet) <= 1e-12
                checked += 1
        assert checked == 12

    def test_projection_runs_when_basis_is_not_square(self, monkeypatch):
        # |B| = 1 < m = 2: A_B^T y = c_B fixes only y_1 = 1, and the
        # projection of the anchor (y, z_N) = (0, 5, 6) onto
        # {y_1 = 1, z_N = y_1 + y_2 >= 0} is (1, 5, 6), not the
        # min-norm y = (1, 0)
        A = SparseMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        lp = LpProblem(A, np.array([1.0, 1.0]), np.array([1.0, 2.0, 0.0]))
        bases = BasisPartition(B=np.array([0]), N=np.array([2]), Z=np.array([1]))
        state = SsepfState(
            R=1.0, w=np.array([1.0, 0.0, 0.0]), y=np.array([0.0, -5.0]),
            z=np.array([0.0, 0.0, 6.0]), bases=bases,
        )
        projections = count_projections(monkeypatch)
        cert = lp_bounds(lp, state, pin_basic=True)
        assert len(projections) == 1
        assert np.allclose(cert.y_lp, [1.0, 5.0], atol=1e-12)
        assert np.allclose(cert.z_lp, [0.0, 3.0, 6.0], atol=1e-12)
        assert cert.upper == pytest.approx(6.0, abs=1e-12)

    def test_closed_form_at_wide_basis_matches_pinned_projection(self, monkeypatch):
        # degenerate-mode LPs duplicate three optimal columns, both copies
        # stay positive and the final basis has |B| = m + 3
        checked = 0
        for m, n, d, seed in ((5, 20, 0.5, 5000), (10, 40, 0.3, 5001), (20, 80, 0.15, 5002)):
            spec = GenSpec(m=m, n=n, density=d, seed=seed, degeneracy="degenerate")
            lp = gen_lp(spec).problem
            _, calls = bound_calls(monkeypatch, lp)
            state, pinned = calls[-1]
            assert pinned and state.bases.B.size == m + 3
            with monkeypatch.context() as mp:
                projections = count_projections(mp)
                cert = lp_bounds(lp, state, pin_basic=True)
            assert projections == []
            sub, keep, _ = _dual_feasibility_bap(lp, state, pin_basic=True)
            assert keep[:m].all()
            ref = solve_rnnm(sub, None, RnnmConfig(tol=1e-14))
            y_ref, zN_ref = ref.x[:m], ref.x[m:]
            assert np.max(np.abs(cert.y_lp - y_ref)) <= 1e-10 * np.max(np.abs(y_ref))
            upper_ref = float(lp.b @ y_ref)
            assert abs(cert.upper - upper_ref) <= 1e-10 * abs(upper_ref)
            zN = cert.z_lp[state.bases.N]
            assert np.max(np.abs(zN - zN_ref)) <= 1e-10 * np.max(np.abs(zN_ref))
            assert cert.warning is None
            checked += 1
        assert checked == 3

    def test_projection_runs_when_wide_basis_is_rank_deficient(self, monkeypatch):
        # |B| = 3 > m = 2 but A_B has rank one: A_B^T y = c_B fixes only
        # y_1 = 1, and the projection of the anchor (y, z_N) = (0, 5, 6)
        # onto {y_1 = 1, z_N = y_2} is (1, 5.5, 5.5)
        A = SparseMatrix(np.array([[1.0, 2.0, 3.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
        lp = LpProblem(A, np.array([6.0, 0.0]), np.array([1.0, 2.0, 3.0, 0.0]))
        bases = BasisPartition(
            B=np.array([0, 1, 2]), N=np.array([3]), Z=np.empty(0, dtype=np.int64)
        )
        state = SsepfState(
            R=1.0, w=np.array([1.0, 1.0, 1.0, 0.0]), y=np.array([0.0, -5.0]),
            z=np.array([0.0, 0.0, 0.0, 6.0]), bases=bases,
        )
        projections = count_projections(monkeypatch)
        cert = lp_bounds(lp, state, pin_basic=True)
        assert len(projections) >= 1
        assert cert.warning is None
        assert np.allclose(cert.y_lp, [1.0, 5.5], atol=1e-12)
        assert np.allclose(cert.z_lp, [0.0, 0.0, 0.0, 5.5], atol=1e-12)

    def test_projection_runs_on_afiro_final_basis(self, monkeypatch, data_dir):
        # afiro's final basis is degenerate: |B| = 19 of m = 27
        with open(os.path.join(data_dir, "afiro.mps")) as fh:
            lp, _ = to_standard_form(parse_mps(fh.read()))
        res, calls = bound_calls(monkeypatch, lp)
        assert res.status == "solved"
        state, pinned = calls[-1]
        assert pinned and state.bases.B.size < lp.m
        projections = count_projections(monkeypatch)
        cert = lp_bounds(lp, state, pin_basic=True)
        assert len(projections) >= 1
        assert cert.upper == res.certificate.upper

    def test_singular_square_basis_has_no_closed_form(self):
        # |B| = m = 2 but columns 0 and 1 are equal: A_B^T y = c_B is
        # consistent yet leaves y free along (2, -1), so no unique dual
        A = SparseMatrix(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 0.0]]))
        lp = LpProblem(A, np.array([1.0, 2.0]), np.array([1.0, 1.0, 0.0]))
        bases = BasisPartition(
            B=np.array([0, 1]), N=np.array([2]), Z=np.empty(0, dtype=np.int64)
        )
        assert _basis_dual(lp, bases) is None

    def test_projection_runs_when_z_n_is_negative(self, monkeypatch):
        # square basis {0, 1}: y = A_B^{-T} c_B = (1, 1) gives
        # z_2 = y_1 + y_2 - c_2 = -1, so the pinned set is empty
        A = SparseMatrix(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
        lp = LpProblem(A, np.array([1.0, 1.0]), np.array([1.0, 1.0, 3.0]))
        bases = BasisPartition(
            B=np.array([0, 1]), N=np.array([2]), Z=np.empty(0, dtype=np.int64)
        )
        state = SsepfState(
            R=1.0, w=np.array([1.0, 1.0, 0.0]), y=np.zeros(2),
            z=np.array([0.0, 0.0, 1.0]), bases=bases,
        )
        import polyproj.lp as lp_mod

        monkeypatch.setattr(lp_mod, "SUBPROBLEM_MAX_ITER", 30)
        sub, _, _ = _dual_feasibility_bap(lp, state, pin_basic=True)
        ref = solve_rnnm(sub, None, RnnmConfig(tol=LpConfig.subproblem_tols[0], max_iter=30))
        projections = count_projections(monkeypatch)
        cert = lp_bounds(lp, state, pin_basic=True)
        # one projection: an unconverged solve is not run again
        assert len(projections) == 1
        assert np.array_equal(cert.y_lp, ref.x[:2])
        assert np.array_equal(cert.z_lp, [0.0, 0.0, ref.x[2]])
        assert cert.warning == f"dual-feasibility projection ended {ref.status}"
        assert math.isinf(cert.upper)

    def test_one_bound_per_stone(self, monkeypatch):
        for lp in (tiny_lp(), gen_lp(GenSpec(m=8, n=30, density=0.3, seed=10)).problem):
            res, calls = bound_calls(monkeypatch, lp)
            assert res.status == "solved" and not res.degenerate
            assert len(res.stones) >= 2
            # loose bounds on the way, the pinned bound at the final stone
            assert [pinned for _, pinned in calls] == [False] * (len(res.stones) - 1) + [True]
            assert res.stones[-1].upper == res.certificate.upper


class TestSolveLp:
    def test_shift_floor_keeps_the_bound_projection_factorable(self, monkeypatch):
        # with the closed form disabled the pinned projection runs; its
        # shifted Jacobian used to lose positive definiteness near
        # convergence and raise NotPositiveDefiniteError
        gl = gen_lp(GenSpec(m=5, n=14, density=0.5, seed=5011, degeneracy="degenerate"))
        monkeypatch.setattr(lp_mod, "_basis_dual", lambda problem, bases, basis_lu: None)
        res = solve_lp(gl.problem)
        assert res.status == "solved"
        assert abs(res.certificate.lower - gl.known_optimum) <= 1e-7 * (1 + abs(gl.known_optimum))

    def test_tiny_lp(self):
        res = solve_lp(tiny_lp())
        assert res.status == "solved"
        assert np.allclose(res.certificate.x, [1.0, 0.0], atol=1e-8)
        assert res.gap <= 1e-8
        assert len(res.stones) <= 3

    def test_random_lps_match_simplex(self):
        for seed in range(5):
            gl = gen_lp(GenSpec(m=10, n=40, density=0.25, seed=seed))
            res = solve_lp(gl.problem)
            val = highs_optimum(gl.problem)
            assert res.status == "solved"
            assert res.gap <= 1e-8
            assert abs(res.certificate.lower - val) <= 1e-7 * (1 + abs(val))

    def test_stones_strictly_increase(self):
        gl = gen_lp(GenSpec(m=8, n=30, density=0.3, seed=2))
        res = solve_lp(gl.problem)
        radii = [s.R for s in res.stones]
        assert all(b > a for a, b in zip(radii, radii[1:]))

    def test_residual_triplet_small_at_solution(self):
        gl = gen_lp(GenSpec(m=8, n=30, density=0.3, seed=6))
        res = solve_lp(gl.problem)
        primal, dual, comp = res.certificate.rel_residual_triplet
        assert primal <= 1e-9
        assert dual <= 1e-7
        assert comp <= 1e-7

    def test_degenerate_lp_flagged(self):
        gl = gen_lp(GenSpec(m=6, n=20, density=0.4, seed=7, degeneracy="degenerate"))
        res = solve_lp(gl.problem, LpConfig(max_stones=40))
        # duplicated optimal columns: the optimum value must still match
        assert abs(res.certificate.lower - gl.known_optimum) <= 1e-6 * (1 + abs(gl.known_optimum))
        if res.status != "solved":
            assert res.degenerate

    def test_report_shape(self):
        res = solve_lp(tiny_lp())
        rep = res.report()
        assert rep["status"] == "solved"
        assert len(rep["R_sequence"]) == rep["stones"]
        assert len(rep["residual_triplet"]) == 3

    def test_max_stones_below_one_rejected(self):
        for bad in (0, -1, 2.5, float("nan")):
            with pytest.raises(ValueError, match="max_stones"):
                LpConfig(max_stones=bad)
        # tiny_lp needs two stones, so one stone ends on the budget
        res = solve_lp(tiny_lp(), LpConfig(max_stones=1))
        assert res.status == "stone_budget"
        assert len(res.stones) == 1

    def test_negative_or_nan_tol_gap_rejected(self):
        for bad in (-1.0, -1e-12, float("nan")):
            with pytest.raises(ValueError, match="tol_gap must be nonnegative"):
                LpConfig(tol_gap=bad)
        # a zero gap is a valid request
        assert solve_lp(tiny_lp(), LpConfig(tol_gap=0.0)).status == "solved"

    def test_retry_ladder_is_not_a_setting(self):
        assert [f.name for f in dataclasses.fields(LpConfig)] == ["tol_gap", "max_stones"]
        with pytest.raises(TypeError):
            LpConfig(subproblem_tols=(1e-10,))
        assert LpConfig().subproblem_tols == (1e-14, 1e-13)


class TestDegeneracyEscape:
    # tiny_lp takes two stones undisturbed (R = 1/sqrt(2), then just past
    # the stone at 1) and is not flagged degenerate

    def test_sensitivity_failure_grows_radius_tenfold(self, monkeypatch):
        import polyproj.lp as lp_mod
        from polyproj.lp import SensitivityFailureError

        assert not solve_lp(tiny_lp()).degenerate
        real = lp_mod.next_stone
        calls = []

        def fail_once(problem, state):
            calls.append(state.R)
            if len(calls) == 1:
                raise SensitivityFailureError("injected")
            return real(problem, state)

        monkeypatch.setattr(lp_mod, "next_stone", fail_once)
        res = solve_lp(tiny_lp())
        assert res.stones[1].R == 10.0 * res.stones[0].R
        assert res.degenerate
        assert res.status == "solved"

    def test_three_zero_advances_grow_radius_tenfold(self, monkeypatch):
        import polyproj.lp as lp_mod
        from polyproj.lp import NextStone

        real = lp_mod.next_stone
        calls = []

        def zero_advance(problem, state):
            calls.append(state.R)
            if len(calls) > 3:
                return real(problem, state)
            return NextStone(R_n=state.R, dy=np.zeros(problem.m))

        monkeypatch.setattr(lp_mod, "next_stone", zero_advance)
        res = solve_lp(tiny_lp())
        radii = [s.R for s in res.stones]
        # the first two zero advances only nudge R (by 1e-2/stone)
        assert radii[1] == radii[0] * (1.0 + 1e-2)
        assert radii[2] == radii[1] * (1.0 + 1e-2 / 2)
        # the third in a row takes the escape into the fourth stone
        assert radii[3] == 10.0 * radii[2]
        assert res.degenerate
        assert res.status == "solved"


class TestGlobalizedSubproblem:
    # stone-1 Newton solves that cycled until SubproblemFailureError
    # before the step was globalized by a line search on the dual function
    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(5, 14, 0.5, seed=1128202141),
            GenSpec(20, 80, 0.15, seed=2123875159),
            GenSpec(40, 160, 0.08, seed=97007),
            GenSpec(10, 40, 0.3, seed=5009, degeneracy="degenerate"),
            GenSpec(10, 40, 0.3, seed=5012, degeneracy="degenerate"),
            GenSpec(5, 20, 0.5, seed=5009, degeneracy="degenerate"),
        ],
        ids=lambda spec: f"{spec.m}x{spec.n}-{spec.seed}-{spec.degeneracy}",
    )
    def test_formerly_cycling_lp_solves(self, spec):
        gl = gen_lp(spec)
        res = solve_lp(gl.problem)
        assert res.status == "solved"
        ref = gl.known_optimum
        assert abs(res.certificate.lower - ref) <= 1e-7 * (1.0 + abs(ref))

    @pytest.mark.parametrize("seed", [8003, 8006])
    def test_search_bounds_the_newton_tail(self, seed):
        # 157 and 114 stone-1 iterations without the search
        res = solve_lp(gen_lp(GenSpec(200, 800, 0.02, seed=seed)).problem)
        assert res.status == "solved"
        assert max(s.subproblem_iterations for s in res.stones) <= 20

    @pytest.mark.parametrize("seed, stones", [(4, 26), (5, 28)])
    def test_scaled_lp_takes_one_short_solve_per_stone(self, monkeypatch, seed, stones):
        # rows and columns scaled by 10^U(-1, 1), which leaves the optimal
        # value as it is; stone solves here stall just above tol, and two
        # wandered for 726 and 360 steps before they reached the floor
        gl = gen_lp(GenSpec(60, 240, 0.1, seed=seed))
        rng = np.random.default_rng(100 + seed)
        R = 10.0 ** rng.uniform(-1.0, 1.0, gl.problem.m)
        C = 10.0 ** rng.uniform(-1.0, 1.0, gl.problem.n)
        A = SparseMatrix(R[:, None] * gl.problem.A.toarray() * C)
        lp = LpProblem(A, R * gl.problem.b, C * gl.problem.c)
        solves = []

        def spy(sub, y0, config):
            sol = solve_rnnm(sub, y0, config)
            solves.append((sub.A is lp.A, sol.iterations))
            return sol

        monkeypatch.setattr(lp_mod, "solve_rnnm", spy)
        res = solve_lp(lp)
        assert res.status == "solved" and len(res.stones) == stones
        ref = gl.known_optimum
        assert abs(res.certificate.lower - ref) <= 1e-7 * (1.0 + abs(ref))
        assert sum(stone_solve for stone_solve, _ in solves) == stones
        assert max(iterations for _, iterations in solves) <= 50


class TestSubproblemFailure:
    def test_infeasible_lp_raises_with_stone_index(self, monkeypatch):
        import polyproj.lp as lp_mod
        from polyproj.lp import SubproblemFailureError

        A = SparseMatrix(np.array([[1.0, 1.0]]))
        infeasible = LpProblem(A, np.array([-1.0]), np.array([1.0, 0.0]))
        # a short budget: the full one spends 2000 iterations to fail
        monkeypatch.setattr(lp_mod, "SUBPROBLEM_MAX_ITER", 60)
        with pytest.raises(SubproblemFailureError) as err:
            solve_lp(infeasible)
        assert err.value.stone == 1


def test_sensitivity_failure_on_inconsistent_state():
    from polyproj.lp import BasisPartition, SensitivityFailureError

    # basis columns that cannot reproduce b: the least-squares system is
    # inconsistent and the ratio test must refuse rather than mispredict
    A = SparseMatrix(np.eye(3))
    lp = LpProblem(A, np.array([0.0, 0.0, 1.0]), np.ones(3))
    bases = BasisPartition(
        B=np.array([0]), N=np.array([1, 2]), Z=np.empty(0, dtype=np.int64)
    )
    state = SsepfState(
        R=1.0, w=np.array([1.0, 0.0, 0.0]), y=np.zeros(3),
        z=np.array([0.0, 1.0, 1.0]), bases=bases,
    )
    with pytest.raises(SensitivityFailureError):
        next_stone(lp, state)


def sliced_next_stone(problem, state, assembled_normal=False):
    """``next_stone`` with every product formed on ``A.cols(...)`` slices.

    With ``assembled_normal`` the normal block ``A_B A_B^T`` is assembled
    as ``next_stone`` assembles it instead, after a check that it agrees
    with the sliced product to 1e-15 of its largest entry."""
    A, R = problem.A, state.R
    B, N, Z = state.bases.B, state.bases.N, state.bases.Z
    AB = A.cols(B)
    normal = (AB.csc @ AB.csc.T).toarray()
    if assembled_normal:
        sliced, normal = normal, _dense_normal_matrix(A.csc, np.ones(B.size), B)
        assert np.abs(normal - sliced).max(initial=0.0) <= 1e-15 * np.abs(sliced).max(initial=0.0)
    system = np.vstack([normal, A.cols(Z).toarray().T])
    rhs = np.concatenate([problem.b, np.zeros(Z.size)])
    dyp, _, _, _ = scipy.linalg.lstsq(
        system, rhs, cond=np.finfo(np.float64).eps * max(system.shape),
        lapack_driver="gelsy", check_finite=False,
    )
    bB, bN = AB.rmatvec(dyp), A.cols(N).rmatvec(dyp)
    wB, zN = state.w[B], state.z[N]
    e = np.concatenate([bB - R * wB, -(bN + R * zN)])
    f = np.concatenate([R * bB, -R * bN])
    scale = np.concatenate([np.abs(bB) + R * np.abs(wB), np.abs(bN) + R * np.abs(zN)])
    R_n = ratio_test(e, f, scale)
    if math.isfinite(R_n):
        R_n = max(R_n, R)
    factor = ((R - R_n) / (R * R_n)) if math.isfinite(R_n) else (-1.0 / R)
    return R_n, factor * dyp


def sliced_basis_dual(problem, bases):
    """``_basis_dual`` with A_B and A_N^T y formed on ``A.cols(...)`` slices."""
    B, N = bases.B, bases.N
    ABt = problem.A.cols(B).toarray().T
    cB = problem.c[B]
    y, _, rank, _ = scipy.linalg.lstsq(ABt, cB, cond=1e-10, lapack_driver="gelsy",
                                       check_finite=False)
    if rank < problem.m:
        return None
    res = float(np.linalg.norm(ABt @ y - cB))
    if not res <= 1e-12 * (1.0 + float(np.linalg.norm(cB))):
        return None
    zN = problem.A.cols(N).rmatvec(y) - problem.c[N]
    return (y, zN) if np.all(zN >= 0.0) else None


def sliced_bounds(problem, state, pin_basic):
    """``(y_lp, z_lp, dual residual)`` of ``lp_bounds``, with z_lp on Z and
    the dual residual formed on ``A.cols(Z)`` and the full transpose."""
    m, (B, N, Z) = problem.m, (state.bases.B, state.bases.N, state.bases.Z)
    closed = sliced_basis_dual(problem, state.bases) if pin_basic else None
    z_lp = np.zeros(problem.n)
    if closed is not None:
        y_lp, z_lp[N] = closed
    else:
        sub, keep, full = _dual_feasibility_bap(problem, state, pin_basic)
        cfg = RnnmConfig(tol=LpConfig.subproblem_tols[0], max_iter=lp_mod.SUBPROBLEM_MAX_ITER)
        full[keep] = solve_rnnm(sub, None, cfg).x
        y_lp = full[:m]
        z_lp[B], z_lp[N] = full[m : m + B.size], full[m + B.size :]
    if Z.size:
        z_lp[Z] = np.maximum(problem.A.cols(Z).rmatvec(y_lp) - problem.c[Z], 0.0)
    dual = np.linalg.norm(z_lp - problem.A.csc.T @ y_lp + problem.c)
    return y_lp, z_lp, float(dual) / (1.0 + float(np.linalg.norm(problem.c)))


def assert_close(got, want, rel=1e-12):
    assert np.max(np.abs(got - want), initial=0.0) <= rel * np.max(np.abs(want), initial=0.0)


class TestColumnSliceParity:
    """The stone and bound code reads columns through one gather and one
    kept A^T product.  Where it solves by least squares its outputs equal
    the column-slice formulas bit for bit, given the normal block
    ``A_B A_B^T`` that ``next_stone`` assembles; where it solves with the
    LU factor of a square basis they agree to 1e-12 relative."""

    def test_stones_and_bounds_match_the_sliced_formulas(self, monkeypatch, data_dir):
        with open(os.path.join(data_dir, "afiro.mps")) as fh:
            problems = [to_standard_form(parse_mps(fh.read()))[0]]
        problems += [
            gen_lp(GenSpec(m, n, d, seed=seed, degeneracy=deg)).problem
            for m, n, d, seed, deg in [(3, 9, 0.5, 5, "nondegenerate"),
                                       (8, 30, 0.3, 10, "nondegenerate"),
                                       (10, 40, 0.3, 5009, "degenerate"),
                                       (5, 20, 0.5, 5009, "degenerate")]
        ]
        seen_Z = seen_closed = 0
        seen = {"lu": 0, "lstsq": 0}  # next_stone's paths
        seen_dual = {"lu": 0, "lstsq": 0}  # _basis_dual's paths
        for problem in problems:
            # the states and bound modes that solve_lp runs into
            for state, pin_basic in bound_calls(monkeypatch, problem)[1]:
                seen_Z += state.bases.Z.size > 0
                step = next_stone(problem, state)
                R_n, dy = sliced_next_stone(problem, state, assembled_normal=True)
                assert step.R_n == R_n
                if state.basis_lu is not None and state.bases.Z.size == 0:
                    seen["lu"] += 1
                    assert_close(step.dy, dy)
                else:
                    seen["lstsq"] += 1
                    assert np.array_equal(step.dy, dy)
                closed = _basis_dual(problem, state.bases, state.basis_lu)
                seen_closed += pin_basic and closed is not None
                cert = lp_bounds(problem, state, pin_basic=pin_basic)
                y_lp, z_lp, dual = sliced_bounds(problem, state, pin_basic)
                if pin_basic and state.basis_lu is not None:
                    seen_dual["lu"] += 1
                    assert_close(cert.y_lp, y_lp)
                    assert_close(cert.z_lp, z_lp)
                    assert abs(cert.rel_residual_triplet[1] - dual) <= 1e-12
                else:
                    seen_dual["lstsq"] += pin_basic
                    assert np.array_equal(cert.y_lp, y_lp)
                    assert np.array_equal(cert.z_lp, z_lp)
                    assert cert.rel_residual_triplet[1] == dual
        assert seen_Z and seen_closed
        assert all(seen.values()) and all(seen_dual.values()), (seen, seen_dual)


def square_basis_lp(seed, m=30, n=90, near_singular=False):
    """An LP whose first m columns form a square basis: well conditioned,
    or with column 1 equal to column 0 up to 1e-9 when ``near_singular``."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((m, n)) * (rng.random((m, n)) < 0.3)
    D[:, :m] += 4.0 * np.eye(m)
    if near_singular:
        D[:, 1] = D[:, 0] + 1e-9 * rng.standard_normal(m)
    A = SparseMatrix(D)
    x = np.zeros(n)
    x[:m] = 1.0 + rng.random(m)
    y = rng.standard_normal(m)
    c = D.T @ y
    c[m:] -= 1.0 + rng.random(n - m)  # z_N = A_N^T y - c_N > 0
    problem = LpProblem(A, A.matvec(x), c)
    bases = BasisPartition(B=np.arange(m), N=np.arange(m, n), Z=np.empty(0, dtype=np.int64))
    R = 2.0
    state = SsepfState(R=R, w=x / R, y=-y, z=np.concatenate([np.zeros(m), -c[m:] + D[:, m:].T @ y]),
                       bases=bases)
    return problem, state


class TestSquareBasisLu:
    @pytest.mark.parametrize("seed", range(5))
    def test_lu_solves_match_least_squares(self, seed):
        problem, state = square_basis_lp(seed)
        lu = _factor_basis(problem, state.bases.B)
        assert lu is not None
        with_lu = dataclasses.replace(state, basis_lu=lu)
        step, (R_n, dy) = next_stone(problem, with_lu), sliced_next_stone(problem, state)
        assert math.isclose(step.R_n, R_n, rel_tol=1e-12)
        assert_close(step.dy, dy)
        (y_lu, zN_lu, _), (y_ls, zN_ls, _) = (_basis_dual(problem, state.bases, lu),
                                              _basis_dual(problem, state.bases))
        assert_close(y_lu, y_ls)
        assert_close(zN_lu, zN_ls)
        y_sl, zN_sl = sliced_basis_dual(problem, state.bases)
        assert np.array_equal(y_ls, y_sl) and np.array_equal(zN_ls, zN_sl)

    def test_only_square_well_conditioned_bases_are_factored(self):
        problem, state = square_basis_lp(0)
        B = state.bases.B
        assert _factor_basis(problem, B[:-1]) is None  # |B| < m
        assert _factor_basis(problem, np.append(B, problem.m)) is None  # |B| > m
        problem, state = square_basis_lp(0, near_singular=True)
        assert _factor_basis(problem, B) is None  # rcond below 1e-6
        # a singular square basis: the equal columns of the test above
        A = SparseMatrix(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 0.0]]))
        lp = LpProblem(A, np.array([1.0, 2.0]), np.array([1.0, 1.0, 0.0]))
        assert _factor_basis(lp, np.array([0, 1])) is None

    def test_near_singular_basis_takes_least_squares_bit_for_bit(self):
        problem, state = square_basis_lp(1, near_singular=True)
        state.basis_lu = _factor_basis(problem, state.bases.B)
        assert state.basis_lu is None
        step = next_stone(problem, state)
        R_n, dy = sliced_next_stone(problem, state, assembled_normal=True)
        assert step.R_n == R_n and np.array_equal(step.dy, dy)
        cert = lp_bounds(problem, state, pin_basic=True)
        y_lp, z_lp, dual = sliced_bounds(problem, state, True)
        assert np.array_equal(cert.y_lp, y_lp) and np.array_equal(cert.z_lp, z_lp)

    def test_state_with_z_takes_least_squares_bit_for_bit(self):
        # move column m from N to Z, made orthogonal to the sensitivity
        # step so that the stacked system stays consistent: the factor is
        # there, the step ignores it
        problem, state = square_basis_lp(2)
        m = problem.m
        D = problem.A.toarray()
        AB = D[:, :m]
        d = np.linalg.solve(AB @ AB.T, problem.b)
        D[:, m] -= (D[:, m] @ d) / (d @ d) * d
        problem = LpProblem(SparseMatrix(D), problem.b, problem.c)
        bases = BasisPartition(B=state.bases.B, N=state.bases.N[1:], Z=state.bases.N[:1])
        z = state.z.copy()
        z[m] = 0.0
        lu = _factor_basis(problem, bases.B)
        assert lu is not None
        with_z = SsepfState(R=state.R, w=state.w, y=state.y, z=z, bases=bases, basis_lu=lu)
        step = next_stone(problem, with_z)
        R_n, dy = sliced_next_stone(problem, with_z, assembled_normal=True)
        assert step.R_n == R_n and np.array_equal(step.dy, dy)

    def test_inconsistent_system_still_raises(self, monkeypatch):
        # an LU that is not A_B's leaves A_B (A_B^T d) - b far from zero
        problem, state = square_basis_lp(3)
        other, _ = square_basis_lp(4)
        state.basis_lu = _factor_basis(other, state.bases.B)
        with pytest.raises(SensitivityFailureError):
            next_stone(problem, state)


def bmat_dual_feasibility_matrix(problem, state, pin_basic):
    """The dual-feasibility matrix built from two column slices and ``sp.bmat``."""
    B, N, m = state.bases.B, state.bases.N, problem.m
    M = sp.bmat(
        [
            [problem.A.cols(B).csc.T.tocsc(), -sp.eye_array(B.size, format="csc"), None],
            [problem.A.cols(N).csc.T.tocsc(), None, -sp.eye_array(N.size, format="csc")],
        ],
        format="csc",
    )
    keep = np.diff(M.indptr) > 0
    if pin_basic:
        keep[m : m + B.size] = False
    return (M[:, np.where(keep)[0]] if not keep.all() else M), keep


class TestDualFeasibilityRows:
    def test_selected_rows_equal_the_bmat_matrix(self, monkeypatch, data_dir):
        with open(os.path.join(data_dir, "afiro.mps")) as fh:
            problems = [to_standard_form(parse_mps(fh.read()))[0]]
        # criterion 07's classes, degenerate
        problems += [
            gen_lp(GenSpec(m, n, d, seed=7000 + 100 * ci + k, degeneracy="degenerate")).problem
            for ci, (m, n, d) in enumerate([(3, 8, 0.6), (4, 12, 0.5), (5, 14, 0.5),
                                            (10, 40, 0.3), (20, 80, 0.15), (30, 120, 0.1)])
            for k in range(2)
        ]
        stones = 0
        for problem in problems:
            for state, _ in bound_calls(monkeypatch, problem)[1]:
                stones += 1
                for pin_basic in (False, True):
                    M = _dual_feasibility_bap(problem, state, pin_basic)[0].A.csc
                    ref, ref_keep = bmat_dual_feasibility_matrix(problem, state, pin_basic)
                    assert np.array_equal(_dual_feasibility_bap(problem, state, pin_basic)[1],
                                          ref_keep)
                    assert M.shape == ref.shape
                    assert np.array_equal(M.indptr, ref.indptr)
                    assert np.array_equal(M.indices, ref.indices)
                    assert np.array_equal(M.data, ref.data)
        assert stones >= len(problems)


def afiro_problem(data_dir):
    with open(os.path.join(data_dir, "afiro.mps")) as fh:
        return to_standard_form(parse_mps(fh.read()))[0]


def solve_in_threads(problem, count):
    """``solve_lp`` on one problem from ``count`` threads started together."""
    barrier = threading.Barrier(count)
    results = [None] * count

    def run(k):
        barrier.wait(timeout=10)
        results[k] = solve_lp(problem)

    threads = [threading.Thread(target=run, args=(k,)) for k in range(count)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert all(r is not None for r in results)
    return results


class TestSharedLpProblem:
    def test_threads_sharing_a_problem_get_identical_results(self, data_dir):
        first, second = solve_in_threads(afiro_problem(data_dir), 2)
        assert first.status == "solved"
        assert first.report() == second.report()
        for name in ("x", "y_lp", "z_lp"):
            a, b = getattr(first.certificate, name), getattr(second.certificate, name)
            assert a.tobytes() == b.tobytes(), name

    def test_solves_leave_the_problem_fields_as_they_were(self, data_dir):
        problem = afiro_problem(data_dir)
        before = dict(vars(problem))
        snapshot = (problem.A.csc.copy(), problem.b.copy(), problem.c.copy())
        solve_in_threads(problem, 2)
        assert [f.name for f in dataclasses.fields(problem)] == ["A", "b", "c"]
        assert vars(problem).keys() == {"A", "b", "c"}
        assert all(vars(problem)[k] is v for k, v in before.items())
        csc, b, c = snapshot
        assert (problem.A.csc != csc).nnz == 0
        assert problem.b.tobytes() == b.tobytes() and problem.c.tobytes() == c.tobytes()
