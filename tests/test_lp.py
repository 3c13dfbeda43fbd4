import math
import os

import numpy as np
import pytest
import scipy.linalg

import polyproj.lp as lp_mod
from polyproj.bap import RnnmConfig, solve_rnnm
from polyproj.factory import GenSpec, gen_lp, reference_simplex
from polyproj.lp import (
    BasisPartition,
    InconsistentCertificateError,
    LpConfig,
    LpProblem,
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
    _solve_with_ladder,
)
from polyproj.mps import parse_mps, to_standard_form
from polyproj.sparse_linalg import SparseMatrix


def tiny_lp():
    A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
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

    def spy(problem, state, config=None, pin_basic=False):
        calls.append((state, pin_basic))
        return real(problem, state, config, pin_basic)

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
        A = SparseMatrix.from_dense(np.ones((4, 9)))
        b = np.zeros(4)
        b[0] = 2.0
        problem = LpProblem(A, b, np.concatenate([[1.0], np.zeros(8)]))
        # sqrt(36) * 2 / (1 + 1) = 6
        assert initial_radius(problem) == pytest.approx(6.0)

    def test_cap_at_50(self):
        A = SparseMatrix.from_dense(np.ones((4, 9)))
        problem = LpProblem(A, 1e6 * np.ones(4), np.ones(9))
        assert initial_radius(problem) == 50.0

    def test_zero_rhs_floor(self):
        A = SparseMatrix.from_dense(np.ones((2, 4)))
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
        lp = LpProblem(SparseMatrix.from_dense(A_dense), b, rng.standard_normal(7))
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
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        lp = LpProblem(A, np.zeros(1), np.array([-1.0, -2.0]))
        res = solve_lp(lp)
        assert res.certificate.lower == pytest.approx(0.0, abs=1e-12)
        assert res.certificate.upper == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("pin_basic", [False, True])
    def test_empty_support_returns_the_anchor(self, pin_basic):
        # B and N empty: no dual constraint binds, so y_lp is the anchor
        # -y and z_lp is read off on Z, which is every column
        A = SparseMatrix.from_dense(np.array([[1.0, 0.0, 2.0], [0.0, 1.0, 1.0]]))
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
        A = SparseMatrix.from_dense(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
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
        A = SparseMatrix.from_dense(np.array([[1.0, 2.0, 3.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
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
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 0.0]]))
        lp = LpProblem(A, np.array([1.0, 2.0]), np.array([1.0, 1.0, 0.0]))
        bases = BasisPartition(
            B=np.array([0, 1]), N=np.array([2]), Z=np.empty(0, dtype=np.int64)
        )
        assert _basis_dual(lp, bases) is None

    def test_projection_runs_when_z_n_is_negative(self, monkeypatch):
        # square basis {0, 1}: y = A_B^{-T} c_B = (1, 1) gives
        # z_2 = y_1 + y_2 - c_2 = -1, so the pinned set is empty
        A = SparseMatrix.from_dense(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]))
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
        cfg = LpConfig()
        sub, _, _ = _dual_feasibility_bap(lp, state, pin_basic=True)
        ref = _solve_with_ladder(sub, None, cfg)
        projections = count_projections(monkeypatch)
        cert = lp_bounds(lp, state, cfg, pin_basic=True)
        assert len(projections) == len(cfg.subproblem_tols)
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
        monkeypatch.setattr(lp_mod, "_basis_dual", lambda problem, bases: None)
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
            val, _ = reference_simplex(gl.problem.A.toarray(), gl.problem.b, gl.problem.c)
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
        for bad in (0, -1):
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


class TestSubproblemFailure:
    def test_infeasible_lp_raises_with_stone_index(self, monkeypatch):
        import polyproj.lp as lp_mod
        from polyproj.lp import SubproblemFailureError

        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        infeasible = LpProblem(A, np.array([-1.0]), np.array([1.0, 0.0]))
        # a short budget: the full one spends 2 x 2000 iterations to fail
        monkeypatch.setattr(lp_mod, "SUBPROBLEM_MAX_ITER", 60)
        with pytest.raises(SubproblemFailureError) as err:
            solve_lp(infeasible)
        assert err.value.stone == 1


def test_sensitivity_failure_on_inconsistent_state():
    from polyproj.lp import BasisPartition, SensitivityFailureError

    # basis columns that cannot reproduce b: the least-squares system is
    # inconsistent and the ratio test must refuse rather than mispredict
    A = SparseMatrix.identity(3)
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
