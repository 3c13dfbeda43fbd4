import math

import numpy as np
import pytest

import polyproj.bap as bap_mod
from polyproj.bap import (
    CONVERGED,
    DEGENERATE_VERTEX,
    MAX_ITER,
    NON_VERTEX,
    NONDEGENERATE_VERTEX,
    STALLED,
    BapProblem,
    BapSolution,
    IndexSets,
    InvalidStateError,
    RnnmConfig,
    classify_indices,
    dual_objective,
    generalized_jacobian,
    is_vertex,
    kkt_report,
    moreau_split,
    regularization_lambda,
    residual,
    solve_rnnm,
)
from polyproj.factory import GenSpec, gen_bap_with_known_vertex, gen_lp
from polyproj import sparse_linalg
from polyproj.lp import initial_radius, scaled_subproblem
from polyproj.sparse_linalg import SparseMatrix


def test_norm_is_bit_identical_to_numpy_norm():
    # the Newton loop takes sqrt(x @ x) for np.linalg.norm(x), which
    # computes the same dot product and the same correctly rounded root
    rng = np.random.default_rng(29)
    lengths = [1, 2, 3, 7, 64, 1000, 4000, *rng.integers(1, 4001, 20)]
    for n in lengths:
        for magnitude in (1e-150, 1e-20, 1.0, 1e20, 1e150):
            x = magnitude * rng.standard_normal(n) * 10.0 ** rng.uniform(-1, 1, n)
            norm = bap_mod._norm(x)
            assert 0.0 < norm < math.inf
            assert norm.hex() == float(np.linalg.norm(x)).hex()


def simplex_problem():
    A = SparseMatrix(np.array([[1.0, 1.0]]))
    return BapProblem(A, np.array([1.0]), np.zeros(2))


def rand_problem(rng, m=6, n=15):
    A = rng.standard_normal((m, n))
    x = np.abs(rng.standard_normal(n))
    return BapProblem(SparseMatrix(A), A @ x, rng.standard_normal(n))


def replay_search(monkeypatch, problem, mode, tol):
    """Solve with every trial point and Newton direction recorded.

    Returns the solution, the rule that accepted each step ("armijo",
    "tol", "halving" or None), and the initial relative residual.  The
    step lengths come from the trace; every trial before the accepted
    one must meet none of the rules.
    """
    trials, directions = [], []
    real_split = bap_mod.moreau_split
    real_chol = bap_mod.cholesky_shifted
    real_cg = bap_mod.cg

    def split(prob, y):
        out = real_split(prob, y)
        trials.append((np.array(y, copy=True), out[0]))
        return out

    class Recorded:
        def __init__(self, factor):
            self.factor = factor

        def solve(self, rhs):
            d = self.factor.solve(rhs)
            directions.append(d)
            return d

    def cg(*args, **kwargs):
        d, info = real_cg(*args, **kwargs)
        directions.append(d)
        return d, info

    monkeypatch.setattr(bap_mod, "moreau_split", split)
    monkeypatch.setattr(
        bap_mod, "cholesky_shifted", lambda V, lam: Recorded(real_chol(V, lam))
    )
    monkeypatch.setattr(bap_mod, "cg", cg)
    sol = solve_rnnm(problem, config=RnnmConfig(tol=tol, mode=mode, collect_trace=True))

    A, b = problem.A, problem.b
    nb = 1.0 + np.linalg.norm(b)
    y, x = trials[0]
    F = A.matvec(x) - b
    record = r0 = np.linalg.norm(F) / nb
    pos = 1
    rules = []
    for (_, _, _, t), d in zip(sol.trace, directions):
        slope, b_d = F @ d, b @ d
        n_trials = round(-math.log2(t)) + 1
        for j in range(n_trials):
            tj = 0.5**j
            y_t, x_t = trials[pos]
            pos += 1
            assert np.array_equal(y_t, y + tj * d)
            F_t = A.matvec(x_t) - b
            crit = np.linalg.norm(F_t) / nb
            d_theta = 0.5 * ((x_t - x) @ (x_t + x)) - tj * b_d
            if d_theta <= 1e-4 * tj * slope:
                rule = "armijo"
            elif crit <= tol:
                rule = "tol"
            elif crit <= 0.5 * record:
                rule = "halving"
            else:
                rule = None
            if j < n_trials - 1:
                assert rule is None
        rules.append(rule)
        y, x, F = y_t, x_t, F_t
        record = min(record, crit)
    assert pos == len(trials) and len(directions) == sol.iterations
    return sol, rules, r0


class TestProblemValidation:
    def test_zero_column_rejected(self):
        A = SparseMatrix.from_coo(2, 2, [0], [0], [1.0])
        with pytest.raises(ValueError):
            BapProblem(A, np.zeros(2), np.zeros(2))

    def test_dimension_mismatch(self):
        A = SparseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            BapProblem(A, np.zeros(3), np.zeros(2))

    def test_free_mask_shape(self):
        A = SparseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            BapProblem(A, np.zeros(2), np.zeros(2), free=np.array([True]))


class TestResidual:
    def test_origin(self):
        prob = simplex_problem()
        assert np.allclose(residual(prob, np.zeros(1)), [-1.0])

    def test_solved_point(self):
        prob = simplex_problem()
        assert np.allclose(residual(prob, np.array([0.5])), [0.0])

    def test_free_variable_form(self):
        # A=[1 1], b=0, v=(1,1), second coordinate free, y=-1:
        # x = ((v+A^T y)_1)_+ = 0, free part passes through to 0
        A = SparseMatrix(np.array([[1.0, 1.0]]))
        prob = BapProblem(A, np.zeros(1), np.ones(2), free=np.array([False, True]))
        F = residual(prob, np.array([-1.0]))
        x, z, _ = moreau_split(prob, np.array([-1.0]))
        assert np.allclose(F, [0.0])
        assert np.allclose(x, [0.0, 0.0])
        assert z[1] == 0.0


class TestMoreauIdentities:
    def test_exact_decomposition(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            prob = rand_problem(rng)
            y = rng.standard_normal(prob.m)
            x, z, p = moreau_split(prob, y)
            assert np.array_equal(x - z, p)  # exact, not approximate
            assert float(z @ x) == 0.0
            assert np.all(x >= 0.0)
            assert np.all(z >= 0.0)


def inactive(prob, sets):
    """Constrained coordinates outside the active and boundary sets."""
    constrained = np.where(~prob.free)[0]
    return np.setdiff1d(constrained, np.union1d(sets.i_plus, sets.i_zero))


class TestClassifyIndices:
    def test_signs(self):
        A = SparseMatrix(np.eye(3))
        prob = BapProblem(A, np.zeros(3), np.array([0.5, 0.0, -1.0]))
        sets = classify_indices(prob, moreau_split(prob, np.zeros(3))[2])
        assert list(sets.i_plus) == [0]
        assert list(sets.i_zero) == [1]
        assert list(inactive(prob, sets)) == [2]

    def test_all_positive(self):
        A = SparseMatrix(np.eye(2))
        prob = BapProblem(A, np.zeros(2), np.array([1.0, 2.0]))
        sets = classify_indices(prob, moreau_split(prob, np.zeros(2))[2])
        assert sets.i_zero.size == 0 and inactive(prob, sets).size == 0

    def test_duplicate_columns_reduced(self):
        prob = simplex_problem()  # v + A^T*0 = (0, 0)
        sets = classify_indices(prob, moreau_split(prob, np.zeros(1))[2])
        assert list(sets.i_zero) == [0, 1]
        assert sets.i_zero_bar.size == 1  # scalar duplicate columns

    def test_tie_at_zero_is_boundary(self):
        A = SparseMatrix(np.eye(1))
        prob = BapProblem(A, np.zeros(1), np.zeros(1))
        sets = classify_indices(prob, moreau_split(prob, np.zeros(1))[2])
        assert list(sets.i_zero) == [0]
        assert sets.i_plus.size == 0

    def test_rejects_multipliers_in_place_of_inner_point(self):
        prob = simplex_problem()  # m=1, n=2
        with pytest.raises(ValueError):
            classify_indices(prob, np.zeros(prob.m))


class TestGeneralizedJacobian:
    def test_identity_active(self):
        A = SparseMatrix(np.eye(2))
        prob = BapProblem(A, np.zeros(2), np.array([1.0, 1.0]))
        sets = classify_indices(prob, moreau_split(prob, np.zeros(2))[2])
        V = generalized_jacobian(prob, sets)
        assert np.array_equal(V, np.eye(2))

    def test_boundary_weight_formula(self):
        # column of norm 2 on the boundary carries weight 1/4
        A = SparseMatrix(np.array([[2.0, 1.0]]))
        prob = BapProblem(A, np.zeros(1), np.array([0.0, 1.0]))
        sets = classify_indices(prob, moreau_split(prob, np.zeros(1))[2])
        assert list(sets.i_zero_bar) == [0]
        V = generalized_jacobian(prob, sets)
        # 0.25 * (2)(2)^T from the boundary column + 1*(1)(1)^T active
        assert np.allclose(V, [[0.25 * 4.0 + 1.0]])

    def test_boundary_weight_clamped_at_one(self):
        # boundary columns of norm 2 and 0.5 carry 1/4 and min(1, 1/0.25) = 1;
        # the free column carries 1
        A = SparseMatrix(np.array([[2.0, 0.0, 1.0], [0.0, 0.5, 1.0]]))
        free = np.array([False, False, True])
        prob = BapProblem(A, np.zeros(2), np.array([0.0, 0.0, 1.0]), free)
        sets = classify_indices(prob, moreau_split(prob, np.zeros(2))[2])
        assert list(sets.i_zero_bar) == [0, 1] and sets.i_plus.size == 0
        V = generalized_jacobian(prob, sets)
        expected = (
            0.25 * np.outer([2.0, 0.0], [2.0, 0.0])
            + 1.0 * np.outer([0.0, 0.5], [0.0, 0.5])
            + np.outer([1.0, 1.0], [1.0, 1.0])
        )
        assert np.array_equal(V, expected)

    def test_rank_matches_support(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            prob = rand_problem(rng)
            y = rng.standard_normal(prob.m)
            sets = classify_indices(prob, moreau_split(prob, y)[2])
            V = generalized_jacobian(prob, sets)
            support = np.concatenate([sets.i_plus, sets.i_zero_bar])
            expected_rank = np.linalg.matrix_rank(prob.A.toarray()[:, support], tol=1e-10)
            assert np.linalg.matrix_rank(V, tol=1e-10) == expected_rank
            evals = np.linalg.eigvalsh(V)
            assert evals.min() >= -1e-12 * max(1.0, np.abs(evals).max())

    def test_matches_finite_difference_jacobian(self):
        rng = np.random.default_rng(12)
        hits = 0
        while hits < 10:
            m, n = 5, 12
            prob = rand_problem(rng, m, n)
            y = rng.standard_normal(m)
            _, _, p = moreau_split(prob, y)
            if np.min(np.abs(p)) < 1e-3:  # stay differentiable
                continue
            hits += 1
            V = generalized_jacobian(prob, classify_indices(prob, p))
            h = 1e-7
            fd = np.empty((m, m))
            for j in range(m):
                e = np.zeros(m)
                e[j] = h
                fd[:, j] = (residual(prob, y + e) - residual(prob, y - e)) / (2 * h)
            denom = 1.0 + np.abs(fd)
            assert np.max(np.abs(V - fd) / denom) <= 1e-5

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_boundary_weights_equal_the_sliced_column_sums(self, monkeypatch, seed):
        # the norms come straight from the CSC arrays; the weights equal
        # those of scipy's column sums over the sliced columns bit for bit,
        # from one-entry columns to columns longer than a summation block
        rng = np.random.default_rng(seed)
        m, n = 200, 300
        dense = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-3, 3, (m, n))
        keep = rng.random((m, n)) < rng.choice([0.005, 0.05, 0.5, 1.0], n)
        keep[rng.integers(0, m, n), np.arange(n)] = True
        prob = BapProblem(SparseMatrix(dense * keep), np.zeros(m), np.zeros(n))
        perm = rng.permutation(n)
        sets = IndexSets(np.sort(perm[:100]), np.sort(perm[100:]), np.sort(perm[100:250]))
        seen = []
        real = bap_mod.assemble_normal_matrix

        def spy(A, weights, support):
            seen.append(weights)
            return real(A, weights, support)

        monkeypatch.setattr(bap_mod, "assemble_normal_matrix", spy)
        generalized_jacobian(prob, sets)
        sliced = prob.A.csc[:, sets.i_zero_bar]
        norms = np.sqrt(np.asarray(sliced.multiply(sliced).sum(axis=0)).ravel())
        assert np.array_equal(seen[0][sets.i_zero_bar], np.minimum(1.0, 1.0 / norms**2))
        assert np.all(seen[0][sets.i_plus] == 1.0)


class TestRegularizationLambda:
    def test_adaptive_hand_value(self):
        lam = regularization_lambda(1e-6, 10.0, 1.0)
        assert lam == pytest.approx(4e-9, rel=1e-12)

    def test_first_iteration_log_floor(self):
        lam0 = regularization_lambda(1e-2, 0.0, 1.0)
        lam1 = regularization_lambda(1e-2, 1.0, 1.0)
        assert lam0 == lam1 > 0.0

    def test_config_validation(self):
        for tol in (0.0, -1e-14, float("nan")):
            with pytest.raises(ValueError, match="tol"):
                RnnmConfig(tol=tol)
        with pytest.raises(ValueError, match="mode"):
            RnnmConfig(mode="fixed")
        for max_iter in (0, -3, 2.5, float("nan")):
            with pytest.raises(ValueError, match="max_iter must be at least 1"):
                RnnmConfig(max_iter=max_iter)


class TestSolveRnnm:
    def test_simplex_adaptive_default(self):
        sol = solve_rnnm(simplex_problem())
        assert sol.status == CONVERGED
        assert np.allclose(sol.x, [0.5, 0.5], atol=1e-12)

    def test_already_solved_returns_immediately(self):
        prob = simplex_problem()
        sol = solve_rnnm(prob, y0=np.array([0.5]))
        assert sol.iterations == 0
        assert sol.status == CONVERGED

    def test_factory_instance_recovers_known_optimum(self):
        g = gen_bap_with_known_vertex(GenSpec(m=30, n=200, density=0.1, seed=77))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-12))
        assert sol.status == CONVERGED
        err = np.linalg.norm(sol.x - g.known_x) / (1 + np.linalg.norm(g.known_x))
        assert err <= 1e-8
        primal, dual, comp = kkt_report(g.problem, sol)
        assert primal <= 1e-10 and dual <= 1e-10 and comp <= 1e-10

    def test_inexact_matches_exact(self):
        g = gen_bap_with_known_vertex(GenSpec(m=25, n=150, density=0.12, seed=5))
        se = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14))
        si = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14, mode="inexact"))
        assert si.status == CONVERGED
        assert np.max(np.abs(se.x - si.x)) <= 1e-8 * (1 + np.max(np.abs(se.x)))

    @pytest.mark.parametrize("mode", ["exact", "inexact"])
    def test_sparse_jacobian_path_matches_dense(self, monkeypatch, mode):
        # above DENSE_FACTOR_MAX_DIM the Jacobian is a SparseMatrix: its
        # diagonal sets the shift floor and the Jacobi preconditioner, and
        # exact mode factors it with SuperLU
        jacobian_types = set()

        def spy(problem, sets):
            V = generalized_jacobian(problem, sets)
            jacobian_types.add(type(V))
            return V

        cfg = RnnmConfig(tol=1e-14, mode=mode)
        for seed in range(100, 106):
            problem = gen_bap_with_known_vertex(GenSpec(40, 400, 0.05, seed=seed)).problem
            dense = solve_rnnm(problem, config=cfg)
            with monkeypatch.context() as mp:
                mp.setattr(sparse_linalg, "DENSE_FACTOR_MAX_DIM", 0)
                mp.setattr(bap_mod, "generalized_jacobian", spy)
                sparse = solve_rnnm(problem, config=cfg)
            assert sparse.status == CONVERGED
            assert sparse.iterations == dense.iterations
            assert np.max(np.abs(sparse.x - dense.x)) <= 1e-15 * (1 + np.max(np.abs(dense.x)))
        assert jacobian_types == {SparseMatrix}

    def test_inexact_converges_after_residual_jump(self):
        # ||F|| jumps to about 96 after the first step; an uncapped CG
        # bound theta*||F||^nu then exceeds ||F|| and accepts d = 0
        g = gen_bap_with_known_vertex(GenSpec(m=50, n=500, density=0.0247, seed=2138570730))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14, mode="inexact"))
        assert sol.status == CONVERGED
        err = np.linalg.norm(sol.x - g.known_x) / (1 + np.linalg.norm(g.known_x))
        assert err <= 1e-8

    def test_warm_start_after_perturbation(self):
        g = gen_bap_with_known_vertex(GenSpec(m=20, n=100, density=0.15, seed=13))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14))
        perturbed = BapProblem(g.problem.A, g.problem.b + 1e-12, g.problem.v)
        resolved = solve_rnnm(perturbed, y0=sol.y, config=RnnmConfig(tol=1e-14))
        assert resolved.status == CONVERGED
        assert resolved.iterations <= 3

    def test_infeasible_hits_max_iter(self):
        # x1 + x2 = -1 has no nonnegative solution
        A = SparseMatrix(np.array([[1.0, 1.0]]))
        prob = BapProblem(A, np.array([-1.0]), np.zeros(2))
        sol = solve_rnnm(prob, config=RnnmConfig(tol=1e-14, max_iter=50))
        assert sol.status in (MAX_ITER, "stalled")

    def test_truncated_solve_returns_state_of_its_y(self):
        # an unconverged run returns the best iterate together with the
        # (x, z) and residual of that same iterate
        g = gen_bap_with_known_vertex(GenSpec(m=40, n=300, density=0.05, seed=4))
        nb = 1.0 + np.linalg.norm(g.problem.b)
        for mode in ("exact", "inexact"):
            sol = solve_rnnm(g.problem, config=RnnmConfig(max_iter=1, mode=mode))
            assert sol.status == MAX_ITER and sol.iterations == 1
            x, z, _ = moreau_split(g.problem, sol.y)
            assert np.array_equal(sol.x, x) and np.array_equal(sol.z, z)
            assert sol.rel_residual == float(np.linalg.norm(residual(g.problem, sol.y))) / nb

    @pytest.mark.parametrize("mode", ["exact", "inexact"])
    def test_accepted_steps_meet_the_search_rule(self, monkeypatch, mode):
        # the stone-1 subproblem of this LP backtracks and, in exact
        # mode, takes a step on the residual-halving rule
        g = gen_lp(GenSpec(m=20, n=120, density=0.1, seed=45, degeneracy="degenerate"))
        problem = scaled_subproblem(g.problem, initial_radius(g.problem))
        sol, rules, r0 = replay_search(monkeypatch, problem, mode, tol=1e-14)
        assert sol.status == CONVERGED
        assert None not in rules
        assert min(row[3] for row in sol.trace) < 1.0
        # non-Armijo steps: halvings of the record residual, bounded by
        # ceil(log2(r0 / tol)), and at most one final step meeting tol
        halvings = rules.count("halving")
        assert halvings <= math.ceil(math.log2(r0 / 1e-14))
        assert rules.count("tol") <= 1 and "tol" not in rules[:-1]
        if mode == "exact":
            assert halvings >= 1

    @pytest.mark.parametrize("source", ["vertex", "lp"])
    def test_inexact_steps_meet_the_forcing_term(self, monkeypatch, source):
        # each step's CG solve ends within 0.5*min(||F||, ||F||^2) of
        # -F, or after its whole budget of max(10m, 50) iterations; the
        # iterates are replayed to rebuild V, lambda and F of each step
        if source == "vertex":
            problem = gen_bap_with_known_vertex(GenSpec(m=25, n=150, density=0.12, seed=5)).problem
        else:
            g = gen_lp(GenSpec(m=20, n=120, density=0.1, seed=45, degeneracy="degenerate"))
            problem = scaled_subproblem(g.problem, initial_radius(g.problem))
        solves = []
        real_cg = bap_mod.cg

        def cg(*args, **kwargs):
            d, info = real_cg(*args, **kwargs)
            solves.append((d, info))
            return d, info

        monkeypatch.setattr(bap_mod, "cg", cg)
        sol = solve_rnnm(problem, config=RnnmConfig(mode="inexact", collect_trace=True))
        assert sol.status == CONVERGED and len(solves) == sol.iterations
        budget = max(10 * problem.m, 50)
        y = np.zeros(problem.m)
        for (_, _, lam, t), (d, info) in zip(sol.trace, solves):
            _, _, p = moreau_split(problem, y)
            F = residual(problem, y)
            V = generalized_jacobian(problem, classify_indices(problem, p))
            f_norm = np.linalg.norm(F)
            cg_res = np.linalg.norm(V @ d + lam * d + F)
            assert cg_res <= 0.5 * min(f_norm, f_norm**2) or info == budget
            y = y + t * d
        assert np.array_equal(y, sol.y)

    def test_unreachable_tol_ends_stalled_at_the_rounding_floor(self):
        # below rounding no trial meets a rule, and at the rounding floor
        # Armijo may accept noise; either ends the solve instead of
        # spending the iteration budget
        for seed in range(60):
            g = gen_bap_with_known_vertex(GenSpec(m=15, n=60, density=0.2, seed=seed))
            sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-300))
            assert sol.status == STALLED
            assert sol.iterations <= 30
            assert sol.rel_residual <= 1e-16

    def test_floor_stall_within_ten_tol_is_converged(self):
        # tol at half the floor residual leaves the trajectory of the
        # tol 1e-300 run, which stalls at the floor; a stall counts as
        # converged at 10 * tol, as a run out of budget does
        for seed in range(8):
            g = gen_bap_with_known_vertex(GenSpec(m=15, n=60, density=0.2, seed=seed))
            floor = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-300))
            tol = floor.rel_residual / 2
            sol = solve_rnnm(g.problem, config=RnnmConfig(tol=tol))
            assert sol.status == CONVERGED
            assert tol < sol.rel_residual <= 10 * tol
            assert np.array_equal(sol.y, floor.y)

    def test_full_steps_on_a_vertex_instance(self):
        # no step backtracks on a well-posed projection: the search
        # leaves the undamped Newton iteration as it was
        g = gen_bap_with_known_vertex(GenSpec(m=15, n=60, density=0.2, seed=3))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-12, collect_trace=True))
        assert sol.status == CONVERGED
        assert [row[3] for row in sol.trace] == [1.0] * sol.iterations


class TestJacobianReuse:
    """A step whose index sets repeat the previous step's reuses V, bit for bit."""

    @staticmethod
    def _spy(monkeypatch, name, record):
        real = getattr(bap_mod, name)

        def wrapper(*args, **kwargs):
            record.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(bap_mod, name, wrapper)

    @staticmethod
    def _problem(source):
        if source == "lp":
            g = gen_lp(GenSpec(m=30, n=120, density=0.1, seed=5))
            return scaled_subproblem(g.problem, initial_radius(g.problem))
        m = int(source[1:])
        return gen_bap_with_known_vertex(GenSpec(m=m, n=10 * m, density=0.05, seed=m)).problem

    def _solve_exact(self, monkeypatch, problem):
        # checks the V of every factor against a fresh build and returns
        # the sets of each step and the number of builds
        steps, builds, factored = [], [], []
        self._spy(monkeypatch, "classify_indices", steps)
        self._spy(monkeypatch, "generalized_jacobian", builds)
        self._spy(monkeypatch, "cholesky_shifted", factored)
        sol = solve_rnnm(problem, config=RnnmConfig(mode="exact"))
        assert sol.status == CONVERGED and len(factored) == len(steps) == sol.iterations
        sets = [classify_indices(problem, p) for _, p in steps]
        for step_sets, (V, _) in zip(sets, factored):
            fresh = generalized_jacobian(problem, step_sets)
            assert type(V) is type(fresh)
            if isinstance(V, SparseMatrix):
                V, fresh = V.toarray(), fresh.toarray()
            assert np.array_equal(V, fresh)
        return sets, len(builds)

    @pytest.mark.parametrize("source", ["m20", "m50", "m120", "lp"])
    @pytest.mark.parametrize("path", ["dense", "sparse"])
    def test_exact_steps_factor_the_jacobian_of_their_sets(self, monkeypatch, source, path):
        if path == "sparse":
            monkeypatch.setattr(sparse_linalg, "DENSE_FACTOR_MAX_DIM", 0)
        sets, builds = self._solve_exact(monkeypatch, self._problem(source))
        assert builds < len(sets)

    def test_a_changed_boundary_subset_alone_rebuilds(self, monkeypatch):
        # p = v = (2, 0) puts coordinate 1 on the boundary; the first
        # step makes it inactive while I+ = {0} stays
        A = SparseMatrix(np.array([[1.0, 1.0]]))
        problem = BapProblem(A, np.array([1.0]), np.array([2.0, 0.0]))
        sets, builds = self._solve_exact(monkeypatch, problem)
        assert len(sets) >= 2 and np.array_equal(sets[0].i_plus, sets[1].i_plus)
        assert sets[0].i_zero_bar.tolist() == [1] and sets[1].i_zero_bar.size == 0
        assert builds >= 2

    @pytest.mark.parametrize("source", ["m50", "lp"])
    def test_inexact_steps_apply_the_jacobian_of_their_sets(self, monkeypatch, source):
        problem = self._problem(source)
        steps, builds, solves = [], [], []
        self._spy(monkeypatch, "classify_indices", steps)
        self._spy(monkeypatch, "generalized_jacobian", builds)
        real_cg = bap_mod.cg

        def cg(*args, **kwargs):
            solves.append((args[0], kwargs["M"]))
            return real_cg(*args, **kwargs)

        monkeypatch.setattr(bap_mod, "cg", cg)
        sol = solve_rnnm(problem, config=RnnmConfig(mode="inexact", collect_trace=True))
        assert sol.status == CONVERGED and len(solves) == len(steps) == sol.iterations
        assert len(builds) < len(steps)
        q = np.random.default_rng(0).standard_normal(problem.m)
        for (_, p), (shifted, jacobi), (_, _, lam, _) in zip(steps, solves, sol.trace):
            fresh = generalized_jacobian(problem, classify_indices(problem, p))
            assert np.array_equal(shifted.matvec(q), fresh @ q + lam * q)
            assert np.array_equal(jacobi.matvec(q), 1.0 / (fresh.diagonal() + lam) * q)


class TestDescentDirection:
    def test_regularized_step_descends(self):
        rng = np.random.default_rng(99)
        from polyproj.sparse_linalg import cholesky_shifted

        checked = 0
        while checked < 10:
            prob = rand_problem(rng, 5, 14)
            y = rng.standard_normal(5)
            _, _, p = moreau_split(prob, y)
            if np.min(np.abs(p)) < 1e-3:
                continue
            F = residual(prob, y)
            if np.linalg.norm(F) < 1e-8:
                continue
            checked += 1
            sets = classify_indices(prob, p)
            V = generalized_jacobian(prob, sets)
            lam = 1e-3
            d = cholesky_shifted(V, lam).solve(-F)
            h = 1e-6
            f_plus = 0.5 * np.linalg.norm(residual(prob, y + h * d)) ** 2
            f_minus = 0.5 * np.linalg.norm(residual(prob, y - h * d)) ** 2
            dd = (f_plus - f_minus) / (2 * h)
            grad = V @ F
            assert dd < -1e-12 * np.linalg.norm(grad) * np.linalg.norm(d)


class TestDualObjective:
    def test_zero_point(self):
        prob = simplex_problem()
        assert dual_objective(prob, np.zeros(1), np.zeros(2)) == 0.0

    def test_strong_duality_at_optimum(self):
        prob = simplex_problem()
        sol = solve_rnnm(prob)
        phi = dual_objective(prob, sol.y, sol.z)
        assert phi == pytest.approx(0.25, abs=1e-10)

    def test_weak_duality_spot_check(self):
        rng = np.random.default_rng(55)
        g = gen_bap_with_known_vertex(GenSpec(m=10, n=40, density=0.3, seed=21))
        prob = g.problem
        p_star = 0.5 * np.linalg.norm(g.known_x - prob.v) ** 2
        for _ in range(20):
            y = rng.standard_normal(prob.m)
            z = np.abs(rng.standard_normal(prob.n))
            assert dual_objective(prob, y, z) <= p_star + 1e-9


class TestKktReport:
    def test_converged_certificate(self):
        sol = solve_rnnm(simplex_problem(), config=RnnmConfig(tol=1e-14))
        primal, dual, comp = kkt_report(simplex_problem(), sol)
        assert primal <= 1e-14
        assert dual == 0.0
        assert comp == 0.0

    def test_origin_multiplier(self):
        prob = simplex_problem()
        sol = BapSolution(
            x=np.zeros(2), y=np.zeros(1), z=np.zeros(2),
            rel_residual=0.5, iterations=0, status=CONVERGED,
        )
        primal, _, _ = kkt_report(prob, sol)
        assert primal == pytest.approx(0.5)

    def test_mid_solve_iterate_exact_zeros(self):
        rng = np.random.default_rng(4)
        prob = rand_problem(rng)
        y = rng.standard_normal(prob.m)
        x, z, _ = moreau_split(prob, y)
        sol = BapSolution(x=x, y=y, z=z, rel_residual=1.0, iterations=1, status=CONVERGED)
        _, dual, comp = kkt_report(prob, sol)
        assert dual == 0.0
        assert comp == 0.0


class TestIsVertex:
    def test_simplex_solution_is_not_a_vertex(self):
        prob = simplex_problem()
        sol = solve_rnnm(prob)
        assert is_vertex(prob, sol) == NON_VERTEX

    def test_factory_nondegenerate(self):
        g = gen_bap_with_known_vertex(GenSpec(m=12, n=60, density=0.2, seed=2))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-12))
        assert is_vertex(g.problem, sol) == NONDEGENERATE_VERTEX

    def test_origin_degenerate(self):
        A = SparseMatrix(np.eye(2))
        prob = BapProblem(A, np.zeros(2), np.array([-1.0, -1.0]))
        sol = solve_rnnm(prob)
        assert np.allclose(sol.x, 0.0)
        assert is_vertex(prob, sol) == DEGENERATE_VERTEX

    def test_requires_convergence(self):
        prob = simplex_problem()
        sol = BapSolution(
            x=np.zeros(2), y=np.zeros(1), z=np.zeros(2),
            rel_residual=1.0, iterations=0, status=MAX_ITER,
        )
        with pytest.raises(InvalidStateError):
            is_vertex(prob, sol)


class TestHandIteration:
    def test_adaptive_rule_iterates_match_derivation(self):
        # y0 = 0: F0 = -1, r0 = 1/2 and both coordinates sit on the
        # boundary, so V = 1 (one independent column) and
        # lambda0 = (5e-3 + 5e-4 + 5e-4)/3 = 2e-3, giving y1 = 1/1.002.
        # Then both are active, V = 2, lambda1 = 4e-3 * r1 with
        # r1 = (2*y1 - 1)/2, and y2 = y1 - (2*y1 - 1)/(2 + lambda1).
        prob = simplex_problem()
        one = solve_rnnm(prob, config=RnnmConfig(tol=1e-14, max_iter=1))
        assert one.y[0] == pytest.approx(1.0 / 1.002, abs=1e-12)
        two = solve_rnnm(prob, config=RnnmConfig(tol=1e-14, max_iter=2))
        assert two.y[0] == pytest.approx(0.5004955224, abs=1e-10)
