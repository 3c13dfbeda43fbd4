import numpy as np
import pytest

from polyproj.bap import BapProblem
from polyproj.factory import DEGENERATE, GenSpec, gen_bap_with_known_vertex
from polyproj.hlwb import (
    MAX_SWEEPS,
    HlwbConfig,
    ZeroRowError,
    project_hyperplane,
    solve_hlwb,
)
from polyproj.serialize import write_trace_csv
from polyproj.sparse_linalg import SparseMatrix


def dense_row(a):
    cols = np.flatnonzero(a)
    return cols, a[cols]


class TestProjections:
    def test_hyperplane_basic(self):
        out = project_hyperplane(np.zeros(2), np.array([0, 1]), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(out, [0.5, 0.5])

    def test_hyperplane_identity_on_member(self):
        x = np.array([0.25, 0.75])
        out = project_hyperplane(x.copy(), np.array([0, 1]), np.array([1.0, 1.0]), 1.0)
        assert np.allclose(out, x, atol=1e-15)

    def test_hyperplane_distance_formula(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            # sparse normals: untouched coordinates must stay put
            a = rng.standard_normal(n) * (rng.random(n) < 0.6)
            a[rng.integers(n)] = 1.0 + rng.random()
            beta = rng.standard_normal()
            x = rng.standard_normal(n)
            out = project_hyperplane(x.copy(), *dense_row(a), beta)
            assert abs(a @ out - beta) <= 1e-12 * (1 + abs(beta) + np.abs(a @ x))
            dist = abs(a @ x - beta) / np.linalg.norm(a)
            assert np.linalg.norm(out - x) == pytest.approx(dist, abs=1e-12)
            assert np.array_equal(out[a == 0.0], x[a == 0.0])

    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroRowError):
            project_hyperplane(np.zeros(2), np.array([0, 1]), np.zeros(2), 1.0)


class TestSteeringSequence:
    def test_harmonic_values(self):
        # sigma_k = 1/(k+1); sweep s ends at global iteration k = s*(m+1) - 1
        g = gen_bap_with_known_vertex(GenSpec(m=4, n=12, density=0.5, seed=2))
        res = solve_hlwb(g.problem, HlwbConfig(tol=1e-18, max_sweeps=6, collect_trace=True))
        m = g.problem.m
        assert [t[0] for t in res.trace] == list(range(1, 7))
        assert res.trace[0][2] == 1.0 / (m + 1)
        for sweep, _, sigma in res.trace:
            assert sigma == 1.0 / (sweep * (m + 1))


def tiny_problem():
    A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
    return BapProblem(A, np.array([1.0]), np.zeros(2))


class TestSolveHlwb:
    def test_simplex_plateau(self):
        res = solve_hlwb(tiny_problem(), HlwbConfig(tol=1e-14, max_sweeps=2000))
        # first-order method: expect the ~1e-4-order plateau, not 1e-14
        assert res.status == "max_sweeps"
        assert res.rel_residual <= 1e-3
        assert np.allclose(res.x, [0.5, 0.5], atol=0.01)

    def test_feasible_anchor_converges_fast(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 1.0]]))
        v = np.array([0.3, 0.7])
        prob = BapProblem(A, v.copy(), v)
        res = solve_hlwb(prob, HlwbConfig(tol=1e-12, max_sweeps=2000))
        assert res.status == "converged"
        assert res.sweeps <= 5

    def test_post_orthant_iterate_nonnegative(self):
        g = gen_bap_with_known_vertex(GenSpec(m=10, n=40, density=0.3, seed=4))
        res = solve_hlwb(g.problem, HlwbConfig(tol=1e-16, max_sweeps=50))
        assert np.all(res.x >= 0.0)

    def test_random_feasible_plateau(self):
        # relative primal residual after 2000 sweeps at the 1e-3 level
        g = gen_bap_with_known_vertex(GenSpec(m=20, n=100, density=0.2, seed=33))
        res = solve_hlwb(g.problem, HlwbConfig(tol=1e-16, max_sweeps=2000))
        assert res.rel_residual <= 1e-3

    @pytest.mark.parametrize("tol", [0.0, -1.0, float("nan")])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            HlwbConfig(tol=tol)

    @pytest.mark.parametrize("max_sweeps", [0, -3])
    def test_sweep_budget_below_one_rejected(self, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            HlwbConfig(max_sweeps=max_sweeps)

    def test_zero_row_rejected(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0], [0.0, 0.0]]))
        prob = BapProblem(A, np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(ZeroRowError):
            solve_hlwb(prob)

    def test_free_variables_rejected(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        prob = BapProblem(A, np.zeros(1), np.zeros(2), free=np.array([True, False]))
        with pytest.raises(ValueError):
            solve_hlwb(prob)

    def test_trace_csv(self, tmp_path):
        res = solve_hlwb(tiny_problem(), HlwbConfig(tol=1e-14, max_sweeps=5, collect_trace=True))
        path = tmp_path / "trace.csv"
        write_trace_csv(res, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "sweep,rel_residual,sigma"
        assert len(lines) == 1 + res.sweeps


def row_by_row_hlwb(problem, cfg):
    """The sweep as m single-row steps: ``project_hyperplane`` on row i,
    then the mix ``sigma_k v + (1 - sigma_k) x`` with sigma_k = 1/(k+1);
    after row m-1 the orthant clamp, its mix, and the stopping test.
    Returns ``(x, sweeps, iterations, status)``."""
    csr = problem.A.csc.tocsr()
    v, b, m = problem.v, problem.b, problem.m
    nb = 1.0 + np.linalg.norm(b)
    x = np.maximum(v, 0.0)
    k = sweeps = 0
    while True:
        for i in range(m):
            lo, hi = csr.indptr[i], csr.indptr[i + 1]
            xhat = project_hyperplane(x, csr.indices[lo:hi], csr.data[lo:hi], b[i])
            sigma = 1.0 / (k + 1)
            x = sigma * v + (1.0 - sigma) * xhat
            k += 1
        xhat = np.maximum(x, 0.0)
        sweeps += 1
        rel = np.linalg.norm(csr @ xhat - b) / nb
        if rel <= cfg.tol:
            return xhat, sweeps, k + 1, "converged"
        if sweeps == cfg.max_sweeps:
            return xhat, sweeps, k + 1, MAX_SWEEPS
        sigma = 1.0 / (k + 1)
        x = sigma * v + (1.0 - sigma) * xhat
        k += 1


PARITY_CASES = [
    # (GenSpec, tol, max_sweeps, expected status): m = 1, truncation at
    # 1, 2 and 13 sweeps (the first sweep starts with sigma_0 = 1), a
    # degenerate vertex, and runs that stop on the tolerance
    pytest.param(GenSpec(m=1, n=6, density=0.5, seed=3), 1e-18, 13, MAX_SWEEPS,
                 id="m1-13sweeps"),
    pytest.param(GenSpec(m=5, n=20, density=0.4, seed=1), 1e-18, 1, MAX_SWEEPS,
                 id="m5-1sweep"),
    pytest.param(GenSpec(m=5, n=20, density=0.4, seed=1), 1e-18, 2, MAX_SWEEPS,
                 id="m5-2sweeps"),
    pytest.param(GenSpec(m=7, n=30, density=0.3, seed=9), 1e-18, 13, MAX_SWEEPS,
                 id="m7-13sweeps"),
    pytest.param(GenSpec(m=6, n=24, density=0.4, seed=5, degeneracy=DEGENERATE), 1e-18, 40,
                 MAX_SWEEPS, id="degenerate-40sweeps"),
    pytest.param(GenSpec(m=10, n=40, density=0.3, seed=4), 1e-3, 2000, "converged",
                 id="m10-converged"),
    pytest.param(GenSpec(m=20, n=100, density=0.2, seed=33), 1e-4, 2000, "converged",
                 id="m20-converged"),
]


class TestSweepParity:
    @pytest.mark.parametrize("spec,tol,max_sweeps,expected", PARITY_CASES)
    def test_matches_row_by_row_sweeps(self, spec, tol, max_sweeps, expected):
        problem = gen_bap_with_known_vertex(spec).problem
        cfg = HlwbConfig(tol=tol, max_sweeps=max_sweeps)
        res = solve_hlwb(problem, cfg)
        x, sweeps, iterations, status = row_by_row_hlwb(problem, cfg)
        assert (res.status, res.sweeps, res.iterations) == (status, sweeps, iterations)
        assert res.status == expected
        assert res.iterations == res.sweeps * (problem.m + 1)
        assert np.linalg.norm(res.x - x) <= 1e-12 * np.linalg.norm(x)
