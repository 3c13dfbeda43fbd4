import io

import numpy as np
import pytest

import polyproj.hlwb as hlwb_mod
from polyproj.bap import BapProblem
from polyproj.factory import GenSpec, gen_bap_with_known_vertex
from polyproj.hlwb import (
    HlwbConfig,
    ZeroRowError,
    project_hyperplane,
    solve_hlwb,
    write_trace_csv,
)
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

    def test_sweep_accounting(self, monkeypatch):
        calls = {"hyperplane": 0}
        original = hlwb_mod.project_hyperplane

        def counting(x, cols, vals, beta):
            calls["hyperplane"] += 1
            return original(x, cols, vals, beta)

        monkeypatch.setattr(hlwb_mod, "project_hyperplane", counting)
        g = gen_bap_with_known_vertex(GenSpec(m=7, n=30, density=0.3, seed=9))
        sweeps = 13
        res = solve_hlwb(g.problem, HlwbConfig(tol=1e-18, max_sweeps=sweeps))
        m = g.problem.m
        assert res.sweeps == sweeps
        assert calls["hyperplane"] == sweeps * m
        assert res.iterations == sweeps * (m + 1)

    def test_row_projection_exact_before_mixing(self, monkeypatch):
        g = gen_bap_with_known_vertex(GenSpec(m=5, n=20, density=0.4, seed=1))
        A = g.problem.A.toarray()
        b = g.problem.b
        m = g.problem.m
        seen = []
        original = hlwb_mod.project_hyperplane

        def checking(x, cols, vals, beta):
            # rows are visited in order 0..m-1 within each sweep
            i = len(seen) % m
            assert beta == b[i]
            out = original(x, cols, vals, beta)
            seen.append(abs(A[i] @ out - b[i]))
            return out

        monkeypatch.setattr(hlwb_mod, "project_hyperplane", checking)
        solve_hlwb(g.problem, HlwbConfig(tol=1e-18, max_sweeps=3))
        assert max(seen) <= 1e-12

    def test_random_feasible_plateau(self):
        # relative primal residual after 2000 sweeps at the 1e-3 level
        g = gen_bap_with_known_vertex(GenSpec(m=20, n=100, density=0.2, seed=33))
        res = solve_hlwb(g.problem, HlwbConfig(tol=1e-16, max_sweeps=2000))
        assert res.rel_residual <= 1e-3

    @pytest.mark.parametrize("tol", [0.0, -1.0])
    def test_nonpositive_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="tol must be positive"):
            HlwbConfig(tol=tol)

    def test_free_variables_rejected(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        prob = BapProblem(A, np.zeros(1), np.zeros(2), free=np.array([True, False]))
        with pytest.raises(ValueError):
            solve_hlwb(prob)

    def test_trace_csv(self):
        res = solve_hlwb(tiny_problem(), HlwbConfig(tol=1e-14, max_sweeps=5, collect_trace=True))
        buf = io.StringIO()
        write_trace_csv(res, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "sweep,rel_residual,sigma"
        assert len(lines) == 1 + res.sweeps
