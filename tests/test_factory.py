import itertools
import time

import numpy as np
import pytest

from polyproj.bap import BapSolution, CONVERGED, RnnmConfig, kkt_report, solve_rnnm
from polyproj.factory import (
    GenSpec,
    INFEASIBLE,
    TriangleSpec,
    TriangleSpecError,
    build_triangle_bap,
    estimate_spectral_norm,
    gen_bap_with_known_vertex,
    gen_lp,
    oracle_lp_vertex_enumeration,
    oracle_polyhedron_projection,
    reference_simplex,
)
from polyproj.lp import LpProblem
from polyproj.sparse_linalg import SparseMatrix


class TestGenSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenSpec(m=10, n=5, density=0.5, seed=0)
        with pytest.raises(ValueError):
            GenSpec(m=2, n=10, density=0.0, seed=0)
        with pytest.raises(ValueError):
            GenSpec(m=2, n=10, density=0.05, seed=0)  # density*n < 1
        with pytest.raises(ValueError):
            GenSpec(m=2, n=10, density=0.5, seed=0, degeneracy="weird")


class TestGenBap:
    def test_anchor_norm_exact(self):
        for rho in (0.1, 1.0, 3.0):
            g = gen_bap_with_known_vertex(
                GenSpec(m=10, n=50, density=0.2, seed=1, anchor_norm=rho)
            )
            assert np.linalg.norm(g.problem.v) == pytest.approx(rho, rel=1e-9)

    def test_self_certifying(self):
        for seed in range(10):
            g = gen_bap_with_known_vertex(GenSpec(m=8, n=40, density=0.25, seed=seed))
            cert = BapSolution(
                x=g.known_x, y=g.known_y, z=g.known_z,
                rel_residual=0.0, iterations=0, status=CONVERGED,
            )
            primal, dual, comp = kkt_report(g.problem, cert)
            assert primal <= 1e-12
            assert dual <= 1e-12
            assert comp <= 1e-12

    def test_no_zero_columns_and_unit_norm(self):
        g = gen_bap_with_known_vertex(GenSpec(m=20, n=120, density=0.1, seed=3))
        assert not g.problem.A.has_zero_column()
        exact = np.linalg.svd(g.problem.A.toarray(), compute_uv=False)[0]
        assert 0.99 <= exact <= 1.01

    def test_determinism(self):
        spec = GenSpec(m=9, n=33, density=0.3, seed=123)
        g1 = gen_bap_with_known_vertex(spec)
        g2 = gen_bap_with_known_vertex(spec)
        assert np.array_equal(g1.problem.v, g2.problem.v)
        assert np.array_equal(g1.problem.b, g2.problem.b)
        assert np.array_equal(g1.problem.A.csc.data, g2.problem.A.csc.data)
        assert np.array_equal(g1.known_x, g2.known_x)

    def test_tiny_instance_recoverable(self):
        g = gen_bap_with_known_vertex(GenSpec(m=1, n=2, density=0.5, seed=0))
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14))
        assert np.linalg.norm(sol.x - g.known_x) <= 1e-12 * (1 + np.linalg.norm(g.known_x))

    def test_degenerate_mode_runs(self):
        g = gen_bap_with_known_vertex(
            GenSpec(m=8, n=40, density=0.25, seed=5, degeneracy="degenerate")
        )
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-12))
        assert sol.status == CONVERGED
        err = np.linalg.norm(sol.x - g.known_x) / (1 + np.linalg.norm(g.known_x))
        assert err <= 1e-7

    def test_non_vertex_mode(self):
        g = gen_bap_with_known_vertex(
            GenSpec(m=6, n=30, density=0.3, seed=11, degeneracy="non_vertex")
        )
        assert np.count_nonzero(g.known_x) > g.problem.m
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-12))
        assert sol.status == CONVERGED
        err = np.linalg.norm(sol.x - g.known_x) / (1 + np.linalg.norm(g.known_x))
        assert err <= 1e-7


class TestGenLp:
    def test_unit_norm_vertex(self):
        gl = gen_lp(GenSpec(m=6, n=24, density=0.3, seed=0))
        assert np.linalg.norm(gl.known_x) == pytest.approx(1.0, rel=1e-12)

    def test_vertex_enumeration_agrees(self):
        for seed in range(6):
            gl = gen_lp(GenSpec(m=4, n=12, density=0.5, seed=seed))
            val = oracle_lp_vertex_enumeration(gl.problem)
            assert val == pytest.approx(gl.known_optimum, abs=1e-10 * (1 + abs(val)))

    def test_simplex_agrees(self):
        gl = gen_lp(GenSpec(m=12, n=48, density=0.2, seed=9))
        val, x = reference_simplex(gl.problem.A.toarray(), gl.problem.b, gl.problem.c)
        assert val == pytest.approx(gl.known_optimum, abs=1e-9 * (1 + abs(val)))
        assert np.all(x >= -1e-12)

    def test_determinism(self):
        spec = GenSpec(m=5, n=20, density=0.4, seed=77)
        a = gen_lp(spec)
        b = gen_lp(spec)
        assert np.array_equal(a.problem.c, b.problem.c)
        assert a.known_optimum == b.known_optimum


class TestSpectralNormEstimate:
    def test_matches_svd(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            M = rng.standard_normal((8, 20))
            est = estimate_spectral_norm(M @ np.eye(20), rng)
            exact = np.linalg.svd(M, compute_uv=False)[0]
            # the scaling contract only needs percent-level accuracy
            assert est == pytest.approx(exact, rel=5e-3)


class TestTriangle:
    def test_counting(self):
        tri = TriangleSpec.complete(3)
        prob = build_triangle_bap(tri, np.zeros(3))
        assert prob.A.shape == (3 + 3, 3 + 3 + 3)

    def test_missing_edge_rejected(self):
        with pytest.raises(TriangleSpecError):
            TriangleSpec(3, ((0, 1), (0, 2)), ((0, 1, 2),))

    def test_edge_list_triples_match_brute_force(self):
        for seed in range(24):
            rng = np.random.default_rng(seed)
            nv = int(rng.integers(3, 30))
            pairs = list(itertools.combinations(range(nv), 2))
            keep = rng.permutation(len(pairs))[: rng.integers(1, len(pairs) + 1)]
            picked = [pairs[i] for i in keep]
            # reversed pairs and repeats are the same undirected edge;
            # ids below the top one that no edge uses are isolated vertices
            picked += picked[: 3]
            lines = ["# random graph", ""]
            for k, (u, v) in enumerate(picked):
                lines.append(f"{v} {u}  # reversed" if k % 3 else f"{u} {v}")
            tri = TriangleSpec.from_edge_list_text("\n".join(lines))
            edges = set(picked)
            brute = tuple(
                t for t in itertools.combinations(range(tri.num_vertices), 3)
                if {(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} <= edges
            )
            assert tri.num_vertices == 1 + max(v for _, v in picked)
            assert tri.edges == tuple(sorted(edges))
            assert tri.triples == brute

    def test_edge_list_triples_not_cubic(self):
        # 400 vertices and 1200 edges: a filter over all C(400, 3) vertex
        # triples takes about a second, the common-neighbour walk milliseconds
        rng = np.random.default_rng(5)
        edges = set()
        while len(edges) < 1200:
            u, v = sorted(rng.choice(400, size=2, replace=False))
            edges.add((int(u), int(v)))
        text = "\n".join(f"{u} {v}" for u, v in edges)
        start = time.perf_counter()
        TriangleSpec.from_edge_list_text(text)
        assert time.perf_counter() - start < 0.25

    def test_structure_is_sign_blocks(self):
        tri = TriangleSpec.complete(4)
        prob = build_triangle_bap(tri, np.zeros(6))
        D = prob.A.toarray()
        n_t, n_e = len(tri.triples), len(tri.edges)
        T = D[: 3 * n_t, :n_e]
        assert set(np.unique(T)) <= {-1.0, 0.0, 1.0}
        assert np.array_equal(D[: 3 * n_t, n_e : n_e + 3 * n_t], np.eye(3 * n_t))
        assert np.array_equal(D[3 * n_t :, :n_e], np.eye(n_e))
        assert np.array_equal(D[3 * n_t :, n_e + 3 * n_t :], np.eye(n_e))
        # each triple row: one +1 and two -1 over edge columns
        assert np.all(T.sum(axis=1) == -1.0)
        assert np.all(np.abs(T).sum(axis=1) == 3.0)

    def test_feasible_anchor_fixed_point(self):
        tri = TriangleSpec.complete(3)
        xbar = np.array([0.3, 0.25, 0.2])  # satisfies all triangle inequalities
        prob = build_triangle_bap(tri, xbar)
        sol = solve_rnnm(prob)
        assert np.allclose(sol.x[:3], xbar, atol=1e-12)

    def test_infeasible_anchor_matches_qp_oracle(self):
        tri = TriangleSpec.complete(3)
        xbar = np.array([1.0, 0.0, 0.0])
        prob = build_triangle_bap(tri, xbar)
        sol = solve_rnnm(prob, config=RnnmConfig(tol=1e-14))
        start = np.concatenate([np.zeros(3), np.zeros(3), np.ones(3)])
        ref = oracle_polyhedron_projection(prob.A.toarray(), prob.b, prob.v, start)
        assert np.linalg.norm(sol.x - ref) <= 1e-8


class TestVertexEnumeration:
    def test_tiny_lp(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        lp = LpProblem(A, np.array([1.0]), np.array([1.0, 0.0]))
        assert oracle_lp_vertex_enumeration(lp) == pytest.approx(1.0)

    def test_zero_rhs(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        lp = LpProblem(A, np.zeros(1), np.array([-3.0, -5.0]))
        assert oracle_lp_vertex_enumeration(lp) == pytest.approx(0.0)

    def test_infeasible_sentinel(self):
        A = SparseMatrix.from_dense(np.array([[1.0, 1.0]]))
        lp = LpProblem(A, np.array([-1.0]), np.array([1.0, 0.0]))
        assert oracle_lp_vertex_enumeration(lp) == INFEASIBLE

    def test_size_guard(self):
        A = SparseMatrix.from_dense(np.ones((1, 21)))
        lp = LpProblem(A, np.ones(1), np.ones(21))
        with pytest.raises(ValueError):
            oracle_lp_vertex_enumeration(lp)


class TestProjectionOracle:
    def test_matches_newton_on_random_instances(self):
        rng = np.random.default_rng(21)
        for seed in range(5):
            g = gen_bap_with_known_vertex(GenSpec(m=5, n=18, density=0.4, seed=seed))
            sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14))
            ref = oracle_polyhedron_projection(
                g.problem.A.toarray(), g.problem.b, g.problem.v, g.known_x
            )
            assert np.linalg.norm(sol.x - ref) <= 1e-9 * (1 + np.linalg.norm(ref))

    def test_requires_feasible_start(self):
        g = gen_bap_with_known_vertex(GenSpec(m=4, n=12, density=0.4, seed=0))
        with pytest.raises(ValueError):
            oracle_polyhedron_projection(
                g.problem.A.toarray(), g.problem.b, g.problem.v, np.ones(12) * 50
            )


class TestEdgeListText:
    def test_parses_and_induces_triples(self):
        text = "# square plus diagonal\n0 1\n1 2\n0 2\n2 3\n"
        tri = TriangleSpec.from_edge_list_text(text)
        assert tri.num_vertices == 4
        assert tri.triples == ((0, 1, 2),)
        assert (0, 1) in tri.edges and (2, 3) in tri.edges

    def test_rejects_self_loop(self):
        with pytest.raises(TriangleSpecError):
            TriangleSpec.from_edge_list_text("1 1\n")
