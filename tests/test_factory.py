import hashlib
import itertools
import time

import numpy as np
import pytest

from polyproj import factory
from polyproj.bap import BapSolution, CONVERGED, RnnmConfig, kkt_report, solve_rnnm
from polyproj.factory import (
    GenSpec,
    TriangleSpec,
    TriangleSpecError,
    build_triangle_bap,
    estimate_spectral_norm,
    gen_bap_with_known_vertex,
    gen_lp,
    reference_simplex,
)
from polyproj.sparse_linalg import SparseMatrix

from oracles import highs_optimum, oracle_polyhedron_projection


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
        with pytest.raises(ValueError, match="seed must be nonnegative"):
            GenSpec(m=2, n=10, density=0.5, seed=-1)  # default_rng rejects it
        # NaN and inf used to pass and fail later, in generation
        for bad in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="anchor_norm must be positive and finite"):
                GenSpec(m=2, n=10, density=0.5, seed=0, anchor_norm=bad)

    def test_m_below_one_rejected(self):
        for m in (0, -3):
            with pytest.raises(ValueError, match="m must be at least 1"):
                GenSpec(m=m, n=5, density=0.5, seed=1)


class _CallLog:
    """A Generator that records the name of every method called on it."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


def _choice_loop(rng, m, n, k):
    return np.concatenate([rng.choice(m, size=k, replace=False) for _ in range(n)])


class TestColumnRows:
    """The batched draw against the per-column ``rng.choice`` it replaces."""

    def assert_same_draws(self, m, n, k, lead, seed):
        ref, new = np.random.default_rng(seed), np.random.default_rng(seed)
        if lead:  # leaves half of a 64-bit output in the 32-bit buffer
            assert ref.integers(0, 7) == new.integers(0, 7)
        log = _CallLog(new)
        rows = factory._column_rows(log, m, n, k)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, _choice_loop(ref, m, n, k))
        assert new.bit_generator.state == ref.bit_generator.state
        assert np.array_equal(new.standard_normal(3), ref.standard_normal(3))
        assert np.array_equal(new.integers(0, 1000, size=3), ref.integers(0, 1000, size=3))
        return log.calls

    @pytest.mark.parametrize("lead", [False, True], ids=["fresh", "odd_buffer"])
    @pytest.mark.parametrize(
        "m, n, k",
        [(1, 4, 1), (5, 9, 1), (5, 9, 5), (50, 40, 1), (50, 40, 3), (50, 40, 50),
         (200, 30, 20), (257, 12, 100), (10001, 3, 200)],
    )
    def test_matches_choice_loop(self, m, n, k, lead):
        calls = self.assert_same_draws(m, n, k, lead, seed=1000 * m + 10 * k + n)
        assert calls == ["integers"]  # one batched call

    @pytest.mark.parametrize("lead", [False, True], ids=["fresh", "odd_buffer"])
    def test_tail_shuffle_sizes_keep_the_choice_loop(self, lead):
        # above m = 10000, numpy's choice shuffles the tail of range(m)
        # once k > m // 50; those sizes keep the per-column call
        calls = self.assert_same_draws(10001, 3, 201, lead, seed=5)
        assert calls == ["choice"] * 3

    def test_column_blocks_match(self, monkeypatch):
        monkeypatch.setattr(factory, "_FLOYD_CELLS", 2 * 30)
        for k in (1, 4, 30):
            self.assert_same_draws(30, 7, k, lead=True, seed=k)

    def test_random_draws_match(self):
        meta = np.random.default_rng(2026)
        for _ in range(40):
            m = int(meta.integers(1, 300))
            k = int(meta.integers(1, m + 1))
            n = int(meta.integers(1, 40))
            self.assert_same_draws(m, n, k, lead=bool(meta.integers(0, 2)),
                                   seed=int(meta.integers(2**31)))


def _pattern_digest(A: SparseMatrix) -> str:
    h = hashlib.sha256()
    h.update(np.asarray(A.csc.indptr, dtype="<i8").tobytes())
    h.update(np.asarray(A.csc.indices, dtype="<i8").tobytes())
    return h.hexdigest()


# sparsity patterns of seeded instances: integers only, so no BLAS or
# rounding difference moves them; a change that re-draws the instances
# every test and benchmark solves shows here
@pytest.mark.parametrize(
    "gen, spec, nnz, digest",
    [
        (gen_bap_with_known_vertex, GenSpec(m=50, n=500, density=0.02, seed=1001), 500,
         "eedf25d5fc92442eea4b05f8c699248dda60973a796bda4dc56b1d242497ce03"),
        (gen_bap_with_known_vertex, GenSpec(m=200, n=2000, density=0.1, seed=7), 40000,
         "26c1e989c624966256e9c1e4aabc01172f020153a668e0d47ef59f7b942d44c3"),
        (gen_bap_with_known_vertex, GenSpec(m=20, n=60, density=1.0, seed=3), 1200,
         "43d3d851db7269103814e8725b91989e1482ce7737ed401ddac76eb9421687ea"),
        # one entry per column: the row repair adds four entries
        (gen_bap_with_known_vertex, GenSpec(m=40, n=120, density=0.025, seed=2), 124,
         "5c8cc67625b73323030b04c99eb615815f7d4f7dbaade8fb57196c89adf7b92a"),
        (gen_lp, GenSpec(m=200, n=800, density=0.02, seed=12), 3200,
         "68af5d4b4134f1a6542399b296b5600e6c10c723ef461a2910fcbaefd5e3e1b1"),
        (gen_lp, GenSpec(m=10, n=40, density=0.3, seed=7003), 120,
         "bee0144d29fb6bb1a608736651f13d98d8a9fdf252a5bc9bd49231e488c77756"),
    ],
    ids=["bap_one_per_col", "bap_m200", "bap_dense", "bap_repair", "lp_m200", "lp_m10"],
)
def test_seeded_sparsity_patterns_pinned(gen, spec, nnz, digest):
    A = gen(spec).problem.A
    assert A.csc.nnz == nnz
    assert _pattern_digest(A) == digest


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
        # HiGHS's optimal vertex has the value certified by construction
        for seed in range(6):
            gl = gen_lp(GenSpec(m=4, n=12, density=0.5, seed=seed))
            val = highs_optimum(gl.problem)
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
            est = estimate_spectral_norm(SparseMatrix(M), rng)
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

    @pytest.mark.parametrize("line", ["-1 2", "0 -3"])
    def test_rejects_negative_vertex_id(self, line):
        with pytest.raises(TriangleSpecError, match=f"negative vertex id in edge line '{line}'"):
            TriangleSpec.from_edge_list_text(f"0 1\n{line}\n")

    @pytest.mark.parametrize("line", ["x 2", "0 1.5", "0 0x1"])
    def test_rejects_non_integer_vertex_id_naming_its_line(self, line):
        # a comment line and a blank line still count toward the line number
        text = f"# graph\n0 1\n\n{line}  # bad\n"
        with pytest.raises(
            TriangleSpecError, match=f"^line 4: non-integer vertex id in edge line '{line}'$"
        ):
            TriangleSpec.from_edge_list_text(text)

    def test_rejects_a_line_without_two_ids_naming_its_line(self):
        with pytest.raises(TriangleSpecError, match="^line 2: bad edge line '0 1 2'$"):
            TriangleSpec.from_edge_list_text("0 1\n0 1 2\n")
