import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import polyproj.hlwb
from polyproj.bap import BapProblem
from polyproj.factory import (
    DEGENERATE,
    GenSpec,
    TriangleSpec,
    build_triangle_bap,
    gen_bap_with_known_vertex,
)
from polyproj.hlwb import (
    MAX_SWEEPS,
    HlwbConfig,
    HlwbResult,
    ZeroRowError,
    _rows_and_gram,
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
    A = SparseMatrix(np.array([[1.0, 1.0]]))
    return BapProblem(A, np.array([1.0]), np.zeros(2))


class TestSolveHlwb:
    def test_simplex_plateau(self):
        res = solve_hlwb(tiny_problem(), HlwbConfig(tol=1e-14, max_sweeps=2000))
        # first-order method: expect the ~1e-4-order plateau, not 1e-14
        assert res.status == "max_sweeps"
        assert res.rel_residual <= 1e-3
        assert np.allclose(res.x, [0.5, 0.5], atol=0.01)

    def test_feasible_anchor_converges_fast(self):
        A = SparseMatrix(np.array([[1.0, 0.0], [0.0, 1.0]]))
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

    @pytest.mark.parametrize("max_sweeps", [0, -3, 2.5, float("nan")])
    def test_sweep_budget_below_one_rejected(self, max_sweeps):
        with pytest.raises(ValueError, match="max_sweeps must be at least 1"):
            HlwbConfig(max_sweeps=max_sweeps)

    def test_zero_row_rejected(self):
        A = SparseMatrix(np.array([[1.0, 1.0], [0.0, 0.0]]))
        prob = BapProblem(A, np.array([1.0, 0.0]), np.zeros(2))
        with pytest.raises(ZeroRowError):
            solve_hlwb(prob)

    def test_free_variables_rejected(self):
        A = SparseMatrix(np.array([[1.0, 1.0]]))
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
    Returns ``(x, sweeps, status)``."""
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
            return xhat, sweeps, "converged"
        if sweeps == cfg.max_sweeps:
            return xhat, sweeps, MAX_SWEEPS
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
        x, sweeps, status = row_by_row_hlwb(problem, cfg)
        assert (res.status, res.sweeps) == (status, sweeps)
        assert res.status == expected
        assert np.linalg.norm(res.x - x) <= 1e-12 * np.linalg.norm(x)


def triangular_solve_hlwb(problem, cfg):
    """The sweep loop on the scaled iterate ``W = k x_hat`` in plain scipy:
    each forward substitution through ``scipy.linalg.solve_triangular``
    instead of LAPACK ``dtrtrs`` directly, and every product over the
    whole of A.  A row sum that the solver starts from a value already
    in its output buffer starts here from a leading column of ones or of
    ``-b``: ``[I | A^T] @ [w; s]`` is ``w + A^T s`` and
    ``[-b | A] @ [k; W]`` is ``A W - k b``, summed in the solver's
    order.  Returns an ``HlwbResult``."""
    A = problem.A.csc
    At = A.T
    m, n = A.shape
    G = (A @ At).toarray()
    add_ats = sp.hstack([sp.identity(n, format="csr"), At.tocsr()], format="csr")
    aw_minus_kb = sp.hstack([sp.csr_array(-problem.b[:, None]), A.tocsr()], format="csr")
    v, b = problem.v, problem.b
    nb = 1.0 + float(np.linalg.norm(b))
    rv = b - A @ v
    rhs, w = np.arange(m) * rv, m * v
    rr, c = rv + rhs, v + w
    k0 = sweeps = 0
    trace = []
    while True:
        s = scipy.linalg.solve_triangular(G, rhs, lower=True, check_finite=False)
        k = k0 + m
        W = np.maximum(add_ats @ np.concatenate([w, s]), 0.0)
        ax = aw_minus_kb @ np.concatenate([[k], W])
        sweeps += 1
        rel = float(np.linalg.norm(ax)) / (k * nb)
        trace.append((sweeps, rel, 1.0 / (k + 1)))
        if rel <= cfg.tol or sweeps == cfg.max_sweeps:
            break
        rhs, w, k0 = rr - ax, W + c, k + 1
    status = "converged" if rel <= cfg.tol else MAX_SWEEPS
    return HlwbResult(W / k, rel, sweeps, status, trace)


def xhat_recurrence_hlwb(problem, cfg):
    """The sweep loop carrying the clamped iterate ``x_hat`` itself, with
    ``x_hat = max((w0 + m v + A^T s) / k, 0)`` and the next sweep's
    ``w0 = v + k x_hat`` and ``k0 (b - A x0) = rv + k (b - A x_hat)``.
    It is the scaled recurrence up to rounding.  Returns an
    ``HlwbResult``."""
    A = problem.A.csc
    At = A.T
    m = A.shape[0]
    G = (A @ At).toarray()
    v, b = problem.v, problem.b
    nb = 1.0 + float(np.linalg.norm(b))
    rv = b - A @ v
    ramp = np.arange(m) * rv
    w0, r0 = np.zeros_like(v), np.zeros_like(b)
    k0 = sweeps = 0
    trace = []
    while True:
        s = scipy.linalg.solve_triangular(G, r0 + ramp, lower=True, check_finite=False)
        k = k0 + m
        xhat = np.maximum((w0 + m * v + At @ s) / k, 0.0)
        res = b - A @ xhat
        sweeps += 1
        rel = float(np.linalg.norm(res)) / nb
        trace.append((sweeps, rel, 1.0 / (k + 1)))
        if rel <= cfg.tol or sweeps == cfg.max_sweeps:
            break
        w0, r0, k0 = v + k * xhat, rv + k * res, k + 1
    status = "converged" if rel <= cfg.tol else MAX_SWEEPS
    return HlwbResult(xhat, rel, sweeps, status, trace)


ORACLE_CASES = pytest.mark.parametrize(
    "m, density",
    # m = 50 at density 0.01 is the sparsest class of the benchmark's
    # sweeps, m = 200 at density 0.1 the largest
    [pytest.param(20, 0.05, id="20"), pytest.param(50, 0.05, id="50"),
     pytest.param(50, 0.01, id="50-d0.01"), pytest.param(120, 0.05, id="120"),
     pytest.param(200, 0.1, id="200-d0.1")],
)
ORACLE_SEEDS = pytest.mark.parametrize("seed", [101, 102, 103, 104])


@ORACLE_CASES
@ORACLE_SEEDS
def test_lapack_sweep_is_bit_identical_to_solve_triangular(m, density, seed):
    problem = gen_bap_with_known_vertex(GenSpec(m, 10 * m, density, seed=seed)).problem
    cfg = HlwbConfig(tol=1e-4, max_sweeps=400, collect_trace=True)
    got, want = solve_hlwb(problem, cfg), triangular_solve_hlwb(problem, cfg)
    assert np.array_equal(got.x, want.x)
    assert (got.rel_residual, got.sweeps, got.status) == (
        want.rel_residual, want.sweeps, want.status
    )
    assert got.trace == want.trace


@ORACLE_CASES
@ORACLE_SEEDS
def test_scaled_recurrence_matches_the_xhat_recurrence(m, density, seed):
    problem = gen_bap_with_known_vertex(GenSpec(m, 10 * m, density, seed=seed)).problem
    cfg = HlwbConfig(tol=1e-4, max_sweeps=400)
    got, old = solve_hlwb(problem, cfg), xhat_recurrence_hlwb(problem, cfg)
    assert (got.sweeps, got.status) == (old.sweeps, old.status)
    assert np.linalg.norm(got.x - old.x) <= 1e-14 * np.linalg.norm(old.x)


def test_cover_follows_a_support_that_grows_after_the_first_sweep():
    """Columns that are zero after sweep 1 and positive later must enter
    the cover that ``A W`` runs over; the full-matrix oracle checks it."""
    problem = gen_bap_with_known_vertex(GenSpec(10, 40, 0.3, seed=8)).problem
    first, second = (solve_hlwb(problem, HlwbConfig(tol=1e-18, max_sweeps=s)).x
                     for s in (1, 2))
    assert np.any((first == 0.0) & (second > 0.0))
    cfg = HlwbConfig(tol=1e-18, max_sweeps=200, collect_trace=True)
    got, want = solve_hlwb(problem, cfg), triangular_solve_hlwb(problem, cfg)
    assert np.array_equal(got.x, want.x)
    assert (got.rel_residual, got.sweeps, got.status, got.trace) == (
        want.rel_residual, want.sweeps, want.status, want.trace
    )


@pytest.mark.parametrize("vertices", [6, 8])
def test_triangle_instance_is_bit_identical_to_the_oracle(vertices):
    """Triangle-inequality rows: each row has three entries of +-1, a
    support pattern unlike the random generator's."""
    tri = TriangleSpec.complete(vertices)
    xbar = np.random.default_rng(0).uniform(0.0, 1.5, size=len(tri.edges))
    problem = build_triangle_bap(tri, xbar)
    cfg = HlwbConfig(tol=1e-3, max_sweeps=400, collect_trace=True)
    got, want = solve_hlwb(problem, cfg), triangular_solve_hlwb(problem, cfg)
    assert np.array_equal(got.x, want.x)
    assert (got.rel_residual, got.sweeps, got.status, got.trace) == (
        want.rel_residual, want.sweeps, want.status, want.trace
    )


@pytest.mark.parametrize("tol", [1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("seed", [21, 22, 23])
def test_rel_residual_describes_the_returned_x(tol, seed):
    """The loop's residual, read off ``A W - k b``, is that of ``x = W / k``."""
    problem = gen_bap_with_known_vertex(GenSpec(40, 400, 0.05, seed=seed)).problem
    res = solve_hlwb(problem, HlwbConfig(tol=tol, max_sweeps=300))
    b = problem.b
    direct = np.linalg.norm(problem.A.csc @ res.x - b) / (1.0 + np.linalg.norm(b))
    assert res.rel_residual == pytest.approx(direct, rel=1e-12, abs=0.0)
    assert (res.status == "converged") == (res.rel_residual <= tol)


@pytest.mark.parametrize("max_sweeps", [1, 3, 2000])
def test_solve_leaves_its_inputs_unchanged(max_sweeps, monkeypatch):
    """The sweep's reused buffers never alias v, b or the arrays of A, and
    the returned x shares no memory with the CSR copy of A or with G."""
    built = []

    def recording(csc):
        out = _rows_and_gram(csc)
        built.extend(out)
        return out

    monkeypatch.setattr(polyproj.hlwb, "_rows_and_gram", recording)
    problem = gen_bap_with_known_vertex(GenSpec(50, 500, 0.1, seed=12)).problem
    csc = problem.A.csc
    inputs = (problem.v, problem.b, csc.data, csc.indices, csc.indptr)
    before = [(a.dtype, a.shape, a.tobytes()) for a in inputs]
    res = solve_hlwb(problem, HlwbConfig(tol=1e-4, max_sweeps=max_sweeps))
    assert 1 <= res.sweeps <= max_sweeps
    assert [(a.dtype, a.shape, a.tobytes()) for a in inputs] == before
    # the CSR arrays of A (indptr, indices, data) and G
    assert len(built) == 4 and built[3].shape == (50, 50)
    assert not any(np.shares_memory(res.x, a) for a in inputs + tuple(built))


@pytest.mark.parametrize("seed", [5, 6])
def test_int32_and_int64_indices_give_equal_bits(seed):
    """The dense constructor yields int32 index arrays; an int64 copy of
    the same matrix runs the same kernels on the wider index type."""
    problem = gen_bap_with_known_vertex(GenSpec(30, 300, 0.05, seed=seed)).problem
    A32 = SparseMatrix(problem.A.toarray())
    c = A32.csc
    assert c.indices.dtype == c.indptr.dtype == np.int32
    c64 = sp.csc_array(
        (c.data.copy(), c.indices.astype(np.int64), c.indptr.astype(np.int64)), shape=c.shape
    )
    assert c64.indices.dtype == c64.indptr.dtype == np.int64
    A64 = SparseMatrix._trusted(c64)
    cfg = HlwbConfig(tol=1e-4, max_sweeps=400, collect_trace=True)
    got32 = solve_hlwb(BapProblem(A32, problem.b, problem.v), cfg)
    got64 = solve_hlwb(BapProblem(A64, problem.b, problem.v), cfg)
    assert np.array_equal(got32.x, got64.x)
    assert (got32.rel_residual, got32.sweeps, got32.status, got32.trace) == (
        got64.rel_residual, got64.sweeps, got64.status, got64.trace
    )
