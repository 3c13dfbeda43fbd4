"""Test-instance construction with certified optima, plus brute-force oracles.

Projection instances are built backwards from a chosen optimum: pick a
basic feasible point x, a multiplier u and a complementary z >= 0, and
place the anchor at ``v = x - t*(A^T u + z)``; cone membership is
invariant under the positive scaling t, which is chosen so the anchor
norm comes out exactly as requested.  LP instances use the same device
on the objective: ``c = A^T u - z`` puts the chosen vertex's polar cone
behind c, certifying optimality.

The oracles here are deliberately independent of the package's solvers:
exhaustive vertex enumeration, a two-phase textbook simplex with
Bland's rule, and a primal active-set solver for projection QPs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .bap import BapProblem
from .lp import LpProblem
from .sparse_linalg import SparseMatrix, independent_columns

__all__ = [
    "GenSpec",
    "TriangleSpec",
    "GeneratedBap",
    "GeneratedLp",
    "GenerationError",
    "OracleError",
    "TriangleSpecError",
    "gen_bap_with_known_vertex",
    "gen_lp",
    "build_triangle_bap",
    "oracle_lp_vertex_enumeration",
    "reference_simplex",
    "oracle_polyhedron_projection",
    "INFEASIBLE",
]

# Sentinel returned by the enumeration oracle on infeasible instances.
INFEASIBLE = -math.inf

NONDEGENERATE = "nondegenerate"
DEGENERATE = "degenerate"
NON_VERTEX = "non_vertex"


class GenerationError(RuntimeError):
    """Random sampling failed to produce the requested structure."""


class OracleError(RuntimeError):
    """A brute-force oracle could not certify the instance."""


class TriangleSpecError(ValueError):
    """A triple references an edge that is not part of the graph."""


@dataclass(frozen=True)
class GenSpec:
    """Size, sparsity, seed and optimum character of a random instance."""

    m: int
    n: int
    density: float
    seed: int
    anchor_norm: float = 0.1
    degeneracy: str = NONDEGENERATE

    def __post_init__(self):
        if not self.m < self.n:
            raise ValueError("m < n is required")
        if not 0.0 < self.density <= 1.0:
            raise ValueError("density must lie in (0, 1]")
        if self.density * self.n < 1.0:
            raise ValueError("density * n must be at least one entry per row")
        if self.anchor_norm <= 0.0:
            raise ValueError("anchor_norm must be positive")
        if self.degeneracy not in (NONDEGENERATE, DEGENERATE, NON_VERTEX):
            raise ValueError(f"unknown degeneracy mode {self.degeneracy!r}")


@dataclass(frozen=True)
class TriangleSpec:
    """Graph data for a triangle-inequality projection instance.

    Edges are (u, v) pairs with u < v; every triple (u, v, w) with
    u < v < w must have its three edges present.
    """

    num_vertices: int
    edges: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        edge_set = set(self.edges)
        for (u, v) in self.edges:
            if not (0 <= u < v < self.num_vertices):
                raise TriangleSpecError(f"bad edge ({u}, {v})")
        for (u, v, w) in self.triples:
            if not (u < v < w):
                raise TriangleSpecError(f"triple ({u}, {v}, {w}) is not ordered")
            for e in ((u, v), (u, w), (v, w)):
                if e not in edge_set:
                    raise TriangleSpecError(f"triple ({u}, {v}, {w}) misses edge {e}")

    @classmethod
    def complete(cls, num_vertices: int) -> "TriangleSpec":
        edges = tuple(itertools.combinations(range(num_vertices), 2))
        triples = tuple(itertools.combinations(range(num_vertices), 3))
        return cls(num_vertices, edges, triples)

    @classmethod
    def from_edge_list_text(cls, text: str) -> "TriangleSpec":
        """Edge-list format: one ``u v`` pair per line (0-based vertex
        ids), comments with '#'.  Every triple induced by the edges is
        included."""
        edges = []
        top = -1
        for line in text.splitlines():
            line = line.split("#")[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise TriangleSpecError(f"bad edge line {line!r}")
            u, v = int(parts[0]), int(parts[1])
            if u == v:
                raise TriangleSpecError(f"self-loop ({u}, {v})")
            edges.append((min(u, v), max(u, v)))
            top = max(top, u, v)
        edge_set = set(edges)
        later = {x: set() for x in range(top + 1)}  # neighbours with a larger id
        for u, v in edge_set:
            later[u].add(v)
        # each triple u < v < w comes once, from its edge (u, v); sorting
        # restores the lexicographic order of itertools.combinations
        triples = tuple(sorted((u, v, w) for u, v in edge_set for w in later[u] & later[v]))
        return cls(top + 1, tuple(sorted(edge_set)), triples)


@dataclass
class GeneratedBap:
    problem: BapProblem
    known_x: np.ndarray
    known_y: np.ndarray
    known_z: np.ndarray


@dataclass
class GeneratedLp:
    problem: LpProblem
    known_optimum: float
    known_x: np.ndarray
    known_y: np.ndarray
    known_z: np.ndarray


def _random_sparse(rng: np.random.Generator, m: int, n: int, density: float) -> sp.csc_array:
    per_col = max(1, int(round(density * m)))
    rows = np.empty(per_col * n, dtype=np.int64)
    for j in range(n):
        rows[j * per_col : (j + 1) * per_col] = rng.choice(m, size=per_col, replace=False)
    cols = np.repeat(np.arange(n), per_col)
    vals = rng.standard_normal(per_col * n)
    vals[vals == 0.0] = 1.0
    A = sp.coo_array((vals, (rows, cols)), shape=(m, n)).tocsc()
    # repair pass: every row needs at least one entry for rank m to be possible
    row_counts = np.diff(A.tocsr().indptr)
    empty = np.where(row_counts == 0)[0]
    if empty.size:
        add_cols = rng.choice(n, size=empty.size, replace=True)
        add_vals = rng.standard_normal(empty.size)
        add_vals[add_vals == 0.0] = 1.0
        A = A + sp.coo_array((add_vals, (empty, add_cols)), shape=(m, n)).tocsc()
    return A.tocsc()


def estimate_spectral_norm(A, rng: np.random.Generator) -> float:
    """Power iteration on A^T A from a random start: sigma_max to a relative 1e-6, or 50 steps."""
    u = rng.standard_normal(A.shape[1])
    u /= np.linalg.norm(u)
    sigma = 0.0
    for _ in range(50):
        w = A @ u
        u_next = A.T @ w
        norm_next = float(np.linalg.norm(u_next))
        if norm_next == 0.0:
            return 0.0
        sigma_next = float(np.linalg.norm(w))
        u = u_next / norm_next
        if abs(sigma_next - sigma) <= 1e-6 * max(1.0, sigma_next):
            return sigma_next
        sigma = sigma_next
    return sigma


def _matrix_and_basis(rng: np.random.Generator, spec: GenSpec) -> tuple[SparseMatrix, np.ndarray]:
    """Random matrix scaled to unit spectral norm, and m independent columns."""
    m, n = spec.m, spec.n
    A_raw = _random_sparse(rng, m, n, spec.density)
    sigma = estimate_spectral_norm(A_raw, rng)
    if sigma == 0.0:
        raise GenerationError("sampled an all-zero matrix")
    A = SparseMatrix(A_raw * (1.0 / sigma))
    # independent columns of a sampled pool; widen the pool on failure up
    # to the whole matrix (rank m holds generically after the row repair)
    for pool in (min(n, 4 * m), min(n, 16 * m), n):
        if pool == n:
            cand = np.arange(n)
        else:
            cand = np.sort(rng.choice(n, size=pool, replace=False))
        basis = independent_columns(A, cand)
        if basis.size == m:
            return A, basis
    raise GenerationError("constraint matrix has no full-rank basis")


def gen_bap_with_known_vertex(spec: GenSpec) -> GeneratedBap:
    """Random projection instance whose optimum is known by construction.

    The anchor lands exactly at ``spec.anchor_norm``; only the cone
    element (u, z) is rescaled to get there, never the optimum itself.
    Nondegenerate mode keeps x + z > 0 everywhere; degenerate mode zeros
    z on part of the inactive set; non-vertex mode widens the support of
    x beyond the basic count.
    """
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    A, basis = _matrix_and_basis(rng, spec)
    support = basis
    if spec.degeneracy == NON_VERTEX:
        off = np.setdiff1d(np.arange(n), basis)
        extra = rng.choice(off, size=min(off.size, max(1, m // 2)), replace=False)
        support = np.sort(np.concatenate([basis, extra]))

    x = np.zeros(n)
    x[support] = rng.uniform(1.0, 2.0, size=support.size)
    # the anchor-norm equation below always has a positive root when the
    # optimum sits strictly inside the target sphere
    x *= (spec.anchor_norm / 2.0) / np.linalg.norm(x)
    b = A.matvec(x)

    off_support = np.setdiff1d(np.arange(n), support)
    z0 = np.zeros(n)
    if spec.degeneracy == DEGENERATE:
        keep = rng.random(off_support.size) < 0.5
        z0[off_support[keep]] = rng.uniform(0.5, 1.5, size=int(keep.sum()))
    else:
        z0[off_support] = rng.uniform(0.5, 1.5, size=off_support.size)

    u = rng.standard_normal(m)
    g = A.rmatvec(u) + z0
    gg = float(g @ g)
    if gg == 0.0:
        raise GenerationError("degenerate cone element")
    xg = float(x @ g)
    rho = spec.anchor_norm
    disc = xg * xg + gg * (rho * rho - float(x @ x))
    t = (xg + math.sqrt(disc)) / gg
    if not t > 0.0:
        raise GenerationError("no positive scaling for the anchor norm")

    v = x - t * g
    problem = BapProblem(A, b, v)
    return GeneratedBap(problem, x, t * u, t * z0)


def gen_lp(spec: GenSpec) -> GeneratedLp:
    """Random LP with a certified optimal vertex of unit norm.

    The objective is placed in the polar cone of the chosen vertex
    (strictly, in nondegenerate mode), so the optimum and its value are
    known exactly.  Degenerate mode appends duplicates of optimal
    columns, making the optimal solution non-unique.
    """
    if spec.degeneracy == NON_VERTEX:
        raise ValueError("LP generation supports nondegenerate and degenerate modes")
    rng = np.random.default_rng(spec.seed)
    m, n = spec.m, spec.n
    A, basis = _matrix_and_basis(rng, spec)
    x = np.zeros(n)
    x[basis] = rng.uniform(1.0, 2.0, size=m)
    x /= np.linalg.norm(x)

    off = np.setdiff1d(np.arange(n), basis)
    z = np.zeros(n)
    z[off] = rng.uniform(0.5, 1.5, size=off.size)
    u = rng.standard_normal(m)
    c = A.rmatvec(u) - z

    if spec.degeneracy == DEGENERATE:
        dup = basis[: min(3, basis.size)]
        A = SparseMatrix(sp.hstack([A.csc, A.csc[:, dup]], format="csc"))
        c = np.concatenate([c, c[dup]])
        x = np.concatenate([x, np.zeros(dup.size)])
        z = np.concatenate([z, np.zeros(dup.size)])

    b = A.matvec(x)
    problem = LpProblem(A, b, c)
    return GeneratedLp(problem, float(c @ x), x, u, z)


def build_triangle_bap(spec: TriangleSpec, xbar) -> BapProblem:
    """Slack-form projection instance for a set of triangle inequalities.

    Variables are (x, s, t) over edges, triple rows and edge bounds:
    ``T x + s = 0`` (three rows of {+1, -1, -1} per triple) and
    ``x + t = e``.  The anchor extends xbar with its own slack values,
    so a feasible xbar projects to itself.
    """
    xbar = np.asarray(xbar, dtype=np.float64)
    n_e = len(spec.edges)
    if xbar.shape != (n_e,):
        raise ValueError(f"xbar must have one entry per edge ({n_e})")
    edge_index = {e: i for i, e in enumerate(spec.edges)}
    n_t = len(spec.triples)

    rows, cols, vals = [], [], []
    for t_idx, (u, v, w) in enumerate(spec.triples):
        uv, uw, vw = edge_index[(u, v)], edge_index[(u, w)], edge_index[(v, w)]
        for r_off, (plus, m1, m2) in enumerate(((vw, uv, uw), (uw, uv, vw), (uv, vw, uw))):
            r = 3 * t_idx + r_off
            rows += [r, r, r]
            cols += [plus, m1, m2]
            vals += [1.0, -1.0, -1.0]
    T = sp.coo_array((vals, (rows, cols)), shape=(3 * n_t, n_e)).tocsc()

    top = sp.hstack([T, sp.eye_array(3 * n_t, format="csc"),
                     sp.csc_array((3 * n_t, n_e))], format="csc")
    bottom = sp.hstack([sp.eye_array(n_e, format="csc"),
                        sp.csc_array((n_e, 3 * n_t)),
                        sp.eye_array(n_e, format="csc")], format="csc")
    A = SparseMatrix(sp.vstack([top, bottom], format="csc"))

    ones = np.ones(n_e)
    b = np.concatenate([np.zeros(3 * n_t), ones])
    anchor = np.concatenate([xbar, -(T @ xbar), ones - xbar])
    return BapProblem(A, b, anchor)


def oracle_lp_vertex_enumeration(problem: LpProblem) -> float:
    """Exhaustive basic-solution scan; exact up to linear-solve roundoff.

    Enumerates all m-column subsets, keeps basic solutions that are
    consistent and nonnegative to a tolerance of 1e-9, and returns the
    best objective.  Infeasible instances return the INFEASIBLE
    sentinel.  Intended for n <= 20.
    """
    n, m = problem.n, problem.m
    if n > 20:
        raise ValueError("vertex enumeration is limited to n <= 20")
    A = problem.A.toarray()
    b = problem.b
    c = problem.c
    tol = 1e-9
    scale = 1.0 + float(np.linalg.norm(b))
    best = INFEASIBLE
    for subset in itertools.combinations(range(n), min(m, n)):
        cols = np.asarray(subset)
        sub = A[:, cols]
        xs, _, _, _ = np.linalg.lstsq(sub, b, rcond=None)
        if np.linalg.norm(sub @ xs - b) > tol * scale:
            continue
        if np.any(xs < -tol):
            continue
        val = float(c[cols] @ xs)
        if val > best:
            best = val
    return best


def reference_simplex(A, b, c) -> tuple[float, np.ndarray]:
    """Dense two-phase simplex with Bland's rule for ``max c^T x``.

    Anti-cycling but slow; an oracle, not a production solver.  Pivot
    and ratio ties use a tolerance of 1e-9; each phase stops after
    100,000 pivots.  Raises on infeasible or unbounded input (the
    generators only produce bounded instances).
    """
    tol = 1e-9
    A = np.atleast_2d(np.asarray(A, dtype=np.float64)).copy()
    b = np.asarray(b, dtype=np.float64).copy()
    c = np.asarray(c, dtype=np.float64)
    m, n = A.shape

    # normalize b >= 0 and append artificials
    neg = b < 0
    A[neg] *= -1.0
    b[neg] *= -1.0
    tab = np.hstack([A, np.eye(m)])
    basis = np.arange(n, n + m)

    def run(obj: np.ndarray, basis: np.ndarray, entering_limit: int):
        # Bland: lowest-index entering among profitable, lowest basis
        # index among min-ratio ties; finite termination guaranteed
        for _ in range(100_000):
            B = tab[:, basis]
            try:
                xb = np.linalg.solve(B, b)
                y = np.linalg.solve(B.T, obj[basis])
            except np.linalg.LinAlgError:
                raise OracleError("singular basis in reference simplex")
            reduced = obj - tab.T @ y
            reduced[basis] = 0.0
            entering = -1
            for j in range(entering_limit):
                if reduced[j] > tol:
                    entering = j
                    break
            if entering < 0:
                return basis, xb
            d = np.linalg.solve(B, tab[:, entering])
            pos = d > tol
            if not np.any(pos):
                raise OracleError("reference simplex detected unboundedness")
            ratios = np.full(m, np.inf)
            ratios[pos] = xb[pos] / d[pos]
            min_ratio = ratios.min()
            leaving = -1
            for i in range(m):
                if ratios[i] <= min_ratio + tol and (
                    leaving < 0 or basis[i] < basis[leaving]
                ):
                    leaving = i
            basis = basis.copy()
            basis[leaving] = entering
        raise OracleError("reference simplex iteration limit")

    phase1 = np.concatenate([np.zeros(n), -np.ones(m)])
    basis, xb = run(phase1, basis, n + m)
    if float(xb[basis >= n].sum()) > 1e-7 * (1.0 + float(np.linalg.norm(b))):
        raise OracleError("reference simplex: infeasible input")

    # drive artificials out of the basis where possible; a redundant row
    # keeps its artificial basic at level zero, which is harmless since
    # artificials are barred from entering in phase 2
    for i in range(m):
        if basis[i] >= n:
            B = tab[:, basis]
            for j in range(n):
                if j in basis:
                    continue
                d = np.linalg.solve(B, tab[:, j])
                if abs(d[i]) > 1e-7:
                    basis = basis.copy()
                    basis[i] = j
                    break

    phase2 = np.concatenate([c, np.zeros(m)])
    basis, xb = run(phase2, basis, n)
    x_full = np.zeros(n + m)
    x_full[basis] = xb
    if np.any(x_full[n:] > 1e-6 * (1.0 + float(np.linalg.norm(b)))):
        raise OracleError("reference simplex: artificial stayed positive")
    x = np.maximum(x_full[:n], 0.0)
    return float(c @ x), x


def oracle_polyhedron_projection(A, b, v, x_feasible) -> np.ndarray:
    """Primal active-set solver for ``min 0.5||x - v||^2, Ax=b, x>=0``.

    Needs a feasible start.  Lowest-index rules are used for both the
    blocking bound and the dropped multiplier, so the iteration cannot
    cycle; optimality is certified by an explicit KKT check, to a
    relative 1e-10, before returning.  Gives up after ``100*(n + 1)``
    steps.  Dense; intended as an oracle on small instances.
    """
    tol = 1e-10
    A = np.atleast_2d(np.asarray(A, dtype=np.float64))
    b = np.asarray(b, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    m, n = A.shape
    x = np.asarray(x_feasible, dtype=np.float64).copy()
    if np.linalg.norm(A @ x - b) > 1e-8 * (1.0 + np.linalg.norm(b)) or np.any(x < -1e-12):
        raise ValueError("starting point is not feasible")
    x = np.maximum(x, 0.0)
    active = x <= 0.0

    for _ in range(100 * (n + 1)):
        free = ~active
        Af = A[:, free]
        vf = v[free]
        lam, _, _, _ = np.linalg.lstsq(Af @ Af.T, Af @ vf - b, rcond=None)
        x_target = np.zeros(n)
        x_target[free] = vf - Af.T @ lam
        p = x_target - x

        if np.max(np.abs(p)) <= tol * (1.0 + np.max(np.abs(x))):
            y, _, _, _ = np.linalg.lstsq(A[:, free].T, (x - v)[free], rcond=None)
            mult = x - v - A.T @ y
            # Bland-style drop: lowest index with a negative multiplier
            drop = -1
            margin = -tol * (1.0 + np.max(np.abs(v)))
            for j in range(n):
                if active[j] and mult[j] < margin:
                    drop = j
                    break
            if drop < 0:
                return np.maximum(x, 0.0)
            active[drop] = False
            continue

        alpha = 1.0
        blocking = -1
        for j in range(n):
            if not active[j] and p[j] < -1e-15 and x[j] + p[j] < 0.0:
                a_j = x[j] / (-p[j])
                if a_j < alpha - 1e-15:
                    alpha, blocking = a_j, j
        x = x + alpha * p
        x[active] = 0.0
        if blocking >= 0:
            x[blocking] = 0.0
            active[blocking] = True
    raise RuntimeError("active-set oracle failed to terminate")
