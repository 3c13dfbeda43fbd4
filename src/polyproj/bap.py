"""Regularized nonsmooth Newton solver for projection onto a polyhedron.

Solves ``min 0.5*||x - v||^2  s.t.  A x = b, x_i >= 0`` on the
sign-constrained coordinates (coordinates may also be flagged free).
The entire KKT system collapses, through the Moreau decomposition of
``v + A^T y``, into the single residual equation

    F(y) = A * pi(v + A^T y) - b = 0,

where ``pi`` clamps sign-constrained coordinates at zero and passes free
coordinates through.  A Newton step on F uses a selected generalized
Jacobian ``V = sum_i u_i A_i A_i^T`` (u_i = 1 on the active set, a
norm-scaled weight on an independent subset of the boundary set) with a
Levenberg-Marquardt style shift ``lambda*I``.  F is the gradient of the
convex C^1 dual function ``theta(y) = 0.5*||pi(v + A^T y)||^2 - b^T y``
and the shifted Jacobian is positive definite, so the Newton step
descends on ``theta``; a backtracking line search on ``theta``
globalizes the iteration (see :func:`solve_rnnm`).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, cg

from .sparse_linalg import (
    SparseMatrix,
    _column_entries,
    as_vector,
    assemble_normal_matrix,
    cholesky_shifted,
    independent_columns,
)

__all__ = [
    "BapProblem",
    "IndexSets",
    "BapSolution",
    "RnnmConfig",
    "InvalidStateError",
    "residual",
    "moreau_split",
    "classify_indices",
    "generalized_jacobian",
    "regularization_lambda",
    "solve_rnnm",
    "dual_objective",
    "kkt_report",
    "is_vertex",
    "CONVERGED",
    "MAX_ITER",
    "STALLED",
    "NONDEGENERATE_VERTEX",
    "DEGENERATE_VERTEX",
    "NON_VERTEX",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
STALLED = "stalled"

NONDEGENERATE_VERTEX = "nondegenerate_vertex"
DEGENERATE_VERTEX = "degenerate_vertex"
NON_VERTEX = "non_vertex"

# Sufficient-decrease constant of the Armijo test on the dual function.
ARMIJO_SIGMA = 1e-4
# Steps without a new best that end a solve whose best meets 10 * tol.
STALL_WINDOW = 10
_EPS = float(np.finfo(np.float64).eps)


class InvalidStateError(RuntimeError):
    """An operation was asked of a solution in the wrong state."""


@dataclass(frozen=True, eq=False)
class BapProblem:
    """Projection instance: anchor ``v``, constraints ``A x = b``.

    ``free`` flags coordinates exempt from the nonnegativity constraint
    (all-constrained when None).  ``A`` must have no all-zero columns;
    feasibility is not checked and surfaces as non-convergence.
    """

    A: SparseMatrix
    b: np.ndarray
    v: np.ndarray
    free: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "b", as_vector(self.b, self.A.nrows, "b"))
        object.__setattr__(self, "v", as_vector(self.v, self.A.ncols, "v"))
        if self.free is None:
            free = np.zeros(self.A.ncols, dtype=bool)
        else:
            free = np.asarray(self.free, dtype=bool)
            if free.shape != (self.A.ncols,):
                raise ValueError("free mask must have one flag per column")
        object.__setattr__(self, "free", free)
        if self.A.has_zero_column():
            raise ValueError("constraint matrix has an all-zero column")

    @property
    def m(self) -> int:
        return self.A.nrows

    @property
    def n(self) -> int:
        return self.A.ncols

    @property
    def n_free(self) -> int:
        return int(np.count_nonzero(self.free))


@dataclass(frozen=True)
class IndexSets:
    """Active and boundary sets of the constrained coordinates of ``v + A^T y``.

    ``i_zero_bar`` is a maximal linearly independent subset of the
    columns indexed by ``i_zero``; constrained coordinates in neither set
    are inactive.  Free coordinates count as active and are not listed.
    """

    i_plus: np.ndarray
    i_zero: np.ndarray
    i_zero_bar: np.ndarray


@dataclass
class BapSolution:
    """Primal-dual certificate ``(x, y, z)`` with solve diagnostics.

    By construction ``x - z = v + A^T y`` holds exactly and
    ``z^T x = 0`` exactly (disjoint supports).
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    rel_residual: float
    iterations: int
    status: str
    trace: list[tuple[int, float, float, float]] | None = None


@dataclass(frozen=True)
class RnnmConfig:
    """Newton solver parameters.

    ``mode`` selects the linear solve: "exact" factors the shifted
    Jacobian with Cholesky, "inexact" runs ``scipy.sparse.linalg.cg``
    with a Jacobi preconditioner, at most ``max(10*m, 50)`` iterations,
    to the absolute residual bound
    ``0.5 * min(||F_k||, ||F_k||^2)``, the paper's forcing term
    ``theta * ||F_k||^nu`` with theta = 0.5 and nu = 2 for
    ``||F_k|| <= 1``.  The cap keeps the bound below ``||F_k||``:
    uncapped, it reaches ``||F_k||`` on large residuals and CG accepts
    the zero step.  The shift always follows the adaptive rule of
    :func:`regularization_lambda`.  A run that ends unconverged (y
    unchanged by a step, the rounding floor, ``STALL_WINDOW`` steps
    without a new best, or ``max_iter``) returns the best iterate and
    counts as converged if it meets ``10 * tol``.
    """

    tol: float = 1e-14
    max_iter: int = 2000
    mode: str = "exact"
    collect_trace: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:  # NaN fails too
            raise ValueError("tol must be positive")
        if not isinstance(self.max_iter, numbers.Integral) or self.max_iter < 1:
            raise ValueError("max_iter must be at least 1 and an integer")
        if self.mode not in ("exact", "inexact"):
            raise ValueError(f"unknown mode {self.mode!r}")


def _inner_point(problem: BapProblem, y: np.ndarray) -> np.ndarray:
    # Single canonical evaluation of v + A^T y; every consumer reuses it
    # so the Moreau identities hold bitwise across the module.
    return problem.v + problem.A.rmatvec(y)


def moreau_split(problem: BapProblem, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(x, z, p)`` with ``p = v + A^T y`` and ``x - z = p`` exact."""
    y = as_vector(y, problem.m, "y")
    p = _inner_point(problem, y)
    x = np.where(problem.free, p, np.maximum(p, 0.0))
    z = x - p
    return x, z, p


def residual(problem: BapProblem, y) -> np.ndarray:
    """Newton residual ``F(y) = A * pi(v + A^T y) - b``."""
    x, _, _ = moreau_split(problem, y)
    return problem.A.matvec(x) - problem.b


def default_zero_tol(p: np.ndarray) -> float:
    """Scale-relative threshold deciding membership of the boundary set."""
    scale = float(np.abs(p).max()) if p.size else 0.0
    return 1e-11 * (1.0 + scale)


def classify_indices(problem: BapProblem, p) -> IndexSets:
    """Classify constrained coordinates by the sign of ``p = v + A^T y``.

    ``p`` is the inner point that :func:`moreau_split` returns.  Entries
    within :func:`default_zero_tol` of zero land in the boundary set
    (ties at exactly zero are boundary, never active); the independent
    subset is extracted by rank-revealing QR.
    """
    p = as_vector(p, problem.n, "p")
    zero_tol = default_zero_tol(p)
    constrained = ~problem.free
    i_zero = np.where(constrained & (np.abs(p) <= zero_tol))[0]
    i_plus = np.where(constrained & (p > zero_tol))[0]
    i_zero_bar = independent_columns(problem.A, i_zero) if i_zero.size else i_zero
    return IndexSets(i_plus, i_zero, i_zero_bar)


def generalized_jacobian(
    problem: BapProblem, sets: IndexSets
) -> SparseMatrix | np.ndarray:
    """Selected generalized Jacobian ``V = sum u_i A_i A_i^T``.

    Active and free columns carry weight one; columns of the independent
    boundary subset carry ``min(1, 1/||A_i||^2)``, the diagonal scaling
    that conditions the chosen Jacobian.  ``V`` is a dense ``np.ndarray``
    for ``m <= DENSE_FACTOR_MAX_DIM`` and a :class:`SparseMatrix` above
    (see :func:`assemble_normal_matrix`).
    """
    free_idx = np.where(problem.free)[0]
    support = np.concatenate([sets.i_plus, free_idx, sets.i_zero_bar])
    weights = np.ones(problem.n)
    if sets.i_zero_bar.size:
        # squared norms summed column by column from the CSC arrays (no
        # column is empty); the weight squares the rounded norm
        csc = problem.A.csc
        pos, _, first = _column_entries(csc, sets.i_zero_bar)
        sq_norms = np.add.reduceat(np.square(csc.data[pos]), first)
        weights[sets.i_zero_bar] = np.minimum(1.0, 1.0 / np.sqrt(sq_norms) ** 2)
    return assemble_normal_matrix(problem.A, weights, support)


def regularization_lambda(
    rel_residual: float,
    newton_dir_norm: float,
    v_norm: float,
) -> float:
    """Adaptive shift parameter for the current iteration.

    Arithmetic mean of ``1e-2*r*max(1, log10 ||d||)``,
    ``1e-3*r*max(1, log10 ||v||)`` and ``1e-3*r`` for the relative
    residual ``r``; the log terms floor at one, which also covers the
    first iteration where no direction norm exists yet.
    """
    r = float(rel_residual)
    log_d = max(1.0, np.log10(newton_dir_norm)) if newton_dir_norm > 0.0 else 1.0
    log_v = max(1.0, np.log10(v_norm)) if v_norm > 0.0 else 1.0
    terms = (1e-2 * r * log_d, 1e-3 * r * log_v, 1e-3 * r)
    return float(sum(terms) / 3.0)


def _norm(x: np.ndarray) -> float:
    """Euclidean norm of a float64 vector, the value ``np.linalg.norm`` gives."""
    return math.sqrt(float(x @ x))


def _equal(a: np.ndarray, b: np.ndarray) -> bool:
    """``np.array_equal(a, b)`` for arrays of one dtype, without its dispatch."""
    return a.shape == b.shape and bool((a == b).all())


def solve_rnnm(
    problem: BapProblem,
    y0=None,
    config: RnnmConfig | None = None,
) -> BapSolution:
    """Run the regularized nonsmooth Newton iteration from ``y0``.

    Each step solves ``(V_k + lambda I) d = -F_k`` (Cholesky in exact
    mode, dense LAPACK or SuperLU by the size of ``V_k``; in inexact
    mode ``scipy.sparse.linalg.cg`` from zero, preconditioned by
    ``1 / diag(V_k + lambda I)``, to ``0.5*min(||F_k||, ||F_k||^2)``
    or its iteration cap), with ``lambda`` from
    :func:`regularization_lambda`, floored at ``1e-14 * max diag(V_k)``
    so that the shift stays above the rounding error of a singular
    ``V_k``.  ``V_k`` depends only on A and the index sets, so a step
    whose ``i_plus`` and ``i_zero_bar`` equal the previous step's reuses
    ``V_{k-1}`` and its diagonal, and refactors only the shifted matrix
    (or hands CG the new shift).  Either solve gives ``F_k^T d < 0``
    (a CG iterate started from zero too), so ``d`` descends on the dual
    function ``theta(y) = 0.5*||pi(v + A^T y)||^2 - b^T y``, whose
    gradient is F.
    The new iterate is ``y + t*d``, with ``t = 1, 1/2, 1/4, ...`` until
    the trial point, with Moreau split ``x_+`` and residual ``F_+``,
    meets one of:

    - Armijo: ``theta(y + t*d) - theta(y) <= ARMIJO_SIGMA * t * F_k^T d``,
      the difference evaluated as ``0.5*(x_+ - x)^T(x_+ + x) - t*b^T d``
      so that its rounding error shrinks with the step;
    - ``||F_+||`` meets ``tol``;
    - ``||F_+|| <= 0.5 * min_{j<=k} ||F_j||``: the smallest residual so
      far halves.

    The last rule lets the end game finish, where the Armijo difference
    is rounding noise; its steps, wherever taken, may raise theta.  Each
    one halves the record residual, which starts at the initial relative
    residual ``r_0`` and ends the solve once it meets ``tol``, so a
    solve takes at most ``ceil(log2(r_0 / tol))`` of them.  Past those,
    every step but a final one that meets ``tol`` decreases theta by the
    Armijo amount: the monotone descent that the convergence argument
    for Armijo-globalized Newton on a convex C^1 function rests on.  The
    accepted trial's Moreau split and residual are the next iterate's,
    so a full step costs what an unsearched step would, and gives the
    same ``y``.  Stops converged when ``||F(y)|| / (1 + ||b||) <= tol``.
    Otherwise it stops when a trial step leaves ``y`` unchanged at
    machine precision, when a new best residual is at or below the
    rounding floor ``eps * (||A||_F ||x|| + ||b||) / (1 + ||b||)`` of its
    ``x``, when ``STALL_WINDOW`` steps in a row bring no new best once
    the best meets ``10 * tol`` (the search is not monotone in the
    residual), or after ``max_iter`` steps.  It then returns the best
    iterate seen, with the ``(x, z)`` and residual computed when it was
    reached: converged if that best meets ``10 * tol``, else
    ``max_iter`` at the budget and stalled at the other exits.  Trace
    rows are ``(k, rel_residual, lambda, t)``.
    """
    cfg = config if config is not None else RnnmConfig()
    y = np.zeros(problem.m) if y0 is None else as_vector(y0, problem.m, "y0").copy()

    x, z, p = moreau_split(problem, y)
    F = problem.A.matvec(x) - problem.b
    b_norm = _norm(problem.b)
    nb = 1.0 + b_norm
    a_norm = _norm(problem.A.csc.data)  # Frobenius
    stopcrit = _norm(F) / nb
    v_norm = _norm(problem.v)

    best = (stopcrit, y, x, z, 0)  # the last entry is k
    trace: list[tuple[int, float, float, float]] = []
    d_norm = 0.0
    k = 0
    status = MAX_ITER

    sets = None
    while stopcrit > cfg.tol and k < cfg.max_iter:
        prev, sets = sets, classify_indices(problem, p)
        # V is a pure function of A and the sets (free is fixed per
        # problem), and neither the factor nor CG writes to it, so a step
        # whose sets repeat the last step's keeps it
        if (
            prev is None
            or not _equal(sets.i_plus, prev.i_plus)
            or not _equal(sets.i_zero_bar, prev.i_zero_bar)
        ):
            V = generalized_jacobian(problem, sets)
            diag = V.diagonal()
        lam = max(
            regularization_lambda(stopcrit, d_norm, v_norm),
            1e-14 * float(diag.max(initial=0.0)),
        )
        if cfg.mode == "exact":
            d = cholesky_shifted(V, lam).solve(-F)
        else:
            f_norm = _norm(F)
            tol_cg = 0.5 * min(f_norm, f_norm**2.0)  # theta = 0.5, nu = 2
            op = getattr(V, "csc", V)
            inv = 1.0 / (diag + lam)
            shape = (problem.m, problem.m)
            shifted = LinearOperator(
                shape, matvec=lambda q, _op=op, _lam=lam: _op @ q + _lam * q, dtype=np.float64
            )
            jacobi = LinearOperator(shape, matvec=lambda r, _inv=inv: _inv * r, dtype=np.float64)
            d, _ = cg(
                shifted,
                -F,
                x0=None,
                rtol=0.0,
                atol=tol_cg,
                maxiter=max(10 * problem.m, 50),
                M=jacobi,
            )
        t = 1.0
        while True:
            y_next = y + t * d
            if _equal(y_next, y):
                status = STALLED
                break
            x_next, z_next, p_next = moreau_split(problem, y_next)
            F_next = problem.A.matvec(x_next) - problem.b
            crit_next = _norm(F_next) / nb
            if crit_next <= cfg.tol or crit_next <= 0.5 * best[0]:
                break
            # the Armijo test runs last: on a full Newton step near the
            # solution the residual test passes and its products are skipped
            d_theta = 0.5 * float((x_next - x) @ (x_next + x))
            d_theta -= t * float(problem.b @ d)
            if d_theta <= ARMIJO_SIGMA * t * float(F @ d):
                break
            t *= 0.5
        if status == STALLED:
            break
        y, x, z, p, F, stopcrit = y_next, x_next, z_next, p_next, F_next, crit_next
        d_norm = _norm(d)
        k += 1
        if cfg.collect_trace:
            trace.append((k, stopcrit, lam, t))
        if stopcrit < best[0]:
            best = (stopcrit, y, x, z, k)
            # at the rounding floor of A x - b no step can gain more than
            # noise, which Armijo may keep accepting
            if stopcrit <= _EPS * (a_norm * _norm(x) + b_norm) / nb:
                status = STALLED
                break
        elif k - best[4] >= STALL_WINDOW and best[0] <= 10.0 * cfg.tol:
            status = STALLED
            break

    # every exit returns the best iterate, the last one if it meets tol;
    # y + t*d and moreau_split build fresh arrays, so it is returned as stored
    stopcrit, y, x, z, _ = best
    if stopcrit <= 10.0 * cfg.tol:
        status = CONVERGED

    return BapSolution(
        x=x,
        y=y,
        z=z,
        rel_residual=stopcrit,
        iterations=k,
        status=status,
        trace=trace if cfg.collect_trace else None,
    )


def dual_objective(problem: BapProblem, y, z) -> float:
    """Dual functional ``-0.5||z + A^T y||^2 + y^T(b - A v) - z^T v``.

    Equals the primal value at a converged certificate (strong duality);
    below it at any feasible ``(y, z)``.
    """
    y = as_vector(y, problem.m, "y")
    z = as_vector(z, problem.n, "z")
    zay = z + problem.A.rmatvec(y)
    av = problem.A.matvec(problem.v)
    return float(-0.5 * (zay @ zay) + y @ (problem.b - av) - z @ problem.v)


def kkt_report(problem: BapProblem, sol: BapSolution) -> tuple[float, float, float]:
    """Relative KKT residuals ``(primal, dual, complementarity)``.

    Dual feasibility and complementary slackness vanish to machine
    precision for Moreau-constructed certificates; the primal residual
    is the convergence measure.
    """
    p = _inner_point(problem, sol.y)
    primal = float(np.linalg.norm(problem.A.matvec(sol.x) - problem.b))
    primal /= 1.0 + float(np.linalg.norm(problem.b))
    dual_vec = (sol.x - sol.z) - p
    dual = float(np.linalg.norm(dual_vec)) / (1.0 + float(np.linalg.norm(problem.v)))
    comp = abs(float(sol.z @ sol.x))
    comp /= 1.0 + max(float(np.linalg.norm(sol.x)), float(np.linalg.norm(sol.z)))
    return primal, dual, comp


def is_vertex(problem: BapProblem, sol: BapSolution) -> str:
    """Classify the converged optimum as a vertex of the feasible set.

    A vertex requires full column rank of A on the active coordinates;
    nondegeneracy additionally requires the basic count ``m - n_free``
    of strictly positive constrained coordinates and an empty boundary
    set (strict complementarity).
    """
    if sol.status != CONVERGED:
        raise InvalidStateError("vertex classification requires a converged solution")
    _, _, p = moreau_split(problem, sol.y)
    sets = classify_indices(problem, p)
    free_idx = np.where(problem.free)[0]
    active = np.concatenate([sets.i_plus, free_idx])
    kept = independent_columns(problem.A, active)
    if kept.size < active.size:
        return NON_VERTEX
    basic_count = problem.m - problem.n_free
    if sets.i_plus.size == basic_count and sets.i_zero.size == 0:
        return NONDEGENERATE_VERTEX
    return DEGENERATE_VERTEX
