"""External path-following LP solver built on parametrized projections.

For ``max c^T x  s.t.  A x = b, x >= 0`` the projection of ``R*c`` onto
the feasible set equals the LP optimum once ``R`` is large enough.  The
solver works with the equivalent scaled subproblem (anchor ``c``, right
hand side ``b/R``), whose solution ``w`` satisfies ``x(R) = R*w``.  A
sensitivity ratio test on the support sets of ``(w, z)`` yields the
largest ``R_n`` at which the support partition survives; jumping just
past these stepping stones, with warm-started multipliers, walks the
path in a handful of projection solves.  ``R_n = inf`` certifies LP
optimality.  Each stone carries one primal/dual bound certificate.  At
a final stone whose basis spans R^m the dual optimum, the solution of
``A_B^T y = c_B``, is read off from one dense least-squares solve;
everywhere else it comes from a companion free-variable projection onto
the nearest dual-feasible point.  The sensitivity system of each stone
is one dense least-squares solve as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .bap import BapProblem, BapSolution, CONVERGED, RnnmConfig, solve_rnnm
from .sparse_linalg import SparseMatrix, as_vector

__all__ = [
    "LpProblem",
    "BasisPartition",
    "SsepfState",
    "LpCertificate",
    "LpConfig",
    "StoneRecord",
    "LpResult",
    "NextStone",
    "InconsistentCertificateError",
    "SensitivityFailureError",
    "SubproblemFailureError",
    "initial_radius",
    "scaled_subproblem",
    "classify_bases",
    "ratio_test",
    "next_stone",
    "lp_bounds",
    "solve_lp",
]


class InconsistentCertificateError(ValueError):
    """w and z overlap after thresholding; the subproblem did not converge."""


class SensitivityFailureError(RuntimeError):
    """The sensitivity least-squares system is inconsistent beyond tolerance."""


class SubproblemFailureError(RuntimeError):
    """A projection subproblem stayed unconverged through the retry ladder."""

    def __init__(self, stone: int, rel_residual: float):
        super().__init__(
            f"subproblem at stone {stone} unconverged (rel residual {rel_residual:.3e})"
        )
        self.stone = stone
        self.rel_residual = rel_residual


@dataclass(frozen=True, eq=False)
class LpProblem:
    """Maximization LP data ``max c^T x  s.t.  A x = b, x >= 0``.

    Full row rank and a finite optimal value are assumed, not verified.
    """

    A: SparseMatrix
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", as_vector(self.b, self.A.nrows, "b"))
        object.__setattr__(self, "c", as_vector(self.c, self.A.ncols, "c"))
        if self.A.has_zero_column():
            raise ValueError("constraint matrix has an all-zero column")

    @property
    def m(self) -> int:
        return self.A.nrows

    @property
    def n(self) -> int:
        return self.A.ncols


@dataclass(frozen=True)
class BasisPartition:
    """Support sets: B where w > 0, N where z > 0, Z where both vanish."""

    B: np.ndarray
    N: np.ndarray
    Z: np.ndarray


@dataclass
class SsepfState:
    """Converged scaled-subproblem certificate at the current stone."""

    R: float
    w: np.ndarray
    y: np.ndarray
    z: np.ndarray
    bases: BasisPartition


@dataclass
class NextStone:
    """Ratio-test output: next stone and the warm-start step in y."""

    R_n: float
    dy: np.ndarray


@dataclass
class LpCertificate:
    x: np.ndarray
    y_lp: np.ndarray
    z_lp: np.ndarray
    lower: float
    upper: float
    rel_residual_triplet: tuple[float, float, float]
    warning: str | None = None


# Newton iteration budget of every projection subproblem solve.
SUBPROBLEM_MAX_ITER = 2000


@dataclass(frozen=True)
class LpConfig:
    """Path-following controls.

    ``tol_gap >= 0`` is the relative gap that ends the solve.
    ``subproblem_tols`` is the retry ladder for each projection solve,
    ``SUBPROBLEM_MAX_ITER`` Newton iterations per rung.  The nudge past
    a stone is relative, ``max(1e-8, 1e-2/stone)``.  The degeneracy
    escape that multiplies R by ten is described in :func:`solve_lp`.
    """

    tol_gap: float = 1e-8
    max_stones: int = 100
    subproblem_tols: tuple[float, ...] = (1e-14, 1e-13)

    def __post_init__(self):
        if not self.tol_gap >= 0.0:  # NaN fails too
            raise ValueError("tol_gap must be nonnegative")
        if self.max_stones < 1:
            raise ValueError("max_stones must be at least 1")


@dataclass
class StoneRecord:
    index: int
    R: float
    lower: float
    upper: float
    gap: float
    w_norm: float
    z_count: int
    subproblem_iterations: int
    subproblem_status: str


@dataclass
class LpResult:
    certificate: LpCertificate
    status: str
    stones: list[StoneRecord] = field(default_factory=list)
    degenerate: bool = False

    @property
    def gap(self) -> float:
        return _relative_gap(self.certificate.lower, self.certificate.upper)

    def report(self) -> dict:
        """Machine-readable solve report for the CLI and the harness."""
        return {
            "status": self.status,
            "degenerate": self.degenerate,
            "stones": len(self.stones),
            "R_sequence": [_round6(s.R) for s in self.stones],
            "gaps": [_round6(s.gap) for s in self.stones],
            "lower": _round6(self.certificate.lower),
            "upper": _round6(self.certificate.upper),
            "gap": _round6(self.gap),
            "residual_triplet": [_round6(t) for t in self.certificate.rel_residual_triplet],
        }


def _round6(x: float) -> float:
    if math.isinf(x) or math.isnan(x):
        return x
    return float(f"{x:.5e}")


def _relative_gap(lower: float, upper: float) -> float:
    if math.isinf(upper):
        return math.inf
    return (upper - lower) / (1.0 + (abs(upper) + abs(lower)) / 2.0)


def initial_radius(problem: LpProblem) -> float:
    """Starting radius ``min(50, sqrt(m n) ||b|| / (1 + ||c||))``.

    Falls back to 1 when b = 0 (the formula degenerates to zero and any
    positive radius works on a homogeneous right hand side).
    """
    nb = float(np.linalg.norm(problem.b))
    if nb == 0.0:
        return 1.0
    nc = float(np.linalg.norm(problem.c))
    return min(50.0, math.sqrt(problem.m * problem.n) * nb / (1.0 + nc))


def scaled_subproblem(problem: LpProblem, R: float) -> BapProblem:
    """Projection subproblem with anchor ``c`` and right hand side ``b/R``."""
    if not R > 0.0:
        raise ValueError("R must be positive")
    return BapProblem(problem.A, problem.b / R, problem.c)


def classify_bases(w, z, zero_tol: float) -> BasisPartition:
    """Threshold ``(w, z)`` into the support partition (B, N, Z).

    A coordinate exceeding the tolerance in both vectors means the
    subproblem certificate is inconsistent.  Nonempty Z flags failure of
    strict complementarity (degeneracy).
    """
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    pos_w = w > zero_tol
    pos_z = z > zero_tol
    if np.any(pos_w & pos_z):
        raise InconsistentCertificateError(
            "w and z are simultaneously positive after thresholding"
        )
    B = np.where(pos_w)[0]
    N = np.where(pos_z)[0]
    Z = np.where(~pos_w & ~pos_z)[0]
    return BasisPartition(B, N, Z)


# Relative cancellation floor for the ratio test: entries of e are
# differences of same-scale terms, so anything below this times the
# summand scale is treated as zero (robust R_n = inf detection).
_RATIO_EPS = 1e-9


def ratio_test(e: np.ndarray, f: np.ndarray, scale: np.ndarray) -> float:
    """``min f_i/e_i`` over entries with e_i > _RATIO_EPS*scale_i and f_i > 0 (inf if none).

    ``scale_i`` is the summand scale of e_i; below the floor e_i is cancellation noise.
    """
    e = np.asarray(e, dtype=np.float64)
    f = np.asarray(f, dtype=np.float64)
    eligible = (e > _RATIO_EPS * scale) & (f > 0.0)
    if not np.any(eligible):
        return math.inf
    return float(np.min(f[eligible] / e[eligible]))


def next_stone(problem: LpProblem, state: SsepfState) -> NextStone:
    """Sensitivity ratio test for the largest R preserving the bases.

    Takes the minimum-norm least-squares solution d of the stacked
    system ``[A_B A_B^T; A_Z^T] d = [b; 0]`` (one complete orthogonal
    factorization; the A_Z^T rows vanish when strict complementarity
    holds), forms the bound vectors e, f on the B and N blocks, and
    returns ``R_n = min f_i/e_i`` over entries with both positive
    (infinite over the empty set) together with the warm-start step in y.
    """
    A = problem.A
    R = state.R
    B, N, Z = state.bases.B, state.bases.N, state.bases.Z

    AB = A.cols(B)
    system = np.vstack([(AB.csc @ AB.csc.T).toarray(), A.cols(Z).toarray().T])
    rhs = np.concatenate([problem.b, np.zeros(Z.size)])
    # cond = eps * max(shape) is numpy's rcond=None cutoff
    dyp, _, _, _ = scipy.linalg.lstsq(
        system, rhs, cond=np.finfo(np.float64).eps * max(system.shape),
        lapack_driver="gelsy", check_finite=False,
    )
    res = float(np.linalg.norm(system @ dyp - rhs))
    if res > 1e-6 * (1.0 + float(np.linalg.norm(problem.b))):
        raise SensitivityFailureError(
            f"sensitivity system inconsistent (residual {res:.3e})"
        )

    bB = AB.rmatvec(dyp)
    bN = A.cols(N).rmatvec(dyp)
    wB = state.w[B]
    zN = state.z[N]

    eB = bB - R * wB
    fB = R * bB
    eN = -(bN + R * zN)
    fN = -R * bN

    e = np.concatenate([eB, eN])
    f = np.concatenate([fB, fN])
    scale = np.concatenate([np.abs(bB) + R * np.abs(wB), np.abs(bN) + R * np.abs(zN)])
    R_n = ratio_test(e, f, scale)
    if math.isfinite(R_n):
        R_n = max(R_n, R)

    factor = ((R - R_n) / (R * R_n)) if math.isfinite(R_n) else (-1.0 / R)
    return NextStone(R_n=R_n, dy=factor * dyp)


def _dual_feasibility_bap(
    problem: LpProblem, state: SsepfState, pin_basic: bool
) -> tuple[BapProblem, np.ndarray, np.ndarray]:
    """Nearest dual-feasible point as a free-variable projection.

    Variables (y_lp, z_B, z_N), y_lp free; constraints A_B^T y - z_B =
    c_B and A_N^T y - z_N = c_N; anchor (-y, 0, z_N).  Columns outside
    the keep mask are dropped and stay at their anchor values: y columns
    that vanish on B union N (all of them when both are empty), being
    unconstrained, and with ``pin_basic`` the z_B block, the z_B = 0
    equality case of the upper-bound lemma that at the final basis
    forces the exact dual optimum.  Returns the projection over the kept
    columns, the keep mask and the full anchor.
    """
    B, N = state.bases.B, state.bases.N
    m = problem.m
    M = sp.bmat(
        [
            [problem.A.cols(B).csc.T.tocsc(), -sp.eye_array(B.size, format="csc"), None],
            [problem.A.cols(N).csc.T.tocsc(), None, -sp.eye_array(N.size, format="csc")],
        ],
        format="csc",
    )
    rhs = np.concatenate([problem.c[B], problem.c[N]])
    anchor = np.concatenate([-state.y, np.zeros(B.size), state.z[N]])
    free = np.arange(anchor.size) < m

    keep = np.diff(M.indptr) > 0  # only y-block columns can be empty
    if pin_basic:
        keep[m : m + B.size] = False
    if not keep.all():
        M = M[:, np.where(keep)[0]]
    # blocks of the validated A and unit diagonals; bmat's CSC output is
    # canonical, so the matrix goes on the trusted path
    return BapProblem(SparseMatrix._trusted(M), rhs, anchor[keep], free[keep]), keep, anchor


def _basis_dual(
    problem: LpProblem, bases: BasisPartition
) -> tuple[np.ndarray, np.ndarray] | None:
    """Closed-form answer of the z_B = 0 projection at a basis spanning R^m.

    When the columns of B span R^m, the pinned dual-feasible set holds
    at most the one point ``y`` solving ``A_B^T y = c_B``, ``z_N =
    A_N^T y - c_N``; when it exists and ``z_N >= 0`` it is the
    projection's answer.  One least-squares solve of ``A_B^T y = c_B``
    (complete orthogonal factorization, rank cutoff 1e-10) covers every
    |B|.  Returns ``(y, z_N)``, or None when the numerical rank of A_B
    is below m (|B| < m included), ``A_B^T y = c_B`` leaves a relative
    residual above 1e-12 on any row of B, or some ``z_N`` entry is
    negative.
    """
    B, N = bases.B, bases.N
    ABt = problem.A.cols(B).toarray().T
    cB = problem.c[B]
    y, _, rank, _ = scipy.linalg.lstsq(
        ABt, cB, cond=1e-10, lapack_driver="gelsy", check_finite=False
    )
    if rank < problem.m:
        return None
    res = float(np.linalg.norm(ABt @ y - cB))
    if not res <= 1e-12 * (1.0 + float(np.linalg.norm(cB))):  # NaN fails too
        return None
    zN = problem.A.cols(N).rmatvec(y) - problem.c[N]
    if not np.all(zN >= 0.0):
        return None
    return y, zN


def lp_bounds(
    problem: LpProblem,
    state: SsepfState,
    config: LpConfig | None = None,
    pin_basic: bool = False,
) -> LpCertificate:
    """Primal/dual LP bounds from the current stone.

    Lower bound: ``c^T (R w)`` (feasible point).  Upper bound:
    ``b^T y_lp`` where ``(y_lp, z_lp)`` is the projection of the current
    multipliers onto the dual-feasible set; the two coincide whenever
    the projected ``z_lp`` vanishes on B.  ``pin_basic`` requests the
    z_B = 0 equality case directly (used once the basis is final).
    There the closed form of :func:`_basis_dual` is tried first, one
    dense least-squares solve; the projection runs only when it does not
    apply (A_B of rank below m, rows of ``A_B^T y = c_B`` left
    unsatisfied, or a negative ``z_N``).  Columns that
    :func:`_dual_feasibility_bap` drops keep their anchor values, and
    ``z_lp`` on Z is ``max(A_Z^T y_lp - c_Z, 0)``.  A failed dual
    projection is reported with an infinite upper bound and a warning
    flag.
    """
    cfg = config if config is not None else LpConfig()
    x = state.R * state.w
    lower = float(problem.c @ x)

    m = problem.m
    B, N, Z = state.bases.B, state.bases.N, state.bases.Z
    warning = None
    closed = _basis_dual(problem, state.bases) if pin_basic else None
    z_lp = np.zeros(problem.n)
    if closed is not None:
        y_lp, z_lp[N] = closed
    else:
        sub, keep, full = _dual_feasibility_bap(problem, state, pin_basic)
        sol = _solve_with_ladder(sub, None, cfg)
        if sol.status != CONVERGED:
            warning = f"dual-feasibility projection ended {sol.status}"
        full[keep] = sol.x
        y_lp = full[:m]
        z_lp[B] = full[m : m + B.size]
        z_lp[N] = full[m + B.size :]
    if Z.size:
        z_lp[Z] = np.maximum(problem.A.cols(Z).rmatvec(y_lp) - problem.c[Z], 0.0)

    upper = math.inf if warning else float(problem.b @ y_lp)

    nb = 1.0 + float(np.linalg.norm(problem.b))
    nc = 1.0 + float(np.linalg.norm(problem.c))
    primal = float(np.linalg.norm(problem.A.matvec(x) - problem.b)) / nb
    dual = float(np.linalg.norm(z_lp - problem.A.rmatvec(y_lp) + problem.c)) / nc
    comp = abs(float(x @ z_lp)) / (
        1.0 + max(float(np.linalg.norm(x)), float(np.linalg.norm(z_lp)))
    )
    return LpCertificate(
        x=x,
        y_lp=y_lp,
        z_lp=z_lp,
        lower=lower,
        upper=upper,
        rel_residual_triplet=(primal, dual, comp),
        warning=warning,
    )


def _solve_with_ladder(sub: BapProblem, y0, cfg: LpConfig) -> BapSolution:
    sol = None
    for tol in cfg.subproblem_tols:
        rc = RnnmConfig(tol=tol, max_iter=SUBPROBLEM_MAX_ITER)
        sol = solve_rnnm(sub, y0, rc)
        if sol.status == CONVERGED:
            return sol
    return sol


def _basis_zero_tol(w: np.ndarray, z: np.ndarray) -> float:
    scale = 1.0
    if w.size:
        scale += float(np.max(np.abs(w)))
    if z.size:
        scale += float(np.max(np.abs(z)))
    return 1e-11 * scale


def solve_lp(problem: LpProblem, config: LpConfig | None = None) -> LpResult:
    """Stepping-stone solve loop.

    Starting from the radius estimate, each round solves the scaled
    projection subproblem (warm-started from the previous multipliers
    plus the sensitivity step), classifies the supports, runs the ratio
    test, and computes one bound certificate for the stone: the pinned
    ``z_B = 0`` bound once the ratio test finds the basis final, the
    loose bound otherwise.  Stops when the relative gap meets
    ``tol_gap``; otherwise advances R just past the next stone.  Every
    other way out of a round (a failed sensitivity system, a final
    basis with a loose certificate, or a stone advance below
    ``1e-12 * R`` three times in a row) takes the one degeneracy
    escape: the next round starts from the same multipliers at ten
    times R.
    """
    cfg = config if config is not None else LpConfig()
    R = initial_radius(problem)
    y_start = None
    stones: list[StoneRecord] = []
    best: tuple[float, LpCertificate] | None = None
    degenerate = False
    tiny_advances = 0

    for stone in range(1, cfg.max_stones + 1):
        sub = scaled_subproblem(problem, R)
        sol = _solve_with_ladder(sub, y_start, cfg)
        if sol.status != CONVERGED:
            raise SubproblemFailureError(stone, sol.rel_residual)
        w, z = sol.x, sol.z
        bases = classify_bases(w, z, _basis_zero_tol(w, z))
        if bases.Z.size:
            degenerate = True
        state = SsepfState(R=R, w=w, y=sol.y, z=z, bases=bases)
        try:
            step = next_stone(problem, state)
        except SensitivityFailureError:
            step = None
            degenerate = True
        # at the final basis the z_B = 0 equality case pins the exact
        # dual optimum
        final = step is not None and math.isinf(step.R_n)
        cert = lp_bounds(problem, state, cfg, pin_basic=final)
        gap = _relative_gap(cert.lower, cert.upper)
        stones.append(
            StoneRecord(
                index=stone,
                R=R,
                lower=cert.lower,
                upper=cert.upper,
                gap=gap,
                w_norm=float(np.linalg.norm(w)),
                z_count=int(bases.Z.size),
                subproblem_iterations=sol.iterations,
                subproblem_status=sol.status,
            )
        )
        if best is None or gap < best[0]:
            best = (gap, cert)
        if gap <= cfg.tol_gap:
            return LpResult(cert, "solved", stones, degenerate)

        if step is not None and not final:
            tiny_advances = tiny_advances + 1 if step.R_n - R < 1e-12 * R else 0
            if tiny_advances < 3:
                nudge = max(1e-8, 1e-2 / stone)
                y_start = sol.y + step.dy
                R = step.R_n * (1.0 + nudge)
                continue
            # the stone advance stalled three times in a row
            degenerate = True
            tiny_advances = 0

        # degeneracy escape: same multipliers, ten times the radius (at
        # a final basis with a loose certificate this brings the
        # multipliers closer to dual feasibility)
        y_start = sol.y
        R = 10.0 * R

    return LpResult(best[1], "stone_budget", stones, degenerate)
