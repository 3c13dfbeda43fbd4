"""Cyclic anchored-projection baseline for the same projection problem.

One sweep projects the iterate onto each constraint hyperplane in turn
and then onto the nonnegative orthant; after every projection the
iterate is pulled back toward the anchor through a steering sequence,
``x <- sigma_k * v + (1 - sigma_k) * proj(x)``.  The method converges
in the limit but only linearly, so it serves as the first-order
reference point for the Newton solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bap import BapProblem

__all__ = [
    "SteeringSequence",
    "HlwbConfig",
    "HlwbResult",
    "ZeroRowError",
    "project_hyperplane",
    "project_halfspace",
    "solve_hlwb",
    "MAX_SWEEPS",
]

MAX_SWEEPS = "max_sweeps"

# Dense row cache is used when the full matrix fits comfortably.
_DENSE_ROW_LIMIT = 8_000_000


class ZeroRowError(ValueError):
    """A constraint row is identically zero; its projection is undefined."""


@dataclass(frozen=True)
class SteeringSequence:
    """Relaxation schedule sigma_k in [0, 1], decaying to zero.

    The built-in harmonic kind is ``sigma_k = 1/(k+1)``, which satisfies
    the steering conditions (divergent sum, summable increments) by
    construction.  Custom tables are validated on the given prefix only:
    entries in [0, 1], non-increasing, not identically zero, and not a
    constant prefix (which would contradict decay to zero).
    """

    kind: str = "harmonic"
    table: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "harmonic":
            if self.table is not None:
                raise ValueError("harmonic steering takes no table")
            return
        if self.kind != "table":
            raise ValueError(f"unknown steering kind {self.kind!r}")
        if not self.table:
            raise ValueError("custom steering table is empty")
        vals = np.asarray(self.table, dtype=np.float64)
        if np.any(vals < 0.0) or np.any(vals > 1.0):
            raise ValueError("steering values must lie in [0, 1]")
        if np.any(np.diff(vals) > 0.0):
            raise ValueError("steering table must be non-increasing")
        if float(vals.sum()) == 0.0:
            raise ValueError("steering table sums to zero; all-zero sequences are ruled out")
        if vals.size > 1 and vals[-1] == vals[0]:
            raise ValueError("constant steering prefix contradicts decay to zero")

    @classmethod
    def harmonic(cls) -> "SteeringSequence":
        return cls(kind="harmonic")

    @classmethod
    def from_table(cls, values) -> "SteeringSequence":
        return cls(kind="table", table=tuple(float(v) for v in values))

    def sigma(self, k: int) -> float:
        if self.kind == "harmonic":
            return 1.0 / (k + 1)
        if k >= len(self.table):
            raise IndexError(f"steering table exhausted at global iteration {k}")
        return self.table[k]


@dataclass(frozen=True)
class HlwbConfig:
    tol: float = 1e-14
    max_sweeps: int = 2000
    steering: SteeringSequence = SteeringSequence.harmonic()
    collect_trace: bool = False


@dataclass
class HlwbResult:
    x: np.ndarray
    rel_residual: float
    sweeps: int
    iterations: int
    status: str
    trace: list[tuple[int, float, float]] | None = None


def project_hyperplane(x: np.ndarray, a: np.ndarray, beta: float) -> np.ndarray:
    """Orthogonal projection of x onto the hyperplane ``a^T u = beta``."""
    sq = float(a @ a)
    if sq == 0.0:
        raise ZeroRowError("cannot project onto a hyperplane with zero normal")
    return x + ((beta - float(a @ x)) / sq) * a


def project_halfspace(x: np.ndarray, a: np.ndarray, beta: float) -> np.ndarray:
    """Projection onto ``a^T u <= beta``; x is returned unchanged when inside."""
    sq = float(a @ a)
    if sq == 0.0:
        raise ZeroRowError("cannot project onto a half-space with zero normal")
    gap = beta - float(a @ x)
    if gap >= 0.0:
        return x
    return x + (gap / sq) * a


def solve_hlwb(problem: BapProblem, config: HlwbConfig | None = None) -> HlwbResult:
    """Run sweeps of cyclic projections with anchored steering.

    The anchor is the problem's ``v``; the start point is ``max(v, 0)``.
    A sweep is m hyperplane projections followed by one orthant clamp;
    the steering index k is global and never resets.  The stopping test
    runs once per completed sweep on the post-orthant iterate (which is
    nonnegative): ``||A x_hat - b|| / (1 + ||b||) <= tol``.
    """
    cfg = config if config is not None else HlwbConfig()
    if problem.n_free:
        raise ValueError("free variables are out of scope for this baseline")
    A = problem.A
    m, n = A.nrows, A.ncols
    csr = A.csc.tocsr()
    row_sq = np.asarray(csr.multiply(csr).sum(axis=1), dtype=np.float64).ravel()
    if np.any(row_sq == 0.0):
        raise ZeroRowError("constraint matrix has an all-zero row")
    dense_rows = A.toarray() if m * n <= _DENSE_ROW_LIMIT else None

    v = problem.v
    b = problem.b
    nb = 1.0 + float(np.linalg.norm(b))
    steering = cfg.steering

    x = np.maximum(v, 0.0)
    k = sweeps = 0
    trace: list[tuple[int, float, float]] = []
    last_xhat = x
    last_rel = float(np.linalg.norm(A.matvec(x) - b)) / nb

    while sweeps < cfg.max_sweeps:
        # global iteration k maps to hyperplane rows 0..m-1, then the orthant (m)
        pos = k % (m + 1)
        if pos < m:
            if dense_rows is not None:
                row = dense_rows[pos]
            else:
                row = np.zeros(n)
                lo, hi = csr.indptr[pos], csr.indptr[pos + 1]
                row[csr.indices[lo:hi]] = csr.data[lo:hi]
            xhat = project_hyperplane(x, row, float(b[pos]))
        else:
            xhat = np.maximum(x, 0.0)
        sigma = steering.sigma(k)
        x = sigma * v + (1.0 - sigma) * xhat
        if pos == m:
            sweeps += 1
            last_xhat = xhat
            last_rel = float(np.linalg.norm(A.matvec(xhat) - b)) / nb
            if cfg.collect_trace:
                trace.append((sweeps, last_rel, sigma))
            if last_rel <= cfg.tol:
                return HlwbResult(
                    x=last_xhat,
                    rel_residual=last_rel,
                    sweeps=sweeps,
                    iterations=k + 1,
                    status="converged",
                    trace=trace if cfg.collect_trace else None,
                )
        k += 1

    return HlwbResult(
        x=last_xhat,
        rel_residual=last_rel,
        sweeps=sweeps,
        iterations=k,
        status=MAX_SWEEPS,
        trace=trace if cfg.collect_trace else None,
    )


def write_trace_csv(result: HlwbResult, target) -> None:
    """Per-sweep convergence trace as CSV rows (sweep, rel_residual, sigma)."""
    if result.trace is None:
        raise ValueError("result carries no trace; solve with collect_trace=True")
    lines = ["sweep,rel_residual,sigma"]
    for sweep, rel, sigma in result.trace:
        lines.append(f"{sweep},{rel:.5e},{sigma:.5e}")
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="ascii") as fh:
            fh.write(text)
