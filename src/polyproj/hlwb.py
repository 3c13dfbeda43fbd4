"""Cyclic anchored-projection baseline for the same projection problem.

One sweep projects the iterate onto each constraint hyperplane in turn
and then onto the nonnegative orthant; after every projection the
iterate is pulled back toward the anchor through the harmonic steering
sequence, ``x <- sigma_k * v + (1 - sigma_k) * proj(x)`` with
``sigma_k = 1/(k+1)`` (divergent sum, summable increments).  Each row
projection reads the row straight from the CSR form of A, so it costs
O(nnz(row)).  The method converges in the limit but only linearly, so
it serves as the first-order reference point for the Newton solver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bap import BapProblem

__all__ = [
    "HlwbConfig",
    "HlwbResult",
    "ZeroRowError",
    "project_hyperplane",
    "solve_hlwb",
    "MAX_SWEEPS",
]

MAX_SWEEPS = "max_sweeps"


class ZeroRowError(ValueError):
    """A constraint row is identically zero; its projection is undefined."""


@dataclass(frozen=True)
class HlwbConfig:
    """Baseline controls: stopping tolerance, sweep budget, and whether
    to record the per-sweep ``(sweep, rel_residual, sigma)`` trace."""

    tol: float = 1e-14
    max_sweeps: int = 2000
    collect_trace: bool = False

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")


@dataclass
class HlwbResult:
    x: np.ndarray
    rel_residual: float
    sweeps: int
    iterations: int
    status: str
    trace: list[tuple[int, float, float]] | None = None


def project_hyperplane(
    x: np.ndarray, cols: np.ndarray, vals: np.ndarray, beta: float
) -> np.ndarray:
    """Project x in place onto the hyperplane ``a^T u = beta`` and return it.

    The normal ``a`` is given sparsely: ``a[cols] = vals`` and zero
    elsewhere, so the cost is O(len(cols)) whatever the length of x.
    """
    sq = float(vals @ vals)
    if sq == 0.0:
        raise ZeroRowError("cannot project onto a hyperplane with zero normal")
    x[cols] += ((beta - float(vals @ x[cols])) / sq) * vals
    return x


def solve_hlwb(problem: BapProblem, config: HlwbConfig | None = None) -> HlwbResult:
    """Run sweeps of cyclic projections with anchored harmonic steering.

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
    m = A.nrows
    csr = A.csc.tocsr()
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    # stored entries are nonzero, so an empty row is an all-zero row
    if np.any(np.diff(indptr) == 0):
        raise ZeroRowError("constraint matrix has an all-zero row")

    v = problem.v
    b = problem.b
    nb = 1.0 + float(np.linalg.norm(b))

    x = np.maximum(v, 0.0)
    k = sweeps = 0
    trace: list[tuple[int, float, float]] = []
    last_xhat = x
    last_rel = float(np.linalg.norm(A.matvec(x) - b)) / nb

    while sweeps < cfg.max_sweeps:
        # global iteration k maps to hyperplane rows 0..m-1, then the orthant (m)
        pos = k % (m + 1)
        if pos < m:
            lo, hi = indptr[pos], indptr[pos + 1]
            xhat = project_hyperplane(x, indices[lo:hi], data[lo:hi], float(b[pos]))
        else:
            xhat = np.maximum(x, 0.0)
        sigma = 1.0 / (k + 1)
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


def write_trace_csv(result, target, header: str = "sweep,rel_residual,sigma") -> None:
    """Convergence trace of a solve as CSV rows under ``header``.

    ``result.trace`` holds ``(count, value, ...)`` rows:
    ``(sweep, rel_residual, sigma)`` for HLWB, ``(iteration,
    rel_residual, lambda, step)`` for the Newton solver.  The count is
    written as an integer and every other field as ``%.5e``.
    """
    if result.trace is None:
        raise ValueError("result carries no trace; solve with collect_trace=True")
    lines = [header]
    for count, *values in result.trace:
        lines.append(",".join([str(count)] + [f"{v:.5e}" for v in values]))
    text = "\n".join(lines) + "\n"
    if hasattr(target, "write"):
        target.write(text)
    else:
        with open(target, "w", encoding="ascii") as fh:
            fh.write(text)
