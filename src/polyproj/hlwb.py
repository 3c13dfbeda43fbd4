"""Cyclic anchored-projection baseline for the same projection problem.

One sweep projects the iterate onto each constraint hyperplane in turn
and then onto the nonnegative orthant; after every projection the
iterate is pulled back toward the anchor through the harmonic steering
sequence, ``x <- sigma_k * v + (1 - sigma_k) * proj(x)`` with
``sigma_k = 1/(k+1)`` (divergent sum, summable increments).  The method
converges in the limit but only linearly, so it serves as the
first-order reference point for the Newton solver.

The m hyperplane steps of a sweep are computed together.  With
``w_k = k x_k`` and ``s_k = k t_k``, where ``t_k`` is the multiple of
row ``a_i`` that the projection adds, the step reads
``w_{k+1} = w_k + v + s_k a_i``.  For a sweep that starts at global
index k0 from x0, row i (step k = k0 + i) then satisfies

    G_ii s_i = k0 (b_i - (A x0)_i) + i (b_i - (A v)_i) - sum_{j<i} G_ij s_j

with ``G = A A^T``: one forward substitution with ``tril(G)``, which is
the Gauss-Seidel sweep on ``A A^T`` of Bjorck and Elfving.  The point
before the clamp is ``(k0 x0 + m v + A^T s) / (k0 + m)``.  G is built
densely once per solve, O(m^2) memory, and a sweep costs one
triangular solve, one ``A^T s`` and one ``A x`` product.

The module does no file I/O: ``serialize.write_trace_csv`` writes the
per-sweep trace that ``HlwbConfig.collect_trace`` records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

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
        if not self.tol > 0.0:  # NaN fails too
            raise ValueError("tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


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

    The anchor is the problem's ``v``, and the first step (sigma_0 = 1)
    lands on it.  A sweep is m hyperplane projections followed by one
    orthant clamp; the steering index k is global and never resets.
    The hyperplane steps of a sweep are one forward substitution with
    ``tril(A A^T)`` on the scaled multipliers ``s = k t`` of the
    recurrence ``w_{k+1} = w_k + v + s_k a_i``, ``w_k = k x_k`` (see the
    module docstring); ``A A^T`` is held densely, O(m^2) memory.  The
    stopping test runs once per completed sweep on the post-orthant
    iterate (which is nonnegative): ``||A x_hat - b|| / (1 + ||b||) <= tol``.
    """
    cfg = config if config is not None else HlwbConfig()
    if problem.n_free:
        raise ValueError("free variables are out of scope for this baseline")
    A = problem.A.csc
    At = A.T
    m = A.shape[0]
    # only the lower triangle is read by the triangular solve
    G = (A @ At).toarray()
    if not np.all(np.diagonal(G) > 0.0):
        raise ZeroRowError("constraint matrix has an all-zero row")

    v = problem.v
    b = problem.b
    nb = 1.0 + float(np.linalg.norm(b))
    rv = b - A @ v
    ramp = np.arange(m) * rv

    # k0 * x0 and k0 * (b - A x0) at the start of the sweep; k0 = 0 first
    w0 = np.zeros_like(v)
    r0 = np.zeros_like(b)
    k0 = sweeps = 0
    trace: list[tuple[int, float, float]] = []

    while True:
        s = scipy.linalg.solve_triangular(G, r0 + ramp, lower=True, check_finite=False)
        # global iteration k0 + i is row i; k is the orthant step
        k = k0 + m
        xhat = np.maximum((w0 + m * v + At @ s) / k, 0.0)
        res = b - A @ xhat
        sigma = 1.0 / (k + 1)
        sweeps += 1
        rel = float(np.linalg.norm(res)) / nb
        if cfg.collect_trace:
            trace.append((sweeps, rel, sigma))
        if rel <= cfg.tol or sweeps == cfg.max_sweeps:
            break
        # x0 = sigma v + (1 - sigma) xhat, scaled by k0 = k + 1
        w0 = v + k * xhat
        r0 = rv + k * res
        k0 = k + 1

    return HlwbResult(
        x=xhat,
        rel_residual=rel,
        sweeps=sweeps,
        iterations=k + 1,
        status="converged" if rel <= cfg.tol else MAX_SWEEPS,
        trace=trace if cfg.collect_trace else None,
    )
