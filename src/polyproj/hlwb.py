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
the Gauss-Seidel sweep on ``A A^T`` of Bjorck and Elfving.  The sweep
ends at ``k = k0 + m`` on the clamped point ``x_hat = W / k`` with

    W = max(k0 x0 + m v + A^T s, 0),

as ``k max(u / k, 0) = max(u, 0)`` for ``k > 0``.  The loop carries W,
never x_hat.  The next sweep starts from ``x0 = sigma v + (1 - sigma)
x_hat`` at ``k0 = k + 1``, so ``k0 x0 + m v = W + c`` with
``c = v + m v``, and its right-hand side ``k0 (b - A x0) + i (b - A v)``
is ``rv + i rv - (A W - k b)`` with ``rv = b - A v``.  The stopping test
reads the same vector: ``||A x_hat - b|| = ||A W - k b|| / k``.

Once per solve, scipy's compiled sparse kernels build a CSR copy of A
(``csr_tocsc`` on its CSC arrays) and G (``csr_matmat`` and
``csr_todense``), densely and F-ordered, O(m^2) memory; the same
kernels that ``(A @ A.T).toarray()`` runs, without its dispatch.  A
sweep then costs one LAPACK ``dtrtrs`` call on G, which solves in place
(the call ``scipy.linalg.solve_triangular`` makes for F-ordered input,
without its argument handling), ``A^T s`` by ``csr_matvec`` on the CSC
arrays of A, added straight onto the buffer that holds ``W + c``, the
clamp, and ``A W - k b`` by ``csr_matvec`` onto ``-k b``.  Every vector
it writes is a buffer allocated once per solve, so a sweep allocates no
array, and x_hat is formed once, at exit.

``A W`` runs over the rows of A restricted to a cover of the support of
W, a set of columns outside which W is zero.  The cover is the support
of W when it was last built; it is built again, in O(nnz(A)), whenever
``outside @ W`` (``outside`` the 0/1 indicator of the columns not in
the cover) is not ``<= 0``, which a positive entry or a NaN outside the
cover makes.  The support of W settles early, so the cover is rarely
rebuilt, and a sparse W makes ``A W`` cheaper than a full product.  The
terms it skips are ``a_ij * 0``, which leave a sum other than a signed
zero unchanged, and each row keeps its column order, the order of
``csc_matvec``: ``A W`` holds the bits of the full product, up to the
sign of a zero.

The module does no file I/O: ``serialize.write_trace_csv`` writes the
per-sweep trace that ``HlwbConfig.collect_trace`` records.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.sparse._sparsetools import (
    csr_matmat,
    csr_matmat_maxnnz,
    csr_matvec,
    csr_todense,
    csr_tocsc,
)

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
        if not isinstance(self.max_sweeps, numbers.Integral) or self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1 and an integer")


@dataclass
class HlwbResult:
    x: np.ndarray
    rel_residual: float
    sweeps: int
    status: str
    trace: list[tuple[int, float, float]] | None = None


def project_hyperplane(
    x: np.ndarray, cols: np.ndarray, vals: np.ndarray, beta: float
) -> np.ndarray:
    """Project x in place onto the hyperplane ``a^T u = beta`` and return it.

    The normal ``a`` is given sparsely: ``a[cols] = vals`` and zero
    elsewhere, so the cost is O(len(cols)) whatever the length of x.

    No solver calls it: :func:`solve_hlwb` takes the m steps of a sweep
    together.  It stays because the traced benchmark run aggregates it
    (ROADMAP items 4 and 11), and it is the single-row step that the
    sweep is tested against.
    """
    sq = float(vals @ vals)
    if sq == 0.0:
        raise ZeroRowError("cannot project onto a hyperplane with zero normal")
    x[cols] += ((beta - float(vals @ x[cols])) / sq) * vals
    return x


def _rows_and_gram(csc) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays of ``A`` and ``G = A A^T``, densely, from scipy's kernels.

    The CSC arrays of ``A`` are the CSR arrays of ``A^T``; ``csr_tocsc``
    on them gives the CSR arrays of ``A``, whose rows list their columns
    in increasing order.  ``csr_matmat`` then forms ``A A^T`` and
    ``csr_todense`` writes it into a C-ordered zero buffer: the calls
    and operands that ``(csc @ csc.T).toarray()`` makes, so G holds the
    same bits.  G is returned as the F-ordered transpose view of that
    buffer, as ``toarray`` returns it, which ``dtrtrs`` reads in place.
    """
    m, n = csc.shape
    idx = csc.indices.dtype
    rptr = np.empty(m + 1, dtype=idx)
    rind = np.empty(csc.nnz, dtype=idx)
    rval = np.empty(csc.nnz)
    csr_tocsc(n, m, csc.indptr, csc.indices, csc.data, rptr, rind, rval)
    nnz = csr_matmat_maxnnz(m, m, rptr, rind, csc.indptr, csc.indices)
    gptr = np.empty(m + 1, dtype=idx)
    gind = np.empty(nnz, dtype=idx)
    gval = np.empty(nnz)
    csr_matmat(m, m, rptr, rind, rval, csc.indptr, csc.indices, csc.data, gptr, gind, gval)
    dense = np.zeros((m, m))
    csr_todense(m, m, gptr, gind, gval, dense)
    return rptr, rind, rval, dense.T


def _column_restriction(
    rptr: np.ndarray, rind: np.ndarray, rval: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays of A with only the entries in the columns where
    ``keep`` is True.  Column indices stay those of A, and each row keeps
    its column order."""
    kept = keep[rind]
    before = np.zeros(len(rind) + 1, dtype=rptr.dtype)
    np.cumsum(kept, dtype=rptr.dtype, out=before[1:])
    return before[rptr], rind[kept], rval[kept]


def solve_hlwb(problem: BapProblem, config: HlwbConfig | None = None) -> HlwbResult:
    """Run sweeps of cyclic projections with anchored harmonic steering.

    The anchor is the problem's ``v``, and the first step (sigma_0 = 1)
    lands on it.  A sweep is m hyperplane projections followed by one
    orthant clamp; the steering index k is global and never resets.
    The hyperplane steps of a sweep are one forward substitution with
    ``tril(A A^T)`` on the scaled multipliers ``s = k t`` of the
    recurrence ``w_{k+1} = w_k + v + s_k a_i``, ``w_k = k x_k``, and the
    loop carries the clamped scaled iterate ``W = k x_hat`` from sweep
    to sweep (see the module docstring); ``A A^T`` is held densely,
    O(m^2) memory.  ``A W`` runs over a cover of the support of W,
    rebuilt when W grows outside it.  The stopping test runs once per
    completed sweep on the post-orthant iterate (which is nonnegative):
    ``||A x_hat - b|| / (1 + ||b||) <= tol``, computed as
    ``||A W - k b|| / (k (1 + ||b||))``; ``rel_residual`` is that value,
    and ``x = W / k`` is formed once, at exit.
    """
    cfg = config if config is not None else HlwbConfig()
    if problem.n_free:
        raise ValueError("free variables are out of scope for this baseline")
    A = problem.A
    csc = A.csc
    m, n = csc.shape
    rptr, rind, rval, G = _rows_and_gram(csc)
    # F-ordered, so dtrtrs reads G without a copy; it reads only the
    # lower triangle
    assert G.flags.f_contiguous
    if not np.all(np.diagonal(G) > 0.0):
        raise ZeroRowError("constraint matrix has an all-zero row")

    v = problem.v
    b = problem.b
    nb = 1.0 + float(np.linalg.norm(b))
    rv = b - A.matvec(v)
    # the first sweep (k0 = 0): s is solved in place in rhs = i rv, and
    # A^T s is added onto w = m v
    rhs = np.arange(m) * rv
    w = m * v
    # later sweeps: rhs = rr - (A W - k b) and w = W + c
    rr = rv + rhs
    c = v + w
    ax = np.empty(m)
    # the cover starts empty, so the first sweep with W != 0 builds it
    outside = np.ones(n)
    cptr, cind, cval = _column_restriction(rptr, rind, rval, np.zeros(n, dtype=bool))
    k0 = sweeps = 0
    trace: list[tuple[int, float, float]] = []

    while True:
        s, info = dtrtrs(G, rhs, lower=1, overwrite_b=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dtrtrs returned info {info}")
        # global iteration k0 + i is row i; k is the orthant step
        k = k0 + m
        # W = max(w + A^T s, 0); the CSC arrays of A are the CSR arrays of A^T
        csr_matvec(n, m, csc.indptr, csc.indices, csc.data, s, w)
        np.maximum(w, 0.0, out=w)
        if not outside @ w <= 0.0:  # W grew outside the cover, or is NaN
            held = w != 0.0
            outside = np.logical_not(held).astype(float)
            cptr, cind, cval = _column_restriction(rptr, rind, rval, held)
        # A W - k b row by row, each row summed in the column order of
        # csc_matvec from -k b_i
        np.multiply(b, -k, out=ax)
        csr_matvec(m, n, cptr, cind, cval, w, ax)
        sigma = 1.0 / (k + 1)
        sweeps += 1
        # ||A x_hat - b|| / (1 + ||b||), the norm as np.linalg.norm computes it
        rel = math.sqrt(ax @ ax) / (k * nb)
        if cfg.collect_trace:
            trace.append((sweeps, rel, sigma))
        if rel <= cfg.tol or sweeps >= cfg.max_sweeps:
            break
        np.subtract(rr, ax, out=rhs)
        np.add(w, c, out=w)
        k0 = k + 1

    np.divide(w, k, out=w)
    return HlwbResult(
        x=w,
        rel_residual=rel,
        sweeps=sweeps,
        status="converged" if rel <= cfg.tol else MAX_SWEEPS,
        trace=trace if cfg.collect_trace else None,
    )
