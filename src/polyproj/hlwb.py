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

Once per solve, scipy's compiled sparse kernels build G (``csr_tocsc``
for the CSR operand of ``csr_matmat``, then ``csr_matmat`` and
``csr_todense``), densely and F-ordered, O(m^2) memory.  G holds the
bits of ``(A @ A.T).toarray()``, as ``csr_matmat`` stores the same
entries whatever the length of its output buffers.  Those are sized
without the pass that counts G's entries: every stored entry (i, l)
takes at least one product ``a_ij a_lj``, column j makes ``c_j^2`` of
them from its ``c_j`` entries, and G has m^2 entries, so at most
``min(m^2, sum_j c_j^2)`` are stored.  A sweep then costs one LAPACK ``dtrtrs``
call on G, which solves in place (the call
``scipy.linalg.solve_triangular`` makes for F-ordered input, without
its argument handling), ``A^T s`` by ``csr_matvec`` on the CSC arrays
of A, added straight onto the buffer that holds ``W + c``, the clamp,
and ``A W - k b`` by ``csr_matvec`` onto ``-k b``.  Every vector it
writes is a buffer allocated once per solve, so a sweep allocates no
array, and x_hat is formed once, at exit.  The loop calls the kernels
with the least dispatch that gives the same arithmetic: ``ndarray.dot``
for the 1-D products, ``dtrtrs`` with positional arguments, and the
config, the arrays of A and the ufuncs bound to local names.

``A W`` runs over the rows of A restricted to a cover of the support of
W, a set of columns outside which W is zero.  The cover is the support
of W when it was last built; it is built again whenever ``outside @ W``
(``outside`` the 0/1 indicator of the columns not in the cover) is not
``<= 0``, which a positive entry or a NaN outside the cover makes.  It
is built from its own columns of the CSC arrays, in O(nnz(cover) + m),
and starts empty.  The support of W settles early, so the cover is
rarely rebuilt, and a sparse W makes ``A W`` cheaper than a full
product.  The terms it skips are ``a_ij * 0``, which leave a sum other
than a signed zero unchanged, and each row keeps its column order, the
order of ``csc_matvec``: ``A W`` holds the bits of the full product, up
to the sign of a zero.

The module does no file I/O: ``serialize.write_trace_csv`` writes the
per-sweep trace that ``HlwbConfig.collect_trace`` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.sparse._sparsetools import csr_matmat, csr_matvec, csr_todense, csr_tocsc

from .bap import CONVERGED, BapProblem
from .sparse_linalg import _column_entries, check_budget

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
        check_budget(self.max_sweeps, "max_sweeps")


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


def _gram(csc) -> np.ndarray:
    """``G = A A^T``, densely, from scipy's kernels.

    The CSC arrays of ``A`` are the CSR arrays of ``A^T``; ``csr_tocsc``
    on them gives the CSR arrays of ``A``, whose rows list their columns
    in increasing order, and which are only ``csr_matmat``'s left
    operand.  ``csr_matmat`` then forms ``A A^T`` and
    ``csr_todense`` writes it into a C-ordered zero buffer, with the
    operands and the order of summation of ``(csc @ csc.T).toarray()``,
    so G holds the same bits.  The entry buffers are sized by a bound,
    not by the counting pass of ``csr_matmat_maxnnz``: a stored entry
    (i, l) takes at least one product ``a_ij a_lj``, column j makes
    ``c_j^2`` of them from its ``c_j`` entries, and G has m^2 entries,
    so at most ``min(m^2, sum_j c_j^2)`` are stored.  ``csr_matmat``
    does not check the length of its buffers; the bound alone keeps it
    inside them.  G is returned as the F-ordered
    transpose view of the dense buffer, as ``toarray`` returns it, which
    ``dtrtrs`` reads in place.
    """
    m, n = csc.shape
    idx = csc.indices.dtype
    rptr = np.empty(m + 1, dtype=idx)
    rind = np.empty(csc.nnz, dtype=idx)
    rval = np.empty(csc.nnz)
    csr_tocsc(n, m, csc.indptr, csc.indices, csc.data, rptr, rind, rval)
    counts = np.diff(csc.indptr).astype(np.int64)
    nnz = min(m * m, int(counts @ counts))
    gptr = np.empty(m + 1, dtype=idx)
    gind = np.empty(nnz, dtype=idx)
    gval = np.empty(nnz)
    csr_matmat(m, m, rptr, rind, rval, csc.indptr, csc.indices, csc.data, gptr, gind, gval)
    dense = np.zeros((m, m))
    csr_todense(m, m, gptr, gind, gval, dense)
    return dense.T


def _column_restriction(csc, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR arrays of A with only the entries in the columns ``cols``,
    which must be ascending and in range.

    The entries of those columns are gathered from the CSC arrays and
    transposed by ``csr_tocsc``, in O(nnz(cover) + m) rather than a pass
    over all of A.  Their local column ids map back to those of A, and
    since ``cols`` ascends, each row lists its columns in increasing
    order, as the rows of the CSR copy of A do."""
    m = csc.shape[0]
    idx = csc.indices.dtype
    pos, _, first = _column_entries(csc, cols)
    cptr = np.empty(m + 1, dtype=idx)
    cind = np.empty(pos.size, dtype=idx)
    cval = np.empty(pos.size)
    local_ptr = np.append(first, pos.size).astype(idx)
    csr_tocsc(cols.size, m, local_ptr, csc.indices[pos], csc.data[pos], cptr, cind, cval)
    return cptr, cols.astype(idx)[cind], cval


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
    G = _gram(csc)
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
    cptr, cind, cval = _column_restriction(csc, np.empty(0, dtype=np.intp))
    k0 = sweeps = 0
    trace: list[tuple[int, float, float]] = []
    # the sweep's names bound locally: its cost is dispatch, not arithmetic
    tol, max_sweeps, collect_trace = cfg.tol, cfg.max_sweeps, cfg.collect_trace
    indptr, indices, data = csc.indptr, csc.indices, csc.data
    maximum, multiply, subtract, add, sqrt = np.maximum, np.multiply, np.subtract, np.add, math.sqrt

    while True:
        # lower=1, trans=0, unitdiag=0, lda=m, overwrite_b=1
        s, info = dtrtrs(G, rhs, 1, 0, 0, m, 1)
        if info != 0:
            raise np.linalg.LinAlgError(f"LAPACK dtrtrs returned info {info}")
        # global iteration k0 + i is row i; k is the orthant step
        k = k0 + m
        # W = max(w + A^T s, 0); the CSC arrays of A are the CSR arrays of A^T
        csr_matvec(n, m, indptr, indices, data, s, w)
        maximum(w, 0.0, out=w)
        if not outside.dot(w) <= 0.0:  # W grew outside the cover, or is NaN
            held = w != 0.0
            outside = np.logical_not(held).astype(float)
            cptr, cind, cval = _column_restriction(csc, np.flatnonzero(held))
        # A W - k b row by row, each row summed in the column order of
        # csc_matvec from -k b_i
        multiply(b, -k, out=ax)
        csr_matvec(m, n, cptr, cind, cval, w, ax)
        sweeps += 1
        # ||A x_hat - b|| / (1 + ||b||), the norm as np.linalg.norm computes it
        rel = sqrt(ax.dot(ax)) / (k * nb)
        if collect_trace:
            trace.append((sweeps, rel, 1.0 / (k + 1)))
        if rel <= tol or sweeps >= max_sweeps:
            break
        subtract(rr, ax, out=rhs)
        add(w, c, out=w)
        k0 = k + 1

    np.divide(w, k, out=w)
    return HlwbResult(
        x=w,
        rel_residual=rel,
        sweeps=sweeps,
        status=CONVERGED if rel <= tol else MAX_SWEEPS,
        trace=trace if collect_trace else None,
    )
