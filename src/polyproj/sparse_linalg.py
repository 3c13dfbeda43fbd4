"""Sparse matrix storage and the numerical kernels shared by every solver.

The module owns the compressed-sparse-column matrix type used for
constraint matrices and their submatrices, plus the handful of dense and
sparse kernels the Newton and path-following solvers are built from:
weighted normal-matrix assembly, shifted Cholesky factorization and
rank-revealing selection of independent columns.  It reads and writes
no files: the Matrix Market form of :class:`SparseMatrix` is read and
written by :mod:`polyproj.serialize`.

The normal matrix ``V = sum w_i A_i A_i^T`` has one form per size
regime, chosen by ``DENSE_FACTOR_MAX_DIM``: for at most that many rows
it is a dense ``np.ndarray``, factored by LAPACK ``dpotrf``, whose
factor ``dpotrs`` applies; above it, it is a :class:`SparseMatrix`
factored by SuperLU.  Both multiply the support columns ``S``, scaled by
``sqrt(w)``, by their transpose: the C-ordered dense form with scipy's
compiled ``csc_matvecs`` (the kernel under its sparse times dense
product), the sparse form as the sparse product ``S S^T``.  Either sums
the same products in support order into entries (i, k) and (k, i), so
both are symmetric to the bit, equal, and need no mirror.  The
per-iteration kernels call the LAPACK wrappers directly, without the
argument handling of ``scipy.linalg``'s ``cho_factor``/``cho_solve``,
and dense copies of column subsets are gathered straight from the CSC
arrays (:func:`_gather_columns`) instead of slicing the sparse matrix.

Validation happens at the boundary only.  Matrices that come from
outside (the public constructor, which takes a dense ``np.ndarray`` or
a scipy sparse matrix; ``from_coo``; Matrix Market and MPS input; the
generators) are canonicalized and checked for finite values.  Matrices
derived from an already validated one (column selections, the
assembled normal matrix, the LP dual-feasibility system) keep those
invariants by construction and are wrapped through
:meth:`SparseMatrix._trusted` without a recheck.

The products ``A x`` and ``A^T y`` that the solvers repeat every
iteration (:meth:`SparseMatrix.matvec` and :meth:`SparseMatrix.rmatvec`)
also call scipy's compiled CSC and CSR kernels straight on the CSC arrays,
without the operand dispatch of the ``@`` operator, which costs more
than the kernel on the vectors of the HLWB sweep.  The CSC arrays of
``A`` are the CSR arrays of ``A^T``, so no transposed view is kept.
The products are those ``csc @ x`` and ``csc.T @ y`` compute, to the
bit.

Everything is immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrf, dpotrs
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse._sparsetools import csc_matvec, csc_matvecs, csr_matvec

__all__ = [
    "SparseMatrix",
    "CholFactor",
    "InvalidSupportError",
    "NotPositiveDefiniteError",
    "as_vector",
    "assemble_normal_matrix",
    "cholesky_shifted",
    "independent_columns",
]

# Normal matrices of at most this dimension are assembled dense and
# factored by LAPACK; above it they stay sparse and SuperLU with a
# fill-reducing ordering factors them.
DENSE_FACTOR_MAX_DIM = 256
# Dense assembly takes the support columns in blocks of at most this
# many, so the dense transposed copy of a block stays small however
# large the support.
_GATHER_COLS = 2048


class InvalidSupportError(ValueError):
    """A column index set refers outside the matrix."""


class NotPositiveDefiniteError(ValueError):
    """A matrix handed to the Cholesky kernel is not positive definite.

    A shifted normal matrix ``V + shift*I`` is positive definite in exact
    arithmetic, so for one this means the shift fell below the rounding
    error of a singular or nearly singular ``V``.
    """


def as_vector(values, length: int, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 array of ``length`` entries."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] != length:
        raise ValueError(f"{name} has length {arr.shape[0]}, expected {length}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _operand(values, length: int, name: str) -> np.ndarray:
    """``values`` as a float64 vector of ``length`` entries, for a product kernel."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.shape != (length,):
        raise ValueError(f"{name}: operand has shape {arr.shape}, expected ({length},)")
    return arr


class SparseMatrix:
    """Immutable compressed-sparse-column matrix.

    Invariants: row indices strictly increasing within each column, no
    explicitly stored zeros, all values finite.  The public constructors
    enforce them; :meth:`_trusted` assumes them.

    :meth:`matvec` and :meth:`rmatvec` run scipy's private ``csc_matvec``
    and ``csr_matvec`` kernels on the CSC arrays, into a fresh output.
    The kernels read whatever they are given without a bounds check, so
    both methods first check that the operand is one-dimensional and as
    long as the matrix needs, and raise ``ValueError`` otherwise.
    """

    __slots__ = ("_csc",)

    def __init__(self, matrix):
        if isinstance(matrix, np.ndarray) or sp.issparse(matrix):
            csc = sp.csc_array(matrix)
        else:
            raise TypeError("SparseMatrix expects a numpy array or scipy sparse matrix")
        csc = csc.astype(np.float64, copy=False)
        csc.sum_duplicates()
        csc.eliminate_zeros()
        csc.sort_indices()
        if csc.nnz and not np.all(np.isfinite(csc.data)):
            raise ValueError("matrix contains non-finite entries")
        self._csc = csc

    @classmethod
    def _trusted(cls, csc: sp.csc_array) -> "SparseMatrix":
        """Wrap a float64 CSC array that already meets the invariants.

        Only for matrices derived from validated ones; nothing is checked.
        """
        matrix = object.__new__(cls)
        matrix._csc = csc
        return matrix

    @classmethod
    def from_coo(cls, nrows: int, ncols: int, rows, cols, values) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if rows.size and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= ncols):
            raise ValueError("column index out of range")
        return cls(sp.coo_array((values, (rows, cols)), shape=(nrows, ncols)))

    @property
    def csc(self) -> sp.csc_array:
        """The underlying scipy CSC array (treat as read-only)."""
        return self._csc

    @property
    def shape(self) -> tuple[int, int]:
        return self._csc.shape

    @property
    def nrows(self) -> int:
        return self._csc.shape[0]

    @property
    def ncols(self) -> int:
        return self._csc.shape[1]

    @property
    def nnz(self) -> int:
        return self._csc.nnz

    def toarray(self) -> np.ndarray:
        return self._csc.toarray()

    def matvec(self, x) -> np.ndarray:
        """``A x``, bit-identical to ``self.csc @ x``."""
        csc = self._csc
        m, n = csc.shape
        x = _operand(x, n, "matvec")
        out = np.zeros(m)
        csc_matvec(m, n, csc.indptr, csc.indices, csc.data, x, out)
        return out

    def rmatvec(self, y) -> np.ndarray:
        """``A^T y``, bit-identical to ``self.csc.T @ y``."""
        csc = self._csc
        m, n = csc.shape
        y = _operand(y, m, "rmatvec")
        out = np.zeros(n)
        # the CSC arrays of A are the CSR arrays of A^T
        csr_matvec(n, m, csc.indptr, csc.indices, csc.data, y, out)
        return out

    def cols(self, idx) -> "SparseMatrix":
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and (idx.min() < 0 or idx.max() >= self.ncols):
            raise InvalidSupportError("column index out of range")
        return SparseMatrix._trusted(self._csc[:, idx])

    def diagonal(self) -> np.ndarray:
        return np.asarray(self._csc.diagonal(), dtype=np.float64)

    def has_zero_column(self) -> bool:
        counts = np.diff(self._csc.indptr)
        return bool(np.any(counts == 0))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SparseMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class CholFactor:
    """Cholesky-type factorization of ``M + shift*I``; ``solve`` applies
    the inverse.

    It holds only what ``solve`` reads: on the dense path the F-ordered
    array that LAPACK ``dpotrf`` returned, whose lower triangle is the
    Cholesky factor (the upper one holds leftovers that ``dpotrs`` does
    not read), or the SuperLU object on the sparse path.
    """

    __slots__ = ("n", "_dense", "_splu")

    def __init__(self, n, dense=None, splu=None):
        self.n = n
        self._dense = dense
        self._splu = splu

    def solve(self, rhs) -> np.ndarray:
        rhs = as_vector(rhs, self.n, "rhs")
        if self._dense is not None:
            x, info = dpotrs(self._dense, rhs, lower=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrs")
            return x
        return self._splu.solve(rhs)


def assemble_normal_matrix(A: SparseMatrix, weights, support) -> SparseMatrix | np.ndarray:
    """Weighted outer-product sum ``sum_{i in support} w_i A_i A_i^T``.

    ``weights`` is indexed by column of ``A``; only the entries on
    ``support`` are read and they must lie in [0, 1].  The result is
    symmetric to the bit.  With at most ``DENSE_FACTOR_MAX_DIM`` rows it
    is a C-ordered ``np.ndarray`` built by :func:`_dense_normal_matrix`
    from the support columns ``S`` scaled by ``sqrt(w)``; above, it is
    the :class:`SparseMatrix` ``S S^T``, equal to that array to the bit.
    """
    m = A.nrows
    support = np.asarray(support, dtype=np.int64)
    if support.size and (support.min() < 0 or support.max() >= A.ncols):
        raise InvalidSupportError("support index out of range")
    seen = np.zeros(A.ncols, dtype=bool)
    seen[support] = True
    if np.count_nonzero(seen) != support.size:
        raise InvalidSupportError("support contains duplicate indices")
    weights = np.asarray(weights, dtype=np.float64)
    w = weights[support]
    if not ((w >= 0.0) & (w <= 1.0)).all():  # NaN fails too
        raise ValueError("weights must lie in [0, 1] on the support")
    if m <= DENSE_FACTOR_MAX_DIM:
        return _dense_normal_matrix(A.csc, np.sqrt(w), support)
    # the product sums s_ij s_kj in support order, drops exact zeros and
    # has no duplicates; sorting its row indices makes it canonical
    pos, which, first = _column_entries(A.csc, support)
    S = sp.csc_array(
        (A.csc.data[pos] * np.sqrt(w)[which], A.csc.indices[pos], np.append(first, pos.size)),
        shape=(m, support.size),
    )
    V = S @ S.T  # CSC, as S is
    V.sort_indices()
    return SparseMatrix._trusted(V)


def _column_entries(csc: sp.csc_array, cols: np.ndarray):
    """Where the entries of the columns ``cols`` of ``csc`` lie, column by column.

    Returns ``(pos, which, first)``: ``pos`` lists the positions of the
    entries in the CSC arrays, ``which[k]`` is the place in ``cols`` of
    the column of entry ``k``, and ``first[j]`` is the place in ``pos``
    of the first entry of column ``cols[j]``.  ``cols`` must be in
    range; it is not checked.
    """
    starts = csc.indptr[cols]
    counts = csc.indptr[cols + 1] - starts
    which = np.repeat(np.arange(cols.size), counts)
    first = np.cumsum(counts) - counts
    pos = np.arange(which.size) + np.repeat(starts - first, counts)
    return pos, which, first


def _gather_columns(csc: sp.csc_array, cols: np.ndarray) -> np.ndarray:
    """Dense F-ordered ``(m, cols.size)`` copy of the columns ``cols`` of ``csc``.

    Column j of the result is column ``cols[j]``.  The entries are read
    straight from the CSC arrays, so the values equal those of
    ``csc[:, cols].toarray()`` without building the slice.  ``cols``
    must be in range; it is not checked.
    """
    pos, which, _ = _column_entries(csc, cols)
    dense = np.zeros((csc.shape[0], cols.size), order="F")
    dense[csc.indices[pos], which] = csc.data[pos]
    return dense


def _dense_normal_matrix(csc: sp.csc_array, scale, support) -> np.ndarray:
    """``sum_j scale_j^2 a_j a_j^T`` over the columns ``support``, as a dense array.

    The result is C-ordered and symmetric to the bit.  scipy's compiled
    ``csc_matvecs`` multiplies the scaled columns, in CSC form, by their
    dense C-ordered transpose, straight into ``V``: for each entry
    ``a_ij``, column by column, it adds ``a_ij`` times row j of the
    transpose to row i of ``V``.  Entry (i, k) so sums the products
    ``a_ij a_kj`` in support order, and entry (k, i) the same products
    in the same order; a product with a zero of the dense copy adds
    zero, which changes no sum.  The columns go in blocks of at most
    ``_GATHER_COLS``, which bounds the transposed copy and leaves every
    sum as it is.  ``support`` and ``scale`` are not checked.
    """
    m = csc.shape[0]
    V = np.zeros((m, m))
    for lo in range(0, support.size, _GATHER_COLS):
        cols, s = support[lo : lo + _GATHER_COLS], scale[lo : lo + _GATHER_COLS]
        pos, which, first = _column_entries(csc, cols)
        rows = csc.indices[pos]
        vals = csc.data[pos] * s[which]
        dense = np.zeros((cols.size, m))
        dense[which, rows] = vals
        indptr = np.append(first, pos.size).astype(rows.dtype, copy=False)
        csc_matvecs(m, cols.size, m, indptr, rows, vals, dense, V)
    return V


def cholesky_shifted(M: SparseMatrix | np.ndarray, shift: float) -> CholFactor:
    """Factor ``M + shift*I`` for a symmetric PSD ``M`` and ``shift > 0``.

    The path follows the type of ``M``, which
    :func:`assemble_normal_matrix` chooses by size.  A dense
    ``np.ndarray`` is left unchanged: the shift goes on the diagonal of
    a private F-ordered copy, which LAPACK ``dpotrf`` factors in place
    (the call ``scipy.linalg.cho_factor`` makes).  A
    :class:`SparseMatrix` goes to SuperLU in symmetric mode with a
    minimum-degree ordering and diagonal pivoting, which reduces to a
    Cholesky-like LDL^T for positive definite input.
    """
    if M.shape[0] != M.shape[1]:
        raise ValueError("matrix must be square")
    if not shift > 0.0:
        raise ValueError("shift must be positive")
    n = M.shape[0]
    if isinstance(M, np.ndarray):
        dense = np.array(M, dtype=np.float64, order="F")  # a private copy
        # every (n + 1)-th entry of the F-ordered buffer is on the diagonal;
        # ravel returns a view of an F-contiguous array
        diagonal = dense.ravel(order="F")[:: n + 1]
        diagonal += shift
        # clean=0 leaves the unread upper triangle
        factor, info = dpotrf(dense, lower=1, overwrite_a=1, clean=0)
        if info > 0:
            raise NotPositiveDefiniteError(
                f"{info}-th leading minor of the array is not positive definite"
            )
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of LAPACK dpotrf")
        # dpotrf can pass a non-finite entry of M to the factor's diagonal
        if not np.isfinite(factor.diagonal()).all():
            raise NotPositiveDefiniteError("non-finite pivot in dense factorization")
        return CholFactor(n, dense=factor)
    shifted = (M.csc + shift * sp.eye_array(n, format="csc")).tocsc()
    lu = spla.splu(
        shifted,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options={"SymmetricMode": True},
    )
    diag_u = lu.U.diagonal()
    if np.any(diag_u <= 0.0) or not np.all(np.isfinite(diag_u)):
        raise NotPositiveDefiniteError("non-positive pivot in sparse factorization")
    return CholFactor(n, splu=lu)


def independent_columns(A: SparseMatrix, candidate_cols) -> np.ndarray:
    """Maximal linearly independent subset of the candidate columns.

    Rank-revealing QR with column pivoting; a diagonal R entry below
    1e-10 times the largest one marks dependence.  The returned index
    array is sorted ascending and deterministic for fixed input.
    """
    cand = np.unique(np.asarray(candidate_cols, dtype=np.int64))
    if cand.size == 0:
        return cand
    if cand.min() < 0 or cand.max() >= A.ncols:
        raise InvalidSupportError("candidate column out of range")
    dense = _gather_columns(A.csc, cand)
    r_mat, piv = scipy.linalg.qr(dense, mode="r", pivoting=True)
    diag = np.abs(np.diag(r_mat))
    if diag.size == 0 or diag[0] == 0.0:
        return np.empty(0, dtype=np.int64)
    rank = int(np.count_nonzero(diag >= 1e-10 * diag[0]))
    return np.sort(cand[piv[:rank]])
