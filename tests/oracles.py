"""Reference solvers the tests check the package against.

They are independent of the package's solvers: scipy's HiGHS for LP
optima and for the MPS conversion, a primal active-set solver for
projection QPs, for which scipy has no counterpart, and a pair-by-pair
sum of the dense normal matrix.
"""

import math

import numpy as np
from scipy.optimize import linprog


def highs_optimum(lp) -> float:
    """Optimal value of ``max c^T x, Ax = b, x >= 0`` by HiGHS.

    A is passed dense, which every supported scipy takes the same way.
    """
    res = linprog(-lp.c, A_eq=lp.A.toarray(), b_eq=lp.b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


def highs_standard_point(lp, fmap, x):
    """A standard-form point of the original point ``x``, by HiGHS.

    Returns some ``x_std >= 0`` with ``A x_std = b`` and ``T x_std = x -
    offset``, the converted problem and map of ``mps.to_standard_form``,
    or None when HiGHS finds that set empty.
    """
    res = linprog(
        np.zeros(lp.n),
        A_eq=np.vstack([lp.A.toarray(), fmap.T.toarray()]),
        b_eq=np.concatenate([lp.b, x - fmap.offset]),
        bounds=(0, None),
        method="highs",
    )
    assert res.status in (0, 2), res.message  # feasible or infeasible
    return res.x if res.status == 0 else None


def highs_mps_optimum(model) -> float:
    """Optimal value of a parsed MPS model, in its own sense and units.

    HiGHS reads the model's records directly (E, L and G rows, column
    bounds, the objective constant), not ``mps.to_standard_form``'s
    output.  Ranged rows are not handled.
    """
    assert not model.ranges
    cols, rows = list(model.entries), list(model.row_types)
    A = np.array([[model.entries[c].get(r, 0.0) for c in cols] for r in rows])
    rhs = np.array([model.rhs.get(r, 0.0) for r in rows])
    kind = np.array([model.row_types[r] for r in rows])
    sense = 1.0 if model.minimize else -1.0
    res = linprog(
        sense * np.array([model.objective.get(c, 0.0) for c in cols]),
        A_ub=np.vstack([A[kind == "L"], -A[kind == "G"]]),
        b_ub=np.concatenate([rhs[kind == "L"], -rhs[kind == "G"]]),
        A_eq=A[kind == "E"],
        b_eq=rhs[kind == "E"],
        bounds=[model.bounds.get(c, (0.0, math.inf)) for c in cols],
        method="highs",
    )
    assert res.status == 0, res.message
    return sense * res.fun + model.objective_constant


def pair_normal_matrix(A, weights, support) -> np.ndarray:
    """Dense ``sum_{i in support} w_i A_i A_i^T``, summed entry pair by entry pair.

    Each entry e of a support column, scaled by the square root of its
    weight, is paired with the entries f at or above it (f = e
    included), and the product lands in the bin (row e, row f) of the
    lower triangle; ``np.bincount`` sums each bin from zero in support
    order.  Adding zeros then mirrors the lower triangle.  Each entry so
    sums the same products in the same order as the dense assembly of
    ``assemble_normal_matrix``.
    """
    csc = A.csc
    m = csc.shape[0]
    support = np.asarray(support, dtype=np.int64)
    scale = np.sqrt(np.asarray(weights, dtype=np.float64)[support])
    bins, products = [], []
    for col, s in zip(support, scale):
        rows = csc.indices[csc.indptr[col] : csc.indptr[col + 1]]
        vals = csc.data[csc.indptr[col] : csc.indptr[col + 1]] * s
        e, f = np.tril_indices(rows.size)  # rows ascend, so rows[e] >= rows[f]
        bins.append(rows[e] + m * rows[f])
        products.append(vals[e] * vals[f])
    V = np.bincount(
        np.concatenate(bins), weights=np.concatenate(products), minlength=m * m
    ).reshape(m, m, order="F")
    V = V + V.T
    V[np.diag_indices(m)] *= 0.5
    return V


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
