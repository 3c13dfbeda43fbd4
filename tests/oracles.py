"""Reference solvers the tests check the package against.

Both are independent of the package's solvers: scipy's HiGHS for LP
optima, and a primal active-set solver for projection QPs, for which
scipy has no counterpart.
"""

import numpy as np
from scipy.optimize import linprog


def highs_optimum(lp) -> float:
    """Optimal value of ``max c^T x, Ax = b, x >= 0`` by HiGHS.

    A is passed dense, which every supported scipy takes the same way.
    """
    res = linprog(-lp.c, A_eq=lp.A.toarray(), b_eq=lp.b, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return -res.fun


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
