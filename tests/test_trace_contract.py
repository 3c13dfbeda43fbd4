"""Names the traced benchmark run (``perfbench/run.py --trace 1``) reads.

The run wraps solver entry points by module attribute and refuses to
start when one is missing; it also prints two package constants.  A
change that renames or removes any of them breaks the traced run, so
the contract is checked here as well.  The ``solve_rnnm`` wrapper reads
the problem and config by position or keyword and the tolerance by
attribute, with defaults; a rename there would not stop the run but
would silently zero ``lp.ladder_reruns``.  ``lp.bounds_s`` times the
``lp_bounds`` span, so ``solve_lp`` must reach its bound certificate
(the closed form included) through that module attribute, once per
stone.  Likewise an exact Newton step must reach
``cholesky_shifted`` through the ``bap`` module attribute once per
iteration, and ``generalized_jacobian`` and ``assemble_normal_matrix``
once per step whose index sets differ from the previous step's (a step
that repeats them reuses the Jacobian): ``linalg.assemble_s`` and
``linalg.factor_calls.dense`` read those spans, and the latter sorts
factors by the dimension of the matrix handed in, an ``(m, m)`` array
at small m.
"""

import inspect
import os

import numpy as np

import polyproj.bap
import polyproj.lp
import polyproj.sparse_linalg
from polyproj.factory import GenSpec, gen_bap_with_known_vertex, gen_lp

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def test_trace_targets_and_constants_present(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import bench_trace

    assert bench_trace.missing_targets() == []
    assert hasattr(polyproj.sparse_linalg, "DENSE_FACTOR_MAX_DIM")
    assert len(polyproj.lp.LpConfig().subproblem_tols) >= 2


def test_solve_rnnm_arguments_read_by_the_trace():
    params = list(inspect.signature(polyproj.bap.solve_rnnm).parameters)
    assert params[:3] == ["problem", "y0", "config"]
    assert hasattr(polyproj.bap.RnnmConfig(), "tol")


def test_solve_lp_reaches_bounds_through_the_traced_name(monkeypatch):
    real = polyproj.lp.lp_bounds
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(polyproj.lp, "lp_bounds", counting)
    problem = gen_lp(GenSpec(m=8, n=30, density=0.3, seed=10)).problem
    res = polyproj.lp.solve_lp(problem)
    assert len(res.stones) >= 2
    assert len(calls) == len(res.stones)


def test_exact_newton_step_reaches_the_traced_kernels(monkeypatch):
    calls = {"generalized_jacobian": 0, "assemble_normal_matrix": 0, "cholesky_shifted": 0}
    factored = []
    steps = []

    def counting(name):
        real = getattr(polyproj.bap, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "cholesky_shifted":
                factored.append(args[0])
            return real(*args, **kwargs)

        return wrapper

    real_classify = polyproj.bap.classify_indices

    def classify(*args, **kwargs):
        sets = real_classify(*args, **kwargs)
        steps.append(sets)
        return sets

    for name in calls:
        monkeypatch.setattr(polyproj.bap, name, counting(name))
    monkeypatch.setattr(polyproj.bap, "classify_indices", classify)
    problem = gen_bap_with_known_vertex(GenSpec(m=12, n=60, density=0.2, seed=4)).problem
    sol = polyproj.bap.solve_rnnm(problem, config=polyproj.bap.RnnmConfig(mode="exact"))
    assert sol.status == polyproj.bap.CONVERGED and sol.iterations >= 2
    assert len(steps) == calls["cholesky_shifted"] == sol.iterations
    changed = sum(
        k == 0
        or not np.array_equal(sets.i_plus, steps[k - 1].i_plus)
        or not np.array_equal(sets.i_zero_bar, steps[k - 1].i_zero_bar)
        for k, sets in enumerate(steps)
    )
    assert changed >= 1
    assert calls["generalized_jacobian"] == calls["assemble_normal_matrix"] == changed
    assert all(isinstance(V, np.ndarray) and V.shape == (12, 12) for V in factored)
