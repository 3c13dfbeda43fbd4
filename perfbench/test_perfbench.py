"""Tests of the benchmark's own logic: span self time, the tail rule, the
correctness gate, and tracing that leaves solver outputs bit-identical.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import polyproj.bap  # noqa: E402
import polyproj.hlwb  # noqa: E402
import polyproj.lp  # noqa: E402
import polyproj.sparse_linalg  # noqa: E402
from polyproj.factory import GenSpec, gen_bap_with_known_vertex, gen_lp  # noqa: E402

import bench_workloads as bw  # noqa: E402
import bench_trace  # noqa: E402
from bench_stats import tail  # noqa: E402
from bench_trace import PER_LAYER, SETUP_LAYERS, Tracer, layer_metrics  # noqa: E402


def test_self_time_subtracts_nested_children():
    tracer = Tracer()
    tracer.spans = [
        ["solve_rnnm", 0.0, 10.0, None, 0],
        ["classify_indices", 1.0, 4.0, 0, 0],
        ["independent_columns", 2.0, 3.0, 1, 0],
        ["cholesky_shifted", 5.0, 6.5, 0, 0],
    ]
    assert tracer.self_times() == pytest.approx([5.5, 2.0, 1.0, 1.5])


def test_missing_trace_target_is_reported_and_refused(monkeypatch):
    monkeypatch.setattr(
        bench_trace, "SPAN_TARGETS",
        bench_trace.SPAN_TARGETS + (("polyproj.bap", "no_such_function", "x", None),),
    )
    assert bench_trace.missing_targets() == ["polyproj.bap.no_such_function"]
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.install()
    assert not hasattr(polyproj.bap.cholesky_shifted, "__wrapped__")


@pytest.mark.parametrize(
    "n, rank",
    [(20, 10), (30, 20), (81, 71), (100, 90)],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, rank):
    samples = [float(v) for v in range(n, 0, -1)]  # order must not matter
    value, percentile = tail(samples)
    assert value == rank
    assert percentile == pytest.approx(100.0 * rank / n)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_is_omitted_below_twenty_samples():
    assert tail([1.0] * 19) is None


def _small_bap():
    return gen_bap_with_known_vertex(GenSpec(m=20, n=200, density=0.1, seed=10**6 + 1))


def _small_lp():
    return gen_lp(GenSpec(m=5, n=14, density=0.5, seed=10**6 + 2))


def test_gate_rejects_perturbed_x():
    g = _small_bap()
    inst = bw.Instance("small", g.problem, g.known_x, bw.X_REL_TOL)
    sol = bw.EXACT.call(g.problem)
    assert bw.EXACT.check(inst, sol) is None
    x = sol.x.copy()
    x[int(np.argmax(x))] += 1e-6
    sol.x = x
    reason = bw.EXACT.check(inst, sol)
    assert reason is not None and "known_x" in reason


def test_gate_rejects_wrong_lp_optimum():
    g = _small_lp()
    res = bw.LP.call(g.problem)
    assert bw.LP.check(bw.Instance("lp", g.problem, g.known_optimum, bw.LP_OBJ_REL_TOL), res) is None
    off = bw.Instance("lp", g.problem, g.known_optimum + 1e-5, bw.LP_OBJ_REL_TOL)
    assert "objective" in bw.LP.check(off, res)


@pytest.mark.parametrize("solver", [bw.EXACT, bw.HLWB, bw.LP], ids=lambda s: s.name)
def test_tracing_leaves_outputs_bit_identical(solver):
    problem = (_small_lp() if solver is bw.LP else _small_bap()).problem
    untraced = solver.call(problem)
    tracer = Tracer()
    tracer.solve = 0
    tracer.install()
    try:
        traced = solver.call(problem)
    finally:
        tracer.uninstall()
    assert bw.fingerprint(traced) == bw.fingerprint(untraced)
    assert bench_trace.missing_targets() == []
    assert not hasattr(polyproj.bap.cholesky_shifted, "__wrapped__")
    assert not hasattr(polyproj.sparse_linalg.CholFactor.solve, "__wrapped__")
    assert not hasattr(polyproj.hlwb.project_hyperplane, "__wrapped__")

    roots = [s for s in tracer.spans if s[3] is None]
    assert len(roots) == 1
    # spans nest inside the root, so self times add up to its duration
    assert sum(tracer.self_times()) == pytest.approx(roots[0][2] - roots[0][1])
    if solver is bw.HLWB:
        assert sum(c for c, _ in tracer.aggregates.values()) >= problem.m
    else:
        assert any(s[0] == "generalized_jacobian" for s in tracer.spans)


def test_reference_runs_once_then_keeps_to_its_share():
    ref = bw.Reference(0.1)
    ref.between()
    assert len(ref.times) == 1
    time.sleep(0.3)
    ref.between()
    # it stops at the first kernel run that takes it past a tenth of the
    # time spent outside it
    assert ref.total - ref.times[-1] <= 0.1 * ref._outside < ref.total
    assert ref.total == pytest.approx(sum(ref.times))


def test_fingerprint_tells_negative_zero_apart():
    assert bw.fingerprint(np.array([0.0])) != bw.fingerprint(np.array([-0.0]))
    assert bw.fingerprint(0.0) != bw.fingerprint(-0.0)


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        return json.load(fh)


def test_benchmark_json_lists_every_workload():
    listed = {w["name"]: w["why"] for w in _benchmark_json()["workloads"]}
    assert listed == {w.name: w.why for w in bw.WORKLOADS.values()}


def test_projection_workloads_time_one_solver_each():
    proj = [w for w in bw.WORKLOADS.values() if w.name.startswith("proj-")]
    assert sorted(w.solvers[0].name for w in proj) == ["exact", "hlwb"]
    assert all(len(w.solvers) == 1 for w in proj)


def test_layer_metrics_cover_benchmark_json():
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert declared == {name: unit for name, unit, _ in PER_LAYER}

    g = _small_lp()
    tracer = Tracer()
    tracer.solve = 0
    tracer.install()
    try:
        bw.LP.call(g.problem)
    finally:
        tracer.uninstall()
    values = layer_metrics(tracer, {name: 1.0 for name in SETUP_LAYERS}, 0.0, 256, 1e-13)
    assert list(values) == list(declared)
    assert values["lp.stones"] >= 1
    assert 0.0 < values["lp.bounds_share"] < 1.0
    assert values["bap.iters.max"] >= values["bap.iters.mean"] > 0
