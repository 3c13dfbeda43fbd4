"""Outside-in tracing of the solver layers for the traced benchmark run.

Wrappers rebind module attributes of the package (for example
``polyproj.bap.cholesky_shifted`` or ``polyproj.lp.solve_rnnm``) and the
``CholFactor.solve`` method on its class, so every call the solvers make
through those names opens a span.  A wrapper passes its arguments on
and hands back the wrapped call's result object unchanged.  Spans live
in memory as ``(name, start, end, parent, solve)`` lists and are written
out once, at the end of the run.
``project_hyperplane`` runs m times per HLWB sweep, so it is aggregated
into a count and a total time per solve instead of one span per call.

Wrappers exist only between :meth:`Tracer.install` and
:meth:`Tracer.uninstall`; untraced solves run the package untouched.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

import numpy as np

from bench_stats import median, quartiles

# Name, unit, and the end-to-end metric and workload the layer metric
# should move.  bap.* and linalg.* times and counts are per timed
# Newton-based solve (solve_rnnm or solve_lp), except bap.iters.* and
# bap.unconverged_share per solve_rnnm call; hlwb.* are per HLWB solve
# and lp.* per LP solve.
PER_LAYER = (
    ("bap.iters.mean", "count", "exact_s on proj-mid-exact, lp_s.tail on lp-large"),
    ("bap.iters.max", "count", "exact_s on proj-mid-exact, lp_s.tail on lp-large"),
    ("bap.jacobian_s", "s", "exact_s.p50 on proj-mid-exact"),
    ("bap.classify_s", "s", "exact_s.p50 on proj-mid-exact"),
    ("bap.moreau_s", "s", "exact_s.p50 on proj-mid-exact"),
    ("bap.unconverged_share", "ratio", "lp_s.tail on lp-large"),
    ("linalg.factor_s.dense", "s", "exact_s.p50 on proj-mid-exact"),
    ("linalg.factor_s.sparse", "s", "lp_s.p50 on lp-large"),
    ("linalg.factor_calls.dense", "count", "exact_s.p50 on proj-mid-exact"),
    ("linalg.factor_calls.sparse", "count", "lp_s.p50 on lp-large"),
    ("linalg.V_fill.p25", "ratio", "input property for a fill-based factor path choice"),
    ("linalg.V_fill.p50", "ratio", "input property for a fill-based factor path choice"),
    ("linalg.V_fill.p75", "ratio", "input property for a fill-based factor path choice"),
    ("linalg.assemble_s", "s", "exact_s.p50 on proj-mid-exact"),
    ("linalg.indep_cols_s", "s", "exact_s.p50 on proj-mid-exact"),
    ("linalg.backsolve_s", "s", "exact_s.p50 on proj-mid-exact"),
    ("hlwb.sweeps", "count", "hlwb_s.p50 on proj-mid-hlwb"),
    ("hlwb.project_s", "s", "hlwb_s.p50 on proj-mid-hlwb"),
    ("hlwb.rows_per_s", "1/s", "hlwb_s.p50 on proj-mid-hlwb"),
    ("lp.bounds_s", "s", "lp_s.p50 on lp-large"),
    ("lp.bounds_share", "ratio", "lp_s.p50 on lp-large"),
    ("lp.bounds_dim", "count", "lp_s.p50 on lp-large"),
    ("lp.stones", "count", "lp_s.* on lp-large"),
    ("lp.subproblem_s", "s", "lp_s.* on lp-large"),
    ("lp.next_stone_s", "s", "lp_s.* on lp-large"),
    ("lp.ladder_reruns", "count", "lp_s.* on lp-large"),
    ("factory.gen_s", "s", "setup_s, mostly on proj-mid-*"),
    ("serialize.write_s", "s", "setup_s"),
    ("serialize.read_s", "s", "setup_s"),
    ("mps.parse_s", "s", "setup_s on lp-large"),
    ("mps.standard_form_s", "s", "setup_s on lp-large"),
    ("trace.overhead", "ratio", "traced over untraced solve_s.gmean, minus one"),
)

SETUP_LAYERS = (
    "factory.gen_s",
    "serialize.write_s",
    "serialize.read_s",
    "mps.parse_s",
    "mps.standard_form_s",
)


def _arg(args, kwargs, pos: int, name: str):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name)


def _rnnm_info(args, kwargs, result) -> dict:
    problem = _arg(args, kwargs, 0, "problem")
    config = _arg(args, kwargs, 2, "config")
    return {
        "iters": getattr(result, "iterations", 0),
        "status": getattr(result, "status", None),
        "m": getattr(problem, "m", 0),
        "tol": getattr(config, "tol", None),
    }


def _jacobian_info(args, kwargs, result) -> dict:
    dim = result.shape[0]
    nnz = result.nnz if hasattr(result, "nnz") else int(np.count_nonzero(result))
    return {"fill": nnz / float(dim * dim) if dim else 0.0}


def _factor_info(args, kwargs, result) -> dict:
    return {"dim": _arg(args, kwargs, 0, "M").shape[0]}


def _hlwb_info(args, kwargs, result) -> dict:
    return {"sweeps": getattr(result, "sweeps", 0)}


def _lp_info(args, kwargs, result) -> dict:
    return {"stones": len(getattr(result, "stones", ()))}


# (module, attribute, span name, info hook).  The same function reached
# through two modules gets one span name.
SPAN_TARGETS = (
    ("polyproj.bap", "solve_rnnm", "solve_rnnm", _rnnm_info),
    ("polyproj.bap", "moreau_split", "moreau_split", None),
    ("polyproj.bap", "classify_indices", "classify_indices", None),
    ("polyproj.bap", "independent_columns", "independent_columns", None),
    ("polyproj.bap", "generalized_jacobian", "generalized_jacobian", _jacobian_info),
    ("polyproj.bap", "assemble_normal_matrix", "assemble_normal_matrix", None),
    ("polyproj.bap", "cholesky_shifted", "cholesky_shifted", _factor_info),
    ("polyproj.sparse_linalg", "CholFactor.solve", "CholFactor.solve", None),
    ("polyproj.hlwb", "solve_hlwb", "solve_hlwb", _hlwb_info),
    ("polyproj.lp", "solve_lp", "solve_lp", _lp_info),
    ("polyproj.lp", "solve_rnnm", "solve_rnnm", _rnnm_info),
    ("polyproj.lp", "lp_bounds", "lp_bounds", None),
    ("polyproj.lp", "next_stone", "next_stone", None),
)
AGGREGATE_TARGET = ("polyproj.hlwb", "project_hyperplane")


def _resolve(module_name: str, attr: str):
    """Return ``(owner, name)`` for a dotted attribute, or None if absent."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if name not in vars(owner):
        return None
    return owner, name


def _plan(tracer: "Tracer"):
    """Every ``(module, attribute, wrapper factory)`` the tracer installs."""
    plan = [(m, a, lambda fn, n=n, h=h: tracer._span_wrapper(fn, n, h))
            for m, a, n, h in SPAN_TARGETS]
    plan.append((*AGGREGATE_TARGET,
                 lambda fn: tracer._aggregate_wrapper(fn, AGGREGATE_TARGET[1])))
    return plan


def missing_targets() -> list[str]:
    """Trace targets that the package no longer has.

    A missing target would leave its layer metrics at zero, which reads
    as an improvement, so a traced run refuses to start while any is
    missing.
    """
    return [f"{m}.{a}" for m, a, _ in _plan(Tracer()) if _resolve(m, a) is None]


class Tracer:
    """Span recorder plus the wrappers that feed it.

    ``solve`` is the id of the timed solve in progress; the runner sets
    it before each traced call.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.info: dict[int, dict] = {}
        self.aggregates: dict = defaultdict(lambda: [0, 0.0])
        self.solve = None
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    # -- span bookkeeping -------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.solve])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, fn, name: str, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                tracer.info[idx] = hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _aggregate_wrapper(self, fn, name: str):
        tracer = self

        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            acc = tracer.aggregates[(name, tracer.solve)]
            acc[0] += 1
            acc[1] += time.perf_counter() - start
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Rebind every target; raise if any of them is missing."""
        if self._originals:
            raise RuntimeError("tracer wrappers are already installed")
        missing = missing_targets()
        if missing:
            raise RuntimeError("trace targets missing: " + ", ".join(missing))
        for module_name, attr, make in _plan(self):
            owner, name = _resolve(module_name, attr)
            original = vars(owner)[name]
            self._originals.append((owner, name, original))
            setattr(owner, name, make(original))

    def uninstall(self) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    # -- output -----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        One thread records the spans, so the children of a span run one
        after another inside it and never overlap.
        """
        out = [end - start for _name, start, end, _parent, _solve in self.spans]
        for _name, start, end, parent, _solve in self.spans:
            if parent is not None:
                out[parent] -= end - start
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for idx, (name, start, end, parent, solve) in enumerate(self.spans):
                rec = {"name": name, "start": start, "end": end,
                       "parent": parent, "solve": solve}
                if idx in self.info:
                    rec["info"] = self.info[idx]
                fh.write(json.dumps(rec) + "\n")
            for (name, solve), (count, total) in sorted(self.aggregates.items()):
                fh.write(json.dumps({"aggregate": name, "solve": solve,
                                     "calls": count, "time": total}) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: Tracer,
    setup_layers: dict[str, float],
    overhead: float,
    dense_max_dim: int,
    second_rung_tol: float | None,
) -> dict[str, float]:
    """Reduce the recorded spans to the ``PER_LAYER`` metrics.

    Layers that did not run on this workload report zero.
    """
    spans = tracer.spans
    info = tracer.info
    selfs = tracer.self_times()
    self_total: dict[str, float] = defaultdict(float)
    incl_total: dict[str, float] = defaultdict(float)
    by_name: dict[str, list[int]] = defaultdict(list)
    for idx, (name, start, end, parent, solve) in enumerate(spans):
        self_total[name] += selfs[idx]
        incl_total[name] += end - start
        by_name[name].append(idx)

    roots = [i for i, s in enumerate(spans) if s[3] is None]
    n_newton = sum(1 for i in roots if spans[i][0] in ("solve_rnnm", "solve_lp"))
    hlwb_roots = [i for i in roots if spans[i][0] == "solve_hlwb"]
    lp_roots = [i for i in roots if spans[i][0] == "solve_lp"]
    n_lp = len(lp_roots)

    def parent_name(i: int) -> str | None:
        parent = spans[i][3]
        return spans[parent][0] if parent is not None else None

    def span_sum(indices) -> float:
        return sum(spans[i][2] - spans[i][1] for i in indices)

    def per_solve(total: float) -> float:
        return _ratio(total, n_newton)

    rnnm = [info.get(i, {}) for i in by_name["solve_rnnm"]]
    iters = [r.get("iters", 0) for r in rnnm]
    unconverged = sum(1 for r in rnnm if r.get("status") != "converged")

    factors = by_name["cholesky_shifted"]
    dense = [i for i in factors if info.get(i, {}).get("dim", 0) <= dense_max_dim]
    sparse = [i for i in factors if info.get(i, {}).get("dim", 0) > dense_max_dim]
    fills = [info.get(i, {}).get("fill", 0.0) for i in by_name["generalized_jacobian"]]
    fill_q = quartiles(fills)

    project_calls = sum(count for count, _ in tracer.aggregates.values())
    project_time = sum(total for _, total in tracer.aggregates.values())

    sub_rnnm = [i for i in by_name["solve_rnnm"] if parent_name(i) == "solve_lp"]
    bounds_rnnm = [i for i in by_name["solve_rnnm"] if parent_name(i) == "lp_bounds"]
    reruns = sum(
        1 for i in sub_rnnm + bounds_rnnm
        if second_rung_tol is not None and info.get(i, {}).get("tol") == second_rung_tol
    )

    metrics = {
        "bap.iters.mean": _ratio(sum(iters), len(iters)),
        "bap.iters.max": float(max(iters, default=0)),
        "bap.jacobian_s": per_solve(self_total["generalized_jacobian"]),
        "bap.classify_s": per_solve(self_total["classify_indices"]),
        "bap.moreau_s": per_solve(self_total["moreau_split"]),
        "bap.unconverged_share": _ratio(unconverged, len(rnnm)),
        "linalg.factor_s.dense": per_solve(span_sum(dense)),
        "linalg.factor_s.sparse": per_solve(span_sum(sparse)),
        "linalg.factor_calls.dense": per_solve(len(dense)),
        "linalg.factor_calls.sparse": per_solve(len(sparse)),
        "linalg.V_fill.p25": fill_q[0],
        "linalg.V_fill.p50": fill_q[1],
        "linalg.V_fill.p75": fill_q[2],
        "linalg.assemble_s": per_solve(self_total["assemble_normal_matrix"]),
        "linalg.indep_cols_s": per_solve(self_total["independent_columns"]),
        "linalg.backsolve_s": per_solve(self_total["CholFactor.solve"]),
        "hlwb.sweeps": _ratio(sum(info.get(i, {}).get("sweeps", 0) for i in hlwb_roots),
                              len(hlwb_roots)),
        "hlwb.project_s": _ratio(project_time, len(hlwb_roots)),
        "hlwb.rows_per_s": _ratio(project_calls, span_sum(hlwb_roots)),
        "lp.bounds_s": _ratio(incl_total["lp_bounds"], n_lp),
        "lp.bounds_share": _ratio(incl_total["lp_bounds"], span_sum(lp_roots)),
        "lp.bounds_dim": float(median(info.get(i, {}).get("m", 0) for i in bounds_rnnm)),
        "lp.stones": _ratio(sum(info.get(i, {}).get("stones", 0) for i in lp_roots), n_lp),
        "lp.subproblem_s": _ratio(span_sum(sub_rnnm), n_lp),
        "lp.next_stone_s": _ratio(incl_total["next_stone"], n_lp),
        "lp.ladder_reruns": _ratio(reruns, n_lp),
        "trace.overhead": overhead,
    }
    for name in SETUP_LAYERS:
        metrics[name] = setup_layers.get(name, 0.0)
    return {name: metrics[name] for name, _unit, _moves in PER_LAYER}
