"""Benchmark harness: timed solver runs, result tables, performance profiles.

A suite is a JSON config listing problem rows (generated or from
files), the solvers to run, repetition counts and tolerances; an
unknown or missing suite or row key is rejected before anything runs.
:func:`build_problem` turns a row into a problem and :func:`solve_bap`
a projection method name into a solve; the command line builds and
solves through the same two.  Each (problem, solver) cell is timed
around the solve call only; failures are recorded, never fatal.
Ratios divide each cell's time by the best successful time on that
problem (failures map to infinity) and the profile is the per-solver
empirical CDF of those ratios.  All CSV output is deterministic for
fixed seeds apart from the timing columns.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import time
import typing
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import factory, serialize
from .bap import BapProblem, BapSolution, RnnmConfig, solve_rnnm
from .hlwb import HlwbConfig, HlwbResult, solve_hlwb
from .lp import LpConfig, solve_lp

__all__ = [
    "BenchRecord",
    "PerfProfile",
    "performance_ratio",
    "performance_profile",
    "run_benchmark",
    "build_problem",
    "solve_bap",
    "BAP_SOLVERS",
    "LP_SOLVERS",
]

BAP_SOLVERS = ("rnnm-exact", "rnnm-inexact", "hlwb")
LP_SOLVERS = ("ssepf",)
_BAP_KINDS = ("bap", "bap_file")
_LP_KINDS = ("lp", "lp_file", "mps")
# the (required, optional) keys of a suite and of a row of each kind, besides "kind"
_SUITE_KEYS = (("rows",), ("name", "repetitions", "tols", "tol_gap", "timeout_s", "solvers"))
_ROW_KEYS = {
    "bap": (("m", "n", "density"), ("seed", "anchor_norm", "degeneracy")),
    "lp": (("m", "n", "density"), ("seed", "degeneracy")),
    "bap_file": (("path",), ()),
    "lp_file": (("path",), ()),
    "mps": (("path",), ()),
}
# the type each row value must have, and its name in the error
_ROW_VALUE_TYPES = {
    "m": (numbers.Integral, "an integer"),
    "n": (numbers.Integral, "an integer"),
    "seed": (numbers.Integral, "an integer"),
    "density": (numbers.Real, "a real number"),
    "anchor_norm": (numbers.Real, "a real number"),
    "degeneracy": (str, "a string"),
    "path": (str, "a string"),
}


@dataclass
class BenchRecord:
    """One timed run.  Failed runs keep their elapsed time but are
    marked by status; ratio computation treats them as infinite."""

    problem: str
    solver: str
    tol: float
    m: int
    n: int
    density: float
    seed: int
    time_s: float
    rel_residual: float
    status: str

    @property
    def converged(self) -> bool:
        return self.status == "converged"


@dataclass
class PerfProfile:
    """Per-solver step functions rho_s over tau >= 1."""

    solvers: list[str]
    taus: np.ndarray
    rho: np.ndarray  # shape (len(taus), len(solvers))

    def value(self, solver: str, tau: float) -> float:
        j = self.solvers.index(solver)
        idx = np.searchsorted(self.taus, tau, side="right") - 1
        if idx < 0:
            return 0.0
        return float(self.rho[idx, j])

    def to_csv(self, path: str) -> None:
        header = "tau," + ",".join(f"rho_{s}" for s in self.solvers)
        serialize.write_csv(path, header, ([tau, *row] for tau, row in zip(self.taus, self.rho)))


def performance_ratio(times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ratios r[p, s] = t[p, s] / min over successful solvers of row p.

    Failures are marked by NaN in ``times`` and come out as infinity.
    Rows where every solver failed are dropped with a warning; the
    second return value lists the surviving row indices.
    """
    times = np.asarray(times, dtype=np.float64)
    ok = ~np.isnan(times)
    keep = np.where(ok.any(axis=1))[0]
    if keep.size < times.shape[0]:
        warnings.warn(
            f"dropping {times.shape[0] - keep.size} problem(s) with no successful solver",
            RuntimeWarning,
            stacklevel=2,
        )
    times = times[keep]
    ok = ok[keep]
    best = np.nanmin(times, axis=1)
    ratios = np.full(times.shape, math.inf)
    ratios[ok] = (times / best[:, None])[ok]
    return ratios, keep


def performance_profile(ratios: np.ndarray, solvers: list[str]) -> PerfProfile:
    """Empirical CDF per solver (the columns of ``ratios``) on a log grid plus breakpoints."""
    ratios = np.asarray(ratios, dtype=np.float64)
    n_problems, n_solvers = ratios.shape
    finite = ratios[np.isfinite(ratios)]
    top = float(finite.max()) if finite.size else 1.0
    grid = np.geomspace(1.0, max(top * 1.05, 1.0 + 1e-12), num=64)
    taus = np.unique(np.concatenate([[1.0], finite.ravel(), grid]))
    rho = np.empty((taus.size, n_solvers))
    for j in range(n_solvers):
        col = ratios[:, j]
        rho[:, j] = (col[None, :] <= taus[:, None]).sum(axis=1) / max(n_problems, 1)
    return PerfProfile(list(solvers), taus, rho)


def build_problem(request: dict, seed: int):
    """The problem a suite row or a ``polyproj gen`` request describes.

    ``bap`` and ``lp`` generate a seeded instance from ``m``, ``n``,
    ``density`` and the optional ``anchor_norm`` and ``degeneracy``;
    ``bap_file`` and ``lp_file`` read the instance at ``path`` (a base
    or its ``.mtx`` file) and ``mps`` converts the MPS file at ``path``.
    Keys the kind does not use are ignored here; :func:`run_benchmark`
    rejects them in suite rows.
    """
    kind = request["kind"]
    if kind in ("bap", "lp"):
        generate = factory.gen_bap_with_known_vertex if kind == "bap" else factory.gen_lp
        return generate(_gen_spec(request, seed)).problem
    if kind == "bap_file":
        return serialize.read_bap_instance(request["path"])
    if kind == "lp_file":
        return serialize.read_lp_instance(request["path"])
    if kind == "mps":
        return serialize.read_mps(request["path"])[0]
    raise ValueError(f"unknown problem kind {kind!r}")


def _gen_spec(request: dict, seed: int) -> factory.GenSpec:
    options = {key: request[key] for key in ("anchor_norm", "degeneracy") if key in request}
    return factory.GenSpec(request["m"], request["n"], request["density"], seed, **options)


def solve_bap(problem: BapProblem, method: str, tol: float, max_iter: int = 2000,
              trace: bool = False) -> BapSolution | HlwbResult:
    """Project with one of :data:`BAP_SOLVERS`; ``max_iter`` bounds Newton
    iterations or HLWB sweeps, ``trace`` collects the per-step trace."""
    if method == "hlwb":
        return solve_hlwb(problem, HlwbConfig(tol=tol, max_sweeps=max_iter, collect_trace=trace))
    if method not in BAP_SOLVERS:
        raise ValueError(f"unknown solver {method!r}")
    mode = method.removeprefix("rnnm-")
    config = RnnmConfig(tol=tol, max_iter=max_iter, mode=mode, collect_trace=trace)
    return solve_rnnm(problem, config=config)


def _run_cell(problem, solver: str, tol: float, timeout_s: float, tol_gap: float):
    start = time.perf_counter()
    try:
        if solver == "ssepf":
            res = solve_lp(problem, LpConfig(tol_gap=tol_gap))
            rel, converged = res.gap, res.status == "solved"
        else:
            res = solve_bap(problem, solver, tol)
            rel = res.rel_residual
            converged = res.status == "converged" and rel <= tol
    except Exception as exc:  # a failing cell must not abort the suite
        elapsed = time.perf_counter() - start
        return elapsed, math.nan, f"error:{type(exc).__name__}"
    elapsed = time.perf_counter() - start
    if elapsed > timeout_s:
        return elapsed, rel, "timeout"
    return elapsed, rel, "converged" if converged else "failed"


def _has_type(value, kind) -> bool:
    """Whether ``value`` is an instance of ``kind``; bool never is."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_keys(where: str, entries: dict, required: tuple, optional: tuple) -> None:
    unknown = [key for key in entries if key not in required + optional]
    if unknown:
        raise ValueError(f"{where}: unknown key {unknown[0]!r}")
    missing = [key for key in required if key not in entries]
    if missing:
        raise ValueError(f"{where}: missing key {missing[0]!r}")


def run_benchmark(config: dict | str, out_dir: str) -> list[BenchRecord]:
    """Execute a suite config; writes records, result tables and profiles.

    Outputs in ``out_dir``: ``records.csv`` (one line per run),
    ``results.csv`` (repetition means per row/solver/tol, the table
    layout: specs, time, rel. resid.), and one ``profile_tol*.csv`` per
    tolerance.  Fixed seeds reproduce everything byte for byte except
    the timing columns.  An unknown solver name or row ``kind``, an
    unknown or missing suite or row key, a suite or row that is not an
    object, ``rows``, ``tols`` or ``solvers`` that is not a list, an
    empty ``tols`` or ``solvers``, a
    ``repetitions`` that is not an integer of at least 1, a ``tols``
    entry that is not a positive real number, a ``tol_gap`` or
    ``timeout_s`` that is not a nonnegative real number, a row value of
    the wrong type (an ``m``, ``n`` or ``seed`` that is not an integer, a
    ``density`` or ``anchor_norm`` that is not a real number, a ``path``
    or ``degeneracy`` that is not a string), a generated row that
    :class:`factory.GenSpec` rejects, and an ``lp`` row with
    ``degeneracy`` ``non_vertex`` raise ``ValueError`` before the output
    directory is made, naming the suite key or the row.
    """
    if isinstance(config, str):
        with open(config, "r", encoding="ascii") as fh:
            config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError("suite: must be an object")
    _check_keys("suite", config, *_SUITE_KEYS)
    for key in ("rows", "tols", "solvers"):
        if key in config and not isinstance(config[key], list):
            raise ValueError(f"suite: {key!r} must be a list")
    for key in ("tols", "solvers"):  # either one empty runs no cell
        if config.get(key) == []:
            raise ValueError(f"suite: {key!r} must not be empty")
    reps = config.get("repetitions", 1)
    if not _has_type(reps, numbers.Integral) or reps < 1:
        raise ValueError("suite: 'repetitions' must be an integer at least 1")
    tols = config.get("tols", [1e-14])
    if not all(_has_type(t, numbers.Real) and t > 0.0 for t in tols):  # NaN fails too
        raise ValueError("suite: 'tols' must hold positive real numbers")
    tols = [float(t) for t in tols]
    tol_gap, timeout_s = config.get("tol_gap", 1e-8), config.get("timeout_s", 300.0)
    for key, value in (("tol_gap", tol_gap), ("timeout_s", timeout_s)):
        if not (_has_type(value, numbers.Real) and value >= 0.0):
            raise ValueError(f"suite: {key!r} must be a nonnegative real number")
    solvers = list(config.get("solvers", ["rnnm-exact"]))
    for solver in solvers:
        if solver not in BAP_SOLVERS + LP_SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
    for row_idx, row in enumerate(config["rows"]):
        if not isinstance(row, dict):
            raise ValueError(f"row {row_idx}: must be an object")
        if row.get("kind") not in _ROW_KEYS:
            raise ValueError(f"row {row_idx}: unknown problem kind {row.get('kind')!r}")
        required, optional = _ROW_KEYS[row["kind"]]
        _check_keys(f"row {row_idx}", row, ("kind",) + required, optional)
        for key, value in row.items():
            if key == "kind":
                continue
            expected, what = _ROW_VALUE_TYPES[key]
            if not _has_type(value, expected):
                raise ValueError(f"row {row_idx}: {key!r} must be {what}")
        if row["kind"] in ("bap", "lp"):
            try:
                spec = _gen_spec(row, row.get("seed", 0))
            except ValueError as exc:
                raise ValueError(f"row {row_idx}: {exc}") from None
            if row["kind"] == "lp" and spec.degeneracy == factory.NON_VERTEX:
                raise ValueError(
                    f"row {row_idx}: 'degeneracy' {spec.degeneracy!r} is not supported for lp rows"
                )
    os.makedirs(out_dir, exist_ok=True)

    records: list[BenchRecord] = []
    for row_idx, row in enumerate(config["rows"]):
        kind = row["kind"]
        applicable = [
            s
            for s in solvers
            if (s in BAP_SOLVERS and kind in _BAP_KINDS)
            or (s in LP_SOLVERS and kind in _LP_KINDS)
        ]
        if not applicable:
            continue
        generated = kind in ("bap", "lp")
        n_instances = reps if generated else 1
        base_seed = row.get("seed", 0)
        for rep in range(n_instances):
            seed = base_seed + rep
            problem = build_problem(row, seed)
            pid = f"row{row_idx}/{kind}-seed{seed}" if generated else f"row{row_idx}/{kind}"
            for tol in tols:
                for solver in applicable:
                    elapsed, rel, status = _run_cell(problem, solver, tol, timeout_s, tol_gap)
                    records.append(
                        BenchRecord(
                            problem=pid,
                            solver=solver,
                            tol=tol,
                            m=problem.m,
                            n=problem.n,
                            density=row.get("density", float("nan")),
                            seed=seed if generated else -1,
                            time_s=elapsed,
                            rel_residual=rel,
                            status=status,
                        )
                    )

    _write_records_csv(records, os.path.join(out_dir, "records.csv"))
    _write_results_csv(records, os.path.join(out_dir, "results.csv"))
    for tol in tols:
        prof = profile_from_records([r for r in records if r.tol == tol])
        if prof is not None:
            prof.to_csv(os.path.join(out_dir, f"profile_tol{tol:.0e}.csv"))
    return records


def profile_from_records(records: list[BenchRecord]) -> PerfProfile | None:
    """Build the profile for one tolerance from raw records."""
    problems = sorted({r.problem for r in records})
    solvers = sorted({r.solver for r in records})
    if not problems or not solvers:
        return None
    times = np.full((len(problems), len(solvers)), math.nan)
    p_idx = {p: i for i, p in enumerate(problems)}
    s_idx = {s: j for j, s in enumerate(solvers)}
    for r in records:
        if r.converged:
            times[p_idx[r.problem], s_idx[r.solver]] = r.time_s
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        ratios, _ = performance_ratio(times)
    if ratios.shape[0] == 0:
        return None
    return performance_profile(ratios, solvers)


# (name, type) of each BenchRecord field, in the column order of records.csv;
# values are coerced to the declared type, so float columns are written as %.5e
# even when a suite gives an integer (``"density": 1``)
_RECORD_TYPES = typing.get_type_hints(BenchRecord)
_RECORD_FIELDS = [(f.name, _RECORD_TYPES[f.name]) for f in fields(BenchRecord)]


def _write_records_csv(records: list[BenchRecord], path: str) -> None:
    serialize.write_csv(
        path,
        ",".join(name for name, _ in _RECORD_FIELDS),
        ([kind(getattr(r, name)) for name, kind in _RECORD_FIELDS] for r in records),
    )


def _read_records_csv(path: str) -> list[BenchRecord]:
    """Records from a file written by :func:`_write_records_csv`.

    Blank lines are skipped; any other malformed row is a ``ValueError``
    naming its line, and a header without a record field one naming the
    field.
    """
    records = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
        missing = [name for name, _ in _RECORD_FIELDS if name not in idx]
        if missing:
            raise ValueError(f"{path}: header has no column {missing[0]!r}")
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            try:
                if len(parts) != len(header):
                    raise ValueError(f"{len(parts)} fields, expected {len(header)}")
                records.append(
                    BenchRecord(**{name: kind(parts[idx[name]]) for name, kind in _RECORD_FIELDS})
                )
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: {exc}") from None
    return records


def _write_results_csv(records: list[BenchRecord], path: str) -> None:
    # repetition means in the paper-style table layout
    groups: dict[tuple, list[BenchRecord]] = {}
    for r in records:
        key = (r.problem.split("/")[0], r.m, r.n, r.solver, r.tol)
        groups.setdefault(key, []).append(r)
    rows = []
    for key in sorted(groups, key=str):
        rs = groups[key]
        row, m, n, solver, tol = key
        mean_t = sum(r.time_s for r in rs) / len(rs)
        finite = [r.rel_residual for r in rs if not math.isnan(r.rel_residual)]
        mean_res = sum(finite) / len(finite) if finite else math.nan
        fails = sum(0 if r.converged else 1 for r in rs)
        rows.append([row, m, n, float(rs[0].density), solver, tol, mean_t, mean_res, fails])
    header = "row,m,n,density,solver,tol,mean_time_s,mean_rel_residual,failures"
    serialize.write_csv(path, header, rows)
