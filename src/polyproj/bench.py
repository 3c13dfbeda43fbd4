"""Benchmark harness: timed solver runs, result tables, performance profiles.

A suite is a JSON config listing problem rows (generated or from
files), the solvers to run, repetition counts and tolerances.  Each
(problem, solver) cell is timed around the solve call only; failures
are recorded, never fatal.  Ratios divide each cell's time by the best
successful time on that problem (failures map to infinity) and the
profile is the per-solver empirical CDF of those ratios.  All CSV
output is deterministic for fixed seeds apart from the timing columns.
"""

from __future__ import annotations

import json
import math
import time
import typing
import warnings
from dataclasses import dataclass, fields

import numpy as np

from . import factory, serialize
from .bap import RnnmConfig, solve_rnnm
from .hlwb import HlwbConfig, solve_hlwb
from .lp import LpConfig, solve_lp
from .mps import parse_mps, to_standard_form

__all__ = [
    "BenchRecord",
    "PerfProfile",
    "performance_ratio",
    "performance_profile",
    "run_benchmark",
    "BAP_SOLVERS",
    "LP_SOLVERS",
]

BAP_SOLVERS = ("rnnm-exact", "rnnm-inexact", "hlwb")
LP_SOLVERS = ("ssepf",)
_BAP_KINDS = ("bap", "bap_file")
_LP_KINDS = ("lp", "lp_file", "mps")


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


def _gen_problem(row: dict, seed: int):
    kind = row["kind"]
    if kind == "bap":
        spec = factory.GenSpec(
            m=row["m"],
            n=row["n"],
            density=row["density"],
            seed=seed,
            anchor_norm=row.get("anchor_norm", 0.1),
            degeneracy=row.get("degeneracy", "nondegenerate"),
        )
        return factory.gen_bap_with_known_vertex(spec).problem
    if kind == "lp":
        spec = factory.GenSpec(
            m=row["m"],
            n=row["n"],
            density=row["density"],
            seed=seed,
            degeneracy=row.get("degeneracy", "nondegenerate"),
        )
        return factory.gen_lp(spec).problem
    if kind == "bap_file":
        return serialize.read_bap_instance(row["path"])
    if kind == "lp_file":
        return serialize.read_lp_instance(row["path"])
    if kind == "mps":
        with open(row["path"], "r", encoding="ascii") as fh:
            model = parse_mps(fh.read())
        problem, _ = to_standard_form(model)
        return problem
    raise ValueError(f"unknown problem kind {kind!r}")


def _run_cell(problem, solver: str, tol: float, timeout_s: float, tol_gap: float,
              lp_residual: str = "gap"):
    start = time.perf_counter()
    try:
        if solver == "rnnm-exact":
            sol = solve_rnnm(problem, config=RnnmConfig(tol=tol))
            rel, status = sol.rel_residual, sol.status
        elif solver == "rnnm-inexact":
            sol = solve_rnnm(problem, config=RnnmConfig(tol=tol, mode="inexact"))
            rel, status = sol.rel_residual, sol.status
        elif solver == "hlwb":
            res = solve_hlwb(problem, HlwbConfig(tol=tol))
            rel, status = res.rel_residual, res.status
        elif solver == "ssepf":
            res = solve_lp(problem, LpConfig(tol_gap=tol_gap))
            if lp_residual == "triplet":
                rel = float(sum(res.certificate.rel_residual_triplet))
            else:
                rel = res.gap
            status = "converged" if res.status == "solved" else res.status
        else:
            raise ValueError(f"unknown solver {solver!r}")
    except Exception as exc:  # a failing cell must not abort the suite
        elapsed = time.perf_counter() - start
        return elapsed, math.nan, f"error:{type(exc).__name__}"
    elapsed = time.perf_counter() - start
    if solver in BAP_SOLVERS:
        status = "converged" if (status == "converged" and rel <= tol) else status
        if status != "converged":
            status = "failed"
    elif status != "converged":
        status = "failed"
    if elapsed > timeout_s:
        status = "timeout"
    return elapsed, rel, status


def run_benchmark(config: dict | str, out_dir: str) -> list[BenchRecord]:
    """Execute a suite config; writes records, result tables and profiles.

    Outputs in ``out_dir``: ``records.csv`` (one line per run),
    ``results.csv`` (repetition means per row/solver/tol, the table
    layout: specs, time, rel. resid.), and one ``profile_tol*.csv`` per
    tolerance.  Fixed seeds reproduce everything byte for byte except
    the timing columns.  An unknown solver name, row ``kind`` or
    ``lp_residual`` word raises ``ValueError`` before anything runs.
    """
    import os

    if isinstance(config, str):
        with open(config, "r", encoding="ascii") as fh:
            config = json.load(fh)
    reps = int(config.get("repetitions", 1))
    tols = [float(t) for t in config.get("tols", [1e-14])]
    tol_gap = float(config.get("tol_gap", 1e-8))
    timeout_s = float(config.get("timeout_s", 300.0))
    solvers = list(config.get("solvers", ["rnnm-exact"]))
    lp_residual = config.get("lp_residual", "gap")  # or "triplet" (summed)
    for solver in solvers:
        if solver not in BAP_SOLVERS + LP_SOLVERS:
            raise ValueError(f"unknown solver {solver!r}")
    if lp_residual not in ("gap", "triplet"):
        raise ValueError(f"unknown lp_residual {lp_residual!r}")
    for row_idx, row in enumerate(config["rows"]):
        if row["kind"] not in _BAP_KINDS + _LP_KINDS:
            raise ValueError(f"row {row_idx}: unknown problem kind {row['kind']!r}")
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
        base_seed = int(row.get("seed", 0))
        for rep in range(n_instances):
            seed = base_seed + rep
            problem = _gen_problem(row, seed)
            pid = f"row{row_idx}/{kind}-seed{seed}" if generated else f"row{row_idx}/{kind}"
            for tol in tols:
                for solver in applicable:
                    elapsed, rel, status = _run_cell(
                        problem, solver, tol, timeout_s, tol_gap, lp_residual
                    )
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
    naming its line.
    """
    records = []
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip().split(",")
        idx = {name: i for i, name in enumerate(header)}
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
