"""Every text file polyproj reads or writes, through one codec.

A projection instance is a Matrix Market file ``<base>.mtx`` holding A
plus a sidecar ``<base>.bap``; an LP instance uses ``<base>.lp`` as the
sidecar.  Sidecars are plain text: a versioned magic line, ``m`` and
``n`` header lines, then one line per vector with whitespace-separated
values written as shortest round-trip decimals.  Sign patterns are a
string of ``n``/``f`` characters (nonnegative/free).

Solutions (``<base>.sol``) carry a summary block (status, iterations,
the three KKT residuals in 6-significant-digit scientific notation)
followed by the x, y, z vectors in the sidecar vector format.

Sidecars and solutions share one reader, which names the file when the
magic line is wrong or a key is repeated or missing.  Every file goes
through :func:`write_lines`; CSV tables (traces, benchmark records and
results, profiles) through :func:`write_csv`, floats as ``%.5e``.
"""

from __future__ import annotations

import numpy as np

from .bap import BapProblem, BapSolution, kkt_report
from .hlwb import HlwbResult
from .lp import LpProblem
from .sparse_linalg import read_matrix_market, write_matrix_market

__all__ = [
    "write_bap_instance",
    "read_bap_instance",
    "write_lp_instance",
    "read_lp_instance",
    "write_solution",
    "read_solution",
    "write_manifest",
    "write_trace_csv",
    "write_csv",
    "write_lines",
]

_BAP_MAGIC = "polyproj-bap 1"
_LP_MAGIC = "polyproj-lp 1"
_SOL_MAGIC = "polyproj-sol 1"
_SOL_KEYS = ("status", "iterations", "primal_feas", "dual_feas", "comp_slack", "x", "y", "z")
_TRACE_HEADERS = {HlwbResult: "sweep,rel_residual,sigma",
                  BapSolution: "iteration,rel_residual,lambda,step"}


def write_lines(path: str, lines) -> str:
    """Write ``lines`` to ``path`` as ASCII, each ended by a newline; returns ``path``."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def write_csv(path: str, header: str, rows) -> str:
    """The ``header`` line, then ``rows`` comma-joined: floats as ``%.5e``, others by ``str``."""
    lines = [header]
    lines += [",".join(f"{v:.5e}" if isinstance(v, float) else str(v) for v in row) for row in rows]
    return write_lines(path, lines)


def write_trace_csv(result: BapSolution | HlwbResult, path: str) -> str:
    """The trace of a solve as CSV, under the header of its result type (``_TRACE_HEADERS``)."""
    if result.trace is None:
        raise ValueError("result carries no trace; solve with collect_trace=True")
    return write_csv(path, _TRACE_HEADERS[type(result)], result.trace)


def _vector_line(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse_vector(path: str, fields: dict, name: str, length: int | None = None) -> np.ndarray:
    parts = fields[name].split()
    if length is not None and len(parts) != length:
        raise ValueError(f"{path}: {name} has {len(parts)} values, expected {length}")
    return np.array([float(p) for p in parts])


def _read_fields(path: str, magic: str, keys: tuple[str, ...]) -> dict:
    """Fields of a ``magic line + key value`` file: each of ``keys`` present, none repeated."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != magic:
        raise ValueError(f"{path}: not a {magic!r} file")
    fields = {}
    for key, _, rest in (ln.partition(" ") for ln in lines[1:]):
        if key in fields:
            raise ValueError(f"{path}: repeated field {key!r}")
        fields[key] = rest
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ValueError(f"{path}: missing field {missing[0]!r}")
    return fields


def _read_instance(base: str, ext: str, magic: str, keys: tuple[str, ...]):
    """``<base>.mtx`` and the fields of sidecar ``<base><ext>``, whose ``m``/``n`` must match it."""
    A, path = read_matrix_market(base + ".mtx"), base + ext
    fields = _read_fields(path, magic, ("m", "n") + keys)
    m, n = int(fields["m"]), int(fields["n"])
    if (m, n) != A.shape:
        raise ValueError(f"{path}: sidecar dimensions {(m, n)} disagree with matrix {A.shape}")
    return A, path, fields


def write_bap_instance(problem: BapProblem, base: str) -> tuple[str, str]:
    """Write ``<base>.mtx`` and ``<base>.bap``; returns the two paths."""
    mtx = base + ".mtx"
    write_matrix_market(problem.A, mtx)
    signs = "".join("f" if f else "n" for f in problem.free)
    side = write_lines(base + ".bap", [
        _BAP_MAGIC,
        f"m {problem.m}",
        f"n {problem.n}",
        "b " + _vector_line(problem.b),
        "v " + _vector_line(problem.v),
        "signs " + signs,
    ])
    return mtx, side


def read_bap_instance(base: str) -> BapProblem:
    A, path, fields = _read_instance(base, ".bap", _BAP_MAGIC, ("b", "v", "signs"))
    m, n = A.shape
    b = _parse_vector(path, fields, "b", m)
    v = _parse_vector(path, fields, "v", n)
    signs = fields["signs"]
    if len(signs) != n or set(signs) - {"n", "f"}:
        raise ValueError(f"{path}: signs must be a string of n/f flags, one per column")
    free = np.array([ch == "f" for ch in signs])
    return BapProblem(A, b, v, free)


def write_lp_instance(problem: LpProblem, base: str) -> tuple[str, str]:
    mtx = base + ".mtx"
    write_matrix_market(problem.A, mtx)
    side = write_lines(base + ".lp", [
        _LP_MAGIC,
        f"m {problem.m}",
        f"n {problem.n}",
        "b " + _vector_line(problem.b),
        "c " + _vector_line(problem.c),
    ])
    return mtx, side


def read_lp_instance(base: str) -> LpProblem:
    A, path, fields = _read_instance(base, ".lp", _LP_MAGIC, ("b", "c"))
    m, n = A.shape
    b = _parse_vector(path, fields, "b", m)
    c = _parse_vector(path, fields, "c", n)
    return LpProblem(A, b, c)


def write_solution(problem: BapProblem, sol: BapSolution, path: str) -> str:
    """Solution export: summary line data plus the certificate vectors."""
    primal, dual, comp = kkt_report(problem, sol)
    return write_lines(path, [
        _SOL_MAGIC,
        f"status {sol.status}",
        f"iterations {sol.iterations}",
        f"primal_feas {primal:.5e}",
        f"dual_feas {dual:.5e}",
        f"comp_slack {comp:.5e}",
        "x " + _vector_line(sol.x),
        "y " + _vector_line(sol.y),
        "z " + _vector_line(sol.z),
    ])


def read_solution(path: str) -> dict:
    """The fields of a ``.sol`` file; x and z must have the same length.

    The file carries no ``m``, so the length of y is not checked.
    """
    fields = _read_fields(path, _SOL_MAGIC, _SOL_KEYS)
    x = _parse_vector(path, fields, "x")
    return {
        "status": fields["status"],
        "iterations": int(fields["iterations"]),
        **{key: float(fields[key]) for key in ("primal_feas", "dual_feas", "comp_slack")},
        "x": x,
        "y": _parse_vector(path, fields, "y"),
        "z": _parse_vector(path, fields, "z", x.size),
    }


def write_manifest(entries: list[dict], path: str) -> str:
    """Seed-to-file manifest for generated instance batches."""
    return write_lines(
        path,
        ["# polyproj manifest: seed -> instance files"]
        + [f"seed {e['seed']} kind {e['kind']} base {e['base']}" for e in entries],
    )
