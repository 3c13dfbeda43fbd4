"""Every instance and solution file polyproj reads or writes.

A projection instance is a Matrix Market file ``<base>.mtx`` holding A
plus a sidecar ``<base>.bap``; an LP instance uses ``<base>.lp`` as the
sidecar, or comes from an MPS file (:func:`read_mps`).  The instance
readers take the base or the ``.mtx`` path.  Sidecars are plain text: a
versioned magic line, ``m`` and ``n`` header lines, then one line per
vector with whitespace-separated values written as shortest round-trip
decimals.  Sign patterns are a string of ``n``/``f`` characters
(nonnegative/free).

Solutions (``<base>.sol``) carry a summary block (status, iterations,
the three KKT residuals in 6-significant-digit scientific notation)
followed by the x, y, z vectors in the sidecar vector format.

Sidecars and solutions share one reader, which names the file when the
magic line is wrong or a key is unknown, repeated or missing.  Every
other file goes through :func:`write_lines`; CSV tables (traces,
benchmark records and results, profiles) through :func:`write_csv`, floats
as ``%.5e``.  Suite JSON and ``records.csv`` are read by
:mod:`polyproj.bench`, edge lists by :mod:`polyproj.cli`.
"""

from __future__ import annotations

import numpy as np
import scipy.io

from .bap import BapProblem, BapSolution, kkt_report
from .hlwb import HlwbResult
from .lp import LpProblem
from .mps import StandardFormMap, parse_mps, to_standard_form
from .sparse_linalg import SparseMatrix

__all__ = [
    "read_matrix_market",
    "write_matrix_market",
    "read_mps",
    "write_bap_instance",
    "read_bap_instance",
    "instance_base",
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
    """Fields of a ``magic line + key value`` file: exactly ``keys``, each once."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != magic:
        raise ValueError(f"{path}: not a {magic!r} file")
    fields = {}
    for key, _, rest in (ln.partition(" ") for ln in lines[1:]):
        if key not in keys:
            raise ValueError(f"{path}: unknown field {key!r}")
        if key in fields:
            raise ValueError(f"{path}: repeated field {key!r}")
        fields[key] = rest
    missing = [key for key in keys if key not in fields]
    if missing:
        raise ValueError(f"{path}: missing field {missing[0]!r}")
    return fields


def write_matrix_market(matrix: SparseMatrix, path) -> None:
    """Write ``matrix`` to ``path`` as a general coordinate Matrix Market file.

    ``scipy.io.mmwrite`` emits shortest round-trip decimals, so
    read-after-write reproduces every stored value bit for bit, and
    entries in column-major order, so the file is deterministic.  The
    open handle stops scipy from appending ``.mtx`` to ``path``.
    """
    with open(path, "wb") as fh:
        scipy.io.mmwrite(fh, matrix.csc, symmetry="general")


def read_matrix_market(path) -> SparseMatrix:
    """Read a coordinate Matrix Market file through ``scipy.io.mmread``.

    Accepts real/integer general matrices plus symmetric storage (the
    mirrored half is filled in).  Any ``ValueError`` names ``path``.
    """
    try:
        _, _, _, fmt, field, symmetry = scipy.io.mminfo(path)
        if fmt != "coordinate":
            raise ValueError(f"unsupported MatrixMarket format: {fmt}")
        if field not in ("real", "integer"):
            raise ValueError(f"unsupported field type: {field}")
        if symmetry not in ("general", "symmetric"):
            raise ValueError(f"unsupported symmetry: {symmetry}")
        coo = scipy.io.mmread(path, spmatrix=False)
        # from_coo widens mmread's int32 indices to int64 and rechecks values
        return SparseMatrix.from_coo(*coo.shape, coo.row, coo.col, coo.data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def read_mps(path: str) -> tuple[LpProblem, StandardFormMap]:
    """The standard-form LP of the MPS file at ``path`` and its map back to the model."""
    with open(path, "r", encoding="ascii") as fh:
        return to_standard_form(parse_mps(fh.read()))


def instance_base(path: str) -> str:
    """The base of an instance named by ``<base>`` or by its matrix file ``<base>.mtx``."""
    return path.removesuffix(".mtx")


def _read_instance(name: str, ext: str, magic: str, keys: tuple[str, ...]):
    """``<base>.mtx`` and the fields of sidecar ``<base><ext>``, whose ``m``/``n`` must match it;
    ``name`` is the base or the ``.mtx`` file."""
    base = instance_base(name)
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
