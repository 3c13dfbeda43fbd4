"""On-disk instance and solution formats.

A projection instance is a Matrix Market file ``<base>.mtx`` holding A
plus a sidecar ``<base>.bap``; an LP instance uses ``<base>.lp`` as the
sidecar.  Sidecars are plain text: a versioned magic line, ``m`` and
``n`` header lines, then one line per vector with whitespace-separated
values written as shortest round-trip decimals.  Sign patterns are a
string of ``n``/``f`` characters (nonnegative/free).

Solutions (``<base>.sol``) carry a summary block (status, iterations,
the three KKT residuals in 6-significant-digit scientific notation)
followed by the x, y, z vectors in the sidecar vector format.
"""

from __future__ import annotations

import numpy as np

from .bap import BapProblem, BapSolution, kkt_report
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
]

_BAP_MAGIC = "polyproj-bap 1"
_LP_MAGIC = "polyproj-lp 1"
_SOL_MAGIC = "polyproj-sol 1"


def _vector_line(values: np.ndarray) -> str:
    return " ".join(repr(float(v)) for v in values)


def _parse_vector(line: str, length: int, name: str) -> np.ndarray:
    parts = line.split()
    if len(parts) != length:
        raise ValueError(f"{name} has {len(parts)} values, expected {length}")
    return np.array([float(p) for p in parts])


def write_bap_instance(problem: BapProblem, base: str) -> tuple[str, str]:
    """Write ``<base>.mtx`` and ``<base>.bap``; returns the two paths."""
    mtx, side = base + ".mtx", base + ".bap"
    write_matrix_market(problem.A, mtx)
    signs = "".join("f" if f else "n" for f in problem.free)
    lines = [
        _BAP_MAGIC,
        f"m {problem.m}",
        f"n {problem.n}",
        "b " + _vector_line(problem.b),
        "v " + _vector_line(problem.v),
        "signs " + signs,
    ]
    with open(side, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return mtx, side


def _read_sidecar(path: str, magic: str, shape: tuple[int, int], keys: tuple[str, ...]) -> dict:
    """Fields of a sidecar after its magic line, none repeated; ``m``/``n`` must match ``shape``."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != magic:
        raise ValueError(f"{path}: not a {magic!r} sidecar")
    fields = {}
    for key, _, rest in (ln.partition(" ") for ln in lines[1:]):
        if key in fields:
            raise ValueError(f"{path}: repeated field {key!r}")
        fields[key] = rest
    missing = [key for key in ("m", "n") + keys if key not in fields]
    if missing:
        raise ValueError(f"{path}: missing field {missing[0]!r}")
    m, n = int(fields["m"]), int(fields["n"])
    if (m, n) != shape:
        raise ValueError(f"sidecar dimensions {(m, n)} disagree with matrix {shape}")
    return fields


def read_bap_instance(base: str) -> BapProblem:
    A = read_matrix_market(base + ".mtx")
    fields = _read_sidecar(base + ".bap", _BAP_MAGIC, A.shape, ("b", "v", "signs"))
    m, n = A.shape
    b = _parse_vector(fields["b"], m, "b")
    v = _parse_vector(fields["v"], n, "v")
    signs = fields["signs"]
    if len(signs) != n or set(signs) - {"n", "f"}:
        raise ValueError("signs must be a string of n/f flags, one per column")
    free = np.array([ch == "f" for ch in signs])
    return BapProblem(A, b, v, free)


def write_lp_instance(problem: LpProblem, base: str) -> tuple[str, str]:
    mtx, side = base + ".mtx", base + ".lp"
    write_matrix_market(problem.A, mtx)
    lines = [
        _LP_MAGIC,
        f"m {problem.m}",
        f"n {problem.n}",
        "b " + _vector_line(problem.b),
        "c " + _vector_line(problem.c),
    ]
    with open(side, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return mtx, side


def read_lp_instance(base: str) -> LpProblem:
    A = read_matrix_market(base + ".mtx")
    fields = _read_sidecar(base + ".lp", _LP_MAGIC, A.shape, ("b", "c"))
    m, n = A.shape
    b = _parse_vector(fields["b"], m, "b")
    c = _parse_vector(fields["c"], n, "c")
    return LpProblem(A, b, c)


def write_solution(problem: BapProblem, sol: BapSolution, path: str) -> str:
    """Solution export: summary line data plus the certificate vectors."""
    primal, dual, comp = kkt_report(problem, sol)
    lines = [
        _SOL_MAGIC,
        f"status {sol.status}",
        f"iterations {sol.iterations}",
        f"primal_feas {primal:.5e}",
        f"dual_feas {dual:.5e}",
        f"comp_slack {comp:.5e}",
        "x " + _vector_line(sol.x),
        "y " + _vector_line(sol.y),
        "z " + _vector_line(sol.z),
    ]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def read_solution(path: str) -> dict:
    with open(path, "r", encoding="ascii") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    if not lines or lines[0] != _SOL_MAGIC:
        raise ValueError(f"{path}: not a polyproj solution file")
    out: dict = {}
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key in ("x", "y", "z"):
            out[key] = np.array([float(p) for p in rest.split()])
        elif key == "iterations":
            out[key] = int(rest)
        elif key == "status":
            out[key] = rest
        else:
            out[key] = float(rest)
    return out


def write_manifest(entries: list[dict], path: str) -> str:
    """Seed-to-file manifest for generated instance batches."""
    lines = ["# polyproj manifest: seed -> instance files"]
    for e in entries:
        lines.append(f"seed {e['seed']} kind {e['kind']} base {e['base']}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")
    return path
