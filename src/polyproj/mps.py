"""MPS ingestion and conversion to standard equality form.

Accepts fixed- and free-format MPS (whitespace-tokenized, names case
sensitive): NAME, OBJSENSE, ROWS, COLUMNS, RHS, RANGES, BOUNDS, ENDATA.
OBJSENSE, in the header or the section form, takes MIN, MINIMIZE, MAX
or MAXIMIZE in any letter case and rejects any other word; without it
the model is minimized.  The first N row is the objective; integer
markers and integer bound types are rejected outright.  Only the first
RHS, RANGES and BOUNDS set is read, and a row named twice in it is
rejected.  Conversion produces the maximization standard form
``max c^T x, A x = b, x >= 0`` (minimization inputs are negated)
together with the affine map ``x = offset + T x_std`` back to the
original variables, one way only, so a standard-form solution and its
objective value can be reported in original units.  The conversion is
sparse algebra on that map: the substituted block of A is
``A_orig @ T``, and the slack and bound rows are built from index
arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .lp import LpProblem
from .sparse_linalg import SparseMatrix

__all__ = [
    "MpsModel",
    "MpsParseError",
    "StandardFormMap",
    "parse_mps",
    "to_standard_form",
]

_SECTIONS = ("NAME", "OBJSENSE", "ROWS", "COLUMNS", "RHS", "RANGES", "BOUNDS", "ENDATA")
_SECTION_RANK = {name: i for i, name in enumerate(_SECTIONS)}
_SUPPORTED_BOUNDS = ("UP", "LO", "FX", "FR", "MI", "PL")
_REJECTED_BOUNDS = ("BV", "LI", "UI")


class MpsParseError(ValueError):
    """Malformed MPS input; the message carries the offending line number."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


@dataclass
class MpsModel:
    """Parsed MPS data, still in row/column record form.

    ``row_types`` and ``entries`` keep the file's order of constraint
    rows and of columns.
    """

    name: str = ""
    minimize: bool = True
    objective_name: str = ""
    row_types: dict[str, str] = field(default_factory=dict)  # name -> E/L/G
    entries: dict[str, dict[str, float]] = field(default_factory=dict)  # col -> row -> val
    objective: dict[str, float] = field(default_factory=dict)
    rhs: dict[str, float] = field(default_factory=dict)
    ranges: dict[str, float] = field(default_factory=dict)
    bounds: dict[str, tuple[float, float]] = field(default_factory=dict)
    objective_constant: float = 0.0


def parse_mps(text: str) -> MpsModel:
    """Parse MPS text into an :class:`MpsModel`.

    Sections must appear in standard order and the file must end with
    ENDATA.  Duplicate row names, duplicate matrix, RHS or RANGES
    entries, integer markers, and unsupported bound types are rejected
    with the line number.  A negative ``UP`` bound on a column given no
    ``LO``, ``FX``, ``FR`` or ``MI`` bound before it sets the lower
    bound to -inf, the usual MPS reading.
    """
    model = MpsModel()
    section = None
    rank = -1
    saw_endata = False
    set_names: dict[str, str] = {}  # section -> first set name; later sets are skipped
    ignored_free_rows: set[str] = set()
    explicit_lower: set[str] = set()  # columns given a LO, FX, FR or MI bound
    objective_rhs_seen = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        if not raw.strip() or raw.lstrip().startswith("*"):
            continue
        is_header = not raw[0].isspace()
        toks = raw.split()

        if is_header:
            keyword = toks[0]
            if keyword not in _SECTION_RANK:
                raise MpsParseError(f"unknown section {keyword!r}", line_no)
            if _SECTION_RANK[keyword] <= rank:
                raise MpsParseError(f"section {keyword} out of order", line_no)
            rank = _SECTION_RANK[keyword]
            section = keyword
            if keyword == "NAME":
                model.name = toks[1] if len(toks) > 1 else ""
            elif keyword == "OBJSENSE" and len(toks) > 1:
                model.minimize = _parse_sense(toks[1], line_no)
            elif keyword == "ENDATA":
                saw_endata = True
                break
            continue

        if section is None:
            raise MpsParseError("data before any section header", line_no)

        if section == "OBJSENSE":
            model.minimize = _parse_sense(toks[0], line_no)

        elif section == "ROWS":
            if len(toks) != 2:
                raise MpsParseError("ROWS record needs a type and a name", line_no)
            rtype, rname = toks[0].upper(), toks[1]
            if rname in model.row_types or rname == model.objective_name or rname in ignored_free_rows:
                raise MpsParseError(f"duplicate row name {rname!r}", line_no)
            if rtype == "N":
                if not model.objective_name:
                    model.objective_name = rname
                else:
                    ignored_free_rows.add(rname)  # extra free rows are dropped
            elif rtype in ("E", "L", "G"):
                model.row_types[rname] = rtype
            else:
                raise MpsParseError(f"unknown row type {rtype!r}", line_no)

        elif section == "COLUMNS":
            if len(toks) >= 3 and toks[1] == "'MARKER'":
                raise MpsParseError("integer variable markers are not supported", line_no)
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError("COLUMNS record needs row/value pairs", line_no)
            col = toks[0]
            if col not in model.entries:
                model.entries[col] = {}
            for rname, val in zip(toks[1::2], toks[2::2]):
                value = _parse_float(val, line_no)
                if rname == model.objective_name:
                    if col in model.objective:
                        raise MpsParseError(f"duplicate objective entry for {col!r}", line_no)
                    model.objective[col] = value
                elif rname in ignored_free_rows:
                    continue
                elif rname in model.row_types:
                    if rname in model.entries[col]:
                        raise MpsParseError(
                            f"duplicate entry ({col!r}, {rname!r})", line_no
                        )
                    model.entries[col][rname] = value
                else:
                    raise MpsParseError(f"entry references unknown row {rname!r}", line_no)

        elif section in ("RHS", "RANGES"):
            if len(toks) < 3 or len(toks) % 2 == 0:
                raise MpsParseError(f"{section} record needs row/value pairs", line_no)
            if set_names.setdefault(section, toks[0]) != toks[0]:
                continue
            for rname, val in zip(toks[1::2], toks[2::2]):
                value = _parse_float(val, line_no)
                if rname == model.objective_name:
                    if section == "RHS":
                        if objective_rhs_seen:
                            raise MpsParseError(f"duplicate RHS entry for {rname!r}", line_no)
                        objective_rhs_seen = True
                        model.objective_constant = -value
                    continue
                if rname in ignored_free_rows:
                    continue
                if rname not in model.row_types:
                    raise MpsParseError(f"{section} references unknown row {rname!r}", line_no)
                target = model.rhs if section == "RHS" else model.ranges
                if rname in target:
                    raise MpsParseError(f"duplicate {section} entry for {rname!r}", line_no)
                target[rname] = value

        elif section == "BOUNDS":
            if len(toks) < 3:
                raise MpsParseError("BOUNDS record too short", line_no)
            btype = toks[0].upper()
            if btype in _REJECTED_BOUNDS:
                raise MpsParseError(f"integer bound type {btype} is not supported", line_no)
            if btype not in _SUPPORTED_BOUNDS:
                raise MpsParseError(f"unknown bound type {btype!r}", line_no)
            if set_names.setdefault(section, toks[1]) != toks[1]:
                continue
            col = toks[2]
            if col not in model.entries:
                raise MpsParseError(f"bound references unknown column {col!r}", line_no)
            lo, up = model.bounds.get(col, (0.0, math.inf))
            if btype in ("UP", "LO", "FX"):
                if len(toks) < 4:
                    raise MpsParseError(f"bound type {btype} needs a value", line_no)
                value = _parse_float(toks[3], line_no)
                if btype == "UP":
                    up = value
                    if value < 0.0 and col not in explicit_lower:
                        lo = -math.inf
                elif btype == "LO":
                    lo = value
                else:
                    lo = up = value
            elif btype == "FR":
                lo, up = -math.inf, math.inf
            elif btype == "MI":
                lo = -math.inf
            elif btype == "PL":
                up = math.inf
            if btype in ("LO", "FX", "FR", "MI"):
                explicit_lower.add(col)
            model.bounds[col] = (lo, up)

        else:  # pragma: no cover - sections are exhaustive
            raise MpsParseError(f"data in unexpected section {section}", line_no)

    if not saw_endata:
        raise MpsParseError("file ended without ENDATA")
    if not model.objective_name:
        raise MpsParseError("no objective (N) row declared")
    return model


def _parse_sense(token: str, line_no: int) -> bool:
    """True for a minimization OBJSENSE word, False for maximization."""
    sense = token.upper()
    if sense in ("MIN", "MINIMIZE"):
        return True
    if sense in ("MAX", "MAXIMIZE"):
        return False
    raise MpsParseError(f"unknown objective sense {token!r}", line_no)


def _parse_float(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise MpsParseError(f"bad numeric literal {token!r}", line_no) from None
    if not math.isfinite(value):
        raise MpsParseError(f"non-finite value {token!r}", line_no)
    return value


@dataclass
class StandardFormMap:
    """Affine map ``x_orig = offset + T @ x_std`` back to the original variables.

    Row i of ``T`` holds +1 in the column of a shifted variable, -1 in
    that of a mirrored one, +1 and -1 in the two columns of a split
    free variable, and nothing once the variable is dropped at zero.
    The columns the conversion added (slacks and bound columns) are
    empty in ``T``.  ``original_objective`` evaluates the model's
    objective (in its own min/max sense and units, including the
    constant) at a standard-form point.
    """

    minimize: bool
    objective_constant: float
    offset: np.ndarray
    T: SparseMatrix
    original_coefficients: np.ndarray

    def to_original(self, x_std: np.ndarray) -> np.ndarray:
        x_std = np.asarray(x_std, dtype=np.float64)
        if x_std.shape != (self.T.ncols,):
            raise ValueError(f"expected {self.T.ncols} standard-form values")
        return self.offset + self.T.matvec(x_std)

    def original_objective(self, x_std: np.ndarray) -> float:
        x_orig = self.to_original(x_std)
        return float(self.original_coefficients @ x_orig) + self.objective_constant


def to_standard_form(model: MpsModel) -> tuple[LpProblem, StandardFormMap]:
    """Convert a parsed model to ``max c^T x, A x = b, x >= 0``.

    Each variable is shifted by its lower bound, mirrored below its
    upper bound when it has no lower one, or split into a difference of
    nonnegatives when free; this is the map ``x = offset + T x_std`` of
    :class:`StandardFormMap`, and the substituted block of A is
    ``A_orig @ T`` with right-hand side ``rhs - A_orig @ offset``.
    Inequalities gain slacks, ranged rows gain bounded slacks, and a
    two-sided variable or ranged row gains a bound row.  Columns that
    end up absent from every constraint are fixed at zero and dropped
    (they cannot carry a bounded optimum in max form unless their
    reduced objective is nonpositive, which is verified).

    Rows are the constraint rows in model order, then one bound row per
    two-sided variable (in column order), then one per ranged row.
    Columns are the substituted variables, then the slacks, then the
    bound columns.
    """
    names, rows = list(model.entries), list(model.row_types)
    n, m = len(names), len(rows)
    obj = np.array([model.objective.get(c, 0.0) for c in names])
    lo, up = np.array([model.bounds.get(c, (0.0, math.inf)) for c in names]).reshape(n, 2).T
    shifted = lo > -math.inf
    bad = np.flatnonzero(shifted & (up < lo))
    if bad.size:
        raise MpsParseError(f"variable {names[bad[0]]!r} has upper bound below lower")

    # substituted columns: one per variable, a +/- pair per free variable
    free = ~shifted & (up == math.inf)
    mirrored = ~shifted & ~free
    offset = np.where(shifted, lo, np.where(free, 0.0, up))
    width = 1 + free
    var = np.repeat(np.arange(n), width)
    first = np.cumsum(width) - width
    sign = np.where(mirrored, -1.0, 1.0)[var]
    sign[first[free] + 1] = -1.0

    # a slack per inequality or ranged row; a bound row x_j + t = width
    # per two-sided variable, then per ranged row
    lo_r, hi_r = np.array([
        _row_interval(model.row_types[r], model.rhs.get(r, 0.0), model.ranges.get(r))
        for r in rows
    ]).reshape(m, 2).T
    eq = lo_r == hi_r
    lower_only = (lo_r > -math.inf) & (hi_r == math.inf)
    two_sided = ~eq & (lo_r > -math.inf) & (hi_r < math.inf)
    slack_rows = np.flatnonzero(~eq)
    bounded_vars = np.flatnonzero(shifted & (up < math.inf))
    n_sub, n_slack = var.size, slack_rows.size
    bounded = np.concatenate([first[bounded_vars], n_sub + np.flatnonzero(two_sided[slack_rows])])
    k = bounded.size
    n_std = n_sub + n_slack + k

    indptr = np.concatenate([np.arange(n_sub + 1), np.full(n_slack + k, n_sub)])
    T = SparseMatrix._trusted(sp.csc_array((sign, var, indptr), shape=(n, n_std)))
    row_index = {name: i for i, name in enumerate(rows)}
    entries = [model.entries[c] for c in names]
    A_orig = SparseMatrix.from_coo(
        m, n,
        [row_index[r] for e in entries for r in e],
        np.repeat(np.arange(n), np.array([len(e) for e in entries], dtype=np.int64)),
        [v for e in entries for v in e.values()],
    )
    sub = (A_orig.csc @ T.csc).tocoo()
    bound_rows = m + np.arange(k)
    A = SparseMatrix.from_coo(
        m + k, n_std,
        np.concatenate([sub.row, slack_rows, bound_rows, bound_rows]),
        np.concatenate([sub.col, n_sub + np.arange(n_slack), bounded, n_std - k + np.arange(k)]),
        np.concatenate([sub.data, np.where(lower_only, -1.0, 1.0)[slack_rows], np.ones(2 * k)]),
    )
    # rhs - A_orig @ offset as one product with rhs as the leading column:
    # each row then starts from rhs and subtracts its terms one at a time
    # in column order, so b does not depend on how a separate sum rounds
    rhs = np.where(lower_only | eq, lo_r, hi_r)
    b = np.concatenate([
        sp.hstack([sp.csc_array(rhs[:, None]), A_orig.csc], format="csc")
        @ np.concatenate([[1.0], -offset]),
        up[bounded_vars] - lo[bounded_vars],
        (hi_r - lo_r)[two_sided],
    ])
    sense = -1.0 if model.minimize else 1.0
    c = np.concatenate([sign * (sense * obj)[var], np.zeros(n_slack + k)])

    # drop columns that touch no constraint; a positive objective there
    # would make the problem unbounded
    empty = np.diff(A.csc.indptr) == 0
    if np.any(c[empty] > 0.0):
        raise MpsParseError("unconstrained column with positive objective (unbounded)")
    if empty.any():
        kept = np.flatnonzero(~empty)
        A, c, T = A.cols(kept), c[kept], T.cols(kept)

    fmap = StandardFormMap(
        minimize=model.minimize,
        objective_constant=model.objective_constant,
        offset=offset,
        T=T,
        original_coefficients=obj,
    )
    return LpProblem(A, b, c), fmap


def _row_interval(rtype: str, rhs: float, rng: float | None) -> tuple[float, float]:
    # standard RANGES semantics: the row becomes two-sided with width |R|
    # (sign of R picks the side for E rows)
    if rng is None:
        if rtype == "E":
            return rhs, rhs
        if rtype == "L":
            return -math.inf, rhs
        return rhs, math.inf
    r = rng
    if rtype == "E":
        return (rhs, rhs + r) if r >= 0 else (rhs + r, rhs)
    if rtype == "L":
        return rhs - abs(r), rhs
    return rhs, rhs + abs(r)
