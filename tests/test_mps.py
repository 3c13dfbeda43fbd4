import math
import os
import re

import numpy as np
import pytest

from polyproj.factory import reference_simplex
from polyproj.lp import solve_lp
from polyproj.mps import MpsParseError, parse_mps, to_standard_form

from oracles import highs_mps_optimum, highs_standard_point

TINY_MPS = """NAME          TINY
OBJSENSE
    MAX
ROWS
 L  R1
 N  OBJ
COLUMNS
    X1        R1              1.   OBJ             1.
    X2        R1              1.
RHS
    RHS       R1              1.
ENDATA
"""


class TestParse:
    def test_golden_fixture(self):
        model = parse_mps(TINY_MPS)
        assert model.name == "TINY"
        assert not model.minimize
        assert list(model.row_types) == ["R1"]
        assert model.row_types["R1"] == "L"
        assert model.objective == {"X1": 1.0}
        assert model.entries["X1"] == {"R1": 1.0}
        assert model.entries["X2"] == {"R1": 1.0}
        assert model.rhs == {"R1": 1.0}

    def test_truncated_file(self):
        text = TINY_MPS.replace("ENDATA\n", "")
        with pytest.raises(MpsParseError, match="ENDATA"):
            parse_mps(text)

    def test_integer_marker_rejected(self):
        text = TINY_MPS.replace(
            "COLUMNS\n",
            "COLUMNS\n    M1        'MARKER'                 'INTORG'\n",
        )
        with pytest.raises(MpsParseError, match="integer"):
            parse_mps(text)

    def test_duplicate_row_rejected(self):
        text = TINY_MPS.replace(" L  R1\n", " L  R1\n L  R1\n")
        with pytest.raises(MpsParseError, match="duplicate"):
            parse_mps(text)

    def test_section_order_enforced(self):
        text = TINY_MPS.replace("OBJSENSE\n    MAX\n", "")
        text = text.replace("ROWS\n", "RHS\nROWS\n")
        with pytest.raises(MpsParseError, match="order"):
            parse_mps(text)

    def test_unknown_row_reference(self):
        text = TINY_MPS.replace("X2        R1", "X2        R9")
        with pytest.raises(MpsParseError, match="unknown row"):
            parse_mps(text)

    def test_integer_bound_types_rejected(self):
        text = TINY_MPS.replace(
            "RHS\n", "RHS\n"
        ).replace("ENDATA", "BOUNDS\n BV BND       X1\nENDATA")
        with pytest.raises(MpsParseError, match="not supported"):
            parse_mps(text)

    @pytest.mark.parametrize("header", [False, True], ids=["section", "header"])
    @pytest.mark.parametrize(
        "word, minimize",
        [("MIN", True), ("MINIMIZE", True), ("MAX", False), ("MAXIMIZE", False),
         ("maximize", False)],
    )
    def test_objsense_words(self, header, word, minimize):
        sense = f"OBJSENSE {word}\n" if header else f"OBJSENSE\n    {word}\n"
        model = parse_mps(TINY_MPS.replace("OBJSENSE\n    MAX\n", sense))
        assert model.minimize is minimize

    @pytest.mark.parametrize("header", [False, True], ids=["section", "header"])
    def test_unknown_objsense_rejected(self, header):
        sense = "OBJSENSE MAXIMUM\n" if header else "OBJSENSE\n    MAXIMUM\n"
        with pytest.raises(MpsParseError, match=f"line {2 if header else 3}: .*MAXIMUM"):
            parse_mps(TINY_MPS.replace("OBJSENSE\n    MAX\n", sense))

    def test_duplicate_rhs_rejected(self):
        text = TINY_MPS.replace("R1              1.\nENDATA", "R1  1.   R1  5.\nENDATA")
        with pytest.raises(MpsParseError, match="line 11: duplicate RHS entry for 'R1'"):
            parse_mps(text)

    def test_duplicate_objective_rhs_rejected(self):
        text = TINY_MPS.replace("R1              1.\nENDATA", "R1  1.   OBJ  1.   OBJ  5.\nENDATA")
        with pytest.raises(MpsParseError, match="line 11: duplicate RHS entry for 'OBJ'"):
            parse_mps(text)

    def test_duplicate_ranges_rejected(self):
        text = TINY_MPS.replace("ENDATA", "RANGES\n    RNG  R1  2.\n    RNG  R1  3.\nENDATA")
        with pytest.raises(MpsParseError, match="line 14: duplicate RANGES entry for 'R1'"):
            parse_mps(text)

    def test_error_carries_line_number(self):
        text = TINY_MPS.replace("X2        R1              1.", "X2        R1        oops")
        with pytest.raises(MpsParseError, match="line 9"):
            parse_mps(text)


    def test_comments_and_blank_lines_skipped(self):
        text = "* a comment\n\n" + TINY_MPS.replace("COLUMNS\n", "COLUMNS\n   \n  * indented\n")
        assert parse_mps(text) == parse_mps(TINY_MPS)

    def test_fx_and_pl_bounds(self):
        text = TINY_MPS.replace(
            "ENDATA", "BOUNDS\n FX BND       X1   2.5\n UP BND       X2   4.\n PL BND       X2\nENDATA"
        )
        assert parse_mps(text).bounds == {"X1": (2.5, 2.5), "X2": (0.0, math.inf)}

    def test_second_free_row_dropped_with_its_entries(self):
        text = (
            TINY_MPS.replace(" N  OBJ\n", " N  OBJ\n N  COST2\n")
            .replace("X2        R1              1.", "X2        R1   1.   COST2   5.")
            .replace("RHS       R1              1.", "RHS       R1   1.   COST2   3.")
        )
        assert parse_mps(text) == parse_mps(TINY_MPS)

    def test_only_the_first_set_is_read(self):
        text = TINY_MPS.replace(
            "ENDATA",
            "    RHS2      R1   7.\n"
            "RANGES\n    RNG  R1  2.\n    RNG2 R1  3.\n"
            "BOUNDS\n UP BND       X1   4.\n UP BND2      X1   9.\nENDATA",
        )
        model = parse_mps(text)
        assert model.rhs == {"R1": 1.0}
        assert model.ranges == {"R1": 2.0}
        assert model.bounds == {"X1": (0.0, 4.0)}

    @pytest.mark.parametrize(
        "old, new, line_no, message",
        [
            ("ROWS\n", "FOO\nROWS\n", 4, "unknown section 'FOO'"),
            ("NAME", " X1  R1  1.\nNAME", 1, "data before any section header"),
            (" L  R1\n", " L  R1  R2\n", 5, "ROWS record needs a type and a name"),
            (" L  R1\n", " Q  R1\n", 5, "unknown row type 'Q'"),
            ("X2        R1              1.", "X2        R1", 9,
             "COLUMNS record needs row/value pairs"),
            ("X2        R1              1.", "X2  R1  1.  OBJ  2.  OBJ  3.", 9,
             "duplicate objective entry for 'X2'"),
            ("X2        R1              1.", "X2  R1  1.  R1  2.", 9,
             "duplicate entry ('X2', 'R1')"),
            ("RHS       R1              1.", "RHS       R1", 11,
             "RHS record needs row/value pairs"),
            ("RHS       R1              1.", "RHS       R9   1.", 11,
             "RHS references unknown row 'R9'"),
            ("ENDATA", "BOUNDS\n UP BND\nENDATA", 13, "BOUNDS record too short"),
            ("ENDATA", "BOUNDS\n XX BND  X1  1.\nENDATA", 13, "unknown bound type 'XX'"),
            ("ENDATA", "BOUNDS\n UP BND  X9  1.\nENDATA", 13,
             "bound references unknown column 'X9'"),
            ("ENDATA", "BOUNDS\n UP BND  X1\nENDATA", 13, "bound type UP needs a value"),
            ("X2        R1              1.", "X2        R1              inf", 9,
             "non-finite value 'inf'"),
            (" N  OBJ\n", " N  OBJ\n N  OBJ\n", 7, "duplicate row name 'OBJ'"),
            # whole-file faults carry no line
            (" N  OBJ\n", " E  OBJ\n", None, "no objective (N) row declared"),
            ("RHS\n", "    X3        OBJ             1.\nRHS\n", None,
             "unconstrained column with positive objective (unbounded)"),
        ],
        ids=["section", "before_section", "rows_record", "row_type", "columns_pairs",
             "objective_entry", "matrix_entry", "rhs_pairs", "rhs_row", "bounds_short",
             "bound_type", "bound_column", "bound_value", "non_finite", "objective_row",
             "no_objective", "unbounded_column"],
    )
    def test_rejection_names_its_line(self, old, new, line_no, message):
        assert old in TINY_MPS
        where = "" if line_no is None else f"line {line_no}: "
        with pytest.raises(MpsParseError, match="^" + re.escape(where + message)) as info:
            to_standard_form(parse_mps(TINY_MPS.replace(old, new, 1)))
        assert info.value.line_no == line_no


class TestStandardForm:
    def test_single_row_gets_slack(self):
        lp, fmap = to_standard_form(parse_mps(TINY_MPS))
        assert lp.A.shape == (1, 3)
        assert np.array_equal(lp.A.toarray(), [[1.0, 1.0, 1.0]])
        assert np.array_equal(lp.b, [1.0])
        assert np.array_equal(lp.c, [1.0, 0.0, 0.0])

    def test_minimization_negates(self):
        text = TINY_MPS.replace("OBJSENSE\n    MAX\n", "")
        lp, fmap = to_standard_form(parse_mps(text))
        assert fmap.minimize
        assert np.array_equal(lp.c, [-1.0, 0.0, 0.0])

    def test_free_variable_splits(self):
        text = """NAME T2
ROWS
 E  R1
 N  OBJ
COLUMNS
    X1        R1              1.   OBJ             1.
    X2        R1              1.
RHS
    B         R1              2.
BOUNDS
 FR BND       X2
ENDATA
"""
        lp, fmap = to_standard_form(parse_mps(text))
        # X1 plus the split pair of X2
        assert lp.n == 3
        cols = lp.A.toarray()
        assert np.array_equal(cols, [[1.0, 1.0, -1.0]])
        # X1 = 5 and X2 = 0 - 3
        x_std = np.array([5.0, 0.0, 3.0])
        assert np.allclose(lp.A.matvec(x_std), lp.b)
        back = fmap.to_original(x_std)
        assert np.allclose(back, [5.0, -3.0])

    def test_two_sided_bound_adds_row(self):
        text = """NAME T3
ROWS
 E  R1
 N  OBJ
COLUMNS
    X1        R1              1.   OBJ             1.
    X2        R1              1.
RHS
    B         R1              2.
BOUNDS
 LO BND       X1              0.5
 UP BND       X1              1.5
ENDATA
"""
        lp, fmap = to_standard_form(parse_mps(text))
        assert lp.m == 2  # constraint row + bound row
        # X1 = 0.5 + 0.5 with bound column 1.5 - 1, and X2 = 1
        x_std = np.array([0.5, 1.0, 0.5])
        assert np.allclose(lp.A.matvec(x_std), lp.b, atol=1e-14)
        assert np.allclose(fmap.to_original(x_std), [1.0, 1.0], atol=1e-14)

    def test_negative_upper_bound_without_lower_is_unbounded_below(self):
        text = """NAME T4
ROWS
 E  R1
 N  OBJ
COLUMNS
    X1        R1              1.   OBJ             1.
    X2        R1              1.
RHS
    B         R1              2.
BOUNDS
 UP BND       X1             -1.0
ENDATA
"""
        model = parse_mps(text)
        assert model.bounds["X1"] == (-math.inf, -1.0)
        lp, fmap = to_standard_form(model)
        # X1 = -1 - x_std[0], mirrored with no bound row
        assert lp.m == 1
        assert np.array_equal(lp.A.toarray(), [[-1.0, 1.0]])
        assert np.array_equal(lp.b, [3.0])
        x_std = np.array([3.0, 6.0])
        assert np.allclose(lp.A.matvec(x_std), lp.b)
        assert np.allclose(fmap.to_original(x_std), [-4.0, 6.0])

    def test_negative_upper_bound_below_explicit_lower_rejected(self):
        text = """NAME T5
ROWS
 E  R1
 N  OBJ
COLUMNS
    X1        R1              1.   OBJ             1.
RHS
    B         R1              2.
BOUNDS
 LO BND       X1              0.
 UP BND       X1             -1.0
ENDATA
"""
        model = parse_mps(text)
        assert model.bounds["X1"] == (0.0, -1.0)
        with pytest.raises(MpsParseError, match="upper bound below lower"):
            to_standard_form(model)

    def test_to_original_checks_length(self):
        lp, fmap = to_standard_form(parse_mps(TINY_MPS))
        for size in (lp.n - 1, lp.n + 1):
            with pytest.raises(ValueError, match="standard-form values"):
                fmap.to_original(np.zeros(size))

    def test_golden_standard_form(self):
        # every bound kind and a ranged row of every type; pins the row
        # and column order
        text = """NAME GOLD
ROWS
 N  COST
 E  RE1
 E  RE2
 L  RL
 G  RG
 G  RG0
COLUMNS
    X1  COST  1.   RE1  1.
    X1  RL    2.
    X2  COST  2.   RE1  1.
    X2  RG    1.
    X3  COST  -1.  RE2  1.
    X3  RG0   2.
    X4  COST  1.   RE2  1.
    X4  RG    -1.
    X5  COST  1.   RL   1.
    X6  COST  -1.  RE1  1.
    X6  RG    2.
    X7  COST  3.   RL   1.
    X7  RG0   -1.
    X8  COST  1.
RHS
    B  RE1  4.   RE2  5.
    B  RL   6.   RG   1.
    B  RG0  3.
RANGES
    R  RE1  2.   RE2  -3.
    R  RL   4.   RG   5.
BOUNDS
 LO BND  X1  1.
 UP BND  X2  4.
 LO BND  X3  -1.
 UP BND  X3  2.
 MI BND  X4
 MI BND  X5
 UP BND  X5  3.
 FR BND  X6
 UP BND  X7  -2.
ENDATA
"""
        lp, fmap = to_standard_form(parse_mps(text))
        # columns: X1+ X2+ X3+ X4+ X4- X5- X6+ X6- X7- (X8 is dropped),
        # slacks of RE1 RE2 RL RG RG0, bound columns of X2 X3 RE1 RE2 RL RG
        rows = [
            {0: 1, 1: 1, 6: 1, 7: -1, 9: 1},            # RE1 in [4, 6]
            {2: 1, 3: 1, 4: -1, 10: 1},                 # RE2 in [2, 5]
            {0: 2, 5: -1, 8: -1, 11: 1},                # RL in [2, 6]
            {1: 1, 3: -1, 4: 1, 6: 2, 7: -2, 12: 1},    # RG in [1, 6]
            {2: 2, 8: 1, 13: -1},                       # RG0 >= 3
            {1: 1, 14: 1}, {2: 1, 15: 1},               # X2 <= 4, X3 in [-1, 2]
            {9: 1, 16: 1}, {10: 1, 17: 1}, {11: 1, 18: 1}, {12: 1, 19: 1},
        ]
        A = np.zeros((11, 20))
        for r, row in enumerate(rows):
            for j, v in row.items():
                A[r, j] = v
        assert np.array_equal(lp.A.toarray(), A)
        assert np.array_equal(lp.b, [5, 6, 3, 6, 3, 4, 3, 2, 3, 4, 5])
        assert np.array_equal(lp.c, [-1, -2, 1, -1, 1, 1, 1, -1, 3] + [0] * 11)
        assert np.array_equal(fmap.offset, [1, 0, -1, 0, 3, 0, -2, 0])
        T = np.zeros((8, 20))
        T[[0, 1, 2, 3, 3, 4, 5, 5, 6], range(9)] = [1, 1, 1, 1, -1, -1, 1, -1, -1]
        assert np.array_equal(fmap.T.toarray(), T)

    def test_round_trip_objective(self):
        rng = np.random.default_rng(0)
        model = parse_mps(TINY_MPS)
        lp, fmap = to_standard_form(model)
        for _ in range(20):
            x1 = rng.uniform(0, 0.5)
            x2 = rng.uniform(0, 0.5)
            x_std = np.array([x1, x2, 1.0 - x1 - x2])  # slack of x1 + x2 <= 1
            std_val = float(lp.c @ x_std)
            orig_val = fmap.original_objective(x_std)
            # max problem: original units equal standard units here
            assert abs(std_val - orig_val) <= 1e-12 * (1 + abs(std_val))

    def test_feasible_region_preserved(self):
        # random models with E/L/G rows, RANGES (E rows with both signs),
        # and LO/UP/MI/FR bounds; x0 lies inside every row interval and
        # bound, so HiGHS finds a standard-form point that maps to it,
        # and breaking one of them must leave no such point
        rng = np.random.default_rng(42)
        bound_kinds = ["none", "LO", "UP", "LOUP", "MI", "MIUP", "FR"]

        def convert(types, rhs, ranges, lo, up, obj, dense):
            rows = [f"R{i}" for i in range(len(types))]
            names = [f"C{j}" for j in range(len(lo))]
            lines = ["NAME RND", "ROWS"] + [f" {t}  {r}" for t, r in zip(types, rows)]
            lines += [" N  OBJ", "COLUMNS"]
            for j, cname in enumerate(names):
                lines.append(f"    {cname}  OBJ  {obj[j]!r}")
                lines += [f"    {cname}  {rows[i]}  {float(dense[i, j])!r}"
                          for i in range(len(rows)) if dense[i, j] != 0.0]
            lines.append("RHS")
            lines += [f"    B  {r}  {float(v)!r}" for r, v in zip(rows, rhs)]
            lines.append("RANGES")
            lines += [f"    RG  {r}  {float(v)!r}" for r, v in zip(rows, ranges) if v != 0.0]
            lines.append("BOUNDS")
            for cname, l, u in zip(names, lo, up):
                if l == -np.inf:
                    lines.append(f" {'FR' if u == np.inf else 'MI'} BND  {cname}")
                elif l != 0.0:
                    lines.append(f" LO BND  {cname}  {float(l)!r}")
                if np.isfinite(u):
                    lines.append(f" UP BND  {cname}  {float(u)!r}")
            lines.append("ENDATA")
            return to_standard_form(parse_mps("\n".join(lines) + "\n"))

        for trial in range(100):
            m, n = int(rng.integers(1, 5)), int(rng.integers(2, 7))
            types = rng.choice(["E", "L", "G"], size=m)
            dense = np.round(rng.standard_normal((m, n)) * 2, 3)
            obj = [round(float(rng.standard_normal()), 4) for _ in range(n)]
            kind = rng.choice(bound_kinds, size=n)
            lo = np.select([np.isin(kind, ["LO", "LOUP"]), np.isin(kind, ["MI", "MIUP", "FR"])],
                           [-rng.integers(1, 4, n).astype(float), -np.inf], 0.0)
            up = np.select([np.isin(kind, ["UP", "LOUP"]), kind == "MIUP"],
                           [rng.integers(2, 6, n).astype(float),
                            rng.integers(-2, 4, n).astype(float)], np.inf)
            x0 = np.array([rng.uniform(l, u) if np.isfinite(l) and np.isfinite(u)
                           else rng.uniform(l, l + 3) if np.isfinite(l)
                           else rng.uniform(u - 3, u) if np.isfinite(u)
                           else rng.uniform(-3, 3) for l, u in zip(lo, up)])
            # every row interval is [q - below, q + above]
            q = dense @ x0
            below, above = rng.uniform(0.1, 1.0, m), rng.uniform(0.1, 1.0, m)
            ranged = rng.random(m) < 0.5
            sign = rng.choice([-1.0, 1.0], size=m)
            ranges = np.where(ranged, sign * (below + above), 0.0)
            # the rhs sits at the top for L rows and for E rows with R < 0
            # ([rhs + R, rhs]), at the bottom for G rows and E rows with R > 0
            at_top = (types == "L") | ((types == "E") & (sign < 0))
            rhs = np.where(at_top, q + above, q - below)
            rhs = np.where((types == "E") & ~ranged, q, rhs)

            lp, fmap = convert(types, rhs, ranges, lo, up, obj, dense)
            x_std = highs_standard_point(lp, fmap, x0)
            assert x_std is not None, trial
            assert np.all(x_std >= 0.0)
            assert np.linalg.norm(lp.A.matvec(x_std) - lp.b) <= 1e-12 * (
                1 + np.linalg.norm(lp.b)
            )
            assert np.linalg.norm(fmap.to_original(x_std) - x0) <= 1e-12 * (
                1 + np.linalg.norm(x0)
            )

            # break one inequality, range or bound by 0.5
            has_top = (types == "L") | ranged
            has_bottom = (types == "G") | ranged
            candidates = [("top", i) for i in np.flatnonzero(has_top)]
            candidates += [("bottom", i) for i in np.flatnonzero(has_bottom)]
            candidates += [("lo", j) for j in np.flatnonzero(np.isfinite(lo))]
            candidates += [("up", j) for j in np.flatnonzero(np.isfinite(up))]
            if not candidates:
                continue
            side, k = candidates[rng.integers(len(candidates))]
            x1, rhs1 = x0.copy(), rhs.copy()
            if side == "top":
                rhs1[k] -= above[k] + 0.5
            elif side == "bottom":
                rhs1[k] += below[k] + 0.5
            elif side == "lo":
                x1[k] = lo[k] - 0.5
            else:
                x1[k] = up[k] + 0.5
            lp, fmap = convert(types, rhs1, ranges, lo, up, obj, dense)
            assert highs_standard_point(lp, fmap, x1) is None, (trial, side, k)

class TestAfiroPipeline:
    def test_parse_convert_solve(self, data_dir):
        with open(os.path.join(data_dir, "afiro.mps")) as fh:
            model = parse_mps(fh.read())
        assert len(model.row_types) == 27
        assert len(model.entries) == 32
        lp, fmap = to_standard_form(model)
        val, x_ref = reference_simplex(lp.A.toarray(), lp.b, lp.c)
        res = solve_lp(lp)
        assert res.status == "solved"
        assert res.gap <= 1e-8
        assert abs(res.certificate.lower - val) <= 1e-6 * (1 + abs(val))
        # objective reported in original (minimization) units, against
        # HiGHS on the parsed records rather than the converted problem
        assert fmap.original_objective(res.certificate.x) == pytest.approx(-val, rel=1e-6)
        assert fmap.original_objective(res.certificate.x) == pytest.approx(
            highs_mps_optimum(model), rel=1e-9
        )
