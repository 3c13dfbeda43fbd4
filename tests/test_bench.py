import math
import os

import numpy as np
import pytest

from polyproj.bench import (
    BenchRecord,
    _read_records_csv,
    _write_records_csv,
    performance_profile,
    performance_ratio,
    profile_from_records,
    run_benchmark,
)
from polyproj.factory import GenSpec, gen_bap_with_known_vertex, gen_lp
from polyproj.serialize import write_bap_instance, write_lp_instance


class TestPerformanceRatio:
    def test_identity_table(self):
        r, kept = performance_ratio(np.array([[1.0, 2.0], [3.0, 1.0]]))
        assert np.array_equal(r, [[1.0, 2.0], [3.0, 1.0]])
        assert np.array_equal(kept, [0, 1])

    def test_failure_maps_to_infinity(self):
        r, _ = performance_ratio(np.array([[1.0, np.nan]]))
        assert r[0, 0] == 1.0
        assert math.isinf(r[0, 1])

    def test_single_solver_all_ones(self):
        r, _ = performance_ratio(np.array([[0.5], [7.0]]))
        assert np.array_equal(r, [[1.0], [1.0]])

    def test_all_failed_row_dropped_with_warning(self):
        with pytest.warns(RuntimeWarning):
            r, kept = performance_ratio(np.array([[np.nan, np.nan], [1.0, 2.0]]))
        assert np.array_equal(kept, [1])
        assert r.shape == (1, 2)


class TestPerformanceProfile:
    def test_two_problem_example(self):
        prof = performance_profile(np.array([[1.0], [3.0]]), ["s"])
        assert prof.value("s", 1.0) == pytest.approx(0.5)
        assert prof.value("s", 2.9) == pytest.approx(0.5)
        assert prof.value("s", 3.0) == pytest.approx(1.0)

    def test_all_failures_flat_zero(self):
        prof = performance_profile(np.array([[1.0, np.inf], [1.0, np.inf]]), ["a", "b"])
        assert prof.value("b", 1e9) == 0.0
        assert prof.value("a", 1.0) == 1.0

    def test_monotone_bounded(self):
        rng = np.random.default_rng(0)
        ratios = 1.0 + np.abs(rng.standard_normal((30, 3)))
        ratios[rng.random((30, 3)) < 0.2] = np.inf
        ratios[np.arange(30), np.argmin(np.where(np.isfinite(ratios), ratios, np.inf), axis=1)] = 1.0
        prof = performance_profile(ratios, ["a", "b", "c"])
        assert np.all(np.diff(prof.rho, axis=0) >= -1e-15)
        assert np.all(prof.rho >= 0.0) and np.all(prof.rho <= 1.0)

    def test_matches_recount_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p, s = int(rng.integers(1, 12)), int(rng.integers(1, 5))
            times = rng.uniform(0.1, 10.0, (p, s))
            times[rng.random((p, s)) < 0.25] = np.nan
            times[:, 0] = rng.uniform(0.1, 10.0, p)  # one solver always succeeds
            ratios, kept = performance_ratio(times)
            prof = performance_profile(ratios, [f"s{j}" for j in range(s)])
            for tau in [1.0, 1.5, 2.0, 5.0, 100.0]:
                for j in range(s):
                    expected = np.count_nonzero(ratios[:, j] <= tau) / ratios.shape[0]
                    assert prof.value(f"s{j}", tau) == pytest.approx(expected)


def smoke_config(tmp_path, tols=(1e-10,)):
    return {
        "name": "smoke",
        "repetitions": 2,
        "tols": list(tols),
        "solvers": ["rnnm-exact", "rnnm-inexact"],
        "rows": [
            {"kind": "bap", "m": 6, "n": 30, "density": 0.3, "seed": 1},
        ],
    }


class TestRunBenchmark:
    def test_smoke_counts(self, tmp_path):
        out = str(tmp_path / "out")
        records = run_benchmark(smoke_config(tmp_path), out)
        # 1 row x 2 reps x 1 tol x 2 solvers
        assert len(records) == 4
        assert os.path.exists(os.path.join(out, "records.csv"))
        assert os.path.exists(os.path.join(out, "results.csv"))
        assert os.path.exists(os.path.join(out, "profile_tol1e-10.csv"))

    def test_tol_sweep_emits_profile_per_tol(self, tmp_path):
        cfg = smoke_config(tmp_path, tols=(1e-2, 1e-4, 1e-10))
        out = str(tmp_path / "sweep")
        run_benchmark(cfg, out)
        for tol in ("1e-02", "1e-04", "1e-10"):
            assert os.path.exists(os.path.join(out, f"profile_tol{tol}.csv"))

    def test_failure_recorded_not_raised(self, tmp_path):
        cfg = {
            "repetitions": 1,
            "tols": [1e-14],
            "solvers": ["hlwb", "rnnm-exact"],
            "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3, "seed": 2}],
        }
        out = str(tmp_path / "fail")
        records = run_benchmark(cfg, out)
        hlwb = [r for r in records if r.solver == "hlwb"]
        assert hlwb and all(r.status != "converged" for r in hlwb)  # plateau, no 1e-14
        exact = [r for r in records if r.solver == "rnnm-exact"]
        assert exact and all(r.status == "converged" for r in exact)

    def test_lp_row_runs_ssepf(self, tmp_path):
        cfg = {
            "repetitions": 1,
            "tols": [1e-14],
            "solvers": ["ssepf", "rnnm-exact"],
            "rows": [{"kind": "lp", "m": 4, "n": 12, "density": 0.5, "seed": 3}],
        }
        out = str(tmp_path / "lp")
        records = run_benchmark(cfg, out)
        assert {r.solver for r in records} == {"ssepf"}
        assert all(r.status == "converged" for r in records)

    def test_file_and_mps_rows(self, tmp_path):
        bap_base, lp_base = str(tmp_path / "bap"), str(tmp_path / "lp")
        write_bap_instance(gen_bap_with_known_vertex(GenSpec(5, 20, 0.3, seed=4)).problem, bap_base)
        write_lp_instance(gen_lp(GenSpec(4, 12, 0.5, seed=3)).problem, lp_base)
        afiro = os.path.join(os.path.dirname(__file__), "data", "afiro.mps")
        cfg = {
            "tols": [1e-10],
            "solvers": ["rnnm-exact", "ssepf"],
            "rows": [
                {"kind": "bap_file", "path": bap_base},
                {"kind": "lp_file", "path": lp_base},
                {"kind": "mps", "path": afiro},
            ],
        }
        records = run_benchmark(cfg, str(tmp_path / "files"))
        got = [(r.problem, r.solver, r.m, r.n, r.seed, r.status) for r in records]
        assert got == [
            ("row0/bap_file", "rnnm-exact", 5, 20, -1, "converged"),
            ("row1/lp_file", "ssepf", 4, 12, -1, "converged"),
            ("row2/mps", "ssepf", 27, 51, -1, "converged"),
        ]
        assert all(math.isnan(r.density) for r in records)

    def test_float_columns_keep_their_format_for_integer_input(self, tmp_path):
        cfg = {
            "tols": [1e-10],
            "solvers": ["rnnm-exact"],
            "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 1, "seed": 3}],
        }
        out = str(tmp_path / "int")
        run_benchmark(cfg, out)
        for name, column in (("records.csv", 5), ("results.csv", 3)):
            lines = open(os.path.join(out, name)).read().splitlines()
            assert lines[0].split(",")[column] == "density"
            assert lines[1].split(",")[column] == "1.00000e+00"

    def test_deterministic_non_timing_columns(self, tmp_path):
        cfg = smoke_config(tmp_path)
        out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
        run_benchmark(cfg, out1)
        run_benchmark(cfg, out2)
        strip = lambda path: [
            ",".join(c for i, c in enumerate(ln.split(",")) if i != 7)
            for ln in open(path).read().splitlines()
        ]
        assert strip(os.path.join(out1, "records.csv")) == strip(
            os.path.join(out2, "records.csv")
        )

    def test_profile_from_records_roundtrip(self, tmp_path):
        records = [
            BenchRecord("p1", "a", 1e-10, 1, 1, 0.1, 0, 1.0, 1e-12, "converged"),
            BenchRecord("p1", "b", 1e-10, 1, 1, 0.1, 0, 2.0, 1e-12, "converged"),
            BenchRecord("p2", "a", 1e-10, 1, 1, 0.1, 0, 4.0, 1e-12, "converged"),
            BenchRecord("p2", "b", 1e-10, 1, 1, 0.1, 0, 1.0, np.nan, "failed"),
        ]
        path = str(tmp_path / "records.csv")
        _write_records_csv(records, path)
        back = _read_records_csv(path)
        key = lambda r: (r.problem, r.solver, r.tol, r.m, r.n, r.seed, r.status)
        assert [key(r) for r in back] == [key(r) for r in records]
        prof = profile_from_records(back)
        assert prof.value("a", 1.0) == 1.0
        assert prof.value("b", 2.0) == pytest.approx(0.5)
        assert prof.value("b", 1e6) == pytest.approx(0.5)

    def test_read_records_skips_blank_lines_only(self, tmp_path):
        records = [
            BenchRecord("p1", "a", 1e-10, 1, 1, 0.1, 0, 1.0, 1e-12, "converged"),
            BenchRecord("p2", "a", 1e-10, 1, 1, 0.1, 0, 4.0, 1e-12, "converged"),
        ]
        path = str(tmp_path / "records.csv")
        _write_records_csv(records, path)
        lines = open(path).read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join([lines[0], lines[1], "", lines[2]]) + "\n\n")
        assert [r.problem for r in _read_records_csv(path)] == ["p1", "p2"]
        with open(path, "w") as fh:
            fh.write("\n".join([lines[0], lines[1], lines[2].rsplit(",", 3)[0]]) + "\n")
        with pytest.raises(ValueError, match="line 3: 7 fields, expected 10"):
            _read_records_csv(path)


class TestLpResidualColumn:
    def test_triplet_column_selectable(self, tmp_path):
        base = {
            "repetitions": 1,
            "tols": [1e-14],
            "solvers": ["ssepf"],
            "rows": [{"kind": "lp", "m": 4, "n": 12, "density": 0.5, "seed": 6}],
        }
        r_gap = run_benchmark(dict(base), str(tmp_path / "gap"))
        r_tri = run_benchmark(dict(base, lp_residual="triplet"), str(tmp_path / "tri"))
        assert r_gap[0].status == "converged" and r_tri[0].status == "converged"
        # both tiny, but computed from different definitions
        assert r_gap[0].rel_residual <= 1e-8
        assert r_tri[0].rel_residual <= 1e-6


class TestSuiteValidation:
    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"solvers": ["rnnm-exat"]}, "unknown solver 'rnnm-exat'"),
            (
                {"rows": [{"kind": "bapp", "m": 5, "n": 20, "density": 0.3}]},
                "row 0: unknown problem kind 'bapp'",
            ),
            ({"lp_residual": "triplets"}, "unknown lp_residual 'triplets'"),
        ],
        ids=["solver", "kind", "lp_residual"],
    )
    def test_typo_rejected_before_running(self, tmp_path, changes, message):
        suite = {
            "tols": [1e-10],
            "solvers": ["rnnm-exact"],
            "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3, "seed": 4}],
        }
        suite.update(changes)
        out = tmp_path / "out"
        with pytest.raises(ValueError, match=message):
            run_benchmark(suite, str(out))
        assert not out.exists()
