import json
import os
import subprocess
import sys

import numpy as np
import pytest

from polyproj import cli
from polyproj.cli import main
from polyproj.factory import GenSpec, TriangleSpec, build_triangle_bap, gen_lp
from polyproj.serialize import (
    read_bap_instance,
    read_lp_instance,
    write_bap_instance,
    write_lp_instance,
)


def test_gen_bap_writes_instances_and_manifest(tmp_path, capsys):
    out = str(tmp_path / "gen")
    code = main([
        "gen", "--kind", "bap", "--m", "5", "--n", "20", "--density", "0.3",
        "--seed", "7", "--count", "2", "--out", out,
    ])
    assert code == 0
    assert os.path.exists(os.path.join(out, "bap_000007.mtx"))
    assert os.path.exists(os.path.join(out, "bap_000008.bap"))
    manifest = open(os.path.join(out, "manifest.txt")).read()
    assert "seed 7" in manifest and "seed 8" in manifest
    prob = read_bap_instance(os.path.join(out, "bap_000007"))
    assert prob.m == 5 and prob.n == 20


def test_gen_lp_writes_lp_sidecars(tmp_path, capsys):
    out = str(tmp_path / "gen")
    assert main(["gen", "--kind", "lp", "--m", "4", "--n", "12", "--density", "0.5",
                 "--seed", "3", "--count", "2", "--out", out]) == 0
    assert sorted(os.listdir(out)) == [
        "lp_000003.lp", "lp_000003.mtx", "lp_000004.lp", "lp_000004.mtx", "manifest.txt"
    ]
    want = gen_lp(GenSpec(4, 12, 0.5, seed=4)).problem
    got = read_lp_instance(os.path.join(out, "lp_000004"))
    assert np.array_equal(got.A.toarray(), want.A.toarray())
    assert np.array_equal(got.b, want.b) and np.array_equal(got.c, want.c)


def test_gen_triangle_on_a_complete_graph(tmp_path, capsys):
    out = str(tmp_path / "tri")
    assert main(["gen", "--kind", "triangle", "--vertices", "5", "--seed", "0",
                 "--out", out]) == 0
    prob = read_bap_instance(os.path.join(out, "triangle_000000"))
    # K5: 10 edges, 10 triples: rows 3*10 + 10, cols 10 + 3*10 + 10
    assert prob.A.shape == (40, 50)
    capsys.readouterr()
    assert main(["bap", "solve", os.path.join(out, "triangle_000000")]) == 0
    assert "status=converged" in capsys.readouterr().out


def test_bap_solve_out_directory(tmp_path, capsys):
    out = str(tmp_path / "inst")
    main(["gen", "--kind", "bap", "--m", "5", "--n", "20", "--density", "0.3",
          "--seed", "1", "--count", "2", "--out", out])
    sols = str(tmp_path / "sols")
    bases = [os.path.join(out, f"bap_{seed:06d}") for seed in (1, 2)]
    assert main(["bap", "solve", *bases, "--out", sols]) == 0
    assert sorted(os.listdir(sols)) == ["bap_000001.sol", "bap_000002.sol"]
    assert not any(name.endswith(".sol") for name in os.listdir(out))


def test_bap_solve_exit_codes_and_solution(tmp_path, capsys):
    out = str(tmp_path / "inst")
    main(["gen", "--kind", "bap", "--m", "5", "--n", "20", "--density", "0.3",
          "--seed", "1", "--out", out])
    base = os.path.join(out, "bap_000001")
    code = main(["bap", "solve", base, "--tol", "1e-12"])
    assert code == 0
    assert os.path.exists(base + ".sol")
    text = capsys.readouterr().out
    assert "status=converged" in text
    assert "rel_residual=" in text

    # hlwb cannot reach 1e-14: exit code 2
    code = main(["bap", "solve", base, "--method", "hlwb", "--tol", "1e-14",
                 "--max-iter", "50"])
    assert code == 2


def test_bap_solve_rejects_nonpositive_tol(tmp_path, capsys):
    out = str(tmp_path / "tol")
    main(["gen", "--kind", "bap", "--m", "4", "--n", "16", "--density", "0.3",
          "--seed", "2", "--out", out])
    base = os.path.join(out, "bap_000002")
    for method in ("rnnm-exact", "hlwb"):
        capsys.readouterr()
        assert main(["bap", "solve", base, "--method", method, "--tol", "-1"]) == 1
        assert "error: tol must be positive" in capsys.readouterr().err


def test_bap_solve_rejects_zero_iteration_budget(tmp_path, capsys):
    out = str(tmp_path / "budget")
    main(["gen", "--kind", "bap", "--m", "4", "--n", "16", "--density", "0.3",
          "--seed", "2", "--out", out])
    base = os.path.join(out, "bap_000002")
    for method in ("rnnm-exact", "rnnm-inexact", "hlwb"):
        capsys.readouterr()
        assert main(["bap", "solve", base, "--method", method, "--max-iter", "0"]) == 1
        assert capsys.readouterr().err.startswith("error: max_")


def test_bap_solve_newton_trace(tmp_path, capsys):
    out = str(tmp_path / "nt")
    main(["gen", "--kind", "bap", "--m", "5", "--n", "20", "--density", "0.3",
          "--seed", "1", "--out", out])
    base = os.path.join(out, "bap_000001")
    for method in ("rnnm-exact", "rnnm-inexact"):
        trace = str(tmp_path / f"{method}.csv")
        assert main(["bap", "solve", base, "--method", method, "--trace", trace]) == 0
        lines = open(trace).read().splitlines()
        assert lines[0] == "iteration,rel_residual,lambda,step"
        iterations = int(capsys.readouterr().out.split("iterations=")[1].split()[0])
        rows = [ln.split(",") for ln in lines[1:]]
        assert [int(row[0]) for row in rows] == list(range(1, iterations + 1))
        assert all(len(row) == 4 and 0.0 < float(row[3]) <= 1.0 for row in rows)


def test_bap_solve_hlwb_trace(tmp_path, capsys):
    out = str(tmp_path / "ht")
    main(["gen", "--kind", "bap", "--m", "5", "--n", "20", "--density", "0.3",
          "--seed", "1", "--out", out])
    trace = str(tmp_path / "hlwb.csv")
    capsys.readouterr()
    assert main(["bap", "solve", os.path.join(out, "bap_000001"), "--method", "hlwb",
                 "--tol", "1e-3", "--trace", trace]) == 0
    sweeps = int(capsys.readouterr().out.split("sweeps=")[1].split()[0])
    lines = open(trace).read().splitlines()
    assert lines[0] == "sweep,rel_residual,sigma"
    rows = [ln.split(",") for ln in lines[1:]]
    assert [int(row[0]) for row in rows] == list(range(1, sweeps + 1))
    assert all(len(row) == 3 for row in rows)
    assert float(rows[-1][1]) <= 1e-3


def test_bap_solve_trace_rejects_several_files(tmp_path, capsys):
    out = str(tmp_path / "tm")
    main(["gen", "--kind", "bap", "--m", "4", "--n", "16", "--density", "0.3",
          "--seed", "2", "--count", "2", "--out", out])
    bases = [os.path.join(out, f"bap_{seed:06d}") for seed in (2, 3)]
    trace = str(tmp_path / "t.csv")
    capsys.readouterr()
    assert main(["bap", "solve", *bases, "--trace", trace]) == 1
    assert capsys.readouterr().err.startswith("error: --trace")
    assert not os.path.exists(trace)


def test_bap_solve_accepts_mtx_path(tmp_path, capsys):
    out = str(tmp_path / "ii")
    main(["gen", "--kind", "bap", "--m", "4", "--n", "16", "--density", "0.3",
          "--seed", "2", "--out", out])
    base = os.path.join(out, "bap_000002")
    assert main(["bap", "solve", base + ".mtx"]) == 0


def test_bap_solve_missing_file_is_input_error(tmp_path, capsys):
    assert main(["bap", "solve", str(tmp_path / "nope")]) == 1
    assert "error:" in capsys.readouterr().err


def test_bap_solve_truncated_mtx_is_input_error(tmp_path, capsys):
    out = str(tmp_path / "tr")
    main(["gen", "--kind", "bap", "--m", "4", "--n", "16", "--density", "0.3",
          "--seed", "2", "--out", out])
    mtx = os.path.join(out, "bap_000002.mtx")
    header = open(mtx).readline()
    # no size line, a short size line, a short entry line
    for body in ("", "4 16\n", "4 16 2\n1 1 0.5\n1 2\n"):
        with open(mtx, "w") as fh:
            fh.write(header + body)
        capsys.readouterr()
        assert main(["bap", "solve", mtx]) == 1
        assert "error: " in capsys.readouterr().err


def test_lp_solve_instance_and_report(tmp_path, capsys):
    gl = gen_lp(GenSpec(m=4, n=12, density=0.5, seed=9))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    report_path = str(tmp_path / "report.json")
    code = main(["lp", "solve", base, "--report", report_path])
    assert code == 0
    rep = json.loads(open(report_path).read())
    assert rep["status"] == "solved"
    assert rep["gap"] <= 1e-8
    assert len(rep["R_sequence"]) == rep["stones"]


def test_lp_solve_unwritable_report_fails_before_the_solve(tmp_path, capsys, monkeypatch):
    gl = gen_lp(GenSpec(m=4, n=12, density=0.5, seed=9))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    solves = []
    monkeypatch.setattr(cli, "solve_lp", lambda *args: solves.append(args))
    report_path = str(tmp_path / "missing" / "report.json")
    assert main(["lp", "solve", base, "--report", report_path]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "report.json" in captured.err
    assert captured.out == ""
    assert solves == []
    assert not (tmp_path / "missing").exists()


def test_lp_solve_rejects_zero_stone_budget(tmp_path, capsys):
    gl = gen_lp(GenSpec(m=4, n=12, density=0.5, seed=9))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    assert main(["lp", "solve", base, "--max-stones", "0"]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_lp_solve_rejects_negative_tol_gap(tmp_path, capsys):
    gl = gen_lp(GenSpec(m=4, n=12, density=0.5, seed=9))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    assert main(["lp", "solve", base, "--tol-gap", "-1"]) == 1
    assert capsys.readouterr().err.startswith("error: tol_gap must be nonnegative")


def test_lp_solve_mps(tmp_path, capsys, monkeypatch):
    data = os.path.join(os.path.dirname(__file__), "data", "afiro.mps")
    code = main(["lp", "solve", data])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["objective_sense"] == "min"
    assert rep["gap"] <= 1e-8


def test_bench_and_profile_commands(tmp_path, capsys):
    suite = {
        "repetitions": 1,
        "tols": [1e-10],
        "solvers": ["rnnm-exact", "rnnm-inexact"],
        "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3, "seed": 4}],
    }
    cfg = str(tmp_path / "suite.json")
    with open(cfg, "w") as fh:
        json.dump(suite, fh)
    out = str(tmp_path / "bench")
    assert main(["bench", cfg, "--out", out]) == 0
    records = os.path.join(out, "records.csv")
    prof_out = str(tmp_path / "prof.csv")
    assert main(["profile", records, "--out", prof_out]) == 0
    header = open(prof_out).readline().strip()
    assert header.startswith("tau,rho_")


def test_profile_rejects_truncated_records(tmp_path, capsys):
    records = str(tmp_path / "records.csv")
    with open(records, "w") as fh:
        fh.write("problem,solver,tol,m,n,density,seed,time_s,rel_residual,status\n"
                 "p1,a,1e-10,5,20,0.3,4,1.0,1e-12,converged\n"
                 "p1,b,1e-10,5,20,0.3,4,2.0\n")
    assert main(["profile", records, "--out", str(tmp_path / "prof.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {records}: line 3")
    assert not os.path.exists(tmp_path / "prof.csv")


def test_profile_without_converged_records_fails(tmp_path, capsys):
    records = str(tmp_path / "records.csv")
    with open(records, "w") as fh:
        fh.write("problem,solver,tol,m,n,density,seed,time_s,rel_residual,status\n"
                 "p1,a,1e-10,5,20,0.3,4,1.0,1e-3,failed\n"
                 "p1,b,1e-10,5,20,0.3,4,2.0,nan,error:ValueError\n")
    prof_out = tmp_path / "prof.csv"
    assert main(["profile", records, "--out", str(prof_out)]) == 1
    assert capsys.readouterr().err == "no convergent records; nothing to profile\n"
    assert not prof_out.exists()


def test_bench_rejects_unknown_row_kind(tmp_path, capsys):
    suite = {
        "solvers": ["rnnm-exact"],
        "rows": [{"kind": "bapp", "m": 5, "n": 20, "density": 0.3, "seed": 4}],
    }
    cfg = str(tmp_path / "suite.json")
    with open(cfg, "w") as fh:
        json.dump(suite, fh)
    assert main(["bench", cfg, "--out", str(tmp_path / "bench")]) == 1
    assert "row 0: unknown problem kind 'bapp'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite, message",
    [({"rows": [["bap"]]}, "row 0: must be an object"),
     ({"tols": 1e-4, "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3}]},
      "suite: 'tols' must be a list"),
     ({"rows": [{"kind": "bap", "m": "5", "n": 20, "density": 0.3}]},
      "row 0: 'm' must be an integer"),
     ({"rows": [{"kind": "bap", "m": 5.5, "n": 20, "density": 0.3}]},
      "row 0: 'm' must be an integer"),
     ({"rows": [{"kind": "lp", "m": 5, "n": 20, "density": 0.3},
                {"kind": "bap", "m": True, "n": 20, "density": 0.3}]},
      "row 1: 'm' must be an integer"),
     ({"rows": [{"kind": "bap", "m": 5, "n": 20, "density": "0.3"}]},
      "row 0: 'density' must be a real number"),
     ({"rows": [{"kind": "lp_file", "path": 5}]},
      "row 0: 'path' must be a string"),
     ({"repetitions": 2.7, "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3}]},
      "suite: 'repetitions' must be an integer at least 1"),
     ({"tols": ["a"], "rows": []}, "suite: 'tols' must hold positive real numbers"),
     ({"tols": [-1], "rows": []}, "suite: 'tols' must hold positive real numbers"),
     ({"rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3},
                {"kind": "bap", "m": 5, "n": 20, "density": 2.0}]},
      "row 1: density must lie in (0, 1]"),
     ({"tols": [], "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3}]},
      "suite: 'tols' must not be empty"),
     ({"solvers": [], "rows": [{"kind": "bap", "m": 5, "n": 20, "density": 0.3}]},
      "suite: 'solvers' must not be empty")],
    ids=["list_row", "scalar_tols", "string_m", "float_m", "bool_m", "string_density",
         "int_path", "float_repetitions", "string_tol", "negative_tol", "second_row_density",
         "empty_tols", "empty_solvers"],
)
def test_bench_rejects_wrong_types(tmp_path, capsys, suite, message):
    cfg = str(tmp_path / "suite.json")
    with open(cfg, "w") as fh:
        json.dump(suite, fh)
    assert main(["bench", cfg, "--out", str(tmp_path / "bench")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "bench").exists()


def test_scientific_notation_output(tmp_path, capsys):
    out = str(tmp_path / "sn")
    main(["gen", "--kind", "bap", "--m", "4", "--n", "16", "--density", "0.3",
          "--seed", "3", "--out", out])
    capsys.readouterr()
    main(["bap", "solve", os.path.join(out, "bap_000003")])
    text = capsys.readouterr().out
    token = [t for t in text.split() if t.startswith("rel_residual=")][0]
    value = token.split("=")[1]
    mantissa = value.split("e")[0].replace("-", "").replace(".", "")
    assert len(mantissa) == 6


def test_gen_triangle_from_edge_list(tmp_path, capsys):
    edges = tmp_path / "graph.txt"
    edges.write_text("0 1\n0 2\n1 2\n2 3\n")
    out = str(tmp_path / "tri")
    code = main(["gen", "--kind", "triangle", "--edges", str(edges),
                 "--seed", "5", "--out", out])
    assert code == 0
    prob = read_bap_instance(os.path.join(out, "triangle_000005"))
    # 4 edges, 1 induced triple: rows 3*1 + 4, cols 4 + 3 + 4
    assert prob.A.shape == (7, 11)
    assert main(["bap", "solve", os.path.join(out, "triangle_000005")]) == 0


@pytest.mark.parametrize("text, reason", [
    (b"0 1\nx 2\n", "line 2: non-integer vertex id in edge line 'x 2'"),
    (b"0 1\n\xc3\xa9 2\n", "'ascii' codec can't decode byte 0xc3 in position 4"),
])
def test_gen_triangle_names_the_edge_file_it_rejects(tmp_path, capsys, text, reason):
    edges = tmp_path / "graph.txt"
    edges.write_bytes(text)
    out = tmp_path / "tri"
    assert main(["gen", "--kind", "triangle", "--edges", str(edges), "--count", "2",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {edges}: {reason}")
    # the file is parsed before the output directory is made
    assert not out.exists()


@pytest.mark.parametrize("vertices", ["-1", "0", "1", "2"])
def test_gen_triangle_rejects_a_graph_without_a_triple(tmp_path, capsys, vertices):
    out = tmp_path / "tri"
    assert main(["gen", "--kind", "triangle", "--vertices", vertices,
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: complete graph needs 3 or more vertices, got {vertices}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "-7"])
def test_gen_triangle_rejects_a_negative_seed(tmp_path, capsys, seed):
    out = tmp_path / "tri"
    assert main(["gen", "--kind", "triangle", "--seed", seed, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --seed must be nonnegative, got {seed}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["bap", "triangle"])
@pytest.mark.parametrize("count", ["0", "-2"])
def test_gen_rejects_a_count_below_one(tmp_path, capsys, kind, count):
    out = tmp_path / "gen"
    assert main(["gen", "--kind", kind, "--count", count, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: --count must be at least 1, got {count}\n"
    assert not out.exists()


@pytest.mark.parametrize("kind", ["bap", "lp"])
@pytest.mark.parametrize("flags, message", [
    (["--m", "20", "--n", "12"], "m < n is required"),
    (["--anchor-norm", "-1"], "anchor_norm must be positive and finite"),
    (["--anchor-norm", "nan"], "anchor_norm must be positive and finite"),
    (["--seed", "-1"], "seed must be nonnegative"),
])
def test_gen_checks_the_spec_before_making_the_directory(tmp_path, capsys, kind, flags, message):
    out = tmp_path / "gen"
    assert main(["gen", "--kind", kind, *flags, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gen_triangle_count_writes_the_instances_of_single_parses(tmp_path, capsys):
    text = "0 1\n0 2\n1 2\n2 3\n1 3\n"
    edges = tmp_path / "graph.txt"
    edges.write_text(text)
    out = tmp_path / "tri"
    assert main(["gen", "--kind", "triangle", "--edges", str(edges), "--seed", "4",
                 "--count", "3", "--out", str(out)]) == 0
    for seed in (4, 5, 6):
        # each instance as a fresh parse of the file for its seed writes it
        tri = TriangleSpec.from_edge_list_text(text)
        xbar = np.random.default_rng(seed).uniform(0.0, 1.5, size=len(tri.edges))
        want = tmp_path / f"want_{seed}"
        write_bap_instance(build_triangle_bap(tri, xbar), str(want))
        base = out / f"triangle_{seed:06d}"
        for ext in (".mtx", ".bap"):
            assert (base.parent / (base.name + ext)).read_bytes() == (
                want.parent / (want.name + ext)
            ).read_bytes()


def _python_dash_m_help(module):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, "-m", module, "--help"],
        env=env, capture_output=True, text=True, timeout=60,
    )


def test_python_dash_m_runs_the_cli():
    proc = _python_dash_m_help("polyproj")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: polyproj")


def test_python_dash_m_runs_the_cli_module():
    proc = _python_dash_m_help("polyproj.cli")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: polyproj")
