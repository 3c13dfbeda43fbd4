import numpy as np
import pytest

from polyproj.bap import RnnmConfig, solve_rnnm
from polyproj.factory import GenSpec, gen_bap_with_known_vertex, gen_lp
from polyproj.serialize import (
    read_bap_instance,
    read_lp_instance,
    read_solution,
    write_bap_instance,
    write_lp_instance,
    write_manifest,
    write_solution,
)


def assert_same_csc(got, want):
    """Dtype and bytes of the CSC arrays, as the benchmark's fingerprint compares."""
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got.csc, name), getattr(want.csc, name)
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), name


def test_bap_instance_round_trip(tmp_path):
    g = gen_bap_with_known_vertex(GenSpec(m=6, n=25, density=0.3, seed=0))
    base = str(tmp_path / "inst")
    write_bap_instance(g.problem, base)
    back = read_bap_instance(base)
    assert np.array_equal(back.b, g.problem.b)
    assert np.array_equal(back.v, g.problem.v)
    assert_same_csc(back.A, g.problem.A)
    assert np.array_equal(back.free, g.problem.free)


def test_free_flags_round_trip(tmp_path):
    from polyproj.bap import BapProblem
    from polyproj.sparse_linalg import SparseMatrix

    A = SparseMatrix.from_dense(np.array([[1.0, 2.0, 3.0]]))
    prob = BapProblem(A, np.ones(1), np.zeros(3), free=np.array([False, True, False]))
    base = str(tmp_path / "freeinst")
    write_bap_instance(prob, base)
    back = read_bap_instance(base)
    assert list(back.free) == [False, True, False]


def test_lp_instance_round_trip(tmp_path):
    gl = gen_lp(GenSpec(m=4, n=14, density=0.4, seed=3))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    back = read_lp_instance(base)
    assert np.array_equal(back.b, gl.problem.b)
    assert np.array_equal(back.c, gl.problem.c)
    assert_same_csc(back.A, gl.problem.A)


def test_lp_sidecar_dimensions_must_match_matrix(tmp_path):
    gl = gen_lp(GenSpec(m=4, n=14, density=0.4, seed=3))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    text = open(base + ".lp").read()
    with open(base + ".lp", "w") as fh:
        fh.write(text.replace("\nm 4\n", "\nm 5\n"))
    with pytest.raises(ValueError, match="disagree"):
        read_lp_instance(base)


def test_sidecar_missing_field_is_named(tmp_path):
    gl = gen_lp(GenSpec(m=4, n=14, density=0.4, seed=3))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    lines = open(base + ".lp").read().splitlines()
    with open(base + ".lp", "w") as fh:
        fh.write("\n".join(ln for ln in lines if not ln.startswith("c ")) + "\n")
    with pytest.raises(ValueError, match="missing field 'c'"):
        read_lp_instance(base)


def test_sidecar_repeated_field_is_named(tmp_path):
    gl = gen_lp(GenSpec(m=3, n=14, density=0.4, seed=3))
    base = str(tmp_path / "lpinst")
    write_lp_instance(gl.problem, base)
    with open(base + ".lp", "a") as fh:
        fh.write("b 9 9 9\n")
    with pytest.raises(ValueError, match="lpinst.lp: repeated field 'b'"):
        read_lp_instance(base)


def test_solution_round_trip(tmp_path):
    g = gen_bap_with_known_vertex(GenSpec(m=5, n=20, density=0.3, seed=1))
    sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-13))
    path = str(tmp_path / "out.sol")
    write_solution(g.problem, sol, path)
    back = read_solution(path)
    assert back["status"] == sol.status
    assert back["iterations"] == sol.iterations
    assert np.array_equal(back["x"], sol.x)
    assert np.array_equal(back["y"], sol.y)
    assert back["primal_feas"] <= 1e-12
    assert back["dual_feas"] == 0.0


def written_solution(tmp_path):
    g = gen_bap_with_known_vertex(GenSpec(4, 12, 0.5, seed=1))
    path = str(tmp_path / "sol.sol")
    write_solution(g.problem, solve_rnnm(g.problem), path)
    with open(path) as fh:
        return path, fh.read().splitlines()


def test_solution_repeated_key_rejected(tmp_path):
    path, lines = written_solution(tmp_path)
    with open(path, "a") as fh:
        fh.write("status max_iter\nx 9 9\n")
    with pytest.raises(ValueError, match="sol.sol: repeated field 'status'"):
        read_solution(path)


def test_solution_missing_key_rejected(tmp_path):
    path, lines = written_solution(tmp_path)
    with open(path, "w") as fh:
        fh.write("\n".join(ln for ln in lines if not ln.startswith("z ")) + "\n")
    with pytest.raises(ValueError, match="sol.sol: missing field 'z'"):
        read_solution(path)


def test_solution_vector_lengths_must_agree(tmp_path):
    path, lines = written_solution(tmp_path)
    with open(path, "w") as fh:
        fh.write("\n".join(ln + " 0.5" if ln.startswith("x ") else ln for ln in lines) + "\n")
    with pytest.raises(ValueError, match="sol.sol: z has 12 values, expected 13"):
        read_solution(path)


def test_solution_summary_formatting(tmp_path):
    g = gen_bap_with_known_vertex(GenSpec(m=5, n=20, density=0.3, seed=2))
    sol = solve_rnnm(g.problem)
    path = str(tmp_path / "fmt.sol")
    write_solution(g.problem, sol, path)
    with open(path) as fh:
        text = fh.read()
    for key in ("primal_feas", "dual_feas", "comp_slack"):
        line = [ln for ln in text.splitlines() if ln.startswith(key)][0]
        mantissa = line.split()[1]
        assert "e" in mantissa  # scientific notation, 6 significant digits
        assert len(mantissa.split("e")[0].replace("-", "").replace(".", "")) == 6


def test_manifest(tmp_path):
    path = str(tmp_path / "manifest.txt")
    write_manifest(
        [{"seed": 1, "kind": "bap", "base": "a"}, {"seed": 2, "kind": "lp", "base": "b"}],
        path,
    )
    with open(path) as fh:
        lines = fh.read().splitlines()
    assert lines[1] == "seed 1 kind bap base a"
    assert lines[2] == "seed 2 kind lp base b"


def test_instance_files_byte_identical_across_runs(tmp_path):
    spec = GenSpec(m=6, n=25, density=0.3, seed=11)
    base1, base2 = str(tmp_path / "one"), str(tmp_path / "two")
    write_bap_instance(gen_bap_with_known_vertex(spec).problem, base1)
    write_bap_instance(gen_bap_with_known_vertex(spec).problem, base2)
    for ext in (".mtx", ".bap"):
        with open(base1 + ext, "rb") as f1, open(base2 + ext, "rb") as f2:
            assert f1.read() == f2.read()
