"""Command-line interface.

Subcommands: ``gen`` (emit instances), ``bap solve`` (projection solves
with a choice of method), ``lp solve`` (path-following LP solve on an
instance pair or MPS file), ``bench`` (run a suite config), ``profile``
(recompute a performance profile from a records CSV).  Instance and MPS
files are read through :mod:`polyproj.serialize` and ``gen --kind bap|lp``
and ``bap solve`` build and solve through :mod:`polyproj.bench`, as a
suite row does, so a command and the matching row give the same problem
and the same solve.  Instance paths are a base or its ``.mtx`` file.

Exit codes: 0 converged/ok, 2 solver stopped at an iteration or stone
budget, 1 bad input.  Numeric output uses scientific notation with six
significant digits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, factory, serialize
from .bap import CONVERGED
from .lp import LpConfig, solve_lp

__all__ = ["main", "entry"]


def _fmt(x: float) -> str:
    return f"{x:.5e}"


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="polyproj")
    sub = p.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate seeded instances with known optima")
    gen.add_argument("--kind", choices=["bap", "lp", "triangle"], default="bap")
    gen.add_argument("--m", type=int, default=50)
    gen.add_argument("--n", type=int, default=500)
    gen.add_argument("--density", type=float, default=0.05)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--anchor-norm", type=float, default=0.1)
    gen.add_argument(
        "--degeneracy",
        choices=["nondegenerate", "degenerate", "non_vertex"],
        default="nondegenerate",
    )
    gen.add_argument("--vertices", type=int, default=5, help="triangle: complete graph size")
    gen.add_argument("--edges", help="triangle: edge-list text file instead of a complete graph")
    gen.add_argument("--out", required=True, help="output directory")

    bap = sub.add_parser("bap", help="projection solves")
    bap_sub = bap.add_subparsers(dest="bap_command", required=True)
    bs = bap_sub.add_parser("solve", help="solve instance files")
    bs.add_argument("files", nargs="+", help="instance base paths (or .mtx paths)")
    bs.add_argument("--method", choices=bench.BAP_SOLVERS, default="rnnm-exact")
    bs.add_argument("--tol", type=float, default=1e-14)
    bs.add_argument("--max-iter", type=int, default=2000)
    bs.add_argument(
        "--trace",
        help="write the convergence trace CSV of a single instance: per sweep for hlwb, "
        "per Newton iteration otherwise",
    )
    bs.add_argument("--out", help="directory for solution files (default: beside input)")

    lp = sub.add_parser("lp", help="LP solves")
    lp_sub = lp.add_subparsers(dest="lp_command", required=True)
    ls = lp_sub.add_parser("solve", help="solve an LP from .mps or instance base")
    ls.add_argument("path")
    ls.add_argument("--tol-gap", type=float, default=1e-8)
    ls.add_argument("--max-stones", type=int, default=100)
    ls.add_argument("--report", help="write the JSON report here")

    be = sub.add_parser("bench", help="run a benchmark suite config")
    be.add_argument("suite", help="suite config (JSON)")
    be.add_argument("--out", required=True, help="output directory")

    pr = sub.add_parser("profile", help="performance profile from records.csv")
    pr.add_argument("records")
    pr.add_argument("--out", required=True, help="profile CSV path")
    return p


def _triangle_graph(args) -> factory.TriangleSpec:
    """The graph of ``gen --kind triangle``: the ``--edges`` file or a complete graph."""
    if not args.edges:
        return factory.TriangleSpec.complete(args.vertices)
    try:
        with open(args.edges, "r", encoding="ascii") as fh:
            return factory.TriangleSpec.from_edge_list_text(fh.read())
    except (UnicodeDecodeError, factory.TriangleSpecError) as exc:
        raise factory.TriangleSpecError(f"{args.edges}: {exc}") from None


def _cmd_gen(args) -> int:
    # the count, the graph (parsed once) and the generator spec are checked
    # before the output directory is made, so bad input leaves nothing behind
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    tri = None
    if args.kind == "triangle":
        # the generator spec checks the seed of the other kinds
        if args.seed < 0:
            raise ValueError(f"--seed must be nonnegative, got {args.seed}")
        tri = _triangle_graph(args)
    else:
        bench._gen_spec(vars(args), args.seed)
    os.makedirs(args.out, exist_ok=True)
    entries = []
    for k in range(args.count):
        seed = args.seed + k
        base = os.path.join(args.out, f"{args.kind}_{seed:06d}")
        if tri is not None:
            rng = np.random.default_rng(seed)
            xbar = rng.uniform(0.0, 1.5, size=len(tri.edges))
            problem = factory.build_triangle_bap(tri, xbar)
        else:
            problem = bench.build_problem(vars(args), seed)
        if args.kind == "lp":
            serialize.write_lp_instance(problem, base)
        else:
            serialize.write_bap_instance(problem, base)
        entries.append({"seed": seed, "kind": args.kind, "base": base})
        print(f"wrote {base}")
    serialize.write_manifest(entries, os.path.join(args.out, "manifest.txt"))
    return 0


def _solve_one_bap(base: str, args) -> int:
    problem = serialize.read_bap_instance(base)
    res = bench.solve_bap(problem, args.method, args.tol, args.max_iter, bool(args.trace))
    if args.trace:
        serialize.write_trace_csv(res, args.trace)
    if args.method == "hlwb":
        print(
            f"{base}: method=hlwb status={res.status} sweeps={res.sweeps} "
            f"rel_residual={_fmt(res.rel_residual)}"
        )
    else:
        out_dir = args.out if args.out else os.path.dirname(base) or "."
        sol_path = os.path.join(out_dir, os.path.basename(base) + ".sol")
        serialize.write_solution(problem, res, sol_path)
        print(
            f"{base}: method={args.method} status={res.status} iterations={res.iterations} "
            f"rel_residual={_fmt(res.rel_residual)} -> {sol_path}"
        )
    return 0 if res.status == CONVERGED else 2


def _cmd_bap_solve(args) -> int:
    if args.trace and len(args.files) > 1:
        raise ValueError("--trace takes a single instance file")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
    return max(_solve_one_bap(serialize.instance_base(f), args) for f in args.files)


def _cmd_lp_solve(args) -> int:
    fmap = None
    if args.path.endswith(".mps"):
        problem, fmap = serialize.read_mps(args.path)
    else:
        problem = serialize.read_lp_instance(args.path)
    config = LpConfig(tol_gap=args.tol_gap, max_stones=args.max_stones)
    if args.report:
        # create the report file before the solve, so a path that cannot
        # be written fails at once instead of after every stone
        open(args.report, "w", encoding="ascii").close()
    res = solve_lp(problem, config)
    report = res.report()
    if fmap is not None:
        report["objective_original"] = float(
            f"{fmap.original_objective(res.certificate.x):.5e}"
        )
        report["objective_sense"] = "min" if fmap.minimize else "max"
    text = json.dumps(report, indent=2)
    print(text)
    if args.report:
        serialize.write_lines(args.report, [text])
    return 0 if res.status == "solved" else 2


def _cmd_bench(args) -> int:
    bench.run_benchmark(args.suite, args.out)
    print(f"suite complete; outputs in {args.out}")
    return 0


def _cmd_profile(args) -> int:
    records = bench._read_records_csv(args.records)
    by_tol: dict[float, list[bench.BenchRecord]] = {}
    for r in records:
        by_tol.setdefault(r.tol, []).append(r)
    wrote = 0
    for tol, rs in sorted(by_tol.items()):
        prof = bench.profile_from_records(rs)
        if prof is None:
            continue
        out = args.out if len(by_tol) == 1 else f"{args.out}.tol{tol:.0e}.csv"
        prof.to_csv(out)
        print(f"wrote {out}")
        wrote += 1
    if wrote == 0:
        print("no convergent records; nothing to profile", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            return _cmd_gen(args)
        if args.command == "bap":
            return _cmd_bap_solve(args)
        if args.command == "lp":
            return _cmd_lp_solve(args)
        if args.command == "bench":
            return _cmd_bench(args)
        if args.command == "profile":
            return _cmd_profile(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1  # pragma: no cover - unreachable


def entry() -> None:  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
