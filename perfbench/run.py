"""polyproj benchmark: time to tolerance per solver, per seeded workload.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload proj-mid-exact --seed 7 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

One process runs one workload: it builds the instances from the seed
(generation, MPS parse, write and read-back through polyproj.serialize),
then solves them one at a time, a closed loop with one caller, pass
after pass until ``--seconds`` have gone by; the first pass always
completes.  Each solve is checked against its certified optimum outside
the timed region.  An instance's time is its median over the passes.
The report gives, per solver, the median over instances and, with 20 or
more instances, the tail percentile, and over all instances and solvers
the geometric mean, also divided by the median time of a fixed
reference kernel timed between solves.  The set-up time is reported raw
and scaled by the same kernel, timed between set-up steps.  The last
line of standard output is one JSON object.  ``--trace 1`` solves every instance both untraced and
traced, in alternating order, checks that the two outputs are
bit-identical, and reports the per-layer metrics instead of the
end-to-end ones.  ``--workload all`` runs each workload in a process of
its own, one after another.
"""

import os
import sys
import time

# Multithreaded BLAS on small factorizations is erratic (a 200x200
# cho_factor took 0.1-0.3 s against 0.26 ms single-threaded), so BLAS is
# pinned to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import zlib  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")
DEFAULT_SEED = 12345
# The set-up time is the median of IMPORT_STARTS fresh interpreters
# importing what a run imports, plus the median build of the instance set.
# The set is built at least SETUP_ROUNDS times, and again while the builds
# have taken less than SETUP_MIN_S, up to SETUP_MAX_ROUNDS builds, so that
# a cheap build is repeated often enough for a steady median.
IMPORT_STARTS = 5
SETUP_ROUNDS = 3
SETUP_MIN_S = 3.0
SETUP_MAX_ROUNDS = 8
# The reference kernel runs between imports, instance builds and solves,
# for about this share of their time (see bench_workloads.Reference).
REFERENCE_SHARE = 0.1
# setup_s is the set-up time scaled by REFERENCE_NOMINAL_S over the
# kernel's median time during set-up: the set-up time on a machine, or in
# a phase of a shared machine, where the kernel takes REFERENCE_NOMINAL_S
# (about its time on the 2-vCPU machine the benchmark was written on).
REFERENCE_NOMINAL_S = 0.012


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name (see bench_workloads.WORKLOADS), or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _regime(wl, seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name,
        "seed": seed,
        **wl.regime,
        "solvers": [s.name for s in wl.solvers],
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _timed_call(solver, inst):
    start = time.perf_counter()
    try:
        out = solver.call(inst.problem)
    except Exception as exc:  # a failed solve is counted, never fatal
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


def _per_instance(times_per_instance) -> list[float]:
    """Each instance's median time over its passes."""
    from bench_stats import median

    return [median(ts) for ts in times_per_instance if ts]


def _import_s(reference) -> list[float]:
    """Wall time of fresh interpreters that import what a run imports."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import bench_stats, bench_trace, bench_workloads")
    out = []
    for _ in range(IMPORT_STARTS):
        reference.between()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, SRC, HERE], check=True)
        out.append(time.perf_counter() - start)
    return out


def _set_up(wl, seed: int, reference):
    """Build the instance set ``SETUP_ROUNDS`` or more times; keep the first.

    Returns the first build, the duration of every build without the
    reference kernel's time in it, and the setup layer times of every
    build.
    """
    import numpy as np

    from bench_workloads import build_instances

    rng = np.random.default_rng(np.random.SeedSequence([seed, zlib.crc32(wl.name.encode())]))
    specs = wl.specs(rng)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK)
    first, round_s, layer_rounds = None, [], []
    try:
        while len(round_s) < SETUP_ROUNDS or (
            sum(round_s) < SETUP_MIN_S and len(round_s) < SETUP_MAX_ROUNDS
        ):
            start, ref_start = time.perf_counter(), reference.total
            built = build_instances(specs, workdir, reference)
            round_s.append(time.perf_counter() - start - (reference.total - ref_start))
            layer_rounds.append(built.layer_s)
            # keep one instance set, as a run without repeated builds would
            first = first or built
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return first, round_s, layer_rounds


def _measure(wl, instances, seconds: float, tracer, reference):
    """Closed loop over the instances until ``seconds`` have gone by.

    With a tracer, every solve runs untraced and traced, in an order that
    alternates, and the two outputs must be bit-identical.
    ``reference.between()`` runs before every solve.  Returns the times per
    solver and instance (untraced, traced), the failure counts, the number
    of solves attempted and the number of passes begun.
    """
    from bench_workloads import fingerprint

    names = [s.name for s in wl.solvers]
    times = {mode: {n: [[] for _ in instances] for n in names} for mode in (False, True)}
    failures: Counter = Counter()
    attempted = solve_id = passes = 0
    deadline = time.perf_counter() + seconds
    while True:
        for k, inst in enumerate(instances):
            if passes and time.perf_counter() >= deadline:
                break
            for solver in wl.solvers:
                modes = (False, True) if tracer else (False,)
                if (passes + k) % 2:
                    modes = modes[::-1]
                outs = []
                for traced in modes:
                    reference.between()
                    if traced:
                        tracer.solve = solve_id
                        solve_id += 1
                        tracer.install()
                        try:
                            dt, out, err = _timed_call(solver, inst)
                        finally:
                            tracer.uninstall()
                    else:
                        dt, out, err = _timed_call(solver, inst)
                    times[traced][solver.name][k].append(dt)
                    attempted += 1
                    reason = err if err is not None else solver.check(inst, out)
                    if reason is not None:
                        failures[f"{solver.name} on {inst.name}: {reason}"] += 1
                    outs.append(out)
                if tracer and all(o is not None for o in outs) and (
                    fingerprint(outs[0]) != fingerprint(outs[1])
                ):
                    failures[f"{solver.name} on {inst.name}: traced output differs"] += 1
        passes += 1
        if time.perf_counter() >= deadline:
            break
    return times[False], times[True], failures, attempted, passes


def run_workload(wl, seed: int, seconds: float, trace: bool) -> dict:
    import polyproj.lp
    import polyproj.sparse_linalg
    from bench_stats import gmean, median, tail
    from bench_trace import PER_LAYER, SETUP_LAYERS, Tracer, layer_metrics, missing_targets
    from bench_workloads import Reference

    if trace and missing_targets():
        raise SystemExit("error: trace targets missing from polyproj: "
                         + ", ".join(missing_targets()))

    setup_ref = Reference(REFERENCE_SHARE)
    import_s = _import_s(setup_ref)
    built, round_s, layer_rounds = _set_up(wl, seed, setup_ref)
    instances = built.instances
    setup_raw_s = median(import_s) + median(round_s)
    setup_ref_s = median(setup_ref.times)
    setup_s = setup_raw_s * REFERENCE_NOMINAL_S / setup_ref_s

    tracer = Tracer() if trace else None
    solve_ref = Reference(REFERENCE_SHARE)
    plain, traced, failures, attempted, passes = _measure(
        wl, instances, seconds, tracer, solve_ref
    )

    failed = sum(failures.values())
    print(f"workload {wl.name} seed {seed} {'traced' if trace else 'untraced'} run, "
          f"{len(instances)} instances, {passes} passes, closed loop with one caller")
    print("regime " + json.dumps(_regime(wl, seed)))
    print(f"setup_raw_s {setup_raw_s:.6g} s (median of {len(import_s)} fresh-interpreter "
          f"imports {median(import_s):.4g} s, median of {len(round_s)} builds "
          f"{median(round_s):.4g} s)")
    print(f"setup_s {setup_s:.6g} s (setup_raw_s at a reference kernel time of "
          f"{REFERENCE_NOMINAL_S:g} s; {setup_ref_s:.6g} s during set-up, median of "
          f"{len(setup_ref.times)})")
    samples = []
    for solver in wl.solvers:
        times = _per_instance(plain[solver.name])
        samples += times
        print(f"{solver.name}_s.p50 {median(times):.6g} s ({len(times)} instances)")
        tl = tail(times)
        if tl is not None:
            print(f"{solver.name}_s.tail {tl[0]:.6g} s (p{tl[1]:.1f}, {len(times)} instances)")
    solve_gmean = gmean(samples)
    ref_s = median(solve_ref.times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"solve_s.gmean {solve_gmean:.6g} s (geometric mean over {len(samples)} "
          f"instance-solver pairs)")
    print(f"reference_s {ref_s:.6g} s (median of {len(solve_ref.times)} reference kernels)")
    print(f"solve_ref.gmean {solve_gmean / ref_s:.6g} ratio (solve_s.gmean over reference_s)")
    print(f"fail_share {failed / attempted:.6g} ratio ({failed} of {attempted} solves)")
    print(f"peak_rss_mb {rss_mb:.6g} MB")
    for key, count in sorted(failures.items()):
        print(f"FAILED x{count}: {key}")
    for err in built.errors:
        print(f"SETUP ERROR: {err}")

    if trace:
        traced_samples = []
        for solver in wl.solvers:
            times = _per_instance(traced[solver.name])
            traced_samples += times
            print(f"traced {solver.name}_s.p50 {median(times):.6g} s "
                  f"(untraced {median(_per_instance(plain[solver.name])):.6g} s)")
        values = layer_metrics(
            tracer,
            {layer: median(r.get(layer, 0.0) for r in layer_rounds) for layer in SETUP_LAYERS},
            gmean(traced_samples) / solve_gmean - 1.0,
            polyproj.sparse_linalg.DENSE_FACTOR_MAX_DIM,
            polyproj.lp.LpConfig().subproblem_tols[1],
        )
        spans_path = os.path.join(WORK, f"spans-{wl.name}.jsonl")
        tracer.write(spans_path)
        print(f"spans written to {os.path.relpath(spans_path, ROOT)} "
              f"({len(tracer.spans)} spans)")
        for name, unit, moves in PER_LAYER:
            print(f"{name} {values[name]:.6g} {unit}  -> {moves}")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_ref.gmean": {"value": solve_gmean / ref_s, "unit": "ratio"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    return {
        "correct": failed == 0 and not built.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def _run_all(args) -> int:
    from bench_workloads import WORKLOADS

    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        sys.stdout.flush()
        status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyproj", "__init__.py")):
        print(f"error: no polyproj sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import polyproj

    if not os.path.abspath(polyproj.__file__).startswith(SRC + os.sep):
        print(f"error: polyproj was imported from {polyproj.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from bench_workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
