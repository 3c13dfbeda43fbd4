"""Workloads of the polyproj benchmark: instances, solver calls, gate.

Every workload draws its instances from one seed.  Sizes and densities
are stratified (one draw per equal-width stratum, in shuffled order) so
that two seeds give different instances with the same spread of sizes;
the per-run medians then compare across seeds.  Instance seeds handed to
the generators lie in [10**6, 2**31), away from the seeds the test suite
uses.

Solvers are looked up as module attributes at call time
(``bap.solve_rnnm``, ``hlwb.solve_hlwb``, ``lp.solve_lp``), so the
traced run sees them through its wrappers.  The gate's tolerances are
those of the acceptance criteria: 01 for Newton projections, 07 for
generated LPs, 09 for afiro.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import polyproj.bap as bap
import polyproj.hlwb as hlwb
import polyproj.lp as lp
from polyproj import factory, mps, serialize

NEWTON_TOL = 1e-14
HLWB_TOL = 1e-4
LP_TOL_GAP = 1e-8
X_REL_TOL = 1e-8  # criterion 01: x against known_x
LP_OBJ_REL_TOL = 1e-7  # criterion 07: objective against known_optimum
AFIRO_OBJ_REL_TOL = 1e-6  # criterion 09: afiro against reference_simplex

AFIRO_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "afiro.mps")

_EXACT = bap.RnnmConfig(tol=NEWTON_TOL, mode="exact")
_HLWB = hlwb.HlwbConfig(tol=HLWB_TOL)
_LP = lp.LpConfig(tol_gap=LP_TOL_GAP)


@dataclass(frozen=True)
class Spec:
    """One instance to build: a generated projection or LP, or an MPS file."""

    kind: str  # "bap", "lp" or "mps"
    name: str
    gen: factory.GenSpec | None = None
    path: str | None = None


@dataclass
class Instance:
    """A read-back instance and what the gate compares its solution with."""

    name: str
    problem: object
    known: object  # known_x for projections, the optimal value for LPs
    known_tol: float


@dataclass(frozen=True)
class Solver:
    name: str
    call: Callable[[object], object]
    check: Callable[[Instance, object], str | None]


def _check_newton(inst: Instance, sol) -> str | None:
    if sol.status != bap.CONVERGED:
        return f"status {sol.status}"
    if not sol.rel_residual <= NEWTON_TOL:
        return f"rel_residual {sol.rel_residual:.3e} above {NEWTON_TOL:g}"
    known = inst.known
    err = float(np.linalg.norm(sol.x - known)) / (1.0 + float(np.linalg.norm(known)))
    if not err <= inst.known_tol:
        return f"x off known_x by {err:.3e} (relative), above {inst.known_tol:g}"
    return None


def _check_hlwb(inst: Instance, res) -> str | None:
    if res.status != "converged":
        return f"status {res.status}"
    if not res.rel_residual <= HLWB_TOL:
        return f"rel_residual {res.rel_residual:.3e} above {HLWB_TOL:g}"
    return None


def _check_lp(inst: Instance, res) -> str | None:
    if res.status != "solved":
        return f"status {res.status}"
    if not res.gap <= LP_TOL_GAP:
        return f"gap {res.gap:.3e} above {LP_TOL_GAP:g}"
    ref = inst.known
    rel = abs(res.certificate.lower - ref) / (1.0 + abs(ref))
    if not rel <= inst.known_tol:
        return f"objective off the optimum by {rel:.3e} (relative), above {inst.known_tol:g}"
    return None


EXACT = Solver("exact", lambda p: bap.solve_rnnm(p, config=_EXACT), _check_newton)
HLWB = Solver("hlwb", lambda p: hlwb.solve_hlwb(p, _HLWB), _check_hlwb)
LP = Solver("lp", lambda p: lp.solve_lp(p, _LP), _check_lp)


def make_reference():
    """A fixed kernel timed between solves, to measure the machine.

    On a shared machine the same solve can run a fifth slower for a minute
    at a time.  This kernel does the kinds of work the solvers do, with
    fixed data and no polyproj code: a Python loop of row projections on
    dense vectors, sparse products, a small dense Cholesky factor and
    solve, and a SuperLU factor of a 320x320 sparse SPD matrix in the
    symmetric mode that ``cholesky_shifted`` uses.  It takes about 14 ms.
    Dividing solve times by its median time in the same run removes most
    of the machine's drift.  Without the SuperLU part the kernel did not
    track the LP solves, whose bounds run through SuperLU, and dividing
    by it made their spread over seeds worse instead of better.
    """
    rng = np.random.default_rng(0)
    A = sp.random_array((60, 240), density=0.1, rng=rng, format="csc")
    rows = A.toarray()
    D = rng.standard_normal((60, 60))
    S = D @ D.T + 60.0 * np.eye(60)
    B = sp.random_array((320, 1280), density=0.01, rng=np.random.default_rng(1), format="csc")
    M = (B @ B.T + sp.eye_array(320)).tocsc()

    def kernel() -> None:
        x = np.zeros(240)
        for a in rows:
            x = x + ((1.0 - a @ x) / (a @ a)) * a
        for _ in range(10):
            y = A @ x
            x = np.maximum(A.T @ y, 0.0) * 1e-3
            scipy.linalg.cho_solve(scipy.linalg.cho_factor(S, lower=True), y)
        spla.splu(M, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})

    return kernel


class Reference:
    """The reference kernel, run between the timed steps of a run.

    Each call of :meth:`between` runs the kernel, again and again, while
    its total time is at most ``share`` of the time spent outside it since
    the first call (so once on the first call).  The kernel thereby samples
    the machine evenly over the steps it sits between, and ``times`` holds
    its durations.
    """

    def __init__(self, share: float):
        self._kernel = make_reference()
        self._share = share
        self.times: list[float] = []
        self.total = 0.0
        self._outside = 0.0
        self._last: float | None = None

    def between(self) -> None:
        now = time.perf_counter()
        if self._last is not None:
            self._outside += now - self._last
        while self.total <= self._share * self._outside:
            start = time.perf_counter()
            self._kernel()
            self.times.append(time.perf_counter() - start)
            self.total += self.times[-1]
        self._last = time.perf_counter()


def _instance_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(10**6, 2**31))


def _strata(rng: np.random.Generator, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of ``count`` equal strata of [lo, hi], shuffled."""
    u = (np.arange(count) + rng.random(count)) / count
    return [float(x) for x in (lo + (hi - lo) * u)[rng.permutation(count)]]


def _gen_spec(kind: str, rng, m: int, n: int, density: float) -> Spec:
    gen = factory.GenSpec(m=m, n=n, density=density, seed=_instance_seed(rng))
    return Spec(kind, f"m{m}-n{n}-d{density:.4f}-s{gen.seed}", gen=gen)


def _interleave(groups: list[list[Spec]]) -> list[Spec]:
    # alternate between size classes so a slow phase of the machine
    # lands on every class instead of on one
    out = []
    for k in range(max(len(g) for g in groups)):
        out.extend(g[k] for g in groups if k < len(g))
    return out


PROJ_MID_M = (50, 100, 200)


def _proj_mid_specs(per_m: int):
    def specs(rng) -> list[Spec]:
        return _interleave([
            [_gen_spec("bap", rng, m, 10 * m, d) for d in _strata(rng, per_m, 0.01, 0.10)]
            for m in PROJ_MID_M
        ])

    return specs


# Newton's subproblem iteration can cycle until its iteration budget
# runs out, and solve_lp then raises SubproblemFailureError.  On the size
# classes of acceptance criterion 07 this hit up to one random LP in 75
# for m <= 10 and one in 550 at m=30; at m=200, n=800 none of 324
# failed.  A benchmark run must complete every solve, so the small
# classes are not a workload while the cycling stands.
LP_LARGE_COUNT = 24


def lp_large_specs(rng) -> list[Spec]:
    specs = [_gen_spec("lp", rng, 200, 800, 0.02) for _ in range(LP_LARGE_COUNT)]
    return specs + [Spec("mps", "afiro", path=AFIRO_PATH)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    regime: dict
    solvers: tuple[Solver, ...]
    specs: Callable[[np.random.Generator], list[Spec]]


def _proj_mid(solver: Solver, per_m: int, why: str) -> Workload:
    return Workload(
        f"proj-mid-{solver.name}",
        why,
        {"m": list(PROJ_MID_M), "n": "10m", "density": [0.01, 0.10],
         "instances": per_m * len(PROJ_MID_M)},
        (solver,),
        _proj_mid_specs(per_m),
    )


# The proj-mid workloads share sizes and densities but run one solver
# each, so each gated time belongs to one solver.  Inexact mode is not a
# workload: its CG forcing term theta*||F||^nu is at least ||F|| once
# ||F|| >= 1/theta, CG then returns d=0 and the solve ends stalled, on
# about one instance in 100 to 300 of these sizes.  A benchmark run must
# complete every solve, so inexact mode waits for that to be fixed.
WORKLOADS = {
    w.name: w
    for w in (
        _proj_mid(
            EXACT, 30,
            "Paper table sizes, exact Newton to 1e-14: m <= 256 keeps it on the dense "
            "LAPACK path, where per-call classification and Jacobian overhead dominate.",
        ),
        _proj_mid(
            HLWB, 15,
            "Paper table sizes, the cyclic HLWB baseline to 1e-4: its sweep loop of "
            "row projections takes most of the wall time.",
        ),
        Workload(
            "lp-large",
            "m=200, n=800 plus afiro: the dual-feasibility projection in lp_bounds "
            "factors an n-dimensional system with SuperLU, so bound certification "
            "dominates the LP solve.",
            {"m": [200], "n": [800], "density": [0.02], "instances": LP_LARGE_COUNT,
             "extra": "afiro (MPS)"},
            (LP,),
            lp_large_specs,
        ),
    )
}


def fingerprint(obj):
    """Bit-exact, comparable summary of a solver input or output.

    Arrays compare by dtype, shape and bytes, floats by their hex form,
    so ``-0.0``, ``0.0`` and NaN payloads stay distinct.
    """
    if isinstance(obj, np.ndarray):
        return ("array", obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (float, np.floating)):
        return ("float", float(obj).hex())
    if obj is None or isinstance(obj, (bool, int, str, np.integer, np.bool_)):
        return obj
    if isinstance(obj, (list, tuple)):
        return tuple(fingerprint(v) for v in obj)
    if dataclasses.is_dataclass(obj):
        return (type(obj).__name__,) + tuple(
            (f.name, fingerprint(getattr(obj, f.name))) for f in dataclasses.fields(obj)
        )
    if hasattr(obj, "csc"):  # SparseMatrix
        csc = obj.csc
        return ("csc", csc.shape, fingerprint(csc.indptr), fingerprint(csc.indices),
                fingerprint(csc.data))
    raise TypeError(f"no fingerprint for {type(obj).__name__}")


@dataclass
class Built:
    instances: list[Instance]
    layer_s: dict[str, float]
    errors: list[str]


def build_instances(specs: list[Spec], workdir: str, reference: Reference) -> Built:
    """Generate (or parse) every instance, write it and read it back.

    The solvers get the read-back copy, as a CLI user would; a copy that
    is not bit-identical to the generated one is recorded as an error.
    ``reference.between()`` runs before each instance.
    """
    layer_s: dict[str, float] = defaultdict(float)
    instances, errors = [], []

    def timed(layer: str, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        layer_s[layer] += time.perf_counter() - start
        return out

    for k, spec in enumerate(specs):
        reference.between()
        base = os.path.join(workdir, f"i{k}")
        if spec.kind == "bap":
            g = timed("factory.gen_s", factory.gen_bap_with_known_vertex, spec.gen)
            original, known, known_tol = g.problem, g.known_x, X_REL_TOL
            timed("serialize.write_s", serialize.write_bap_instance, original, base)
            problem = timed("serialize.read_s", serialize.read_bap_instance, base)
        else:
            if spec.kind == "lp":
                g = timed("factory.gen_s", factory.gen_lp, spec.gen)
                original, known, known_tol = g.problem, g.known_optimum, LP_OBJ_REL_TOL
            else:
                with open(spec.path, encoding="ascii") as fh:
                    text = fh.read()
                model = timed("mps.parse_s", mps.parse_mps, text)
                original, _ = timed("mps.standard_form_s", mps.to_standard_form, model)
                known, _ = factory.reference_simplex(
                    original.A.toarray(), original.b, original.c
                )
                known_tol = AFIRO_OBJ_REL_TOL
            timed("serialize.write_s", serialize.write_lp_instance, original, base)
            problem = timed("serialize.read_s", serialize.read_lp_instance, base)
        if fingerprint(problem) != fingerprint(original):
            errors.append(f"{spec.name}: serialize round trip is not bit-exact")
        instances.append(Instance(spec.name, problem, known, known_tol))
    return Built(instances, dict(layer_s), errors)
