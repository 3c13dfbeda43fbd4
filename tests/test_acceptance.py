"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import math
import os
import time

import numpy as np

from polyproj.bap import (
    CONVERGED,
    BapProblem,
    BapSolution,
    RnnmConfig,
    classify_indices,
    generalized_jacobian,
    kkt_report,
    moreau_split,
    residual,
    solve_rnnm,
)
from polyproj.bench import performance_profile, performance_ratio
from polyproj.factory import (
    GenSpec,
    TriangleSpec,
    build_triangle_bap,
    gen_bap_with_known_vertex,
    gen_lp,
    reference_simplex,
)
from polyproj.hlwb import HlwbConfig, solve_hlwb
from polyproj.lp import (
    SsepfState,
    _basis_zero_tol,
    classify_bases,
    initial_radius,
    lp_bounds,
    next_stone,
    scaled_subproblem,
    solve_lp,
)
from polyproj.mps import parse_mps, to_standard_form
from polyproj.serialize import write_bap_instance, write_solution
from polyproj.sparse_linalg import SparseMatrix, cholesky_shifted

from oracles import highs_optimum, oracle_polyhedron_projection


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def criterion1_specs():
    sizes = [(m, n) for m in (50, 100, 200) for n in (500, 1000, 2000)]
    rng = np.random.default_rng(20260808)
    specs = []
    for k in range(200):
        m, n = sizes[k % len(sizes)]
        density = float(rng.uniform(0.01, 0.10))
        specs.append(GenSpec(m=m, n=n, density=density, seed=1000 + k))
    return specs


def test_criterion_01_bap_correctness_vs_construction():
    specs = criterion1_specs()
    t0 = time.perf_counter()
    converged = 0
    worst_err = 0.0
    for spec in specs:
        g = gen_bap_with_known_vertex(spec)
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-12, max_iter=2000))
        if sol.status == CONVERGED and sol.rel_residual <= 1e-12:
            converged += 1
            err = np.linalg.norm(sol.x - g.known_x) / (1.0 + np.linalg.norm(g.known_x))
            worst_err = max(worst_err, err)
            assert err <= 1e-8
    elapsed = time.perf_counter() - t0
    frac = converged / len(specs)
    ok = frac >= 0.95 and worst_err <= 1e-8 and elapsed < 120.0
    report(1, ok, f"{converged}/200 converged to 1e-12, worst x-error {worst_err:.2e}, "
                  f"{elapsed:.1f}s (budget 120s)")
    assert frac >= 0.95
    assert elapsed < 120.0


def test_criterion_02_kkt_exactness():
    rng = np.random.default_rng(2)
    worst_primal = 0.0
    for seed in range(20):
        g = gen_bap_with_known_vertex(GenSpec(m=40, n=300, density=0.05, seed=seed))
        # mid-solve iterates: truncated runs land on genuine iterates
        for max_iter in (1, 3):
            part = solve_rnnm(
                g.problem,
                config=RnnmConfig(tol=1e-16, max_iter=max_iter),
            )
            _, dual, comp = kkt_report(g.problem, part)
            assert dual == 0.0
            assert comp == 0.0
        # arbitrary multiplier points satisfy the identities too
        y = rng.standard_normal(g.problem.m)
        x, z, _ = moreau_split(g.problem, y)
        probe = BapSolution(x=x, y=y, z=z, rel_residual=1.0, iterations=0, status=CONVERGED)
        _, dual, comp = kkt_report(g.problem, probe)
        assert dual == 0.0 and comp == 0.0
        # converged certificate: primal residual at tolerance
        tol = 1e-14
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=tol))
        primal, dual, comp = kkt_report(g.problem, sol)
        nb = 1.0 + np.linalg.norm(g.problem.b)
        assert primal * nb <= tol * nb  # primal <= tol*(1+||b||) in absolute terms
        assert dual == 0.0 and comp == 0.0
        worst_primal = max(worst_primal, primal)
    report(2, True, f"dual/comp exactly 0 on all sampled iterates; "
                    f"worst converged primal {worst_primal:.2e}")


def test_criterion_03_descent_property():
    rng = np.random.default_rng(3)
    checked = 0
    worst_margin = -math.inf
    while checked < 50:
        m = int(rng.integers(3, 10))
        n = int(rng.integers(2 * m, 5 * m))
        A = rng.standard_normal((m, n))
        x_feas = np.abs(rng.standard_normal(n))
        prob = BapProblem(SparseMatrix(A), A @ x_feas, rng.standard_normal(n))
        y = rng.standard_normal(m)
        _, _, p = moreau_split(prob, y)
        if np.min(np.abs(p)) < 1e-3:  # need a differentiable point
            continue
        F = residual(prob, y)
        if np.linalg.norm(F) < 1e-10:
            continue
        checked += 1
        sets = classify_indices(prob, p)
        V = generalized_jacobian(prob, sets)
        d = cholesky_shifted(V, 1e-3).solve(-F)
        h = 1e-6
        f_plus = 0.5 * np.linalg.norm(residual(prob, y + h * d)) ** 2
        f_minus = 0.5 * np.linalg.norm(residual(prob, y - h * d)) ** 2
        dd = (f_plus - f_minus) / (2.0 * h)
        grad_norm = np.linalg.norm(V @ F)
        margin = dd / (grad_norm * np.linalg.norm(d))
        worst_margin = max(worst_margin, margin)
        assert dd < -1e-12 * grad_norm * np.linalg.norm(d)
    report(3, True, f"50/50 regularized steps descend; worst normalized slope {worst_margin:.2e}")


def test_criterion_04_hlwb_plateau():
    sizes = [(m, n) for m in (50, 100, 200) for n in (500, 1000, 2000)]
    worst = 0.0
    for k, (m, n) in enumerate(sizes):
        g = gen_bap_with_known_vertex(GenSpec(m=m, n=n, density=0.03, seed=4000 + k))
        res = solve_hlwb(g.problem, HlwbConfig(tol=1e-16, max_sweeps=2000))
        worst = max(worst, res.rel_residual)
        assert res.sweeps <= 2000
        assert res.rel_residual <= 1e-3
    report(4, True, f"9/9 instances at or below 1e-3 after 2000 sweeps; worst {worst:.2e}")


def test_criterion_05_inexact_matches_exact():
    worst = 0.0
    for seed in range(50):
        g = gen_bap_with_known_vertex(GenSpec(m=30, n=300, density=0.06, seed=5000 + seed))
        exact = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-14, mode="exact"))
        inexact = solve_rnnm(
            g.problem,
            config=RnnmConfig(tol=1e-14, mode="inexact"),
        )
        assert exact.status == CONVERGED and inexact.status == CONVERGED
        diff = np.max(np.abs(exact.x - inexact.x)) / (1.0 + np.max(np.abs(exact.x)))
        worst = max(worst, diff)
        assert diff <= 1e-8
    report(5, True, f"50/50 exact/inexact agree; worst |dx| {worst:.2e}")


def _partition_at(problem, R):
    sol = solve_rnnm(scaled_subproblem(problem, R), config=RnnmConfig(tol=1e-14))
    bases = classify_bases(sol.x, sol.z, _basis_zero_tol(sol.x, sol.z))
    return (tuple(bases.B), tuple(bases.N)), sol, bases


def test_criterion_06_stepping_stone_sensitivity_oracle():
    rng = np.random.default_rng(6)
    checked = 0
    matched = 0
    locked_verified = 0
    for seed in range(30):
        m = int(rng.integers(2, 6))
        n = int(rng.integers(2 * m, 13))
        n = max(n, m + 2)
        gl = gen_lp(GenSpec(m=m, n=n, density=0.6, seed=6000 + seed))
        lp = gl.problem
        # start well below the usual radius so the walk crosses the
        # interior stones before the basis locks
        R = initial_radius(lp) / 100.0
        for _stone in range(12):
            part0, sol, bases = _partition_at(lp, R)
            state = SsepfState(R=R, w=sol.x, y=sol.y, z=sol.z, bases=bases)
            step = next_stone(lp, state)
            R_max = R * 1e4
            if math.isinf(step.R_n):
                # the partition must indeed stay fixed on the whole grid
                probe = R * 1.5
                same = True
                while probe <= R_max:
                    pq, _, _ = _partition_at(lp, probe)
                    if pq != part0:
                        same = False
                        break
                    probe *= 3.0
                assert same, f"claimed locked basis changed (seed {seed})"
                locked_verified += 1
                break
            # bracket the true change point on a geometric grid
            lo, hi = R, None
            probe = R * 1.3
            while probe <= R_max:
                pq, _, _ = _partition_at(lp, probe)
                if pq != part0:
                    hi = probe
                    break
                lo = probe
                probe *= 1.3
            assert hi is not None, f"stone {step.R_n:.3e} not confirmed below {R_max:.1e}"
            while hi / lo > 1.0 + 1e-9:
                mid = math.sqrt(lo * hi)
                pq, _, _ = _partition_at(lp, mid)
                if pq == part0:
                    lo = mid
                else:
                    hi = mid
            change = 0.5 * (lo + hi)
            checked += 1
            if abs(step.R_n - change) <= 1e-6 * change:
                matched += 1
            else:
                raise AssertionError(
                    f"seed {seed}: predicted stone {step.R_n:.10e} vs observed {change:.10e}"
                )
            R = step.R_n * 1.01
    report(6, True, f"{matched}/{checked} stone locations match to 1e-6; "
                    f"{locked_verified} locked bases verified constant")
    assert checked >= 30


def test_criterion_07_lp_end_to_end():
    classes = [
        (3, 8, 0.6), (4, 12, 0.5), (5, 14, 0.5),
        (10, 40, 0.3), (20, 80, 0.15), (30, 120, 0.1),
        (40, 160, 0.08), (50, 200, 0.06),
    ]
    stones_used = []
    count = 0
    for ci, (m, n, d) in enumerate(classes):
        per_class = 13 if ci < 4 else 12
        for k in range(per_class):
            if count >= 100:
                break
            count += 1
            gl = gen_lp(GenSpec(m=m, n=n, density=d, seed=7000 + 100 * ci + k))
            res = solve_lp(gl.problem)
            assert res.status == "solved", f"({m},{n}) seed {k}: {res.status}"
            assert res.gap <= 1e-8
            ref = highs_optimum(gl.problem)
            rel = abs(res.certificate.lower - ref) / (1.0 + abs(ref))
            assert rel <= 1e-7, f"({m},{n}) seed {k}: objective off by {rel:.2e}"
            stones_used.append(len(res.stones))
    stones_used.sort()
    median = stones_used[len(stones_used) // 2]
    dist = {s: stones_used.count(s) for s in sorted(set(stones_used))}
    ok = median <= 3
    report(7, ok, f"{count}/100 solved with gap<=1e-8 and 1e-7 objective agreement; "
                  f"stone distribution {dist} (median {median})")
    assert median <= 3  # soft expectation from the source analysis, holds comfortably


def test_criterion_08_bound_duality():
    checked_eq = 0
    for seed in range(15):
        gl = gen_lp(GenSpec(m=8, n=30, density=0.3, seed=8000 + seed))
        lp = gl.problem
        R = initial_radius(lp)
        for _ in range(8):
            _, sol, bases = _partition_at(lp, R)
            state = SsepfState(R=R, w=sol.x, y=sol.y, z=sol.z, bases=bases)
            cert = lp_bounds(lp, state)
            assert cert.lower <= cert.upper + 1e-8 * (1.0 + abs(cert.upper))
            zB = cert.z_lp[bases.B]
            if zB.size and np.max(np.abs(zB)) <= 1e-10 * (1.0 + np.abs(cert.z_lp).max()):
                gap = (cert.upper - cert.lower) / (
                    1.0 + (abs(cert.upper) + abs(cert.lower)) / 2.0
                )
                assert abs(gap) <= 1e-10
                checked_eq += 1
            step = next_stone(lp, state)
            if math.isinf(step.R_n):
                break
            R = step.R_n * 1.01
    report(8, True, f"weak duality held at every stone; equality verified "
                    f"at {checked_eq} stones with vanishing basic duals")
    assert checked_eq > 0


def test_criterion_09_mps_pipeline(data_dir):
    with open(os.path.join(data_dir, "afiro.mps")) as fh:
        model = parse_mps(fh.read())
    lp, fmap = to_standard_form(model)
    res = solve_lp(lp)
    ref, _ = reference_simplex(lp.A.toarray(), lp.b, lp.c)
    rel = abs(res.certificate.lower - ref) / (1.0 + abs(ref))
    ok = res.status == "solved" and res.gap <= 1e-8 and rel <= 1e-6
    report(9, ok, f"afiro: gap {res.gap:.2e}, objective (min units) "
                  f"{fmap.original_objective(res.certificate.x):.6f}, simplex agreement {rel:.2e}")
    assert ok


def test_criterion_10_triangle_projection():
    rng = np.random.default_rng(10)
    worst = 0.0
    cases = 0
    while cases < 20:
        if cases < 2:
            tri = TriangleSpec.complete(5 + cases)
        else:
            nv = int(rng.integers(5, 13))
            edges = [e for e in TriangleSpec.complete(nv).edges if rng.random() < 0.55]
            edge_set = set(edges)
            triples = [
                t for t in TriangleSpec.complete(nv).triples
                if ((t[0], t[1]) in edge_set and (t[0], t[2]) in edge_set
                    and (t[1], t[2]) in edge_set)
            ][:20]
            if not triples:
                continue
            tri = TriangleSpec(nv, tuple(edges), tuple(triples))
        cases += 1
        xbar = rng.uniform(-0.2, 1.4, size=len(tri.edges))
        prob = build_triangle_bap(tri, xbar)
        sol = solve_rnnm(prob, config=RnnmConfig(tol=1e-14))
        assert sol.status == CONVERGED
        # x = 1/2 is strictly inside every triangle system (s = t = 1/2),
        # so the active-set oracle starts with no bound active
        start = np.full(prob.n, 0.5)
        ref = oracle_polyhedron_projection(prob.A.toarray(), prob.b, prob.v, start)
        err = np.linalg.norm(sol.x - ref) / (1.0 + np.linalg.norm(ref))
        worst = max(worst, err)
        assert err <= 1e-8
    report(10, True, f"20/20 projections match the active-set oracle; worst {worst:.2e}")


def test_criterion_11_performance_profile_math():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = int(rng.integers(1, 10))
        s = int(rng.integers(1, 5))
        times = rng.uniform(0.01, 100.0, (p, s))
        times[rng.random((p, s)) < 0.3] = np.nan
        ok_rows = ~np.all(np.isnan(times), axis=1)
        import warnings as _w

        with _w.catch_warnings():
            _w.simplefilter("ignore")
            ratios, kept = performance_ratio(times)
        assert np.array_equal(kept, np.where(ok_rows)[0])
        # recount oracle, elementwise
        sub = times[ok_rows]
        for i in range(sub.shape[0]):
            finite = sub[i][~np.isnan(sub[i])]
            best = finite.min()
            for j in range(s):
                if np.isnan(sub[i, j]):
                    assert math.isinf(ratios[i, j])
                else:
                    assert ratios[i, j] == sub[i, j] / best
        if ratios.shape[0] == 0:
            continue
        prof = performance_profile(ratios, [f"s{j}" for j in range(s)])
        for tau in (1.0, 2.0, 10.0, float(np.nanmax(sub) + 1.0)):
            for j in range(s):
                expected = np.count_nonzero(ratios[:, j] <= tau) / ratios.shape[0]
                assert prof.value(f"s{j}", tau) == expected
    report(11, True, "1000/1000 random tables match the recount oracle exactly")


def test_criterion_12_determinism(tmp_path):
    def pipeline(root):
        os.makedirs(root, exist_ok=True)
        outputs = {}
        g = gen_bap_with_known_vertex(GenSpec(m=12, n=60, density=0.2, seed=1234))
        base = os.path.join(root, "inst")
        write_bap_instance(g.problem, base)
        sol = solve_rnnm(g.problem, config=RnnmConfig(tol=1e-13))
        write_solution(g.problem, sol, base + ".sol")
        gl = gen_lp(GenSpec(m=6, n=20, density=0.4, seed=99))
        res = solve_lp(gl.problem)
        with open(os.path.join(root, "lp_report.txt"), "w") as fh:
            rep = res.report()
            for key in sorted(rep):
                fh.write(f"{key} {rep[key]}\n")
        for name in ("inst.mtx", "inst.bap", "inst.sol", "lp_report.txt"):
            with open(os.path.join(root, name), "rb") as fh:
                outputs[name] = fh.read()
        return outputs

    first = pipeline(str(tmp_path / "run1"))
    second = pipeline(str(tmp_path / "run2"))
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(12, True, f"{len(first)} pipeline outputs byte-identical across re-runs")
