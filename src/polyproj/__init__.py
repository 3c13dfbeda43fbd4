"""Projection onto polyhedra and applications.

Core pieces: a regularized nonsmooth Newton solver for the best
approximation problem on ``{x : Ax = b, x >= 0}`` (exact and inexact
variants, free variables supported), a cyclic anchored-projection
baseline, a stepping-stone external path-following LP solver built on
parametrized projections, seeded instance generators with certified
optima, MPS ingestion, and a performance-profile benchmark harness.
"""

from .bap import (
    BapProblem,
    BapSolution,
    IndexSets,
    RnnmConfig,
    classify_indices,
    dual_objective,
    generalized_jacobian,
    is_vertex,
    kkt_report,
    moreau_split,
    residual,
    solve_rnnm,
)
from .bench import performance_profile, performance_ratio, run_benchmark
from .factory import (
    GenSpec,
    TriangleSpec,
    build_triangle_bap,
    gen_bap_with_known_vertex,
    gen_lp,
    oracle_lp_vertex_enumeration,
    reference_simplex,
)
from .hlwb import HlwbConfig, project_hyperplane, solve_hlwb
from .lp import (
    LpCertificate,
    LpConfig,
    LpProblem,
    SsepfState,
    classify_bases,
    initial_radius,
    lp_bounds,
    next_stone,
    scaled_subproblem,
    solve_lp,
)
from .mps import parse_mps, to_standard_form
from .sparse_linalg import (
    CholFactor,
    SparseMatrix,
    assemble_normal_matrix,
    cholesky_shifted,
    independent_columns,
    read_matrix_market,
    write_matrix_market,
)

__version__ = "0.1.0"
