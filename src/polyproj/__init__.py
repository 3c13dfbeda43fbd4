"""Projection onto polyhedra and applications.

Core pieces: a regularized nonsmooth Newton solver for the best
approximation problem on ``{x : Ax = b, x >= 0}`` (exact and inexact
variants, free variables supported), a cyclic anchored-projection
baseline, a stepping-stone external path-following LP solver built on
parametrized projections, seeded instance generators with certified
optima, MPS ingestion, and a performance-profile benchmark harness.
Import names from their modules: the package root re-exports nothing.
"""

__version__ = "0.1.0"
