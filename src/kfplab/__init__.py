"""Numerical laboratory for a degenerate diffusion-transport equation in its
original, Lagrangian and self-similar formulations: closed-form ground truth,
P1 finite elements, operator-splitting integrators and the study harnesses
that cross-validate them."""

from . import analysis, analytic, assembly, mesh, solvers, sparse
