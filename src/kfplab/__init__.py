"""Numerical laboratory for a degenerate diffusion-transport equation in its
original, Lagrangian and self-similar formulations: closed-form ground truth,
P1 finite elements, operator-splitting integrators and the study harnesses
that cross-validate them."""

from .mesh import Field, RectDomain, TriMesh, build_structured_mesh, interpolate_many
from .sparse import SolveStats, SparseMatrix, solve
from .analytic import (
    GaussianSum,
    QuadratureError,
    convolution_oracle,
    domain_condition,
    exact_lagrangian,
    exact_original,
    exact_selfsimilar,
    exact_solution,
    gaussian_ic,
    kernel_G,
    kernel_Lq_norm,
    linf_envelope,
    poincare_constant,
    steady_state,
)
from .assembly import OperatorBlocks, assemble_blocks
from .solvers import (
    FORMS,
    RunConfig,
    SolverError,
    Trajectory,
    project_initial,
    run,
    run_lagrangian,
    run_original,
    run_selfsimilar,
)
from .analysis import (
    ErrorReport,
    FitResult,
    convergence_study,
    decay_fit,
    envelope_check,
    final_errors,
    l2_error,
    linf_error,
    nested_domain_study,
    pairwise_orders,
    percent_diff,
    poincare_check,
)

__version__ = "0.1.0"
