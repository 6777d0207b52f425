"""Time integrators for the three formulations.

* run_original: split stepping, a theta-scheme solve of the v-diffusion
  followed by an exact characteristic (semi-Lagrangian) transport update.
* run_lagrangian: a theta scheme for the time-dependent sheared form, with
  the bilinear form frozen at the midpoint of each step. Its solves use the
  z-line preconditioner; the other two forms use Jacobi.
* run_selfsimilar: the exact two-operator split of the rescaled equation, a
  theta-scheme solve for the coercive part followed by the closed-form
  exponential reaction update. The two split operators commute, so the
  splitting itself introduces no error.

Each form supplies only the sides of its theta step and its split update to
one time loop, _march, which takes the steps and records the run. A single
run is sequential; distinct runs are independent and each produced Field is
an immutable snapshot.
"""

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import analytic, sparse
from .assembly import assemble_blocks
from .mesh import Field, RectDomain, TriMesh, build_structured_mesh, interpolate_many, locate

FORMS = ("original", "lagrangian", "selfsimilar")


class SolverError(RuntimeError):
    """Linear solver failed to converge; carries the offending step's stats."""


@dataclass
class RunConfig:
    form: str = "selfsimilar"
    domain: RectDomain = field(default_factory=lambda: RectDomain.square(10.0))
    n: int = 128
    dt: float = 0.01
    horizon: float = 10.0  # always in t-units; see steps
    theta: float = 0.5
    sigma1: float = 1.0
    tol: float = sparse.DEFAULT_TOL
    snapshot_stride: int = 0
    out_dir: str = "out"

    def __post_init__(self):
        """The one validation point for run inputs, from the CLI or the API."""
        if self.form not in FORMS:
            raise ValueError(f"unknown formulation {self.form!r}")
        for name in ("dt", "horizon", "theta", "sigma1", "tol"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.horizon <= 0:
            raise ValueError(f"horizon must be positive, got {self.horizon}")
        if not 0.0 <= self.theta <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {self.theta}")
        if self.sigma1 > 1.0:
            raise ValueError(f"sigma1 must satisfy sigma1 <= 1, got {self.sigma1}")
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.snapshot_stride < 0:
            raise ValueError(f"snapshot_stride must be nonnegative, got {self.snapshot_stride}")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if 144 * self.n ** 2 > np.iinfo(np.intp).max:  # bytes of the (2 n^2, 3, 3) element kernels
            raise ValueError(f"n must be at most {math.isqrt(np.iinfo(np.intp).max // 144)}: "
                             "a larger mesh's arrays exceed numpy's size limit")
        if not self._span() < 2 ** 53:  # past 2^53, step * dt repeats times
            raise ValueError(f"the horizon is {self._span():.3g} steps of dt, "
                             f"more than 2**53: horizon = {self.horizon}, dt = {self.dt}")
        if self.form == "selfsimilar" and self.sigma2 * self.dt > math.log(sys.float_info.max):
            raise ValueError(f"the growth factor exp(sigma2 * dt) overflows: "
                             f"sigma2 = {self.sigma2}, dt = {self.dt}")

    @property
    def sigma2(self) -> float:
        return 2.0 - self.sigma1

    def _span(self) -> float:
        """The horizon in steps of dt, measured in the form's own time: the
        self-similar form marches in s = log(1 + t)."""
        return (math.log1p(self.horizon) if self.form == "selfsimilar" else self.horizon) / self.dt

    @property
    def steps(self) -> int:
        """Whole steps of dt to the horizon, rounded up: a run may end past it."""
        return max(1, math.ceil(self._span() - 1e-9))


@dataclass
class Trajectory:
    """The record of one run: its config, its snapshots and its per-step norms."""

    config: RunConfig
    snapshots: list  # [Field], in time order; the last is the final state
    times: np.ndarray
    l2: np.ndarray
    linf: np.ndarray

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def project_initial(mesh: TriMesh, f0) -> Field:
    """Nodal interpolation of the initial state with the boundary pinned to 0."""
    vals = np.asarray(f0(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    vals = vals.copy()
    vals[mesh.boundary] = 0.0
    return Field(mesh, vals, time=0.0)


def _start(config: RunConfig, f0, form: str):
    """Form check, mesh, operator blocks and the projected initial state."""
    if config.form != form:
        raise ValueError(f"config.form must be {form!r}")
    mesh = build_structured_mesh(config.domain, config.n)
    blocks = assemble_blocks(mesh)
    return project_initial(mesh, analytic.gaussian_ic if f0 is None else f0), blocks


def _implicit_side(mass, a, config):
    """The theta scheme's implicit side for operator A: M + dt th A."""
    return sparse.combine([(1.0, mass), (config.dt * config.theta, a)])


def _explicit_side(mass, a, config):
    """The theta scheme's explicit side for operator A: M - dt (1-th) A."""
    return sparse.combine([(1.0, mass), (-config.dt * (1.0 - config.theta), a)])


def _theta_step(lhs, precond, rhs_mat, x, config):
    """Solve lhs x_new = rhs_mat x with precond, a preconditioner built from
    lhs, or None for Jacobi; the one place that sees each solve's stats."""
    x_new, stats = sparse.solve(lhs, rhs_mat.matvec(x), tol=config.tol, x0=x, precond=precond)
    if not stats.converged:
        raise SolverError(
            f"linear solve failed: {stats.iterations} iterations, relative residual {stats.residual:.3e}")
    return x_new


def _march(config: RunConfig, first: Field, mass, sides, update=lambda k, y: y) -> Trajectory:
    """The one time loop of every form. Step k = 1 .. config.steps is the
    theta step with sides(k) = (lhs, precond, rhs_mat), followed by the
    form's split update(k, y) of the solve's result y.

    Records the norms of the interior vector x at every time k dt, and a
    Field at step 0, the last step and every snapshot_stride-th step. The
    boundary is pinned to 0, so the interior holds the L-inf norm;
    initial=0.0 covers a mesh with no interior. The L2 norm is taken of x
    scaled by a power of two near 1/linf, which is exact and keeps x M x
    clear of overflow and underflow at any scale of x.
    """
    stride = config.snapshot_stride
    snapshots, times, l2, linf = [], [], [], []
    x = first.interior_values()
    for k in range(config.steps + 1):
        if k > 0:
            x = update(k, _theta_step(*sides(k), x, config))
        time = k * config.dt
        times.append(time)
        linf.append(float(np.abs(x).max(initial=0.0)))
        e = math.frexp(linf[-1])[1]
        y = np.ldexp(x, -e)
        l2.append(math.ldexp(math.sqrt(max(y @ mass.matvec(y), 0.0)), e))
        if k in (0, config.steps) or (stride > 0 and k % stride == 0):
            snapshots.append(first.with_interior(x, time))
    return Trajectory(config, snapshots, np.array(times), np.array(l2), np.array(linf))


def run_original(config: RunConfig, f0=None) -> Trajectory:
    """Heat/transport splitting for the original form."""
    state, blocks = _start(config, f0, "original")
    mesh = state.mesh
    # all are constant: the theta sides of the v-direction heat operator with
    # the implicit side's preconditioner, and the feet (v, x + v dt) of the
    # exact characteristics through the interior nodes, located once
    lhs = _implicit_side(blocks.mass, blocks.d_vv, config)
    sides = (lhs, sparse.jacobi(lhs), _explicit_side(blocks.mass, blocks.d_vv, config))
    feet = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1] + mesh.nodes[:, 0] * config.dt])
    at_feet = locate(mesh, feet[mesh.interior])
    return _march(config, state, blocks.mass, lambda k: sides,
                  lambda k, y: interpolate_many(state.with_interior(y, k * config.dt), at_feet))


def run_lagrangian(config: RunConfig, f0=None) -> Trajectory:
    """Theta scheme for the sheared form, midpoint-frozen coefficients.

    At large t the operator (d_v + t d_z)^2 couples each unknown mostly to
    its z-neighbours, at offsets +-w in the interior numbering, so each
    step's solve is preconditioned with the exact inverse along z-lines.
    """
    state, blocks = _start(config, f0, "lagrangian")

    def sides(k):
        a_mid = blocks.lagrangian((k - 1) * config.dt + 0.5 * config.dt)
        lhs = _implicit_side(blocks.mass, a_mid, config)
        return lhs, sparse.line_jacobi(lhs), _explicit_side(blocks.mass, a_mid, config)
    return _march(config, state, blocks.mass, sides)


def run_selfsimilar(config: RunConfig, f0=None) -> Trajectory:
    """Exact splitting for the rescaled form:

    per step, solve (M + ds th A(s_{n+1})) g* = (M - ds (1-th) A(s_n)) g^n
    with A the negated weak action of the coercive operator, then apply the
    closed-form reaction update g^{n+1} = e^{sigma2 ds} g*.
    """
    state, blocks = _start(config, f0, "selfsimilar")
    if not analytic.domain_condition(config.domain):
        warnings.warn(
            "domain violates the size condition for the rescaled form; "
            "the truncated solution will decay to zero instead of reaching the steady profile",
            RuntimeWarning, stacklevel=2)
    growth = math.exp(config.sigma2 * config.dt)
    a_prev = blocks.selfsimilar(0.0, config.sigma1)

    def sides(k):
        # A(s_{k-1}) carries over from the previous step; its explicit side
        # is built before A(s_k) replaces it
        nonlocal a_prev
        explicit = _explicit_side(blocks.mass, a_prev, config)
        a_prev = blocks.selfsimilar(k * config.dt, config.sigma1)
        return _implicit_side(blocks.mass, a_prev, config), None, explicit
    return _march(config, state, blocks.mass, sides, lambda k, y: growth * y)


def run(config: RunConfig, f0=None) -> Trajectory:
    return {"original": run_original, "lagrangian": run_lagrangian,
            "selfsimilar": run_selfsimilar}[config.form](config, f0)
