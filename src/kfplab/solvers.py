"""Time integrators for the three formulations.

* run_original: split stepping, a theta-scheme solve of the v-diffusion
  followed by an exact characteristic (semi-Lagrangian) transport update.
* run_lagrangian: a theta scheme for the time-dependent sheared form, with
  the bilinear form frozen at the midpoint of each step.
* run_selfsimilar: the exact two-operator split of the rescaled equation, a
  theta-scheme solve for the coercive part followed by the closed-form
  exponential reaction update. The two split operators commute, so the
  splitting itself introduces no error.

A single run is sequential; distinct runs are independent and each produced
Field is an immutable snapshot.
"""

import math
import numbers
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import analytic, sparse
from .assembly import assemble_blocks
from .mesh import FORMS, Field, RectDomain, TriMesh, build_structured_mesh, interpolate_many


class SolverError(RuntimeError):
    """Linear solver failed to converge; carries the offending step's stats."""


@dataclass
class RunConfig:
    form: str = "selfsimilar"
    domain: RectDomain = field(default_factory=lambda: RectDomain.square(10.0))
    n: int = 128
    dt: float = 0.01
    horizon: float = 10.0  # always in t-units; converted to s internally
    theta: float = 0.5
    sigma1: float = 1.0
    tol: float = sparse.DEFAULT_TOL
    max_iter: int = sparse.DEFAULT_MAX_ITER
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
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.snapshot_stride < 0:
            raise ValueError(f"snapshot_stride must be nonnegative, got {self.snapshot_stride}")
        if not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")

    @property
    def sigma2(self) -> float:
        return 2.0 - self.sigma1


@dataclass
class Trajectory:
    """Snapshots plus the per-step norm record of one run."""

    form: str
    snapshots: list  # [(time, Field)]
    times: np.ndarray
    l2: np.ndarray
    linf: np.ndarray

    @property
    def final(self) -> Field:
        return self.snapshots[-1][1]

    @property
    def initial(self) -> Field:
        return self.snapshots[0][1]


def project_initial(mesh: TriMesh, f0, form: str = "original") -> Field:
    """Nodal interpolation of the initial state with the boundary pinned to 0."""
    vals = np.asarray(f0(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    vals = vals.copy()
    vals[mesh.boundary] = 0.0
    return Field(mesh, vals, time=0.0, form=form)


def _n_steps(total: float, dt: float) -> int:
    return max(1, int(math.ceil(total / dt - 1e-9)))


class _Recorder:
    def __init__(self, config: RunConfig, mass: sparse.SparseMatrix, first: Field):
        self.stride = config.snapshot_stride
        self.mass = mass
        self.snapshots = [(0.0, first)]
        self.times = [0.0]
        self.l2 = [self._l2(first)]
        self.linf = [float(np.abs(first.values).max())]

    def _l2(self, f: Field) -> float:
        x = f.interior_values()
        return math.sqrt(max(x @ self.mass.matvec(x), 0.0))

    def record(self, step: int, n_steps: int, time: float, f: Field):
        self.times.append(time)
        self.l2.append(self._l2(f))
        self.linf.append(float(np.abs(f.values).max()))
        if step == n_steps or (self.stride > 0 and step % self.stride == 0):
            self.snapshots.append((time, f))

    def done(self, form: str) -> Trajectory:
        return Trajectory(form, self.snapshots, np.array(self.times),
                          np.array(self.l2), np.array(self.linf))


def _theta_step(mass, a_implicit, a_explicit, x, dt, theta, config):
    """One theta-scheme step: (M + dt th A_i) x_new = (M - dt (1-th) A_e) x."""
    lhs = sparse.combine([(1.0, mass), (dt * theta, a_implicit)])
    rhs_mat = sparse.combine([(1.0, mass), (-dt * (1.0 - theta), a_explicit)])
    rhs = rhs_mat.matvec(x)
    x_new, stats = sparse.solve(lhs, rhs, tol=config.tol, max_iter=config.max_iter, x0=x)
    if not stats.converged:
        raise SolverError(
            f"linear solve failed: {stats.iterations} iterations, relative residual {stats.residual:.3e}")
    return x_new


def run_original(config: RunConfig, f0=None) -> Trajectory:
    """Heat/transport splitting for the original form."""
    if config.form != "original":
        raise ValueError("config.form must be 'original'")
    mesh = build_structured_mesh(config.domain, config.n)
    blocks = assemble_blocks(mesh)
    a_v = blocks.d_vv
    f0 = analytic.gaussian_ic if f0 is None else f0
    state = project_initial(mesh, f0, form="original")
    rec = _Recorder(config, blocks.mass, state)

    nodes = mesh.nodes
    n_steps = _n_steps(config.horizon, config.dt)
    x = state.interior_values()
    for step in range(1, n_steps + 1):
        t_new = step * config.dt
        # diffusion half: theta scheme for the v-direction heat operator
        x = _theta_step(blocks.mass, a_v, a_v, x, config.dt, config.theta, config)
        half = state.with_interior(x, t_new)
        # transport half: exact characteristics, foot at (v, x + v dt)
        feet = np.column_stack([nodes[:, 0], nodes[:, 1] + nodes[:, 0] * config.dt])
        vals = interpolate_many(half, feet)
        vals[mesh.boundary] = 0.0
        state = Field(mesh, vals, time=t_new, form="original")
        x = state.interior_values()
        rec.record(step, n_steps, t_new, state)
    return rec.done("original")


def run_lagrangian(config: RunConfig, f0=None) -> Trajectory:
    """Theta scheme for the sheared form, midpoint-frozen coefficients."""
    if config.form != "lagrangian":
        raise ValueError("config.form must be 'lagrangian'")
    mesh = build_structured_mesh(config.domain, config.n)
    blocks = assemble_blocks(mesh)
    f0 = analytic.gaussian_ic if f0 is None else f0
    state = project_initial(mesh, f0, form="lagrangian")
    rec = _Recorder(config, blocks.mass, state)

    n_steps = _n_steps(config.horizon, config.dt)
    x = state.interior_values()
    for step in range(1, n_steps + 1):
        t_old = (step - 1) * config.dt
        t_new = step * config.dt
        a_mid = blocks.lagrangian(t_old + 0.5 * config.dt)
        x = _theta_step(blocks.mass, a_mid, a_mid, x, config.dt, config.theta, config)
        state = state.with_interior(x, t_new)
        rec.record(step, n_steps, t_new, state)
    return rec.done("lagrangian")


def run_selfsimilar(config: RunConfig, f0=None) -> Trajectory:
    """Exact splitting for the rescaled form:

    per step, solve (M + ds th A(s_{n+1})) g* = (M - ds (1-th) A(s_n)) g^n
    with A the negated weak action of the coercive operator, then apply the
    closed-form reaction update g^{n+1} = e^{sigma2 ds} g*.
    """
    if config.form != "selfsimilar":
        raise ValueError("config.form must be 'selfsimilar'")
    if not analytic.domain_condition(config.domain):
        warnings.warn(
            "domain violates the size condition for the rescaled form; "
            "the truncated solution will decay to zero instead of reaching the steady profile",
            RuntimeWarning, stacklevel=2)
    mesh = build_structured_mesh(config.domain, config.n)
    blocks = assemble_blocks(mesh)
    f0 = analytic.gaussian_ic if f0 is None else f0
    state = project_initial(mesh, f0, form="selfsimilar")
    rec = _Recorder(config, blocks.mass, state)

    s_end = math.log1p(config.horizon)
    ds = config.dt
    n_steps = _n_steps(s_end, ds)
    growth = math.exp(config.sigma2 * ds)
    x = state.interior_values()
    a_old = blocks.selfsimilar(0.0, config.sigma1)
    for step in range(1, n_steps + 1):
        s_new = step * ds
        a_new = blocks.selfsimilar(s_new, config.sigma1)
        x = _theta_step(blocks.mass, a_new, a_old, x, ds, config.theta, config)
        x = growth * x
        a_old = a_new
        state = state.with_interior(x, s_new)
        rec.record(step, n_steps, s_new, state)
    return rec.done("selfsimilar")


def run(config: RunConfig, f0=None) -> Trajectory:
    return {"original": run_original, "lagrangian": run_lagrangian,
            "selfsimilar": run_selfsimilar}[config.form](config, f0)

