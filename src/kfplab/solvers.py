"""Time integrators for the three formulations.

* run_original: split stepping, a theta-scheme solve of the v-diffusion
  followed by an exact characteristic (semi-Lagrangian) transport update.
* run_lagrangian: a theta scheme for the time-dependent sheared form, with
  the bilinear form frozen at the midpoint of each step. Its solves are
  preconditioned by a red-black sweep over z-lines at every n, each pass run
  on the odd lines (sparse.red_black_solver); the other two forms use Jacobi,
  the stored centre's reciprocal. Both are sparse.solve: a step solves once.
* run_selfsimilar: the exact two-operator split of the rescaled equation, a
  theta-scheme solve for the coercive part followed by the closed-form
  exponential reaction update. The two split operators commute, so the
  splitting itself introduces no error.

Each form supplies only the operators of its theta step, as coefficient
vectors over the assembled blocks, its solver factory and its split update
to one time loop, _march. The loop builds the theta sides, takes the steps
and records the run, starting each solve from the extrapolated solve
increments of the last three steps. It owns the solver's work vectors, the
theta sides' arrays, the right-hand side, the start and the increments for
the whole run. Every state is a node vector, 0.0 on the boundary, the frame
of every solve. A single run is sequential; distinct runs are independent
and each produced Field is an immutable snapshot. A solve that does not
converge, as one whose right-hand side has overflowed to inf, raises
SolverError.
"""

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import analytic, sparse
from .assembly import D_VV, MASS, assemble_blocks
from .mesh import Field, RectDomain, TriMesh, build_structured_mesh, interpolate_many, locate

FORMS = ("original", "lagrangian", "selfsimilar")
# backward-difference weights of the newest 0, 1, 2 or 3 solve increments
EXTRAPOLATION = ((), (1.0,), (2.0, -1.0), (3.0, -3.0, 1.0))


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
        if 112 * (self.n + 1) ** 2 > np.iinfo(np.intp).max:  # bytes of the largest array, 2 sides' 7 rows
            raise ValueError(f"n must be at most {math.isqrt(np.iinfo(np.intp).max // 112) - 1}: "
                             "a larger mesh's arrays exceed numpy's size limit")
        hv, hz = self.domain.side_v / self.n, self.domain.side_z / self.n
        for name, value in (("h_v h_z / 2", hv * hz / 2), ("h_z / h_v", hz / hv if hv else math.inf),
                            ("h_v / h_z", hv / hz if hz else math.inf)):  # the operators' stencil constants
            if not sys.float_info.min <= value < math.inf:
                raise ValueError(f"the mesh's {name} = {value:.3g} is not a finite normal float: "
                                 f"n = {self.n} on {self.domain}")
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
    iterations: np.ndarray  # BiCGStab iterations of each step's solve, 0 at step 0

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def _pinned(mesh: TriMesh, values: np.ndarray) -> np.ndarray:
    """values, a node vector, with the boundary pinned to 0: the zero frame."""
    return sparse.zero_frame(values, mesh.n + 1)


def project_initial(mesh: TriMesh, f0) -> Field:
    """Nodal interpolation of the initial state with the boundary pinned to 0."""
    return Field(mesh, _pinned(mesh, np.array(f0(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)), time=0.0)


def _start(config: RunConfig, f0, form: str):
    """Form check, mesh, operator blocks and the projected initial state."""
    if config.form != form:
        raise ValueError(f"config.form must be {form!r}")
    mesh = build_structured_mesh(config.domain, config.n)
    blocks = assemble_blocks(mesh)
    return project_initial(mesh, analytic.gaussian_ic if f0 is None else f0), blocks


def _theta_step(solve, rhs_mat, rhs, x, guess, work, config):
    """Solve lhs x_new = rhs_mat x from guess in work, solve built from lhs, the
    right-hand side written into rhs: (x_new, SolveStats)."""
    rhs_mat.matvec(x, out=rhs, scratch=work[0])  # work[0] holds nothing until the solve fills it
    x_new, stats = solve(rhs, tol=config.tol, x0=guess, work=work)
    if not stats.converged:
        raise SolverError(
            f"linear solve failed: {stats.iterations} iterations, relative residual {stats.residual:.3e}")
    return x_new, stats


def _march(config: RunConfig, first: Field, blocks, operators, solver, update=lambda k, y: y) -> Trajectory:
    """The one time loop of every form. Step k = 1 .. config.steps solves the
    theta step (M + dt th A) y = (M - dt (1-th) A') x, with operators(k) =
    (A', A) the coefficient vectors over the blocks of its explicit and its
    implicit side, and then applies the form's split update(k, y). Each side
    is built by one combine, and solver(lhs), the side's solve, from the
    implicit side lhs; all three are reused while operators(k) returns
    equal vectors.

    Each solve starts from x plus the EXTRAPOLATION of the increments
    d = y - x of the last three solves, taken before the split update. The
    run owns BiCGStab's work vectors, the rows of both sides, the
    right-hand side, the start and the three increments, which rotate
    through their rows, so that no step allocates them: a step that freed
    them at the top of the heap would let malloc trim those pages, only for
    the next step to fault them in. The solution is a new array every step,
    as snapshots keep it.

    x is a node vector, first.values at step 0, and no step writes into an x
    it made. Records its norms at every time k dt, and a Field of it at step
    0, the last step and every snapshot_stride-th step. L-inf is
    max(max x, -min x). The L2 norm is sqrt(y M y) 2^e, y = x 2^-e with 2^e
    near linf, and y M y the mass stencil's quadratic form, four dot
    products without a matvec (SparseMatrix.quadratic_form). The scaling is
    exact and keeps y M y clear of overflow and underflow at any scale of x;
    y is taken in a work row, free between solves. An L2 norm past the
    largest float is recorded as inf.
    """
    stride = config.snapshot_stride
    snapshots, times, l2, linf, iterations, d = [], [], [], [], [0], []
    ops = sides = None
    x = first.values
    work, sides_data = np.empty((sparse.WORK_VECTORS, len(x))), np.empty((2,) + blocks.b_adv.data.shape)
    # the start, the right-hand side, then the rows the increments rotate through
    guess, rhs, *increments = np.empty((5, len(x)))
    for k in range(config.steps + 1):
        if k > 0:
            explicit, implicit = new = operators(k)
            if ops is None or not all(map(np.array_equal, new, ops)):
                lhs = blocks.matrix(MASS + config.dt * config.theta * implicit, out=sides_data[0])
                rhs_mat = blocks.matrix(MASS - config.dt * (1.0 - config.theta) * explicit, out=sides_data[1])
                ops, sides = new, None  # free the last solver's arrays before the next takes its own
                sides = (solver(lhs), rhs_mat)
            np.copyto(guess, x)
            for w, di in zip(EXTRAPOLATION[len(d)], d):
                guess += np.multiply(w, di, out=work[0])  # work is free between solves
            y, stats = _theta_step(*sides, rhs, x, guess, work, config)
            d = [np.subtract(y, x, out=increments[len(d)] if len(d) < 3 else d[2])] + d[:2]
            iterations.append(stats.iterations)
            x = update(k, y)
        time = k * config.dt
        times.append(time)
        linf.append(float(max(x.max(), -x.min()) + 0.0))  # + 0.0 turns -0.0 into 0.0
        e = math.frexp(linf[-1])[1]
        root = math.sqrt(max(blocks.mass.quadratic_form(np.ldexp(x, -e, out=work[0])), 0.0))
        try:
            l2.append(math.ldexp(root, e))
        except OverflowError:  # past the largest float, as L-inf records it
            l2.append(math.inf)
        if k in (0, config.steps) or (stride > 0 and k % stride == 0):
            snapshots.append(Field(first.mesh, x, time))
    return Trajectory(config, snapshots, *map(np.array, (times, l2, linf, iterations)))


def run_original(config: RunConfig, f0=None) -> Trajectory:
    """Heat/transport splitting for the original form."""
    state, blocks = _start(config, f0, "original")
    mesh = state.mesh
    # the feet (v, x + v dt) of the exact characteristics through the nodes
    # are constant, so they are located once; boundary feet may land inside
    # the domain, so the transported state is pinned as the initial one is;
    # the run owns the gather of the vertex values, as _march owns the
    # solver's rows, so that no step frees it at the top of the heap
    feet = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1] + mesh.nodes[:, 0] * config.dt])
    at_feet, gather = locate(mesh, feet), np.empty((3, mesh.node_count))
    return _march(config, state, blocks, lambda k: (D_VV, D_VV), sparse.jacobi_solver,
                  lambda k, y: _pinned(mesh, interpolate_many(Field(mesh, y, k * config.dt), at_feet, gather)))


def run_lagrangian(config: RunConfig, f0=None) -> Trajectory:
    """Theta scheme for the sheared form, midpoint-frozen coefficients.

    At large t the operator (d_v + t d_z)^2 couples each node mostly to its
    z-neighbours, at offsets +-(n + 1) on the node grid, so each step's solve
    is preconditioned by exact solves along z-lines, swept red-black, and
    runs on the odd lines (sparse.red_black_solver).
    """
    state, blocks = _start(config, f0, "lagrangian")
    return _march(config, state, blocks, lambda k: (blocks.lagrangian((k - 1) * config.dt + 0.5 * config.dt),) * 2,
                  sparse.red_black_solver)


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
    # A(s_k) is the implicit operator of step k and the explicit one of step
    # k + 1; the cache of two computes each once
    a = functools.lru_cache(maxsize=2)(lambda k: blocks.selfsimilar(k * config.dt, config.sigma1))
    return _march(config, state, blocks, lambda k: (a(k - 1), a(k)), sparse.jacobi_solver, lambda k, y: growth * y)


def run(config: RunConfig, f0=None) -> Trajectory:
    return {"original": run_original, "lagrangian": run_lagrangian,
            "selfsimilar": run_selfsimilar}[config.form](config, f0)
