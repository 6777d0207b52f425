"""Error norms, fits, convergence and truncation studies.

References passed to the error routines must be vectorized callables
(v, z) -> value, like everything exported by kfplab.analytic.
"""

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import analytic
from .assembly import assemble_blocks
from .mesh import Field, RectDomain, TriMesh, interpolate_many
from .solvers import RunConfig, project_initial, run_selfsimilar


@dataclass
class FitResult:
    """Least-squares power law E = C h^p (or exponential E = C e^{p t})."""

    coefficient: float
    exponent: float
    residual: float


@dataclass
class ErrorReport:
    h: np.ndarray
    dt: float
    time: float
    l2_error: np.ndarray
    linf_error: np.ndarray
    order: np.ndarray  # pairwise, length len(h) - 1


# The corners of every grid cell at once, as slices of the (n + 1) x (n + 1)
# node grid: lower-left, lower-right, upper-left and upper-right.
LL, LR, UL, UR = np.s_[:-1, :-1], np.s_[:-1, 1:], np.s_[1:, :-1], np.s_[1:, 1:]
# The edge-midpoint rule, exact for total degree <= 2: each point is the mean
# of two corners, three on the lower triangle (ll, lr, ur) and three on the
# upper one (ll, ur, ul), each of weight |T| / 3 = h_v h_z / 6.
MIDPOINT_RULE = ((LL, LR), (LR, UR), (UR, LL), (LL, UR), (UR, UL), (UL, LL))


def l2_error(field: Field, reference) -> float:
    """L2 distance between the P1 field and a reference, 3-midpoint rule.

    Each point of MIDPOINT_RULE is taken in every cell at once, from the
    corner slices of the field's and the coordinates' node grids, so the
    reference receives (n, n) coordinate arrays (v, z); if it takes a time
    argument, pass it pre-bound. A field sampled from a smooth reference
    keeps its O(h^2) interpolation error, it is not reported as zero. The
    means and the difference of every point go into the same three (n, n)
    arrays, so that a call faults in no fresh pages for them.
    """
    mesh = field.mesh
    side = mesh.n + 1
    grids = [a.reshape(side, side) for a in (field.values, mesh.nodes[:, 0], mesh.nodes[:, 1])]
    means = np.empty((3, mesh.n, mesh.n))  # u, v, z; u then holds the difference and its square
    u, v, z = means
    total = 0.0
    for a, b in MIDPOINT_RULE:
        for grid, mean in zip(grids, means):
            np.multiply(0.5, np.add(grid[a], grid[b], out=mean), out=mean)
        np.subtract(u, reference(v, z), out=u)
        total += float(np.sum(np.multiply(u, u, out=u)))
    return math.sqrt(total * (mesh.hv * mesh.hz / 6.0))


def linf_error(field: Field, reference) -> float:
    """Max nodal deviation from the reference, its boundary pinned to 0 as
    in the initial projection."""
    ref = project_initial(field.mesh, reference).values
    return float(np.abs(field.values - ref).max())


def final_errors(trajectory) -> tuple[float, float]:
    """L2 and L-inf errors of a run's final field against the closed form of
    its formulation at the final time; FloatingPointError when either is
    not finite, as where the closed form overflows on a huge domain."""
    final = trajectory.final
    ref = lambda a, b: analytic.exact_solution(trajectory.config.form, final.time, (a, b))
    errors = l2_error(final, ref), linf_error(final, ref)
    if not np.isfinite(errors).all():
        raise FloatingPointError(f"the L2 and L-inf errors against the closed form, {errors[0]} and "
                                 f"{errors[1]}, are not both finite on {trajectory.config.domain}")
    return errors


def reference_l2_norm(mesh: TriMesh, reference) -> float:
    return l2_error(Field(mesh, np.zeros(mesh.node_count)), reference)


def percent_diff(field: Field, reference) -> Field:
    """Nodal |numerical - exact| scaled by the global L2 norm of the
    reference, times 100, so the result is a plottable percent field whose
    aggregate matches the scalar percent difference."""
    mesh = field.mesh
    norm = reference_l2_norm(mesh, reference)
    if norm <= 0.0:
        raise ValueError("reference norm is zero; percent difference undefined")
    ref = np.asarray(reference(mesh.nodes[:, 0], mesh.nodes[:, 1]), dtype=float)
    vals = np.abs(field.values - ref) / norm * 100.0
    return Field(mesh, vals, time=field.time)


ENVELOPE_SLACK = 1.05  # multiplicative slack on the analytic envelope


def envelope_check(times: np.ndarray, linf: np.ndarray, l1_norm: float,
                   linf_norm: float) -> bool:
    """True iff the recorded sup norms stay below the analytic envelope,
    times ENVELOPE_SLACK, at every recorded s > 0."""
    return not any(val > ENVELOPE_SLACK * analytic.linf_envelope(s, l1_norm, linf_norm)
                   for s, val in zip(np.asarray(times, dtype=float), np.asarray(linf, dtype=float)) if s > 0)


def fit_power_law(h: np.ndarray, errors: np.ndarray) -> FitResult:
    """Log-log least squares E = C h^p; requires >= 3 points."""
    h = np.asarray(h, dtype=float)
    errors = np.asarray(errors, dtype=float)
    if len(h) < 3:
        raise ValueError("power-law fit requires at least 3 points")
    if np.any(errors <= 0) or np.any(h <= 0):
        raise ValueError("power-law fit requires positive values")
    return _line_fit(np.log(h), np.log(errors))


def _line_fit(x: np.ndarray, y: np.ndarray) -> FitResult:
    """Least squares y = log C + p x."""
    A = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = float(np.linalg.norm(y - A @ coef))
    return FitResult(math.exp(coef[0]), float(coef[1]), resid)


def pairwise_orders(h: np.ndarray, errors: np.ndarray) -> np.ndarray:
    """order_i = log(E_i / E_{i+1}) / log(h_i / h_{i+1}) for consecutive levels."""
    h = np.asarray(h, dtype=float)
    errors = np.asarray(errors, dtype=float)
    return np.log(errors[:-1] / errors[1:]) / np.log(h[:-1] / h[1:])


def decay_fit(times: np.ndarray, norms: np.ndarray, window=None,
              kind: str = "power") -> FitResult:
    """Fit N(t) = C t^p (kind='power') or N(t) = C e^{p t} (kind='exponential')
    over the points inside the window; nonpositive norms are rejected, and so
    are nonpositive times for the power law."""
    if kind not in ("power", "exponential"):
        raise ValueError("kind must be 'power' or 'exponential'")
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if window is not None:
        lo, hi = window
        keep = (times >= lo) & (times <= hi)
        times, norms = times[keep], norms[keep]
    if len(times) < 3:
        raise ValueError("decay fit requires at least 3 points in the window")
    if np.any(norms <= 0):
        raise ValueError("decay fit requires positive norm values")
    if kind == "power":
        return fit_power_law(times, norms)
    return _line_fit(times, np.log(norms))


def ladder_configs(base: RunConfig, h_levels) -> list:
    """The self-similar run of each level of a refinement ladder, on the mesh
    size n = round(side / h): at least three levels, each on its own mesh;
    the error of an invalid level names it."""
    if len(h_levels) < 3:
        raise ValueError("a convergence study needs at least 3 levels")
    configs = []
    for h, n in ((h, base.domain.side_v / h) for h in h_levels):  # n = inf at the tiniest h
        try:
            configs.append(replace(base, form="selfsimilar", n=max(1, round(n)) if math.isfinite(n) else n))
        except ValueError as exc:
            raise ValueError(f"level {h!r}: {exc}") from None
    sizes = [config.n for config in configs]
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"the levels give the meshes n = {sizes}: a ladder needs a new mesh at each level")
    return configs


def convergence_study(base: RunConfig, h_levels):
    """Self-similar runs over a ladder of mesh sizes to the config's horizon
    (in t-units), errors against the closed-form solution at the final
    rescaled time. h maps to n = round(side / h) (see ladder_configs); the
    report, its orders and the fit use the h of the mesh each level ran on.
    Returns (ErrorReport, FitResult).
    """
    h, errors = [], []
    for config in ladder_configs(base, h_levels):
        traj = run_selfsimilar(config)
        h.append(traj.final.mesh.h)
        errors.append(final_errors(traj))
    h = np.array(h)
    l2s, linfs = np.array(errors).T
    report = ErrorReport(h, base.dt, traj.final.time, l2s, linfs, pairwise_orders(h, l2s))
    return report, fit_power_law(h, l2s)


def poincare_mesh_check(n: int) -> None:
    """ValueError unless an n-mesh has an interior node, n >= 2: on a
    smaller one every zero-boundary P1 field is zero."""
    if n < 2:
        raise ValueError(f"an n = {n} mesh has no interior node: a Poincare check needs n >= 2")


@np.errstate(over="ignore", invalid="ignore")
def poincare_check(mesh: TriMesh, t: float, trials: int, seed: int = 1234) -> float:
    """Worst ratio ||g|| / (coef * ||d_v g + t d_z g||) over random
    zero-boundary P1 fields, by exact element quadrature. The directional
    Poincare inequality says this never exceeds 1. NaN, without a warning,
    when a quadratic form overflows, as t^2 does past about 1.3e154."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    n = mesh.n
    poincare_mesh_check(n)
    blocks = assemble_blocks(mesh)
    a_t = blocks.matrix(blocks.lagrangian(t))  # its quadratic form is ||d_v g + t d_z g||^2
    coef = analytic.poincare_coefficient(mesh.domain, t)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        x = np.zeros(mesh.node_count)
        x.reshape(n + 1, n + 1)[1:-1, 1:-1] = rng.uniform(-1.0, 1.0, (n - 1, n - 1))
        num = float(x @ blocks.mass.matvec(x))
        den = float(x @ a_t.matvec(x))
        if not math.isfinite(den):
            return math.nan  # an overflowed quadratic form measures nothing
        if den <= 0.0:
            continue  # directional derivative vanishes -> g vanishes
        worst = max(worst, math.sqrt(num / den) / coef)
    return worst


NESTED_INNER = RectDomain.square(2.0)  # the region the nested-domain study compares on
NESTED_GRID = 200  # cells per side of its comparison grid


def nested_configs(base: RunConfig, scales) -> list:
    """The self-similar run of each scale, on scale * [-1, 1]^2 at one mesh
    size h: at least two scales, each a new one, the largest on base.n."""
    if len(scales) < 2:
        raise ValueError("a nested-domain study needs at least 2 scales")
    if len(set(scales)) < len(scales):
        raise ValueError(f"the scales {list(scales)} repeat one: a study compares each scale with the next")
    h = 2.0 * max(scales) / base.n
    return [replace(base, form="selfsimilar", domain=RectDomain.square(scale),
                    n=max(1, round(2.0 * scale / h))) for scale in scales]


def nested_domain_study(base: RunConfig, scales):
    """Self-similar runs on growing domains scale * [-1, 1]^2, compared on
    NESTED_INNER at the final time, by the midpoint rule on a NESTED_GRID x
    NESTED_GRID grid of cells.

    Mesh size h is kept constant across scales (see nested_configs); pick
    base.n so every 2 * scale / h is an integer, otherwise the per-scale
    rounding perturbs h and the discretization mismatch drowns the
    truncation signal being measured. Scales whose domain violates the size
    condition are flagged and excluded from the monotonicity contract.
    Returns (scales_used, discrepancies between consecutive scales,
    violation flags).
    """
    scales = sorted(float(s) for s in scales)

    gv = np.linspace(NESTED_INNER.v_min, NESTED_INNER.v_max, NESTED_GRID + 1)
    gz = np.linspace(NESTED_INNER.z_min, NESTED_INNER.z_max, NESTED_GRID + 1)
    mv = 0.5 * (gv[1:] + gv[:-1])
    mz = 0.5 * (gz[1:] + gz[:-1])
    V, Z = np.meshgrid(mv, mz, indexing="ij")
    pts = np.column_stack([V.ravel(), Z.ravel()])
    cell_area = (gv[1] - gv[0]) * (gz[1] - gz[0])

    flags = []
    samples = []
    for config in nested_configs(base, scales):
        flags.append(not analytic.domain_condition(config.domain))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            traj = run_selfsimilar(config)
        samples.append(interpolate_many(traj.final, pts))

    diffs = [math.sqrt(float(np.sum((a - b) ** 2)) * cell_area)
             for a, b in zip(samples[:-1], samples[1:])]
    return scales, np.array(diffs), flags
