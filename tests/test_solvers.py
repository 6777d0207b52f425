import importlib.util
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from kfplab import analytic, solvers, sparse
from kfplab.analysis import final_errors, l2_error
from kfplab.assembly import D_VV, MASS, assemble_blocks
from kfplab.mesh import Field, RectDomain, build_structured_mesh, interpolate_many
from kfplab.solvers import (
    RunConfig,
    SolverError,
    project_initial,
    run,
    run_lagrangian,
    run_original,
    run_selfsimilar,
)
from test_mesh import boundary_mask, interior_mask
from test_sparse import line_gauss_seidel, line_jacobi

BIG = RectDomain.square(10.0)
YARDSTICK_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "yardstick.py")


def zero_ic(v, x):
    return np.zeros(np.broadcast(np.asarray(v), np.asarray(x)).shape)


# ------------------------------------------------------------ project_initial

def test_project_initial_gaussian():
    mesh = build_structured_mesh(BIG, 16)
    f = project_initial(mesh, analytic.gaussian_ic)
    center = np.argmin(np.abs(mesh.nodes).sum(axis=1))
    assert f.values[center] == pytest.approx(1.0, rel=1e-14)
    assert np.all(f.values[boundary_mask(mesh)] == 0.0)


def test_project_initial_zero():
    mesh = build_structured_mesh(BIG, 8)
    f = project_initial(mesh, zero_ic)
    assert np.all(f.values == 0.0)


def test_project_initial_interpolation_order():
    errs = []
    for n in (32, 64):
        mesh = build_structured_mesh(BIG, n)
        f = project_initial(mesh, analytic.gaussian_ic)
        errs.append(l2_error(f, analytic.gaussian_ic))
    ratio = errs[0] / errs[1]
    assert 3.6 <= ratio <= 4.4


# ------------------------------------------------------------------ the runs

@pytest.mark.parametrize("form", ["original", "lagrangian", "selfsimilar"])
def test_zero_initial_state_stays_zero(form):
    cfg = RunConfig(form=form, n=8, dt=0.05, horizon=0.5)
    traj = run(cfg, zero_ic)
    assert np.all(traj.l2 == 0.0) and np.all(traj.linf == 0.0)
    assert np.all(traj.final.values == 0.0)


# the 2^-600 and 2^600 cases take the solver's inner products, and x M x in
# the recorded L2 norm, out of the float range unless the solve and the
# recorder rescale by a power of two
@pytest.mark.parametrize("form,alpha", [
    pytest.param(form, alpha, id=form + suffix)
    for alpha, suffix in ((2.5, ""), (2.0 ** -600, "-2^-600"), (2.0 ** 600, "-2^600"))
    for form in ("original", "lagrangian", "selfsimilar")])
def test_run_linearity(form, alpha):
    cfg = RunConfig(form=form, n=12, dt=0.02, horizon=0.4, snapshot_stride=5)
    a = run(cfg, analytic.gaussian_ic)
    b = run(cfg, analytic.GaussianSum([(alpha, 0.0, 0.0, 1.0, 1.0)]))  # alpha * gaussian_ic
    for fa, fb in zip(a.snapshots, b.snapshots):
        denom = np.abs(alpha * fa.values).max()
        assert np.abs(fb.values - alpha * fa.values).max() <= 1e-10 * denom
    for got, unscaled in ((b.l2, a.l2), (b.linf, a.linf)):
        want = alpha * unscaled
        assert np.abs(got - want).max() <= 1e-10 * want.max()


def test_trajectory_structure():
    cfg = RunConfig(form="selfsimilar", n=8, dt=0.05, horizon=1.0, snapshot_stride=3)
    traj = run(cfg)
    assert traj.snapshots[0].time == 0.0
    times = [f.time for f in traj.snapshots]
    assert all(a < b for a, b in zip(times, times[1:]))
    assert np.all(np.diff(traj.times) > 0)
    assert traj.config is cfg and len(traj.times) == traj.config.steps + 1
    # s-horizon conversion: horizon t=1 -> s_end = log 2, ceil to the grid
    assert traj.times[-1] == pytest.approx(math.ceil(math.log(2.0) / 0.05) * 0.05)


def test_form_mismatch_rejected():
    cfg = RunConfig(form="original", n=4, dt=0.1, horizon=0.2)
    with pytest.raises(ValueError):
        run_lagrangian(cfg)
    with pytest.raises(ValueError):
        run_selfsimilar(cfg)


def test_solver_failure_aborts_run():
    cfg = RunConfig(form="lagrangian", n=16, dt=0.01, horizon=0.1, tol=1e-300)
    with pytest.raises(SolverError):
        run_lagrangian(cfg)


def test_an_l2_norm_past_the_largest_float_is_recorded_as_inf():
    # a wide Gaussian of peak 6e307: its L2 norm, about 4 times the peak,
    # exceeds the largest float, while the peak and every solve stay finite
    for form in solvers.FORMS:
        traj = run(RunConfig(form=form, n=16, dt=0.1, horizon=0.2), analytic.GaussianSum([(6e307, 0, 0, 0.1, 0.1)]))
        assert len(traj.l2) == 3 and np.all(traj.l2 == math.inf) and np.all(np.isfinite(traj.linf))
    # a peak of 1.7e308: step 0 records inf, and the first solve, whose
    # right-hand side overflows, fails
    with np.errstate(all="ignore"), pytest.raises(SolverError, match="0 iterations"):
        run(RunConfig(form="lagrangian", n=8, dt=0.1, horizon=0.1), analytic.GaussianSum([(1.7e308, 0, 0, 1, 1)]))


def test_selfsimilar_solve_survives_lost_biorthogonality():
    # at dt = 0.1 this solve loses r* . r to rounding within 20 iterations;
    # an absolute breakdown test missed it and BiCGStab diverged to 1e27
    traj = run_selfsimilar(RunConfig(form="selfsimilar", n=67, dt=0.1, horizon=0.2214))
    assert len(traj.times) == 3
    assert final_errors(traj)[0] < traj.final.mesh.h ** 2  # 0.043 < 0.089


def test_original_one_step_matches_manual():
    # one step = theta solve with the v-stiffness, then the characteristic shift
    cfg = RunConfig(form="original", n=10, dt=0.05, horizon=0.05)
    traj = run_original(cfg)
    mesh = traj.final.mesh
    blocks = assemble_blocks(mesh)
    x = project_initial(mesh, analytic.gaussian_ic).values
    lhs = blocks.matrix(MASS + cfg.dt * cfg.theta * D_VV)
    rhs = blocks.matrix(MASS - cfg.dt * (1 - cfg.theta) * D_VV).matvec(x)
    y, stats = sparse.solve(lhs, rhs, sparse.jacobi(lhs), tol=cfg.tol, x0=x)
    assert stats.converged
    half = Field(mesh, y, cfg.dt)
    feet = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1] + mesh.nodes[:, 0] * cfg.dt])
    want = interpolate_many(half, feet)
    want[boundary_mask(mesh)] = 0.0
    assert np.max(np.abs(traj.final.values - want)) < 1e-12


def _per_form_loop(cfg, warm=True):
    """Each form's step loop and norm recorder written out on its own, as
    they stood before the forms shared one loop, each side built in one
    contraction over the five blocks, on node vectors. The original form
    interpolates at the feet of all nodes on every step and pins the
    boundary to 0; the self-similar form builds the next step's explicit
    side at the end of each step. The L2 norm is the mass stencil's
    quadratic form of x scaled by a power of two. Each step calls
    sparse.solve(lhs, b, precond, ...), precond sparse.RedBlackLines(lhs) in
    the sheared form and sparse.jacobi(lhs) in the others. With warm, each
    solve starts from x plus the backward-difference extrapolation of the
    last three solve increments y - x; without, from x. Returns (times, l2,
    linf, snapshots, iterations) with the iterations of each step's solve,
    0 at step 0."""
    mesh = build_structured_mesh(cfg.domain, cfg.n)
    blocks = assemble_blocks(mesh)
    first = project_initial(mesh, analytic.gaussian_ic)
    m, s = blocks.mass.data, blocks.mass.side
    times, l2, linf, snapshots, iterations, d = [], [], [], [], [0], []

    def record(step, time, x):
        linf.append(float(np.abs(x).max(initial=0.0)))
        k = math.frexp(linf[-1])[1]
        y = np.ldexp(x, -k)
        times.append(time)
        form = m[3] * (y @ y) + 2.0 * (m[4] * (y[1:] @ y[:-1]) + m[5] * (y[s:] @ y[:-s])
                                       + m[6] * (y[s + 1:] @ y[:-s - 1]))
        l2.append(math.ldexp(math.sqrt(max(form, 0.0)), k))
        if step in (0, cfg.steps) or (cfg.snapshot_stride and step % cfg.snapshot_stride == 0):
            snapshots.append(Field(mesh, x, time))

    def sides(c):
        return (blocks.matrix(MASS + cfg.dt * cfg.theta * c),
                blocks.matrix(MASS - cfg.dt * (1.0 - cfg.theta) * c))

    def step_solve(lhs, precond, rhs_mat, x):
        nonlocal d
        if not warm or not d:
            guess = x
        elif len(d) == 1:
            guess = x + d[0]
        elif len(d) == 2:
            guess = x + 2.0 * d[0] - d[1]
        else:
            guess = x + 3.0 * d[0] - 3.0 * d[1] + d[2]
        x_new, stats = sparse.solve(lhs, rhs_mat.matvec(x), precond, tol=cfg.tol, x0=guess)
        assert stats.converged
        d = [x_new - x] + d[:2]
        iterations.append(stats.iterations)
        return x_new

    x = first.values
    record(0, 0.0, x)
    if cfg.form == "original":
        lhs, rhs_mat = sides(D_VV)
        feet = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1] + mesh.nodes[:, 0] * cfg.dt])
        for step in range(1, cfg.steps + 1):
            x = step_solve(lhs, sparse.jacobi(lhs), rhs_mat, x)
            x = interpolate_many(Field(mesh, x, step * cfg.dt), feet)
            x[boundary_mask(mesh)] = 0.0
            record(step, step * cfg.dt, x)
    elif cfg.form == "lagrangian":
        for step in range(1, cfg.steps + 1):
            lhs, rhs_mat = sides(blocks.lagrangian((step - 1) * cfg.dt + 0.5 * cfg.dt))
            x = step_solve(lhs, sparse.RedBlackLines(lhs), rhs_mat, x)
            record(step, step * cfg.dt, x)
    else:
        growth = math.exp(cfg.sigma2 * cfg.dt)
        explicit = sides(blocks.selfsimilar(0.0, cfg.sigma1))[1]
        for step in range(1, cfg.steps + 1):
            lhs, next_explicit = sides(blocks.selfsimilar(step * cfg.dt, cfg.sigma1))
            x = growth * step_solve(lhs, sparse.jacobi(lhs), explicit, x)
            explicit = next_explicit
            record(step, step * cfg.dt, x)
    return times, l2, linf, snapshots, iterations


@pytest.mark.parametrize("form", ["original", "lagrangian", "selfsimilar"])
def test_every_form_records_the_bits_of_its_own_loop(form):
    # the one time loop gives each form's norms and snapshots bit for bit;
    # the original form's feet are located once, and interpolating at the
    # feet of all nodes on every step gives the same bits
    horizon = math.expm1(1.0) if form == "selfsimilar" else 1.0
    cfg = RunConfig(form=form, n=16, dt=0.05, horizon=horizon, snapshot_stride=7)
    assert cfg.steps == 20
    traj = run(cfg)
    times, l2, linf, snapshots, iterations = _per_form_loop(cfg)
    assert traj.times.tobytes() == np.array(times).tobytes()
    assert traj.iterations.tolist() == iterations
    assert traj.l2.tobytes() == np.array(l2).tobytes()
    assert traj.linf.tobytes() == np.array(linf).tobytes()
    assert [f.time for f in traj.snapshots] == [f.time for f in snapshots] == [
        k * cfg.dt for k in (0, 7, 14, 20)]
    for got, want in zip(traj.snapshots, snapshots):
        assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("form,horizon", [("original", 5.0), ("selfsimilar", 10.0)])
def test_extrapolated_start_halves_the_iterations(form, horizon):
    # the run records each step's iterations beside its times; starting each
    # solve from the extrapolated increments takes at most half the
    # iterations of starting from x, and no step more than the largest
    # cold-started one (measured: 4187 -> 956 original, 2400 -> 974 self-similar)
    cfg = RunConfig(form=form, n=32, dt=0.01, horizon=horizon)
    traj = run(cfg)
    cold = np.array(_per_form_loop(cfg, warm=False)[4])
    assert traj.iterations.dtype.kind == "i" and traj.iterations.shape == traj.times.shape
    assert traj.iterations[0] == 0
    assert traj.iterations.sum() <= cold.sum() / 2, (traj.iterations.sum(), cold.sum())
    assert traj.iterations.max() <= cold.max()


def test_lagrangian_one_step_matches_manual():
    # one step = theta solve with the midpoint operator, preconditioned by
    # the red-black sweep over z-lines (offsets +-s on the node grid, s = n + 1),
    # here the oracle's sweep applied by solve
    cfg = RunConfig(form="lagrangian", n=10, dt=0.05, horizon=0.05)
    traj = run_lagrangian(cfg)
    mesh = traj.final.mesh
    blocks = assemble_blocks(mesh)
    x = project_initial(mesh, analytic.gaussian_ic).values
    a_mid = blocks.lagrangian(0.5 * cfg.dt)
    lhs = blocks.matrix(MASS + cfg.dt * cfg.theta * a_mid)
    rhs = blocks.matrix(MASS - cfg.dt * (1 - cfg.theta) * a_mid).matvec(x)
    y, _ = sparse.solve(lhs, rhs, tol=cfg.tol, x0=x, precond=line_gauss_seidel(lhs))
    assert np.max(np.abs(traj.final.values - y)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lagrangian_small_meshes_match_dense_steps(n, to_dense):
    # n = 1 has no interior unknown, n = 2 one and n = 3 a 2 x 2 grid: z-lines
    # of length 0, 1 and 2
    cfg = RunConfig(form="lagrangian", n=n, dt=0.1, horizon=0.3)
    traj = run_lagrangian(cfg)
    assert len(traj.times) == 4
    mesh = traj.final.mesh
    blocks = assemble_blocks(mesh)
    inner = interior_mask(mesh)
    x = project_initial(mesh, analytic.gaussian_ic).values
    for step in range(3):
        a_mid = blocks.lagrangian((step + 0.5) * cfg.dt)
        lhs = to_dense(blocks.matrix(MASS + cfg.dt * cfg.theta * a_mid), inner)
        rhs = blocks.matrix(MASS - cfg.dt * (1 - cfg.theta) * a_mid).matvec(x)
        x = np.zeros(mesh.node_count)
        x[inner] = np.linalg.solve(lhs, rhs[inner]) if len(lhs) else []
    got = traj.final.values
    assert got.shape == x.shape
    assert np.max(np.abs(got - x), initial=0.0) <= 1e-10 * np.max(np.abs(x), initial=1.0)


def _load_yardstick():
    spec = importlib.util.spec_from_file_location("yardstick", YARDSTICK_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Each path's (per entry, scale) distance from its tol-1e-12 run in the
# columns l2, linf, final field and L2 error, measured, rounded up to three
# digits, when A(s) and each theta side were separate sums of matrices, before
# every side became one contraction over the five blocks.
YARDSTICK_BEFORE_CONTRACTION = {
    ("lagrangian n=32", "z-lines"): ((1.62e-11, 9.05e-12), (2.87e-10, 1.35e-10), (2.2e-06, 3.04e-10),
                                     (8.52e-15, 8.52e-15)),
    ("lagrangian n=32", "Jacobi"): ((1.25e-10, 3.86e-11), (9.25e-10, 5.73e-11), (5.22e-05, 2.13e-09),
                                    (2.55e-13, 2.55e-13)),
    ("original n=32", "Jacobi"): ((1.2e-08, 2.04e-09), (9.77e-09, 4.26e-10), (1.86, 9.77e-09),
                                  (1.95e-08, 1.95e-08)),
    ("selfsimilar n=32", "Jacobi"): ((5.52e-09, 4.75e-09), (3.05e-09, 2.21e-09), (0.0306, 3.68e-09),
                                     (2.98e-09, 2.98e-09)),
    ("Table 2 n=20", "Jacobi"): ((2e-08, 2e-08), (1.89e-08, 1.89e-08), (0.000541, 1.89e-08),
                                 (4.14e-08, 4.14e-08)),
    ("Table 2 n=40", "Jacobi"): ((1.14e-07, 9.07e-08), (1.02e-07, 6.37e-08), (180, 1.02e-07),
                                 (1.82e-07, 1.82e-07)),
}
# A path's distance is set by where its solves stop below tol = 1e-10: the
# median solve of these runs stops at 0.29-0.52 tol, so a path whose every
# solve stopped at tol itself would lie at most about 1 / 0.29 = 3.4 times
# farther. Rounding-level changes to the matrices move these distances far
# less: random perturbations of a few ulps gave ratios 0.67-1.02.
YARDSTICK_FACTOR = 4.0


@pytest.fixture(scope="module")
def yardstick_tables():
    """Case name -> the yardstick table of tools/yardstick.py's CASES (~8 s)."""
    ys = _load_yardstick()
    return {name: ys.yardstick(n, dt, t_end, form) for name, (form, n, dt, t_end) in ys.CASES.items()}


def test_lagrangian_line_path_within_yardstick(yardstick_tables):
    # the z-line path at tol 1e-10 must lie no farther from the same run at
    # tol 1e-12 than the Jacobi path at tol 1e-10: per entry in the norm
    # series and the final L2 error, relative to its largest value in the
    # final field, whose entries reach down to 0 at the boundary. The Jacobi
    # path is another run: it takes more iterations (measured: 1739 against
    # 235), so a Jacobi path that left the sweep in place fails here
    table = yardstick_tables["lagrangian n=32"]
    lines, jacobi = table["z-lines"], table["Jacobi"]
    for col, kind in (("l2", 0), ("linf", 0), ("final field", 1), ("L2 error", 0)):
        assert lines[col][kind] <= jacobi[col][kind], col
    assert jacobi["iterations"] > lines["iterations"]


def test_red_black_sweep_takes_at_most_0_6_of_the_block_jacobi_iterations(monkeypatch):
    # the yardstick's Lagrangian run, with the z-line sweep and with block
    # Jacobi over the same lines (measured: 235 against 449 iterations)
    form, n, dt, t_end = _load_yardstick().CASES["lagrangian n=32"]
    cfg = RunConfig(form=form, n=n, dt=dt, horizon=t_end)
    sweep = run(cfg).iterations.sum()
    monkeypatch.setattr(sparse, "RedBlackLines", line_jacobi)
    assert sweep <= 0.6 * run(cfg).iterations.sum()


@pytest.mark.parametrize("case, path", list(YARDSTICK_BEFORE_CONTRACTION))
def test_every_path_within_its_yardstick_bound(yardstick_tables, case, path):
    # every column, per entry and by scale, within YARDSTICK_FACTOR times its
    # distance before the contraction
    got = yardstick_tables[case][path]
    before = YARDSTICK_BEFORE_CONTRACTION[case, path]
    for col, bound in zip(("l2", "linf", "final field", "L2 error"), before):
        distance = got[col]
        for kind in (0, 1):
            assert distance[kind] <= YARDSTICK_FACTOR * bound[kind], (col, kind, distance, bound)


def test_selfsimilar_two_steps_match_manual():
    # step k solves with the implicit side of A(k ds) and the explicit side of
    # A((k-1) ds), then applies the reaction factor e^{sigma2 ds}
    cfg = RunConfig(form="selfsimilar", n=10, dt=0.05, horizon=math.expm1(0.1),
                    theta=0.75, sigma1=0.5)
    traj = run_selfsimilar(cfg)
    assert len(traj.times) == 3
    mesh = traj.final.mesh
    blocks = assemble_blocks(mesh)
    x = project_initial(mesh, analytic.gaussian_ic).values
    ds = cfg.dt
    increment = np.zeros_like(x)  # the second solve starts from x + (y - x) of the first
    for k in (1, 2):
        a_new = blocks.selfsimilar(k * ds, cfg.sigma1)
        a_old = blocks.selfsimilar((k - 1) * ds, cfg.sigma1)
        lhs = blocks.matrix(MASS + ds * cfg.theta * a_new)
        rhs = blocks.matrix(MASS - ds * (1 - cfg.theta) * a_old).matvec(x)
        y, stats = sparse.solve(lhs, rhs, sparse.jacobi(lhs), tol=cfg.tol, x0=x + increment)
        assert stats.converged
        increment = y - x
        x = math.exp(cfg.sigma2 * ds) * y
    assert np.max(np.abs(traj.final.values - x)) < 1e-12


def test_selfsimilar_reaction_update_is_exact_exponential():
    # with theta=1 and sigma1=1, per-step M-norm growth is bounded by the
    # reaction factor: ||g^{n+1}|| <= e^{sigma2 ds} (1 + 2 ds) ||g^n||
    cfg = RunConfig(form="selfsimilar", n=16, dt=0.02, horizon=1.0, theta=1.0, sigma1=1.0)
    traj = run_selfsimilar(cfg)
    bound = math.exp(cfg.sigma2 * cfg.dt) * (1.0 + 2.0 * cfg.dt)
    ratios = traj.l2[1:] / np.maximum(traj.l2[:-1], 1e-300)
    assert np.all(ratios <= bound + 1e-12)


def test_selfsimilar_warns_on_small_domain():
    cfg = RunConfig(form="selfsimilar", domain=RectDomain.square(0.5), n=8,
                    dt=0.05, horizon=0.5)
    with pytest.warns(RuntimeWarning):
        run_selfsimilar(cfg)


def test_selfsimilar_no_warning_on_admissible_domain():
    import warnings
    cfg = RunConfig(form="selfsimilar", domain=RectDomain.square(1.0), n=8,
                    dt=0.05, horizon=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_selfsimilar(cfg)


def test_truncated_original_norm_non_increasing():
    cfg = RunConfig(form="original", domain=RectDomain.square(2.0), n=24,
                    dt=0.02, horizon=1.0)
    traj = run_original(cfg)
    assert np.all(np.diff(traj.l2) <= 1e-12)


def test_a_run_gives_the_same_bits_after_other_runs():
    # compare runs the three forms in one process; each run takes fresh work
    # vectors, so what earlier runs left in memory cannot reach a later one
    script = ("import sys; from kfplab.solvers import RunConfig, run\n"
              "t = run(RunConfig(form='selfsimilar', n=16, dt=0.05, horizon=1.0))\n"
              "sys.stdout.write(b''.join(a.tobytes() for a in (t.l2, t.linf, t.iterations, t.final.values)).hex())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    alone = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                           capture_output=True, text=True, check=True).stdout
    for form in ("original", "lagrangian"):
        run(RunConfig(form=form, n=16, dt=0.05, horizon=1.0))
    t = run(RunConfig(form="selfsimilar", n=16, dt=0.05, horizon=1.0))
    assert b"".join(a.tobytes() for a in (t.l2, t.linf, t.iterations, t.final.values)).hex() == alone


def test_a_step_allocates_neither_solver_vectors_nor_sides(monkeypatch):
    # The run owns BiCGStab's work vectors, the data of both theta sides, the
    # right-hand side, the start, the solve increments and the transport's
    # gather, and records the norms in a work row; the sheared form's packed
    # solve carves its vectors from the work rows too. From the end of one
    # solve to the end of the next, a step then holds a few vectors more
    # than before: its split update, solver and solution (measured at most
    # 4.19 vectors, 2.10 in the original form and 2.07 in the sheared one;
    # 5.04, 3.14 and 4.2 when each step allocated its own). A solve with
    # vectors of its own peaks near 13, and two new sides take 14. Freed at
    # the top of the heap on every step, those let malloc trim the pages
    # that the next step faults in again; page-fault counts depend on the
    # host, this bound does not.
    peaks, base = [], []
    inner = solvers._theta_step

    def traced_step(*args):
        result = inner(*args)
        if base:
            peaks.append((tracemalloc.get_traced_memory()[1] - base[0]) / args[4].nbytes)  # args[4] is x
        tracemalloc.reset_peak()
        base[:] = [tracemalloc.get_traced_memory()[0]]
        return result
    monkeypatch.setattr(solvers, "_theta_step", traced_step)
    configs = [RunConfig(form=form, n=48, dt=0.05, horizon=1.0) for form in solvers.FORMS]
    tracemalloc.start()
    try:
        for config in configs:
            base.clear()
            run(config)
    finally:
        tracemalloc.stop()
    assert len(peaks) == sum(config.steps - 1 for config in configs)
    assert max(peaks) <= 6.0, max(peaks)


# --------------------------------------------------------------- config guard

def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(form="nope")
    with pytest.raises(ValueError):
        RunConfig(dt=0.0)
    with pytest.raises(ValueError):
        RunConfig(theta=1.2)
    with pytest.raises(ValueError):
        RunConfig(sigma1=1.01)
    for bad in (dict(dt=math.nan), dict(horizon=math.inf), dict(theta=math.nan),
                dict(sigma1=math.nan), dict(sigma1=-math.inf), dict(tol=math.nan),
                dict(tol=0.0), dict(snapshot_stride=-1),
                dict(n=0), dict(n=4.0),
                # the run's largest array, the (2, 7, (n + 1)^2) rows of the
                # self-similar theta sides, passes numpy's size limit
                dict(n=286_969_573), dict(n=10 ** 20),
                # the cell area h_v h_z / 2 underflows or overflows, and
                # h_z / h_v overflows
                dict(domain=RectDomain(0.0, 1e-300, 0.0, 1e-300), n=4),
                dict(domain=RectDomain(0.0, 1e200, 0.0, 1e200), n=4),
                dict(domain=RectDomain(0.0, 1e-300, 0.0, 1e300), n=4),
                # horizon / dt overflows, or passes 2^53 steps, and the
                # self-similar growth factor exp(sigma2 * dt) overflows
                dict(form="lagrangian", dt=1e-320, horizon=10.0),
                dict(form="original", dt=1e-300, horizon=10.0),
                dict(form="selfsimilar", sigma1=-1e6),
                dict(form="selfsimilar", dt=1e300, horizon=1.0)):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    assert RunConfig(sigma1=0.25).sigma2 == 1.75
    assert RunConfig(n=286_969_572).n == 286_969_572


def test_exact_splitting_random_systems():
    # the sigma2 shift is a multiple of the identity, so splitting it off as
    # the scalar factor e^{sigma2 dt} is exact up to rounding
    from scipy.linalg import expm

    dim, dt, sigma2 = 5, 0.3, 1.0
    for seed in range(20):
        k = np.random.default_rng(seed).standard_normal((dim, dim))
        lhs = expm(dt * (k + sigma2 * np.eye(dim)))
        rhs = math.exp(sigma2 * dt) * expm(dt * k)
        assert np.linalg.norm(lhs - rhs) / np.linalg.norm(expm(dt * k)) <= 1e-12


def test_late_window_steady_behavior():
    # the rescaled norm plateaus once near the steady state (< 2% variation
    # over s in [5, 10]) while the truncated original and Lagrangian norms
    # keep falling over the matching physical window
    ss = run(RunConfig(form="selfsimilar", n=64, dt=0.02, horizon=math.expm1(10.0)))
    w = (ss.times >= 5.0) & (ss.times <= 10.0)
    plateau = (ss.l2[w].max() - ss.l2[w].min()) / ss.l2[w].min()
    assert plateau < 0.02

    for form in ("original", "lagrangian"):
        traj = run(RunConfig(form=form, n=64, dt=0.02, horizon=10.0))
        w = (traj.times >= math.expm1(1.5)) & (traj.times <= 10.0)
        assert np.all(np.diff(traj.l2[w]) < 0.0)
