import importlib.util
import math
import os

import numpy as np
import pytest

from kfplab import analytic, sparse
from kfplab.analysis import final_errors, l2_error
from kfplab.assembly import assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh, interpolate_many
from kfplab.solvers import (
    RunConfig,
    SolverError,
    project_initial,
    run,
    run_lagrangian,
    run_original,
    run_selfsimilar,
)

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
    assert np.all(f.values[mesh.boundary] == 0.0)


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
    b = run(cfg, analytic.gaussian_ic.scaled(alpha))
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
    f0 = project_initial(mesh, analytic.gaussian_ic)
    x = f0.interior_values()
    lhs = sparse.combine([(1.0, blocks.mass), (cfg.dt * cfg.theta, blocks.d_vv)])
    rhs = sparse.combine([(1.0, blocks.mass), (-cfg.dt * (1 - cfg.theta), blocks.d_vv)]).matvec(x)
    y, stats = sparse.solve(lhs, rhs, tol=cfg.tol, x0=x)
    assert stats.converged
    half = f0.with_interior(y, cfg.dt)
    feet = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1] + mesh.nodes[:, 0] * cfg.dt])
    want = interpolate_many(half, feet)
    want[mesh.boundary] = 0.0
    assert np.max(np.abs(traj.final.values - want)) < 1e-12


def _per_form_loop(cfg):
    """Each form's step loop and norm recorder written out on its own, as
    they stood before the forms shared one loop. The original form
    interpolates at the feet of all nodes on every step and keeps the
    interior values; the self-similar form builds the next step's explicit
    side at the end of each step. Returns (times, l2, linf, snapshots)."""
    mesh = build_structured_mesh(cfg.domain, cfg.n)
    blocks = assemble_blocks(mesh)
    first = project_initial(mesh, analytic.gaussian_ic)
    mass = blocks.mass
    times, l2, linf, snapshots = [], [], [], []

    def record(step, time, x):
        linf.append(float(np.abs(x).max(initial=0.0)))
        k = math.frexp(linf[-1])[1]
        y = np.ldexp(x, -k)
        times.append(time)
        l2.append(math.ldexp(math.sqrt(max(y @ mass.matvec(y), 0.0)), k))
        if step in (0, cfg.steps) or step % cfg.snapshot_stride == 0:
            snapshots.append(first.with_interior(x, time))

    def sides(a):
        return (sparse.combine([(1.0, mass), (cfg.dt * cfg.theta, a)]),
                sparse.combine([(1.0, mass), (-cfg.dt * (1.0 - cfg.theta), a)]))

    def step_solve(lhs, precond, rhs_mat, x):
        x_new, stats = sparse.solve(lhs, rhs_mat.matvec(x), tol=cfg.tol, x0=x, precond=precond)
        assert stats.converged
        return x_new

    x = first.interior_values()
    record(0, 0.0, x)
    if cfg.form == "original":
        lhs, rhs_mat = sides(blocks.d_vv)
        feet = np.column_stack([mesh.nodes[:, 0], mesh.nodes[:, 1] + mesh.nodes[:, 0] * cfg.dt])
        for step in range(1, cfg.steps + 1):
            x = step_solve(lhs, sparse.jacobi(lhs), rhs_mat, x)
            x = interpolate_many(first.with_interior(x, step * cfg.dt), feet)[mesh.interior]
            record(step, step * cfg.dt, x)
    elif cfg.form == "lagrangian":
        for step in range(1, cfg.steps + 1):
            lhs, rhs_mat = sides(blocks.lagrangian((step - 1) * cfg.dt + 0.5 * cfg.dt))
            x = step_solve(lhs, sparse.line_jacobi(lhs), rhs_mat, x)
            record(step, step * cfg.dt, x)
    else:
        growth = math.exp(cfg.sigma2 * cfg.dt)
        explicit = sides(blocks.selfsimilar(0.0, cfg.sigma1))[1]
        for step in range(1, cfg.steps + 1):
            lhs, next_explicit = sides(blocks.selfsimilar(step * cfg.dt, cfg.sigma1))
            x = growth * step_solve(lhs, None, explicit, x)
            explicit = next_explicit
            record(step, step * cfg.dt, x)
    return times, l2, linf, snapshots


@pytest.mark.parametrize("form", ["original", "lagrangian", "selfsimilar"])
def test_every_form_records_the_bits_of_its_own_loop(form):
    # the one time loop gives each form's norms and snapshots bit for bit;
    # the original form's feet are located once, and interpolating at the
    # feet of all nodes on every step gives the same bits
    horizon = math.expm1(1.0) if form == "selfsimilar" else 1.0
    cfg = RunConfig(form=form, n=16, dt=0.05, horizon=horizon, snapshot_stride=7)
    assert cfg.steps == 20
    traj = run(cfg)
    times, l2, linf, snapshots = _per_form_loop(cfg)
    assert traj.times.tobytes() == np.array(times).tobytes()
    assert traj.l2.tobytes() == np.array(l2).tobytes()
    assert traj.linf.tobytes() == np.array(linf).tobytes()
    assert [f.time for f in traj.snapshots] == [f.time for f in snapshots] == [
        k * cfg.dt for k in (0, 7, 14, 20)]
    for got, want in zip(traj.snapshots, snapshots):
        assert got.values.tobytes() == want.values.tobytes()


def test_lagrangian_one_step_matches_manual():
    # one step = theta solve with the midpoint operator, preconditioned along
    # z-lines (offsets +-w, w = n - 1 = isqrt of the interior count)
    cfg = RunConfig(form="lagrangian", n=10, dt=0.05, horizon=0.05)
    traj = run_lagrangian(cfg)
    mesh = traj.final.mesh
    blocks = assemble_blocks(mesh)
    x = project_initial(mesh, analytic.gaussian_ic).interior_values()
    a_mid = blocks.lagrangian(0.5 * cfg.dt)
    lhs = sparse.combine([(1.0, blocks.mass), (cfg.dt * cfg.theta, a_mid)])
    rhs = sparse.combine([(1.0, blocks.mass), (-cfg.dt * (1 - cfg.theta), a_mid)]).matvec(x)
    y, _ = sparse.solve(lhs, rhs, tol=cfg.tol, x0=x, precond=sparse.line_jacobi(lhs))
    assert np.max(np.abs(traj.final.interior_values() - y)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_lagrangian_small_meshes_match_dense_steps(n, to_dense):
    # n = 1 has no interior unknown, n = 2 one and n = 3 a 2 x 2 grid: z-lines
    # of length 0, 1 and 2
    cfg = RunConfig(form="lagrangian", n=n, dt=0.1, horizon=0.3)
    traj = run_lagrangian(cfg)
    assert len(traj.times) == 4
    blocks = assemble_blocks(traj.final.mesh)
    x = project_initial(traj.final.mesh, analytic.gaussian_ic).interior_values()
    for step in range(3):
        a_mid = blocks.lagrangian((step + 0.5) * cfg.dt)
        lhs = to_dense(sparse.combine([(1.0, blocks.mass), (cfg.dt * cfg.theta, a_mid)]))
        rhs = sparse.combine([(1.0, blocks.mass), (-cfg.dt * (1 - cfg.theta), a_mid)]).matvec(x)
        x = np.linalg.solve(lhs, rhs) if len(x) else x
    got = traj.final.interior_values()
    assert got.shape == x.shape
    assert np.max(np.abs(got - x), initial=0.0) <= 1e-10 * np.max(np.abs(x), initial=1.0)


def _load_yardstick():
    spec = importlib.util.spec_from_file_location("yardstick", YARDSTICK_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_lagrangian_line_path_within_yardstick():
    # the z-line path at tol 1e-10 must lie no farther from the same run at
    # tol 1e-12 than the Jacobi path at tol 1e-10: per entry in the norm
    # series and the final L2 error, relative to its largest value in the
    # final field, whose entries reach down to 0 at the boundary
    table = _load_yardstick().yardstick(n=32, dt=0.1, t_end=10.0)
    lines, jacobi = table["z-lines"], table["Jacobi"]
    for col, kind in (("l2", 0), ("linf", 0), ("final field", 1), ("L2 error", 0)):
        assert lines[col][kind] <= jacobi[col][kind], col


def test_selfsimilar_two_steps_match_manual():
    # step k solves with the implicit side of A(k ds) and the explicit side of
    # A((k-1) ds), then applies the reaction factor e^{sigma2 ds}
    cfg = RunConfig(form="selfsimilar", n=10, dt=0.05, horizon=math.expm1(0.1),
                    theta=0.75, sigma1=0.5)
    traj = run_selfsimilar(cfg)
    assert len(traj.times) == 3
    mesh = traj.final.mesh
    blocks = assemble_blocks(mesh)
    x = project_initial(mesh, analytic.gaussian_ic).interior_values()
    ds = cfg.dt
    for k in (1, 2):
        a_new = blocks.selfsimilar(k * ds, cfg.sigma1)
        a_old = blocks.selfsimilar((k - 1) * ds, cfg.sigma1)
        lhs = sparse.combine([(1.0, blocks.mass), (ds * cfg.theta, a_new)])
        rhs = sparse.combine([(1.0, blocks.mass), (-ds * (1 - cfg.theta), a_old)]).matvec(x)
        y, stats = sparse.solve(lhs, rhs, tol=cfg.tol, x0=x)
        assert stats.converged
        x = math.exp(cfg.sigma2 * ds) * y
    assert np.max(np.abs(traj.final.interior_values() - x)) < 1e-12


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
                # the mesh's (2 n^2, 3, 3) element kernels pass numpy's size limit
                dict(n=253_083_375), dict(n=10 ** 20),
                # horizon / dt overflows, or passes 2^53 steps, and the
                # self-similar growth factor exp(sigma2 * dt) overflows
                dict(form="lagrangian", dt=1e-320, horizon=10.0),
                dict(form="original", dt=1e-300, horizon=10.0),
                dict(form="selfsimilar", sigma1=-1e6),
                dict(form="selfsimilar", dt=1e300, horizon=1.0)):
        with pytest.raises(ValueError):
            RunConfig(**bad)
    assert RunConfig(sigma1=0.25).sigma2 == 1.75
    assert RunConfig(n=253_083_374).n == 253_083_374


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
