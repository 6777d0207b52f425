"""Acceptance suite: one test per published-behavior criterion, each printing
a PASS/FAIL line with the measured numbers.

Five assertions are stated where the paper's claims hold for the exact
dynamics; notes/decisions.md gives, for each, the measured value, the
exact-dynamics value and why the window, time or scale was chosen:

* criterion 3: t^-2 is the asymptotic sup-norm rate; the exact dynamics fit
  to -1.8815 over t in [2, 20] and to -1.9909 over [20, 200], the window
  swept here,
* criterion 4: errors in different frames are compared relative to the
  exact solution's own L2 norm (the self-similar frame scales the L2 norm
  by e^s), and the original form, transported exactly along
  characteristics, is held to at most the published error,
* criterion 7: convergence to the steady state is read at s = 10; at
  s = 2.4 the exact solution itself is still 0.131 (sup) and 0.176 (L2)
  from it.
"""

import math
import warnings

import numpy as np
import pytest

from kfplab import analytic
from kfplab.analysis import (
    convergence_study,
    decay_fit,
    envelope_check,
    l2_error,
    nested_domain_study,
    poincare_check,
    reference_l2_norm,
)
from kfplab.assembly import assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh
from kfplab.solvers import RunConfig, run
from test_assembly import element_gradients
from test_mesh import interior_count, interior_mask, per_element

SQRT3 = math.sqrt(3.0)

TABLE1 = {"original": 0.0490644, "lagrangian": 0.0733016, "selfsimilar": 0.019473}
TABLE2_ERRORS = np.array([6.27854e-1, 9.90501e-2, 2.70934e-2, 6.94450e-3])
TABLE2_ORDERS = np.array([2.6642, 1.8702, 1.9640])
LONG_RUN_ERROR = 0.0107995


def report(criterion, passed, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if passed else 'FAIL'}: {detail}")


# ----------------------------------------------------------------- fixtures

@pytest.fixture(scope="session")
def table1_runs():
    runs = {}
    for form in ("original", "lagrangian", "selfsimilar"):
        cfg = RunConfig(form=form, n=128, dt=0.01, horizon=10.0, snapshot_stride=10)
        traj = run(cfg)
        final = traj.final
        ref = lambda a, b, f=form, t=final.time: analytic.exact_solution(f, t, (a, b))
        runs[form] = (traj, l2_error(final, ref), reference_l2_norm(final.mesh, ref))
    return runs


@pytest.fixture(scope="session")
def long_run():
    cfg = RunConfig(form="selfsimilar", n=128, dt=0.01, horizon=math.expm1(10.0))
    return run(cfg)


@pytest.fixture(scope="session")
def table2_study():
    base = RunConfig(form="selfsimilar", dt=0.01, horizon=math.expm1(10.0))
    return convergence_study(base, [1.0, 0.5, 0.25, 0.125])


# -------------------------------------------------------------- criteria 1-3

def test_criterion_01_kernel_norm_identity():
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        for q in (1, 2, 3, math.inf):
            closed = analytic.kernel_Lq_norm(t, q)
            quad = analytic.kernel_Lq_quadrature(t, q)
            worst = max(worst, abs(quad - closed) / closed)
    report(1, worst < 1e-6, f"kernel L^q quadrature vs closed form, worst rel {worst:.3e}")
    assert worst < 1e-6


def test_criterion_02_oracle_vs_closed_form():
    rng = np.random.default_rng(20)
    worst = 0.0
    for t in (0.5, 1.0, 5.0):
        pts = np.column_stack([rng.uniform(-1.5, 1.5, 20), rng.uniform(-2.0, 2.0, 20)])
        got = analytic.convolution_oracle(analytic.gaussian_ic, t, pts)
        want = analytic.exact_original(t, pts[:, 0], pts[:, 1])
        worst = max(worst, float(np.max(np.abs(got - want))))
    report(2, worst < 1e-6, f"convolution oracle vs closed form, worst abs {worst:.3e}")
    assert worst < 1e-6


def test_criterion_03_whole_space_decay():
    # the exact sup norm sqrt(3 / den(t)) has local exponent -(t/2) den'/den,
    # which passes -1.9 only at t ~ 5.5; t^-2 is the rate on later windows
    ts = np.geomspace(20.0, 200.0, 8)
    sups = np.array([analytic.oracle_sup_norm(analytic.gaussian_ic, t) for t in ts])
    fit = decay_fit(ts, sups, kind="power")
    ok = -2.1 <= fit.exponent <= -1.9
    report(3, ok, f"oracle sup-norm decay exponent over t in [20, 200] {fit.exponent:.4f} "
                  "(band [-2.1, -1.9]; exact-dynamics value on this window is -1.9909)")
    assert ok, (f"fit exponent {fit.exponent:.4f} outside [-2.1, -1.9] over t in [20, 200], "
                "where the exact dynamics fit to -1.9909; see notes/decisions.md")


# ------------------------------------------------------------- criteria 4-6

@pytest.mark.parametrize("form", ["original", "lagrangian", "selfsimilar"])
def test_criterion_04_table1_error_bands(table1_runs, form):
    err = table1_runs[form][1]
    target = TABLE1[form]
    # the original form's published error came from a transport step other
    # than the exact characteristic update used here, which may only be at
    # least as accurate; see notes/decisions.md
    lo, hi = (0.0, target) if form == "original" else (target / 2.0, target * 2.0)
    ok = lo <= err <= hi
    report(4, ok, f"{form} final L2 error {err:.7f} vs reference {target} "
                  f"(ratio {err / target:.3f}, band [{lo:.7g}, {hi:.7g}])")
    assert ok, f"{form} error {err:.7f} outside [{lo:.7g}, {hi:.7g}]; see notes/decisions.md"


def test_criterion_04_table1_ordering(table1_runs):
    # relative errors: each frame's L2 norm carries its own scale (e^s in the
    # self-similar frame), so absolute errors are not comparable across frames
    e = {f: table1_runs[f][1] / table1_runs[f][2] for f in TABLE1}
    ok = e["selfsimilar"] < e["original"] < e["lagrangian"]
    report(4, ok, "relative-error ordering selfsimilar < original < lagrangian: "
                  f"{e['selfsimilar']:.4f}, {e['original']:.4f}, {e['lagrangian']:.4f}")
    assert ok, f"relative error ordering violated: {e}"


def test_criterion_05_table2_reproduction(table2_study):
    reportv, fit = table2_study
    err_ok = np.all((reportv.l2_error >= TABLE2_ERRORS / 2.0)
                    & (reportv.l2_error <= TABLE2_ERRORS * 2.0))
    ord_ok = np.all(np.abs(reportv.order - TABLE2_ORDERS) <= 0.2)
    fit_ok = 1.85 <= fit.exponent <= 2.2
    report(5, err_ok and ord_ok and fit_ok,
           f"errors {np.array2string(reportv.l2_error, precision=4)} "
           f"orders {np.array2string(reportv.order, precision=3)} fit p={fit.exponent:.4f}")
    assert err_ok and ord_ok and fit_ok


def test_criterion_06_long_run_error(long_run):
    final = long_run.final
    err = l2_error(final, lambda a, b: analytic.exact_selfsimilar(final.time, a, b))
    ok = LONG_RUN_ERROR / 2.0 <= err <= LONG_RUN_ERROR * 2.0
    report(6, ok, f"L2 error at s=10, n=128: {err:.7f} vs reference {LONG_RUN_ERROR} "
                  f"(ratio {err / LONG_RUN_ERROR:.3f})")
    assert ok


# --------------------------------------------------------------- criterion 7

def test_criterion_07_steady_state_sup_norm(long_run):
    # convergence to the steady state is a long-time statement: at s=2.4 the
    # exact solution's own gap is 0.131, at s=10 it is 6e-5
    linf_end = long_run.linf[-1]
    gap = abs(linf_end - SQRT3 / 2)
    ok = gap <= 0.02
    report(7, ok, f"sup norm at s={long_run.final.time:.1f}: {linf_end:.4f}, "
                  f"gap to sqrt(3)/2 = {gap:.4f}")
    assert ok, f"sup norm gap {gap:.4f} > 0.02 at s=10; see notes/decisions.md"


def test_criterion_07_steady_state_l2_distance(long_run):
    # at s=2.4 the exact solution is 0.176 away in L2, at s=10 8e-5
    dist = l2_error(long_run.final, analytic.steady_state)
    ok = dist <= 0.05
    report(7, ok, f"L2 distance to steady state at s={long_run.final.time:.1f}: {dist:.4f}")
    assert ok, f"distance {dist:.4f} > 0.05 at s=10; see notes/decisions.md"


def test_criterion_07_steady_state_distance_monotone(table1_runs):
    traj = table1_runs["selfsimilar"][0]
    window = [f for f in traj.snapshots if 1.5 <= f.time <= 2.4 + 1e-12]
    dists = [l2_error(f, analytic.steady_state) for f in window]
    ok = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    report(7, ok, f"distance to steady state non-increasing over s in [1.5, 2.4]: "
                  f"{dists[0]:.4f} -> {dists[-1]:.4f}")
    assert len(dists) >= 3
    assert ok


# --------------------------------------------------------------- criterion 8

def test_criterion_08_nonmonotone_sup_norm(table1_runs):
    traj = table1_runs["selfsimilar"][0]
    times, linf = traj.times, traj.linf
    interior_max = float(linf[1:-1].max())
    non_monotone = interior_max > linf[0] and interior_max > linf[-1]
    env_ok = envelope_check(times, linf, math.pi, 1.0)
    report(8, non_monotone and env_ok,
           f"sup norm: start {linf[0]:.3f}, interior max {interior_max:.3f} at "
           f"s={times[np.argmax(linf)]:.2f}, end {linf[-1]:.3f}; envelope ok: {env_ok}")
    assert non_monotone and env_ok


# --------------------------------------------------------------- criterion 9

@pytest.fixture(scope="session")
def truncated_runs():
    dom = RectDomain.square(2.0)
    orig = run(RunConfig(form="original", domain=dom, n=64, dt=0.01, horizon=5.0))
    lagr = run(RunConfig(form="lagrangian", domain=dom, n=64, dt=0.01, horizon=5.0))
    return orig, lagr


def test_criterion_09_truncated_spurious_decay(truncated_runs):
    orig, lagr = truncated_runs
    fit = decay_fit(orig.times, orig.l2, window=(1.0, 5.0), kind="exponential")
    slope_ok = fit.exponent <= -0.1125
    faster_ok = lagr.l2[-1] < orig.l2[-1]
    report(9, slope_ok and faster_ok,
           f"truncated log-L2 slope {fit.exponent:.4f} (bound -0.1125); "
           f"lagrangian at t=5 {lagr.l2[-1]:.3e} < original {orig.l2[-1]:.3e}: {faster_ok}")
    assert slope_ok and faster_ok


# -------------------------------------------------------------- criterion 10

def splitting_gap(dim, dt, sigma2, seed):
    """Relative gap || expm(dt (K + s2 I)) - e^{s2 dt} expm(dt K) || / || expm(dt K) ||
    for a random dense K; scalar multiples of the identity commute with
    everything, so the gap is rounding error only."""
    from scipy.linalg import expm

    k = np.random.default_rng(seed).standard_normal((dim, dim))
    lhs = expm(dt * (k + sigma2 * np.eye(dim)))
    rhs = math.exp(sigma2 * dt) * expm(dt * k)
    return float(np.linalg.norm(lhs - rhs) / np.linalg.norm(expm(dt * k)))


def test_criterion_10_exact_splitting_matrix_identity():
    worst = max(splitting_gap(5, 0.3, 1.0, seed=s) for s in range(20))
    report(10, worst <= 1e-12, f"matrix-level splitting identity, worst rel {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_10_split_choice_vanishes_with_step():
    def discrepancy(ds):
        horizon = math.expm1(1.0)
        a = run(RunConfig(form="selfsimilar", n=48, dt=ds, horizon=horizon, sigma1=1.0))
        b = run(RunConfig(form="selfsimilar", n=48, dt=ds, horizon=horizon, sigma1=0.5))
        # both fields are 0 on the boundary, the frame the mass matrix acts on
        diff = a.final.values - b.final.values
        M = assemble_blocks(a.final.mesh).mass
        return math.sqrt(diff @ M.matvec(diff))

    d_coarse, d_fine = discrepancy(0.02), discrepancy(0.01)
    ratio = d_coarse / d_fine
    report(10, ratio >= 3.5, f"sigma1 split discrepancy at s=1: {d_coarse:.3e} -> "
                             f"{d_fine:.3e}, shrink factor {ratio:.2f} (need >= 3.5)")
    assert ratio >= 3.5


# -------------------------------------------------------------- criterion 11

def test_criterion_11_discrete_energy_identities():
    mesh = build_structured_mesh(RectDomain.square(2.0), 12)
    blocks = assemble_blocks(mesh)
    grads, areas = element_gradients(mesh)
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(20):
        x = np.zeros(mesh.node_count)
        x[interior_mask(mesh)] = rng.uniform(-1.0, 1.0, interior_count(mesh))
        m_sq = float(x @ blocks.mass.matvec(x))
        for s, sigma1 in ((0.0, 0.3), (0.5, 1.0), (2.0, -0.5)):
            a = 1.0 - math.exp(-s)
            dir_sq = float(x @ blocks.matrix([0.0, 1.0, a * a, a, 0.0]).matvec(x))
            lhs = float(x @ blocks.matrix(blocks.selfsimilar(s, sigma1)).matvec(x))
            rhs = dir_sq + (1.0 - sigma1) * m_sq
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
        for t in (0.0, 1.0, 3.7):
            ue = per_element(mesh, x)
            gv = np.einsum("ei,ei->e", ue, grads[:, :, 0])
            gz = np.einsum("ei,ei->e", ue, grads[:, :, 1])
            direct = float(np.sum(areas * (gv + t * gz) ** 2))
            got = float(x @ blocks.matrix(blocks.lagrangian(t)).matvec(x))
            worst = max(worst, abs(got - direct) / max(direct, 1e-300))
    report(11, worst <= 1e-12, f"energy identities on 20 random fields, worst rel {worst:.3e}")
    assert worst <= 1e-12


# -------------------------------------------------------------- criterion 12

def test_criterion_12_poincare_suite():
    mesh = build_structured_mesh(RectDomain.square(10.0), 24)
    worst = 0.0
    for t in np.arange(0.0, 5.0 + 1e-12, 0.25):
        worst = max(worst, poincare_check(mesh, float(t), 1000, seed=1000 + int(4 * t)))
    report(12, worst <= 1.0, f"directional Poincare worst ratio {worst:.4f} over "
                             "1000 fields x 21 slopes")
    assert worst <= 1.0


# -------------------------------------------------------------- criterion 13

def test_criterion_13_nested_domains():
    cfg = RunConfig(form="selfsimilar", n=80, dt=0.01, horizon=10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        scales, diffs, flags = nested_domain_study(cfg, [4.0, 6.0, 8.0, 10.0])
    ok = not any(flags) and np.all(np.diff(diffs) < 0)
    report(13, ok, f"inner-region discrepancies {np.array2string(diffs, precision=3)} "
                   "strictly decreasing")
    assert ok


# -------------------------------------------------------------- criterion 14

def test_criterion_14_domain_condition_truth_table():
    cases = [
        (RectDomain.square(10.0), True),
        (RectDomain(0.0, 1.0, 0.0, 1.0), False),
        (RectDomain(0.0, 2.0, 0.0, 10.0), True),
    ]
    ok = all(analytic.domain_condition(d) is want for d, want in cases)
    report(14, ok, "domain size condition truth table (3 worked cases)")
    assert ok


def test_criterion_14_violating_domain_warns_and_decays():
    # side length 1 violates the condition (second worked case of the truth
    # table); [-1, 1]^2 has side 2 > sqrt(2) and is admissible, so the decay
    # check runs on [-0.5, 0.5]^2
    assert analytic.domain_condition(RectDomain.square(1.0)) is True
    cfg = RunConfig(form="selfsimilar", domain=RectDomain.square(0.5), n=32,
                    dt=0.01, horizon=math.expm1(4.0))
    with pytest.warns(RuntimeWarning):
        traj = run(cfg)
    final_ratio = traj.l2[-1] / traj.l2[0]
    tail = traj.l2[len(traj.l2) // 2:]
    decaying = final_ratio < 1e-3 and np.all(np.diff(tail) < 0)
    report(14, decaying, f"violating domain: warning emitted, norm ratio "
                         f"{final_ratio:.2e}, tail strictly decreasing")
    assert decaying
