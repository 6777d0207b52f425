import math
import tracemalloc
import warnings

import numpy as np
import pytest

from kfplab import analytic
from kfplab.analysis import (
    decay_fit,
    envelope_check,
    fit_power_law,
    l2_error,
    nested_configs,
    nested_domain_study,
    pairwise_orders,
    percent_diff,
    poincare_check,
)
from kfplab.mesh import Field, RectDomain, build_structured_mesh
from kfplab.solvers import RunConfig, project_initial, run
from test_assembly import element_blocks
from test_mesh import (
    edge_midpoints,
    element_areas,
    interior_count,
    interior_mask,
    midpoint_quadrature,
    per_element,
)

UNIT = RectDomain(0.0, 1.0, 0.0, 1.0)


# ------------------------------------------------------------------ l2_error

def test_l2_error_zero_for_linear_reference():
    mesh = build_structured_mesh(RectDomain(-2.0, 3.0, 0.0, 4.0), 7)
    ref = lambda v, z: 1.5 * v - 0.7 * z + 2.0
    f = Field(mesh, ref(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    assert l2_error(f, ref) < 1e-12


def test_l2_error_constant_one_vs_zero():
    mesh = build_structured_mesh(UNIT, 5)
    f = Field(mesh, np.ones(mesh.node_count))
    assert l2_error(f, lambda v, z: np.zeros_like(v)) == pytest.approx(1.0, rel=1e-13)


def test_l2_error_of_sampled_smooth_reference_is_interpolation_error():
    # sampling the reference at nodes leaves the O(h^2) interpolation error
    mesh = build_structured_mesh(UNIT, 16)
    ref = lambda v, z: np.sin(np.pi * v) * np.sin(np.pi * z)
    f = Field(mesh, ref(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    err = l2_error(f, ref)
    assert err > 1e-4  # genuinely nonzero


def refined_l2_error(field, ref, k=8):
    """Independent oracle: midpoint rule on every triangle subdivided into
    k^2 congruent subtriangles (the integrand is smooth within elements)."""
    from kfplab.mesh import interpolate_many

    mesh = field.mesh
    p = per_element(mesh, mesh.nodes)
    w = element_areas(mesh) / (k * k) / 3.0
    total = 0.0
    for i in range(k):
        for j in range(k - i):
            l0 = np.array([i, j], float) / k
            subs = [np.array([l0, l0 + [1 / k, 0], l0 + [0, 1 / k]])]
            if i + j < k - 1:
                subs.append(np.array([l0 + [1 / k, 0], l0 + [1 / k, 1 / k], l0 + [0, 1 / k]]))
            for tri in subs:
                mids = 0.5 * (tri + np.roll(tri, -1, axis=0))
                for xi, eta in mids:
                    pts = p[:, 0] + xi * (p[:, 1] - p[:, 0]) + eta * (p[:, 2] - p[:, 0])
                    diff = interpolate_many(field, pts) - ref(pts[:, 0], pts[:, 1])
                    total += float(np.sum(w * diff ** 2))
    return math.sqrt(total)


def test_l2_error_against_refined_quadrature_oracle():
    # the 3-midpoint rule carries a known systematic overestimate on fields
    # whose deviation is pure within-element interpolation residual; the
    # measured factor for the projected Gaussian is ~1.12 and is stable in h
    mesh = build_structured_mesh(RectDomain.square(10.0), 64)
    f = project_initial(mesh, analytic.gaussian_ic)
    got = l2_error(f, analytic.gaussian_ic)
    oracle = refined_l2_error(f, analytic.gaussian_ic, k=8)
    assert 1.0 <= got / oracle <= 1.15


def test_l2_error_tight_when_deviation_is_p1():
    # when the deviation from the reference is itself a P1 function the
    # midpoint rule integrates it exactly and matches the mass-matrix norm
    mesh = build_structured_mesh(RectDomain.square(10.0), 48)
    rng = np.random.default_rng(12)
    p = rng.uniform(-1.0, 1.0, mesh.node_count)
    ref = analytic.gaussian_ic
    f = Field(mesh, ref(mesh.nodes[:, 0], mesh.nodes[:, 1]) + p)
    got = l2_error(f, ref)
    # p's mass norm over the whole mesh, boundary nodes included
    p_el = per_element(mesh, p)
    mass_norm = math.sqrt(np.einsum("ei,eij,ej->", p_el, element_blocks(mesh)["mass"], p_el))
    # residual of the smooth reference contributes ~(0.04/8)^2 relatively
    assert got == pytest.approx(mass_norm, rel=1e-3)


def per_element_l2_error(field, reference):
    """The oracle of l2_error: the same midpoint rule, on per-element arrays
    of the vertices and the edge midpoints."""
    mesh = field.mesh
    pts, w = midpoint_quadrature(mesh)
    u_mid = edge_midpoints(per_element(mesh, field.values))
    ref = reference(pts[:, :, 0], pts[:, :, 1])
    return math.sqrt(float(np.sum(w[:, None] * (u_mid - ref) ** 2)))


@pytest.mark.parametrize("n", [1, 2, 7, 64])
def test_l2_error_matches_the_per_element_oracle(n):
    # h_v != h_z, and a reference that is no polynomial
    mesh = build_structured_mesh(RectDomain(-3.0, 5.0, -2.0, 4.0), n)
    f = Field(mesh, np.random.default_rng(n).standard_normal(mesh.node_count))
    ref = lambda v, z: np.sin(v) * np.cos(0.7 * z) + 0.1 * v * z
    want = per_element_l2_error(f, ref)
    assert abs(l2_error(f, ref) - want) <= 1e-14 * want


def test_l2_error_allocates_no_per_element_arrays():
    # the per-element rule took 4.8 MB at n = 128; the corner slices stay
    # under 1.5 MB, about 11 node vectors
    mesh = build_structured_mesh(RunConfig().domain, 128)
    f = project_initial(mesh, analytic.gaussian_ic)
    ref = lambda v, z: analytic.exact_selfsimilar(1.0, v, z)
    l2_error(f, ref)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        l2_error(f, ref)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6


def test_l2_error_triangle_inequality():
    mesh = build_structured_mesh(UNIT, 6)
    rng = np.random.default_rng(0)
    ref = lambda v, z: np.cos(v) * z
    for _ in range(10):
        a = Field(mesh, rng.standard_normal(mesh.node_count))
        b = Field(mesh, rng.standard_normal(mesh.node_count))
        mid = Field(mesh, 0.5 * (a.values + b.values))
        assert l2_error(a, ref) + l2_error(b, ref) >= 2 * l2_error(mid, ref) - 1e-12


# --------------------------------------------------------------- percent_diff

def test_percent_diff_zero_when_equal():
    mesh = build_structured_mesh(UNIT, 8)
    ref = lambda v, z: np.exp(-v - z)
    f = Field(mesh, ref(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    pd = percent_diff(f, ref)
    assert np.all(pd.values == 0.0)


def test_percent_diff_homogeneity():
    mesh = build_structured_mesh(UNIT, 12)
    ref = lambda v, z: 1.0 + v * z
    f = Field(mesh, 1.1 * ref(mesh.nodes[:, 0], mesh.nodes[:, 1]))
    pd = percent_diff(f, ref)
    # aggregate L2 of the percent field recovers the 10 percent deviation
    agg = l2_error(Field(mesh, pd.values), lambda v, z: np.zeros_like(v))
    assert agg == pytest.approx(10.0, rel=0.02)


def test_percent_diff_rejects_zero_reference():
    mesh = build_structured_mesh(UNIT, 4)
    f = Field(mesh, np.ones(mesh.node_count))
    with pytest.raises(ValueError):
        percent_diff(f, lambda v, z: np.zeros_like(v))


def test_percent_diff_interior_dominated_for_selfsimilar_run():
    cfg = RunConfig(form="selfsimilar", n=32, dt=0.01, horizon=10.0)
    traj = run(cfg)
    sf = traj.final.time
    pd = percent_diff(traj.final, lambda a, b: analytic.exact_selfsimilar(sf, a, b))
    mesh = traj.final.mesh
    near_boundary = np.zeros(mesh.node_count, dtype=bool)
    iv = np.tile(np.arange(mesh.n + 1), mesh.n + 1)
    iz = np.repeat(np.arange(mesh.n + 1), mesh.n + 1)
    ring = 2
    near_boundary |= (iv <= ring) | (iv >= mesh.n - ring) | (iz <= ring) | (iz >= mesh.n - ring)
    assert pd.values[~near_boundary].max() > 10.0 * pd.values[near_boundary].max()


# ------------------------------------------------------------------ the fits

def test_fit_power_law_exact():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    fit = fit_power_law(h, h ** 2)
    assert fit.coefficient == pytest.approx(1.0, rel=1e-12)
    assert fit.exponent == pytest.approx(2.0, abs=1e-12)
    assert fit.residual < 1e-12
    orders = pairwise_orders(h, h ** 2)
    assert np.allclose(orders, 2.0, atol=1e-12)


def test_fit_requires_three_points():
    with pytest.raises(ValueError):
        fit_power_law(np.array([1.0, 0.5]), np.array([1.0, 0.25]))


def test_pairwise_orders_match_halving_formula():
    h = np.array([1.0, 0.5, 0.25, 0.125])
    e = np.array([6.28e-1, 9.91e-2, 2.71e-2, 6.94e-3])
    orders = pairwise_orders(h, e)
    want = np.log(e[:-1] / e[1:]) / np.log(2.0)
    assert np.allclose(orders, want, rtol=1e-14)


def test_decay_fit_power_exact():
    t = np.linspace(1.0, 9.0, 12)
    fit = decay_fit(t, t ** -2, kind="power")
    assert fit.exponent == pytest.approx(-2.0, abs=1e-12)


def test_decay_fit_exponential_exact():
    lam = 0.73
    t = np.linspace(0.5, 6.0, 15)
    fit = decay_fit(t, np.exp(-lam * t), kind="exponential")
    assert fit.exponent == pytest.approx(-lam, abs=1e-10)


def test_decay_fit_rejects_nonpositive_norms():
    with pytest.raises(ValueError):
        decay_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.0, 1.0]))
    with pytest.raises(ValueError):
        decay_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 1.0, 1.0]), kind="bogus")
    with pytest.raises(ValueError, match="positive"):  # every Trajectory starts at t = 0
        decay_fit(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.25]), kind="power")
    with pytest.raises(ValueError, match="at least 3 points"):  # a window that keeps two
        decay_fit(np.array([1.0, 2.0, 3.0]), np.array([1.0, 0.5, 0.25]), window=(1.5, 3.0))


def test_decay_fit_window_selection():
    t = np.array([0.5, 1.0, 2.0, 3.0, 4.0, 50.0])
    n = t ** -1.5
    n[-1] = 1e9  # junk outside the window must be ignored
    fit = decay_fit(t, n, window=(1.0, 4.0), kind="power")
    assert fit.exponent == pytest.approx(-1.5, abs=1e-12)


# ------------------------------------------------------------- norm series

def test_norm_timeseries_zero_trajectory():
    cfg = RunConfig(form="original", n=6, dt=0.1, horizon=0.3)
    traj = run(cfg, lambda v, x: np.zeros(np.broadcast(np.asarray(v), np.asarray(x)).shape))
    times, l2, linf = traj.times, traj.l2, traj.linf
    assert np.all(l2 == 0.0) and np.all(linf == 0.0)
    assert len(times) == len(l2) == len(linf)


def test_envelope_check_cases():
    s = np.array([0.0, 0.5, 1.0])
    assert envelope_check(s, np.zeros(3), math.pi, 1.0) is True
    huge = np.array([0.0, 1e4, 1e4])
    assert envelope_check(s, huge, math.pi, 1.0) is False


# --------------------------------------------------------------- poincare

def test_poincare_random_fields_stay_below_one():
    mesh = build_structured_mesh(RectDomain.square(10.0), 16)
    for t in (0.0, 0.5, 1.0, 5.0):
        assert poincare_check(mesh, t, 100) <= 1.0


def test_poincare_single_hat_function():
    mesh = build_structured_mesh(UNIT, 2)  # one interior node
    worst = poincare_check(mesh, 0.0, 5)
    assert 0.0 < worst <= 1.0
    # closed form for the single hat: ratio = sqrt(x M x / x A x) / coef
    from kfplab.assembly import assemble_blocks
    blocks = assemble_blocks(mesh)
    x = np.zeros(mesh.node_count)
    x[interior_mask(mesh)] = 1.0
    want = math.sqrt((x @ blocks.mass.matvec(x)) / (x @ blocks.matrix(blocks.lagrangian(0.0)).matvec(x)))
    want /= analytic.poincare_coefficient(mesh.domain, 0.0)
    assert worst == pytest.approx(want, rel=1e-12)


def test_poincare_is_nan_when_the_form_overflows():
    mesh = build_structured_mesh(UNIT, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(poincare_check(mesh, 1e308, 2))


def test_poincare_rejects_zero_trials():
    mesh = build_structured_mesh(UNIT, 2)
    with pytest.raises(ValueError):
        poincare_check(mesh, 0.0, 0)


def test_poincare_rejects_a_mesh_without_interior_node():
    # at n = 1 every trial would be the zero field, and pass vacuously
    with pytest.raises(ValueError, match="no interior node"):
        poincare_check(build_structured_mesh(UNIT, 1), 0.0, 5)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_poincare_draws_each_trial_on_the_interior_mask(n):
    # the oracle fills the interior nodes through their mask, in node order
    mesh = build_structured_mesh(RectDomain(-1.0, 2.0, 0.5, 3.0), n)
    from kfplab.assembly import assemble_blocks
    blocks = assemble_blocks(mesh)
    a_t = blocks.matrix(blocks.lagrangian(0.7))
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(20):
        x = np.zeros(mesh.node_count)
        x[interior_mask(mesh)] = rng.uniform(-1.0, 1.0, interior_count(mesh))
        ratio = math.sqrt(float(x @ blocks.mass.matvec(x)) / float(x @ a_t.matvec(x)))
        worst = max(worst, ratio / analytic.poincare_coefficient(mesh.domain, 0.7))
    assert poincare_check(mesh, 0.7, 20, seed=5) == worst


# ------------------------------------------------------------ nested domains

def test_nested_configs_reject_repeated_scales():
    # a repeated scale would compare a run with itself, whose discrepancy of
    # 0 would read as convergence
    cfg = RunConfig(form="selfsimilar", n=16, dt=0.05, horizon=1.0)
    for scales in ([4.0, 4.0], [4.0, 6.0, 4.0], [4, 4.0]):
        with pytest.raises(ValueError, match="repeat"):
            nested_configs(cfg, scales)
        with pytest.raises(ValueError, match="repeat"):
            nested_domain_study(cfg, scales)


def test_nested_violating_scale_flagged():
    cfg = RunConfig(form="selfsimilar", n=16, dt=0.05, horizon=1.0)
    scales, diffs, flags = nested_domain_study(cfg, [0.5, 4.0, 6.0])
    assert flags[0] is True and flags[1] is False
