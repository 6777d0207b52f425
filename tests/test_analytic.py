import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from kfplab import analytic
from kfplab.analytic import (
    GaussianSum,
    convolution_oracle,
    domain_condition,
    exact_lagrangian,
    exact_original,
    exact_selfsimilar,
    gaussian_ic,
    kernel_G,
    kernel_Lq_norm,
    kernel_Lq_quadrature,
    linf_envelope,
    poincare_constant,
    steady_state,
)
from kfplab.mesh import RectDomain

SQRT3 = math.sqrt(3.0)
TWO_TERMS = GaussianSum([(1.0, 0.0, 0.0, 1.0, 1.0), (0.5, 0.8, -0.5, 2.0, 1.5)])


# --------------------------------------------------------------------- kernel

def test_kernel_value_at_origin():
    assert kernel_G(1.0, 0.0, 0.0) == pytest.approx(SQRT3 / (2 * math.pi), rel=1e-12)


def test_kernel_at_tiny_time_is_zero_without_warning():
    # the exponent's quotient overflows at t = 1e-107, and exp(-inf) = 0 is
    # the exact limit; as under python -W error, a warning would raise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernel_G(1e-107, 1.0, 1.0) == 0.0
        assert kernel_G(1e-107, np.array([0.0, 1.0]), 0.0).tolist() == [
            SQRT3 / (2 * math.pi * 1e-107 * 1e-107), 0.0]


def test_kernel_even_symmetry():
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = rng.uniform(0.1, 5.0)
        v, z = rng.uniform(-3, 3, 2)
        assert kernel_G(t, -v, -z) == pytest.approx(kernel_G(t, v, z), rel=1e-14)


def test_kernel_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        kernel_G(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        kernel_Lq_norm(-1.0, 2)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_kernel_unit_mass_by_quadrature(t):
    assert kernel_Lq_quadrature(t, 1) == pytest.approx(1.0, abs=1e-8)


def test_kernel_lq_norm_values():
    assert kernel_Lq_norm(1.0, 1) == pytest.approx(1.0, rel=1e-14)
    assert kernel_Lq_norm(2.5, 1) == pytest.approx(1.0, rel=1e-14)
    assert kernel_Lq_norm(1.0, math.inf) == pytest.approx(SQRT3 / (2 * math.pi), rel=1e-12)
    want = 2 ** -0.5 * (SQRT3 / (2 * math.pi)) ** 0.5
    assert kernel_Lq_norm(1.0, 2) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.3712576, abs=1e-6)
    for q in (0.5, math.nan):
        with pytest.raises(ValueError):
            kernel_Lq_norm(1.0, q)
        with pytest.raises(ValueError):
            kernel_Lq_quadrature(1.0, q)


# one rule for every function of the kernel time; 4 t^3 overflows at
# t = 4e102 and t = 1e200, and underflows to 0 at t = 1e-110
@pytest.mark.parametrize("fn", [
    lambda t: kernel_G(t, 0.0, 0.0), lambda t: kernel_Lq_norm(t, 2),
    lambda t: kernel_Lq_quadrature(t, 2), lambda t: kernel_Lq_quadrature(t, math.inf),
    lambda t: convolution_oracle(gaussian_ic, t, [[0.0, 0.0]]),
    lambda t: analytic.oracle_sup_norm(gaussian_ic, t)],
    ids=["kernel_G", "kernel_Lq_norm", "kernel_Lq_quadrature", "kernel_Lq_quadrature-inf",
         "convolution_oracle", "oracle_sup_norm"])
@pytest.mark.parametrize("t", [1e200, 4e102, 1e-110, math.nan, math.inf, 0.0, -1.0])
def test_kernel_time_rule(fn, t):
    with pytest.raises(ValueError):
        fn(t)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("q", [1, 2, 3, math.inf])
def test_kernel_lq_closed_form_vs_quadrature(t, q):
    closed = kernel_Lq_norm(t, q)
    quad = kernel_Lq_quadrature(t, q)
    assert abs(quad - closed) / closed < 1e-6


def test_kernel_scaling_structure():
    # G_t(v, z) = t^-2 G_1(v t^-1/2, z t^-3/2)
    rng = np.random.default_rng(1)
    for _ in range(50):
        t = rng.uniform(0.2, 4.0)
        v, z = rng.uniform(-2, 2, 2)
        lhs = kernel_G(t, v, z)
        rhs = t ** -2 * kernel_G(1.0, v * t ** -0.5, z * t ** -1.5)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ----------------------------------------------------------- exact solutions

def test_exact_original_reduces_to_ic_at_t0():
    rng = np.random.default_rng(2)
    v, x = rng.uniform(-2, 2, (2, 50))
    assert np.allclose(exact_original(0.0, v, x), np.exp(-v ** 2 - x ** 2), rtol=1e-14)


def test_exact_original_amplitude_at_t1():
    want = 1.0 / math.sqrt(1 + 4 + 4 / 3 + 4 / 3)
    assert exact_original(1.0, 0.0, 0.0) == pytest.approx(want, rel=1e-12)
    assert want == pytest.approx(0.361158, abs=1e-6)


def test_exact_lagrangian_is_sheared_original():
    rng = np.random.default_rng(3)
    for _ in range(50):
        t = rng.uniform(0.0, 6.0)
        v, x = rng.uniform(-2, 2, 2)
        assert exact_original(t, v, x) == pytest.approx(
            exact_lagrangian(t, v, x + t * v), rel=1e-12)


def test_exact_selfsimilar_is_rescaled_lagrangian():
    rng = np.random.default_rng(4)
    for _ in range(100):
        s = rng.uniform(0.01, 5.0)
        vt, zt = rng.uniform(-2, 2, 2)
        composed = math.exp(2 * s) * exact_lagrangian(
            math.expm1(s), math.exp(s / 2) * vt, math.exp(1.5 * s) * zt)
        direct = exact_selfsimilar(s, vt, zt)
        assert direct == pytest.approx(composed, rel=1e-10)


def test_exact_solution_dispatch():
    assert analytic.exact_solution("original", 1.0, (0.0, 0.0)) == exact_original(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        analytic.exact_solution("bogus", 1.0, (0.0, 0.0))


# ------------------------------------------------------------- steady state

def test_steady_state_magnitude():
    assert steady_state(0.0, 0.0) == pytest.approx(SQRT3 / 2, rel=1e-14)
    assert SQRT3 / 2 == pytest.approx(0.8660254, abs=1e-7)


def test_steady_state_is_mass_times_kernel_at_t1():
    rng = np.random.default_rng(5)
    for _ in range(100):
        vt, zt = rng.uniform(-3, 3, 2)
        assert steady_state(vt, zt) == pytest.approx(
            math.pi * kernel_G(1.0, vt, zt), rel=1e-12)


def test_steady_state_positive_and_decaying():
    g = np.linspace(-6, 6, 41)
    V, Z = np.meshgrid(g, g)
    vals = steady_state(V, Z)
    assert np.all(vals > 0)
    assert steady_state(50.0, 0.0) < 1e-100


def test_selfsimilar_converges_to_steady_state():
    # fine-grid sup distance decreasing in s and below 1e-3 by s = 8
    g = np.linspace(-4, 4, 801)
    V, Z = np.meshgrid(g, g, indexing="ij")
    sups = []
    for s in (1.0, 2.0, 3.0, 4.0):
        sups.append(float(np.abs(exact_selfsimilar(s, V, Z) - steady_state(V, Z)).max()))
    assert all(a > b for a, b in zip(sups, sups[1:]))
    assert float(np.abs(exact_selfsimilar(8.0, V, Z) - steady_state(V, Z)).max()) <= 1e-3


# ----------------------------------------------------------------- envelope

def test_envelope_large_s_limit():
    val = linf_envelope(40.0, l1_norm=math.pi, linf_norm=1.0)
    assert val == pytest.approx(SQRT3 / (2 * math.pi) * math.pi, rel=1e-10)


def test_envelope_small_s_takes_growth_branch():
    s = 0.01
    assert linf_envelope(s, math.pi, 1.0) == pytest.approx(math.exp(2 * s), rel=1e-12)


def test_envelope_branch_crossing():
    # branches cross where (e^s - 1)^2 = sqrt(3)/2
    s_star = math.log1p((3.0 / 4.0) ** 0.25)
    b1 = SQRT3 / (2 * math.pi) * math.pi / (1 - math.exp(-s_star)) ** 2
    b2 = math.exp(2 * s_star)
    assert b1 == pytest.approx(b2, rel=1e-12)
    # bisection oracle for the crossing
    f = lambda s: SQRT3 / 2 / (1 - math.exp(-s)) ** 2 - math.exp(2 * s)
    lo, hi = 0.1, 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
    assert s_star == pytest.approx(0.5 * (lo + hi), abs=1e-10)


def test_envelope_rejects_nonpositive_s():
    with pytest.raises(ValueError):
        linf_envelope(0.0, 1.0, 1.0)
    for l1_norm, linf_norm in ((-1.0, 1.0), (1.0, -1e-300)):  # and negative norms
        with pytest.raises(ValueError, match="nonnegative"):
            linf_envelope(1.0, l1_norm, linf_norm)


def test_envelope_dominates_exact_solution():
    g = np.linspace(-4, 4, 401)
    V, Z = np.meshgrid(g, g, indexing="ij")
    for s in np.linspace(0.25, 5.0, 20):
        sup = float(np.abs(exact_selfsimilar(s, V, Z)).max())
        assert sup <= linf_envelope(s, math.pi, 1.0) * (1 + 1e-9)


# -------------------------------------------------------------- variable maps

def map_variables(direction: str, time: float, point):
    """Coordinate maps between the three frames.

    Returns (mapped_time, mapped_point, amplitude_factor). The shear maps
    keep time and carry factor 1; the self-similar maps exchange t and s and
    carry the amplitude e^{2s} (multiply a Lagrangian-frame value by the
    factor to obtain the self-similar-frame value, divide for the inverse).
    The rescaled time is s = log(1 + t), so t = expm1(s); both are >= 0.
    """
    a, b = (np.asarray(c, dtype=float) for c in point)
    if direction == "to_lagrangian":
        return time, (a, b + time * a), 1.0
    if direction == "from_lagrangian":
        return time, (a, b - time * a), 1.0
    if direction == "to_selfsimilar":
        if time < 0:
            raise ValueError("t must be nonnegative")
        s = math.log1p(time)
        return s, (a * math.exp(-0.5 * s), b * math.exp(-1.5 * s)), math.exp(2.0 * s)
    if direction == "from_selfsimilar":
        if time < 0:
            raise ValueError("s must be nonnegative")
        return math.expm1(time), (a * math.exp(0.5 * time), b * math.exp(1.5 * time)), math.exp(2.0 * time)
    raise ValueError(f"unknown direction {direction!r}")


def test_maps_identity_at_time_zero():
    t, (v, z), amp = map_variables("to_lagrangian", 0.0, (1.3, -0.4))
    assert (v, z) == (1.3, -0.4) and amp == 1.0
    s, (vt, zt), amp = map_variables("to_selfsimilar", 0.0, (1.3, -0.4))
    assert s == 0.0 and vt == 1.3 and zt == -0.4 and amp == 1.0
    for direction in ("to_selfsimilar", "from_selfsimilar"):
        with pytest.raises(ValueError):
            map_variables(direction, -1e-12, (1.3, -0.4))


def test_maps_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(100):
        t = rng.uniform(0.0, 8.0)
        p = tuple(rng.uniform(-5, 5, 2))
        _, q, _ = map_variables("to_lagrangian", t, p)
        _, back, _ = map_variables("from_lagrangian", t, q)
        assert np.allclose(back, p, atol=1e-12)
        s, q, amp = map_variables("to_selfsimilar", t, p)
        t2, back, amp2 = map_variables("from_selfsimilar", s, q)
        assert t2 == pytest.approx(t, rel=1e-12, abs=1e-12)
        assert np.allclose(back, p, atol=1e-10)
        assert amp == amp2


def test_map_amplitude_at_t1():
    s, _, amp = map_variables("to_selfsimilar", 1.0, (0.0, 0.0))
    assert s == pytest.approx(math.log(2.0), rel=1e-14)
    assert amp == pytest.approx(4.0, rel=1e-14)


def test_formulation_time_round_trip():
    origin = (0.0, 0.0)
    for t in (0.0, 1e-9, 0.3, 10.0, 22025.465794806718):
        s = map_variables("to_selfsimilar", t, origin)[0]
        assert map_variables("from_selfsimilar", s, origin)[0] == pytest.approx(t, rel=1e-15, abs=1e-300)
    assert map_variables("from_selfsimilar", math.log(2.0), origin)[0] == pytest.approx(1.0, rel=1e-15)


# ------------------------------------------------------ truncation constants

def test_poincare_constant_cases():
    square = RectDomain.square(5.0)
    assert poincare_constant(square, 0.0) == 1.0
    assert poincare_constant(square, 3.0) == 3.0
    # continuity at the switch point
    tall = RectDomain(0.0, 2.0, 0.0, 4.0)
    t_switch = 2.0 / 4.0
    assert poincare_constant(tall, t_switch) == 1.0
    assert poincare_constant(tall, t_switch + 1e-12) == pytest.approx(1.0, rel=1e-10)
    with pytest.raises(ValueError, match="nonnegative"):
        poincare_constant(square, -1e-12)


def test_domain_condition_cases():
    assert domain_condition(RectDomain.square(10.0)) is True
    assert domain_condition(RectDomain(0.0, 1.0, 0.0, 1.0)) is False
    assert domain_condition(RectDomain(0.0, 2.0, 0.0, 10.0)) is True  # 10 > 4/sqrt(2)


# ----------------------------------------------------------------- the oracle

@pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
def test_oracle_matches_closed_form(t):
    rng = np.random.default_rng(8)
    pts = np.column_stack([rng.uniform(-1.5, 1.5, 20), rng.uniform(-2, 2, 20)])
    got = convolution_oracle(gaussian_ic, t, pts)
    want = exact_original(t, pts[:, 0], pts[:, 1])
    assert np.max(np.abs(got - want)) < 1e-6


def test_oracle_superposition():
    one_a = GaussianSum([(1.0, 0.0, 0.0, 1.0, 1.0)])
    one_b = GaussianSum([(0.5, 0.8, -0.5, 2.0, 1.5)])
    pts = np.array([[0.0, 0.0], [0.5, -0.7], [-1.0, 1.2]])
    got = convolution_oracle(TWO_TERMS, 1.0, pts)
    want = convolution_oracle(one_a, 1.0, pts) + convolution_oracle(one_b, 1.0, pts)
    assert np.max(np.abs(got - want)) < 1e-9


def test_oracle_preserves_mass():
    # outer Gauss grid over the solution support; convolution with a
    # unit-mass kernel keeps the initial mass pi
    from numpy.polynomial.legendre import leggauss
    m = 48
    xg, wg = leggauss(m)
    L = 16.0
    xs, ws = L * xg, L * wg
    V, X = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([V.ravel(), X.ravel()])
    vals = convolution_oracle(gaussian_ic, 1.0, pts).reshape(m, m)
    mass = float(np.einsum("i,j,ij->", ws, ws, vals))
    assert mass == pytest.approx(math.pi, abs=1e-5)


@pytest.mark.parametrize("t", [2.0, 5.0, 10.0])
def test_oracle_sup_respects_decay_bound(t):
    sup = analytic.oracle_sup_norm(gaussian_ic, t)
    bound = SQRT3 / (2 * math.pi * t * t) * math.pi
    assert sup <= bound * (1 + 1e-9)


def test_oracle_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        convolution_oracle(gaussian_ic, 0.0, [[0.0, 0.0]])


@pytest.mark.parametrize("t, point", [
    (math.nan, [0.0, 0.0]), (math.inf, [0.0, 0.0]),
    (2.0, [math.nan, 0.0]), (2.0, [0.0, math.inf]), (2.0, [-math.inf, 1.0])])
def test_oracle_rejects_nonfinite_input_up_front(monkeypatch, t, point):
    # no kernel evaluation happens: the check comes before any quadrature
    monkeypatch.setattr(analytic, "kernel_G", None)
    with pytest.raises(ValueError):
        convolution_oracle(gaussian_ic, t, [[0.0, 0.0], point])


@pytest.mark.parametrize("points", [
    [], [[]], [0.0], 0.0, [0.0, 0.0, 0.0], [[0.0, 0.0, 0.0]], [[0.0], [1.0]],
    [[[0.0, 0.0]]], np.zeros((2, 2, 2))])
def test_oracle_rejects_anything_but_points_of_two_coordinates_up_front(monkeypatch, points):
    monkeypatch.setattr(analytic, "kernel_G", None)
    with pytest.raises(ValueError, match="N points"):
        convolution_oracle(gaussian_ic, 2.0, points)


def test_oracle_takes_one_point_or_none():
    one = convolution_oracle(gaussian_ic, 2.0, [0.5, -0.7])
    assert one.shape == (1,) and np.array_equal(one, convolution_oracle(gaussian_ic, 2.0, [[0.5, -0.7]]))
    assert convolution_oracle(gaussian_ic, 2.0, np.empty((0, 2))).shape == (0,)


@pytest.mark.parametrize("term", [
    (1.0, 0.0, 0.0, math.nan, 1.0), (1.0, 0.0, 0.0, 1.0, math.inf),
    (math.nan, 0.0, 0.0, 1.0, 1.0), (1.0, math.inf, 0.0, 1.0, 1.0),
    (1.0, 0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0, -2.0)])  # and a decay rate <= 0
def test_gaussian_sum_rejects_nonfinite_terms(term):
    with pytest.raises(ValueError):
        GaussianSum([(1.0, 0.0, 0.0, 1.0, 1.0), term])


@pytest.mark.parametrize("terms", [
    [], [(1.0, 0.0, 0.0, 1.0)], [(1.0, 0.0, 0.0, 1.0, 1.0, 1.0)], [(1.0, 0.0, 0.0, 1.0, 1.0), ()]],
    ids=["empty", "four", "six", "one-empty"])
def test_gaussian_sum_needs_terms_of_five_numbers(terms):
    with pytest.raises(ValueError, match=r"\(amp, cv, cx, av, ax\)"):
        GaussianSum(terms)


@pytest.mark.parametrize("f0", [None, lambda v, x: np.exp(-v * v - x * x)], ids=["none", "callable"])
@pytest.mark.parametrize("fn", [
    lambda f0: convolution_oracle(f0, 2.0, [[0.0, 0.0]]), lambda f0: analytic.oracle_sup_norm(f0, 2.0)],
    ids=["convolution_oracle", "oracle_sup_norm"])
def test_oracle_takes_only_a_gaussian_sum_up_front(monkeypatch, fn, f0):
    monkeypatch.setattr(analytic, "kernel_G", None)
    with pytest.raises(TypeError, match="GaussianSum"):
        fn(f0)


def _kernel_times_initial_data(f0, t, v, z, nu, ze):
    """The oracle's integrand in the per-node form: the reference for the
    factored one."""
    return kernel_G(t, nu, ze) * f0(v - nu, z - ze)


def _box_nodes(f0, t, points, m):
    """The oracle's boxes for the points whose box is not empty, as its
    _oracle_factors takes them: (2, P, 1) coordinates (v, z) and the (3, P, m)
    node rows nu, 0, ze of the m-point Gauss-Legendre rule."""
    from numpy.polynomial.legendre import leggauss
    sv, sz = 8.0 * math.sqrt(2.0 * t), 8.0 * math.sqrt(2.0 * t ** 3 / 3.0)
    vlo0, vhi0, xlo0, xhi0 = f0.support_box()
    v, x = np.asarray(points, dtype=float).T
    z = x + v * t
    lo = np.maximum([[-sv], [-sz]], [v - vhi0, z - xhi0])
    hi = np.minimum([[sv], [sz]], [v - vlo0, z - xlo0])
    keep = (lo < hi).all(axis=0)
    lo, hi = lo[:, keep], hi[:, keep]
    nodes = np.zeros((3, keep.sum(), m))
    nodes[::2] = 0.5 * (hi - lo)[:, :, None] * leggauss(m)[0] + 0.5 * (lo + hi)[:, :, None]
    return np.array([v[keep], z[keep]])[:, :, None], nodes


@pytest.mark.parametrize("f0", [gaussian_ic, TWO_TERMS], ids=["gaussian_ic", "two_terms"])
@pytest.mark.parametrize("t", [0.5, 1.0, 5.0, 20.0, 200.0])
@pytest.mark.parametrize("m", [32, 64, 128])
def test_factored_integrand_is_kernel_times_initial_data(f0, t, m):
    # a 5 x 5 grid of points out to two standard deviations of the solution
    # and one more unit: its corners' boxes reach the kernel's far tails
    half_v = 2.0 * math.sqrt(2.0 * t + 0.5) + 1.0
    half_x = 2.0 * math.sqrt(2.0 * t ** 3 / 3.0 + t ** 2 / 2.0 + 0.5) + 1.0
    V, X = np.meshgrid(np.linspace(-half_v, half_v, 5), np.linspace(-half_x, half_x, 5), indexing="ij")
    vz, nodes = _box_nodes(f0, t, np.column_stack([V.ravel(), X.ravel()]), m)
    F, r = analytic._oracle_factors(f0, t, vz, nodes)
    nu, ze = nodes[0][:, :, None], nodes[2][:, None, :]
    got = np.einsum("kpi,pij,kpj->pij", F[:, 0], np.exp(r[:, :, None] * ze), F[:, 1])
    want = _kernel_times_initial_data(f0, t, vz[0][:, :, None], vz[1][:, :, None], nu, ze)
    assert want.shape == (25, m, m) and want.min() > 0.0
    rel = np.abs(got - want) / want
    # Each form rounds the parts of its exponent, which reach several
    # hundred where the integrand is below exp(-200) of its peak; there the
    # per-node form errs most (1.6e-13 against a long-double evaluation at
    # t = 1, where the factored form errs by at most 6.6e-14).
    assert rel[want >= analytic._kernel_peak(t) * math.exp(-200.0)].max() < 1e-13
    assert rel.max() < 2e-13


@pytest.mark.parametrize("t", [1e-3, 1.0, 1e3])
def test_cross_factor_is_finite_at_the_box_corners(t):
    # nodes at the corners of the +-8 sigma kernel box, where |3 nu ze / t^2|
    # is largest: 384 / sqrt(3), about 221.7, below exp's overflow at 709
    sv, sz = 8.0 * math.sqrt(2.0 * t), 8.0 * math.sqrt(2.0 * t ** 3 / 3.0)
    nodes = np.array([[[-sv, sv]], [[0.0, 0.0]], [[-sz, sz]]])
    F, r = analytic._oracle_factors(gaussian_ic, t, np.zeros((2, 1, 1)), nodes)
    cross = r[0][:, None] * nodes[2, 0]
    assert np.abs(cross).max() == pytest.approx(384.0 / SQRT3, rel=1e-12)
    assert np.isfinite(np.exp(cross)).all() and np.isfinite(F).all()


def _oracle_point_by_point(f0, t, points):
    """The oracle one point at a time, with a fresh Gauss-Legendre rule per
    grid and the factored integrand contracted as a @ C @ b per term: the
    reference the batched oracle must match bit for bit. Also returns the
    nodes per axis each point's last grid used (0: empty box)."""
    from numpy.polynomial.legendre import leggauss

    def tensor_gauss(v, z, box, m):
        a, b, c, d = box
        xg, wg = leggauss(m)
        nodes = np.zeros((3, 1, m))
        nodes[0, 0] = 0.5 * (b - a) * xg + 0.5 * (a + b)
        nodes[2, 0] = 0.5 * (d - c) * xg + 0.5 * (c + d)
        F, r = analytic._oracle_factors(f0, t, np.array([[[v]], [[z]]]), nodes)
        F *= np.array([[0.5 * (b - a) * wg], [0.5 * (d - c) * wg]])
        cross = np.exp(np.outer(r[0], nodes[2, 0]))
        return float(sum(f_v @ (cross @ f_z) for f_v, f_z in F[:, :, 0]))

    sv = 8.0 * math.sqrt(2.0 * t)
    sz = 8.0 * math.sqrt(2.0 * t ** 3 / 3.0)
    vlo0, vhi0, xlo0, xhi0 = f0.support_box()
    vals, nodes = [], []
    for v, x in points:
        z = x + v * t
        box = (max(-sv, v - vhi0), min(sv, v - vlo0), max(-sz, z - xhi0), min(sz, z - xlo0))
        if box[0] >= box[1] or box[2] >= box[3]:
            vals.append(0.0)
            nodes.append(0)
            continue
        m = analytic.ORACLE_START_NODES
        prev = tensor_gauss(v, z, box, m)
        while True:
            m *= 2
            cur = tensor_gauss(v, z, box, m)
            if abs(cur - prev) < analytic.ORACLE_ABS_TOL:
                break
            prev = cur
        vals.append(cur)
        nodes.append(m)
    return np.array(vals), np.array(nodes)


def test_oracle_batched_matches_point_by_point():
    # every 4th point of criterion 3's 33 x 33 grid at t = 20, and three
    # points whose integration box is empty
    t = 20.0
    half_v = 2.0 * math.sqrt(2.0 * t + 0.5) + 1.0
    half_x = 2.0 * math.sqrt(2.0 * t ** 3 / 3.0 + t ** 2 / 2.0 + 0.5) + 1.0
    V, X = np.meshgrid(np.linspace(-half_v, half_v, 33), np.linspace(-half_x, half_x, 33), indexing="ij")
    far = [[1e3, 0.0], [-1e3, 0.0], [0.0, 1e5]]
    pts = np.vstack([np.column_stack([V.ravel(), X.ravel()])[::4], far])
    want, nodes = _oracle_point_by_point(gaussian_ic, t, pts)
    assert np.count_nonzero(nodes == 0) == len(far) and not want[nodes == 0].any()
    assert (nodes == 128).any()
    first = analytic.ORACLE_START_NODES
    assert np.count_nonzero(nodes) > analytic.TENSOR_CHUNK // (first * first)
    assert np.array_equal(convolution_oracle(gaussian_ic, t, pts), want)


def test_oracle_batched_two_terms_matches_point_by_point():
    pts = np.array([[0.0, 0.0], [0.5, -0.7], [-1.0, 1.2], [3.0, -40.0], [1e3, 0.0]])
    want, nodes = _oracle_point_by_point(TWO_TERMS, 5.0, pts)
    assert nodes[-1] == 0 and (nodes[:-1] > 0).all()
    assert np.array_equal(convolution_oracle(TWO_TERMS, 5.0, pts), want)


def test_oracle_bits_do_not_depend_on_the_blas_thread_count():
    # the contraction calls BLAS; every point of criterion 3's 33 x 33 grid
    # at t = 20 (115 of them need 128 nodes per axis), batched and one by one
    script = ("import sys, numpy as np\n"
              "from kfplab import analytic\n"
              "t = 20.0\n"
              "hv = 2.0 * np.sqrt(2.0 * t + 0.5) + 1.0\n"
              "hx = 2.0 * np.sqrt(2.0 * t ** 3 / 3.0 + t ** 2 / 2.0 + 0.5) + 1.0\n"
              "V, X = np.meshgrid(np.linspace(-hv, hv, 33), np.linspace(-hx, hx, 33), indexing='ij')\n"
              "pts = np.column_stack([V.ravel(), X.ravel()])\n"
              "batched = analytic.convolution_oracle(analytic.gaussian_ic, t, pts)\n"
              "single = [analytic.convolution_oracle(analytic.gaussian_ic, t, p) for p in pts[::8]]\n"
              "sys.stdout.write(np.concatenate([batched, *single]).tobytes().hex())\n")
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = [subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, check=True,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=n)).stdout
           for n in ("1", "2")]
    assert len(out[0]) == 16 * (33 * 33 + 137) and out[0] == out[1]


@pytest.mark.parametrize("point, passes", [([5.0, 0.0], 1), ([0.0, 0.0], 2), ([1e3, 0.0], 0)])
def test_oracle_shares_one_factor_pass_between_the_first_two_grids(monkeypatch, point, passes):
    # at t = 20, [5, 0] stops at 64 nodes per axis and [0, 0] at 128, and the
    # box of [1e3, 0] is empty: one pass holds the 32- and 64-node grids,
    # each later grid has one of its own, and an empty box has none
    calls, factors = [], analytic._oracle_factors

    def counted(f0, t, vz, nodes):
        calls.append(nodes.shape[-1])
        return factors(f0, t, vz, nodes)

    monkeypatch.setattr(analytic, "_oracle_factors", counted)
    convolution_oracle(gaussian_ic, 20.0, point)
    assert calls == [96, 128][:passes]


@pytest.mark.parametrize("max_nodes, first", [(32, "5.0, 0.0"), (64, "0.0, 0.0")], ids=["max32", "max64"])
def test_oracle_names_the_first_point_that_does_not_stabilize(monkeypatch, max_nodes, first):
    # at t = 20 the second and fifth points need 128 nodes per axis, the
    # first and third 64, and the fourth has an empty box; with at most 32
    # nodes no grid is compared, and the first point with a box is named
    monkeypatch.setattr(analytic, "ORACLE_MAX_NODES", max_nodes)
    pts = [[5.0, 0.0], [0.0, 0.0], [8.0, -100.0], [1e3, 0.0], [1.0, 0.0]]
    with pytest.raises(analytic.QuadratureError, match=rf"t=20\.0, point=\({first}\)"):
        convolution_oracle(gaussian_ic, 20.0, pts)


def test_gaussian_ic_constants():
    assert gaussian_ic(0.0, 0.0) == 1.0
