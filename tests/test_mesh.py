import tracemalloc
import warnings

import numpy as np
import pytest

from kfplab.mesh import (
    Field,
    RectDomain,
    build_structured_mesh,
    interpolate_many,
    locate,
)

UNIT = RectDomain(0.0, 1.0, 0.0, 1.0)


# The per-element and per-node views of a mesh that kfplab does not store:
# the oracles that its slices of the node grid are checked against.

def per_element(mesh, per_node):
    """A per-node array at each element's vertices, shape (2 n^2, 3, ...),
    stacked from the node grid's four corner views: per cell in row-major
    order, the lower triangle (ll, lr, ur), then the upper one (ll, ur, ul)."""
    n = mesh.n
    grid = np.asarray(per_node).reshape(n + 1, n + 1, *np.shape(per_node)[1:])
    ll, lr, ul, ur = grid[:-1, :-1], grid[:-1, 1:], grid[1:, :-1], grid[1:, 1:]
    return np.stack([ll, lr, ur, ll, ur, ul], axis=2).reshape(2 * n * n, 3, *grid.shape[2:])


def element_areas(mesh, p=None):
    """The signed area of each element from its vertex coordinates p, by
    default the mesh's."""
    p = per_element(mesh, mesh.nodes) if p is None else p
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def edge_midpoints(per_vertex):
    """Values at the edge midpoints from values at the vertices (axis 1):
    midpoint q of an element joins its vertices q and q + 1."""
    return 0.5 * (per_vertex + np.roll(per_vertex, -1, axis=1))


def midpoint_quadrature(mesh):
    """The edge-midpoint rule, exact for total degree <= 2. Returns the
    points (n_el, 3, 2) and the weights (n_el,) = |T|/3."""
    weights = element_areas(mesh, vertices := per_element(mesh, mesh.nodes)) / 3.0
    return edge_midpoints(vertices), weights


def boundary_mask(mesh):
    """The boundary nodes by index arithmetic: the frame of the node grid."""
    nv = mesh.n + 1
    grid_iv = np.tile(np.arange(nv), nv)
    grid_iz = np.repeat(np.arange(nv), nv)
    return (grid_iv == 0) | (grid_iv == mesh.n) | (grid_iz == 0) | (grid_iz == mesh.n)


def interior_mask(mesh):
    return ~boundary_mask(mesh)


def interior_count(mesh):
    return (mesh.n - 1) ** 2


def element_oracle(mesh):
    """The (2 n^2, 3) node ids of the elements, built by index arithmetic:
    per cell in row-major order, the lower triangle (ll, lr, ur), then the
    upper one (ll, ur, ul)."""
    n, nv = mesh.n, mesh.n + 1
    iv, iz = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
    ll = (iz * nv + iv).ravel()
    lr = ll + 1
    ul = ll + nv
    ur = ul + 1
    elements = np.empty((2 * n * n, 3), dtype=np.int64)
    elements[0::2] = np.column_stack([ll, lr, ur])
    elements[1::2] = np.column_stack([ll, ur, ul])
    return elements


def test_smallest_mesh_counts():
    m = build_structured_mesh(UNIT, 1)
    assert m.node_count == 4
    assert len(per_element(m, np.arange(m.node_count))) == 2
    assert boundary_mask(m).sum() == 4
    assert interior_count(m) == 0


def test_n2_counts():
    m = build_structured_mesh(UNIT, 2)
    assert m.node_count == 9
    assert len(per_element(m, np.arange(m.node_count))) == 8
    assert boundary_mask(m).sum() == 8
    assert interior_mask(m).sum() == 1


@pytest.mark.parametrize("domain,n", [
    (UNIT, 3),
    (RectDomain(-10.0, 10.0, -10.0, 10.0), 7),
    (RectDomain(-2.0, 5.0, 1.0, 4.5), 12),
])
def test_area_partition(domain, n):
    m = build_structured_mesh(domain, n)
    areas = element_areas(m)
    assert np.all(areas > 0)
    area = domain.side_v * domain.side_z
    assert abs(areas.sum() - area) <= 1e-12 * area


@pytest.mark.parametrize("domain,n", [(UNIT, 1), (UNIT, 2), (UNIT, 3), (UNIT, 20),
                                      (RectDomain(-1.0, 2.0, 0.5, 3.0), 7)])
def test_per_element_matches_the_index_oracle(domain, n):
    m = build_structured_mesh(domain, n)
    ids = per_element(m, np.arange(m.node_count))
    assert ids.dtype == np.int64
    assert np.array_equal(ids, element_oracle(m))
    # trailing axes ride along: the coordinates are those of the ids
    assert np.array_equal(per_element(m, m.nodes), m.nodes[element_oracle(m)])


def test_mesh_stores_no_connectivity():
    # a live mesh holds its node coordinates, and no node mask and no array
    # of its 2 n^2 elements
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        m = build_structured_mesh(UNIT, 128)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= m.nodes.nbytes + 4096


def test_rejects_zero_subdivisions():
    with pytest.raises(ValueError):
        build_structured_mesh(UNIT, 0)


def test_rejects_degenerate_domain():
    with pytest.raises(ValueError):
        RectDomain(1.0, 1.0, 0.0, 1.0)


@pytest.mark.parametrize("bounds", [(-1e308, 1e308, -1.0, 1.0), (0.0, 1.0, -1e308, 1e308)])
def test_rejects_domain_whose_side_overflows(bounds):
    with pytest.raises(ValueError):
        RectDomain(*bounds)


def test_node_membership_counts():
    m = build_structured_mesh(UNIT, 4)
    counts = np.bincount(per_element(m, np.arange(m.node_count)).ravel(), minlength=m.node_count)
    nv = m.n + 1
    corner_ids = [0, m.n, m.n * nv, m.n * nv + m.n]
    for node in range(m.node_count):
        if interior_mask(m)[node]:
            assert counts[node] == 6
        elif node in corner_ids:
            assert counts[node] in (1, 2)


def test_interpolate_exact_on_linears():
    m = build_structured_mesh(RectDomain(-3.0, 2.0, 0.5, 4.0), 9)
    a, b, c = 0.7, -1.3, 2.1
    f = Field(m, a * m.nodes[:, 0] + b * m.nodes[:, 1] + c)
    rng = np.random.default_rng(7)
    pts = np.column_stack([rng.uniform(-3, 2, 200), rng.uniform(0.5, 4, 200)])
    got = interpolate_many(f, pts)
    want = a * pts[:, 0] + b * pts[:, 1] + c
    assert np.max(np.abs(got - want)) < 1e-12


def test_interpolate_at_nodes_returns_stored_values():
    m = build_structured_mesh(UNIT, 5)
    rng = np.random.default_rng(3)
    f = Field(m, rng.standard_normal(m.node_count))
    got = interpolate_many(f, m.nodes)
    assert np.max(np.abs(got - f.values)) < 1e-13


def test_interpolate_outside_domain_is_zero():
    m = build_structured_mesh(UNIT, 4)
    f = Field(m, np.ones(m.node_count))
    assert interpolate_many(f, [[1.5, 0.5]])[0] == 0.0
    assert interpolate_many(f, [[0.5, -0.1]])[0] == 0.0


def test_boundary_roundoff_treated_as_inside():
    m = build_structured_mesh(UNIT, 4)
    f = Field(m, m.nodes[:, 0])
    eps = 1e-13 * m.h
    assert interpolate_many(f, [[1.0 + eps, 0.5]])[0] == pytest.approx(1.0, abs=1e-10)


def test_interpolate_non_finite_points_are_outside_without_warning():
    # as under python -W error, a warning would raise
    m = build_structured_mesh(UNIT, 4)
    f = Field(m, np.ones(m.node_count))
    nan, inf = float("nan"), float("inf")
    pts = [[nan, 0.5], [0.5, nan], [nan, nan], [inf, 0.5], [-inf, -inf], [nan, inf], [0.5, 0.5]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = interpolate_many(f, pts)
    assert got.tobytes() == np.array([0.0] * 6 + [1.0]).tobytes()


def _interpolate_both_triangles(field, points):
    """The P1 interpolant evaluated directly: both triangle formulas of each
    point's cell, then the one of the triangle holding it, 0 outside."""
    mesh, dom = field.mesh, field.mesh.domain
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.n
    gx = (pts[:, 0] - dom.v_min) / mesh.hv
    gy = (pts[:, 1] - dom.z_min) / mesh.hz
    pad = 1e-12 * mesh.h / min(mesh.hv, mesh.hz)
    inside = (gx >= -pad) & (gx <= n + pad) & (gy >= -pad) & (gy <= n + pad)
    gx, gy = np.clip(gx, 0.0, n), np.clip(gy, 0.0, n)
    i = np.minimum(gx.astype(np.int64), n - 1)
    j = np.minimum(gy.astype(np.int64), n - 1)
    xi, eta = gx - i, gy - j
    u = field.values
    ll = j * (n + 1) + i
    lr, ul = ll + 1, ll + n + 1
    ur = ul + 1
    low = u[ll] * (1.0 - xi) + u[lr] * (xi - eta) + u[ur] * eta
    up = u[ll] * (1.0 - eta) + u[ur] * xi + u[ul] * (eta - xi)
    out = np.where(eta <= xi, low, up)
    out[~inside] = 0.0
    return out


def test_located_interpolation_is_bit_identical_to_the_direct_formula():
    dom = RectDomain(-3.0, 2.0, 0.5, 4.0)
    m = build_structured_mesh(dom, 9)
    rng = np.random.default_rng(11)
    values = rng.standard_normal(m.node_count)
    values[rng.random(m.node_count) < 0.3] = -0.0  # zero weights then give signed zeros
    f = Field(m, values)
    grid_v = dom.v_min + m.hv * np.arange(m.n + 1)
    grid_z = dom.z_min + m.hz * np.arange(m.n + 1)
    t = rng.uniform(0.0, 1.0, 200)
    near = 1e-12 * m.h * np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    pts = np.concatenate([
        np.column_stack([rng.uniform(-4.0, 3.0, 400), rng.uniform(-0.5, 5.0, 400)]),  # inside and out
        np.column_stack([rng.choice(grid_v, 200), rng.uniform(0.5, 4.0, 200)]),  # on v-edges
        np.column_stack([rng.uniform(-3.0, 2.0, 200), rng.choice(grid_z, 200)]),  # on z-edges
        np.column_stack([rng.choice(grid_v[:-1], 200) + t * m.hv,
                         rng.choice(grid_z[:-1], 200) + t * m.hz]),  # on cell diagonals
        np.array([[v + d, z] for v in (dom.v_min, dom.v_max) for d in near for z in (0.5, 2.0, 4.0)]),
        np.array([[v, z + d] for z in (dom.z_min, dom.z_max) for d in near for v in (-3.0, 0.0, 2.0)]),
        m.nodes,
    ])
    want = _interpolate_both_triangles(f, pts).tobytes()
    assert interpolate_many(f, pts).tobytes() == want
    assert interpolate_many(f, locate(m, pts)).tobytes() == want
    scratch = np.full((3, len(pts)), np.nan)  # stale values in a reused gather change no bit
    for _ in range(2):
        assert interpolate_many(f, locate(m, pts), scratch).tobytes() == want


def test_interpolation_into_a_scratch_gather_allocates_only_the_result():
    # the run of the original form interpolates at fixed feet on every step;
    # with the gather in its own (3, N) array, a call allocates the result
    m = build_structured_mesh(RectDomain.square(10.0), 128)
    f = Field(m, np.random.default_rng(5).standard_normal(m.node_count))
    loc, scratch = locate(m, m.nodes + 0.3 * m.h), np.empty((3, m.node_count))
    peaks = []
    for gather in (None, scratch):
        tracemalloc.start()
        try:
            got = interpolate_many(f, loc, gather)
            peaks.append(tracemalloc.get_traced_memory()[1] / f.values.nbytes)
        finally:
            tracemalloc.stop()
        assert not np.shares_memory(got, scratch)
    assert peaks[0] >= 4.0 and peaks[1] <= 1.1, peaks


def test_location_serves_only_its_own_mesh():
    loc = locate(build_structured_mesh(UNIT, 4), [[0.5, 0.5]])
    other = build_structured_mesh(UNIT, 4)
    with pytest.raises(ValueError):
        interpolate_many(Field(other, np.ones(other.node_count)), loc)


def test_quadrature_reference_triangle_monomials():
    # element 0 of the n = 1 unit square is the triangle (0, 0), (1, 0), (1, 1)
    pts, w = midpoint_quadrature(build_structured_mesh(UNIT, 1))
    pts, w = pts[0], np.full(3, w[0])
    assert w.sum() == pytest.approx(0.5, rel=1e-14)  # integral of 1
    assert np.sum(w * pts[:, 0] ** 2) == pytest.approx(1.0 / 4.0, rel=1e-14)
    assert np.sum(w * pts[:, 0] * pts[:, 1]) == pytest.approx(1.0 / 8.0, rel=1e-14)


def _exact_triangle_moment(tri, p, q):
    """Exact integral of x^p y^q (p + q <= 2) from the barycentric moment
    formulas: int lam_i = |T|/3, int lam_i^2 = |T|/6, int lam_i lam_j = |T|/12."""
    x, y = tri[:, 0], tri[:, 1]
    d1, d2 = tri[1] - tri[0], tri[2] - tri[0]
    area = 0.5 * (d1[0] * d2[1] - d1[1] * d2[0])
    if (p, q) == (0, 0):
        return area
    if (p, q) == (1, 0):
        return area * x.sum() / 3.0
    if (p, q) == (0, 1):
        return area * y.sum() / 3.0
    if (p, q) == (2, 0):
        return area / 12.0 * ((x ** 2).sum() + x.sum() ** 2)
    if (p, q) == (0, 2):
        return area / 12.0 * ((y ** 2).sum() + y.sum() ** 2)
    if (p, q) == (1, 1):
        return area / 12.0 * ((x * y).sum() + x.sum() * y.sum())
    raise ValueError


def test_quadrature_degree_two_on_random_triangles():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lo = rng.uniform(-5, 0, 2)
        domain = RectDomain(lo[0], lo[0] + rng.uniform(0.5, 5), lo[1], lo[1] + rng.uniform(0.5, 5))
        mesh = build_structured_mesh(domain, int(rng.integers(1, 5)))
        pts, w = midpoint_quadrature(mesh)
        for tri, tri_pts, tri_w in zip(per_element(mesh, mesh.nodes), pts, w):
            for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                got = np.sum(tri_w * tri_pts[:, 0] ** p * tri_pts[:, 1] ** q)
                want = _exact_triangle_moment(tri, p, q)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_field_validation():
    m = build_structured_mesh(UNIT, 2)
    with pytest.raises(ValueError):
        Field(m, np.zeros(5))
