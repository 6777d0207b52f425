import numpy as np
import pytest

from kfplab.mesh import (
    Field,
    RectDomain,
    build_structured_mesh,
    interpolate_many,
    midpoint_quadrature,
)

UNIT = RectDomain(0.0, 1.0, 0.0, 1.0)


def test_smallest_mesh_counts():
    m = build_structured_mesh(UNIT, 1)
    assert m.node_count == 4
    assert len(m.elements) == 2
    assert m.boundary.sum() == 4
    assert m.interior_count == 0


def test_n2_counts():
    m = build_structured_mesh(UNIT, 2)
    assert m.node_count == 9
    assert len(m.elements) == 8
    assert m.boundary.sum() == 8
    assert m.interior.sum() == 1


@pytest.mark.parametrize("domain,n", [
    (UNIT, 3),
    (RectDomain(-10.0, 10.0, -10.0, 10.0), 7),
    (RectDomain(-2.0, 5.0, 1.0, 4.5), 12),
])
def test_area_partition(domain, n):
    m = build_structured_mesh(domain, n)
    areas = m.element_areas()
    assert np.all(areas > 0)
    area = domain.side_v * domain.side_z
    assert abs(areas.sum() - area) <= 1e-12 * area


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
    counts = np.bincount(m.elements.ravel(), minlength=m.node_count)
    nv = m.n + 1
    corner_ids = [0, m.n, m.n * nv, m.n * nv + m.n]
    for node in range(m.node_count):
        if m.interior[node]:
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
        for tri, tri_pts, tri_w in zip(mesh.element_coords(), pts, w):
            for p, q in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
                got = np.sum(tri_w * tri_pts[:, 0] ** p * tri_pts[:, 1] ** q)
                want = _exact_triangle_moment(tri, p, q)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_field_validation():
    m = build_structured_mesh(UNIT, 2)
    with pytest.raises(ValueError):
        Field(m, np.zeros(5))
