import math

import numpy as np
import pytest

from kfplab.assembly import assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh
from kfplab.solvers import RunConfig
from test_mesh import (
    boundary_mask,
    edge_midpoints,
    element_areas,
    interior_count,
    interior_mask,
    midpoint_quadrature,
    per_element,
)
from test_sparse import DiaMatrix, stencils, the_blocks

UNIT = RectDomain(0.0, 1.0, 0.0, 1.0)


def random_interior(mesh, seed=0, count=1):
    """count node vectors, random on the interior nodes and 0.0 on the frame."""
    rng = np.random.default_rng(seed)
    x = np.zeros((count, mesh.node_count))
    x[:, interior_mask(mesh)] = rng.uniform(-1.0, 1.0, (count, interior_count(mesh)))
    return x


def directional_sq_norm(blocks, a, x):
    """||(d_v + a d_z) u||^2 via the quadratic form of the diffusion blocks."""
    D = blocks.matrix([0.0, 1.0, a * a, a, 0.0])
    return float(x @ D.matvec(x))


def element_gradients(mesh):
    """Constant P1 basis gradients per element, shape (n_elements, 3, 2),
    and the element areas."""
    p = per_element(mesh, mesh.nodes)
    areas = element_areas(mesh)
    grads = np.empty_like(p)
    for i in range(3):
        pj = p[:, (i + 1) % 3]
        pk = p[:, (i + 2) % 3]
        grads[:, i, 0] = pj[:, 1] - pk[:, 1]
        grads[:, i, 1] = pk[:, 0] - pj[:, 0]
    grads /= (2.0 * areas)[:, None, None]
    return grads, areas


def element_blocks(mesh):
    """The oracle of assembly: per-element 3x3 kernels of every block, by
    the 3-midpoint rule, which is exact for their integrands of degree <= 2.

    Returns a dict of (n_el, 3, 3) arrays in the order of the stack: mass,
    d_vv, d_zz, d_vz_sym (the symmetrized mixed-gradient pairing) and b_adv,
    the advection pairing ((v/2) d_v u + (3 z / 2) d_z u, w) with u the
    column index.
    """
    grads, areas = element_gradients(mesh)

    base = (np.full((3, 3), 1.0) + np.eye(3)) / 12.0
    mass = areas[:, None, None] * base[None, :, :]

    gv = grads[:, :, 0]
    gz = grads[:, :, 1]
    a = areas[:, None, None]
    d_vv = a * gv[:, :, None] * gv[:, None, :]
    d_zz = a * gz[:, :, None] * gz[:, None, :]
    d_vz = a * gv[:, :, None] * gz[:, None, :]  # rows derive in v, cols in z
    d_vz_sym = d_vz + np.transpose(d_vz, (0, 2, 1))

    # int_T coord * phi_i by the midpoint rule: phi_i is 1/2 at the two
    # midpoints of the edges at vertex i and vanishes at the third.
    mids, weights = midpoint_quadrature(mesh)
    phi_at_mid = edge_midpoints(np.eye(3))  # [i, q]
    int_v_phi = np.einsum("eq,iq,e->ei", mids[:, :, 0], phi_at_mid, weights)
    int_z_phi = np.einsum("eq,iq,e->ei", mids[:, :, 1], phi_at_mid, weights)

    # b_adv[i, j] = (1/2) g_j^v * int(v phi_i) + (3/2) g_j^z * int(z phi_i)
    b_adv = 0.5 * int_v_phi[:, :, None] * gv[:, None, :] + 1.5 * int_z_phi[:, :, None] * gz[:, None, :]

    return {"mass": mass, "d_vv": d_vv, "d_zz": d_zz, "d_vz_sym": d_vz_sym, "b_adv": b_adv}


def element_nodes(mesh):
    """The node ids of each element's vertices, shape (n_elements, 3)."""
    return per_element(mesh, np.arange(mesh.node_count))


def scatter(mesh, kernels):
    """Element kernels summed, in element order, into banded matrices over
    the node grid's offsets 0, +-1, +-s and +-(s + 1), s = n + 1, in the
    rows of the interior nodes: their whole stencils, the columns of
    boundary nodes included. Returns (offsets, stack): stack[b] is the
    (7, (n + 1)^2) DIA data of kernels[b], 0 in the frame rows."""
    rows = np.repeat(element_nodes(mesh), 3, axis=1).reshape(-1, 3, 3)  # rows[e, i, j] = node i of e
    rows, cols = rows.ravel(), np.transpose(rows, (0, 2, 1)).ravel()
    keep = interior_mask(mesh)[rows]
    rows, cols = rows[keep], cols[keep]
    s, m = mesh.n + 1, mesh.node_count
    offsets = np.array([-s - 1, -s, -1, 0, 1, s, s + 1])
    slot = np.searchsorted(offsets, cols - rows) * m + rows
    stack = np.zeros((len(kernels), len(offsets), m))
    for band, arr in zip(stack, kernels):
        np.add.at(band.ravel(), slot, arr.ravel()[keep])
    return tuple(int(o) for o in offsets), stack


def test_assembly_matches_the_element_oracle():
    # The oracle's cell sides are differences of node coordinates, each
    # rounded to within eps of the largest one, so they are off from h_v and
    # h_z by up to eps * R relative, R = max|v| / h_v + max|z| / h_z. Each
    # entry combines such sides in a few products and quotients, about four
    # relative errors of that size, and sums at most six element terms, each
    # no larger than the block's largest entry. So both constructions lie
    # within 4 eps (R + 4) of that entry, and so of each other. Each block
    # is compared on the rows of the interior nodes, the rows it writes.
    for domain in (RectDomain.square(10.0), RectDomain(-1.0, 2.0, 0.5, 3.0)):
        for n in (1, 2, 3, 7, 20, 128):  # at n = 1 no node is interior, at n = 2 one
            mesh = build_structured_mesh(domain, n)
            blocks = assemble_blocks(mesh)
            offsets, stack = scatter(mesh, list(element_blocks(mesh).values()))
            r = (max(abs(domain.v_min), abs(domain.v_max)) / mesh.hv
                 + max(abs(domain.z_min), abs(domain.z_max)) / mesh.hz)
            for name, block, want in zip(("mass", "d_vv", "d_zz", "d_vz_sym", "b_adv"), the_blocks(blocks), stack):
                assert block.offsets == offsets
                got, want = stencils(block)[:, interior_mask(mesh)], want[:, interior_mask(mesh)]
                bound = 4 * np.finfo(float).eps * (r + 4) * np.abs(want).max(initial=0.0)
                assert np.all(np.abs(got - want) <= bound), (domain, n, name)


def test_duplicates_are_summed(to_dense):
    # an element with k interior vertices adds k^2 contributions to the
    # interior band; repeated (row, col) pairs must land in one slot, so the
    # diagonal counts the elements around each interior node
    mesh = build_structured_mesh(RectDomain.square(1.0), 5)
    elements = element_nodes(mesh)
    n_el = len(elements)
    offsets, stack = scatter(mesh, [np.ones((n_el, 3, 3))])
    A = DiaMatrix(offsets, stack[0])
    interior = interior_mask(mesh)
    inner = interior[elements]
    assert to_dense(A, interior).sum() == float(np.sum(inner.sum(axis=1) ** 2))
    per_node = np.bincount(elements.ravel(), minlength=mesh.node_count)
    assert np.array_equal(A.diagonal()[interior], per_node[interior])


def test_element_mass_matrix_closed_form():
    mesh = build_structured_mesh(UNIT, 1)
    blocks = element_blocks(mesh)
    area = 0.5
    want = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    for e in range(len(element_nodes(mesh))):
        assert np.allclose(blocks["mass"][e], want, atol=1e-15)


def test_full_mass_integrates_one():
    mesh = build_structured_mesh(RectDomain(-3.0, 1.0, 2.0, 7.0), 6)
    # the full mass matrix is the sum of its element kernels, and its
    # entries add up to the integral of 1, the area
    assert element_blocks(mesh)["mass"].sum() == pytest.approx(mesh.domain.side_v * mesh.domain.side_z,
                                                               rel=1e-13)


def test_mass_symmetric_exactly(to_dense):
    mesh = build_structured_mesh(UNIT, 5)
    M = to_dense(assemble_blocks(mesh).mass, interior_mask(mesh))
    assert np.max(np.abs(M - M.T)) == 0.0


def test_mass_positive_definite_on_interior():
    mesh = build_structured_mesh(UNIT, 6)
    M = assemble_blocks(mesh).mass
    for x in random_interior(mesh, seed=2, count=10):
        assert x @ M.matvec(x) > 0.0


def test_heat_v_equals_lagrangian_at_zero():
    mesh = build_structured_mesh(RectDomain.square(2.0), 7)
    blocks = assemble_blocks(mesh)
    A0 = blocks.matrix(blocks.lagrangian(0.0))
    Ah = the_blocks(blocks)[1]  # d_vv
    assert Ah.offsets == A0.offsets
    assert np.array_equal(Ah.data, A0.data)


def test_heat_v_positive_semidefinite():
    mesh = build_structured_mesh(UNIT, 8)
    blocks = assemble_blocks(mesh)
    A = blocks.matrix(blocks.lagrangian(0.0))
    for x in random_interior(mesh, seed=3, count=10):
        assert x @ A.matvec(x) >= 0.0


def test_heat_v_sine_energy():
    # int (d_v sin(pi v) sin(pi z))^2 over the unit square is pi^2 / 4
    mesh = build_structured_mesh(UNIT, 64)
    vals = np.sin(np.pi * mesh.nodes[:, 0]) * np.sin(np.pi * mesh.nodes[:, 1])
    vals[boundary_mask(mesh)] = 0.0
    x = vals
    blocks = assemble_blocks(mesh)
    q = x @ blocks.matrix(blocks.lagrangian(0.0)).matvec(x)
    assert abs(q - np.pi ** 2 / 4) / (np.pi ** 2 / 4) < 0.02


@pytest.mark.parametrize("t", [0.0, 1.0, 3.7])
def test_lagrangian_symmetric(t, to_dense):
    mesh = build_structured_mesh(RectDomain.square(2.0), 6)
    blocks = assemble_blocks(mesh)
    A = to_dense(blocks.matrix(blocks.lagrangian(t)), interior_mask(mesh))
    assert np.max(np.abs(A - A.T)) == 0.0


def test_lagrangian_perfect_square_identity():
    mesh = build_structured_mesh(RectDomain.square(3.0), 10)
    blocks = assemble_blocks(mesh)
    grads, areas = element_gradients(mesh)
    for t in (0.0, 0.6, 2.5):
        A = blocks.matrix(blocks.lagrangian(t))
        for x in random_interior(mesh, seed=int(10 * t) + 1, count=20):
            # elementwise quadrature of the squared directional gradient
            ue = per_element(mesh, x)
            gv = np.einsum("ei,ei->e", ue, grads[:, :, 0])
            gz = np.einsum("ei,ei->e", ue, grads[:, :, 1])
            direct = float(np.sum(areas * (gv + t * gz) ** 2))
            assert x @ A.matvec(x) == pytest.approx(direct, rel=1e-12, abs=1e-14)


def test_selfsimilar_at_s0_drops_mixed_terms():
    mesh = build_structured_mesh(RectDomain.square(2.0), 6)
    blocks = assemble_blocks(mesh)
    A = blocks.matrix(blocks.selfsimilar(0.0, 0.5))
    assert list(blocks.selfsimilar(0.0, 0.5)) == [-0.5, 1.0, 0.0, 0.0, -1.0]
    manual = blocks.matrix([-0.5, 1.0, 0.0, 0.0, -1.0])  # d_vv - b_adv - 0.5 mass
    assert np.max(np.abs(A.data - manual.data)) == 0.0


@pytest.mark.parametrize("s", [0.0, 0.5, 2.0])
def test_selfsimilar_energy_identity(s):
    mesh = build_structured_mesh(RectDomain.square(2.0), 8)
    blocks = assemble_blocks(mesh)
    sigma1 = 0.25
    A = blocks.matrix(blocks.selfsimilar(s, sigma1))
    M = blocks.mass
    a = 1.0 - math.exp(-s)
    for x in random_interior(mesh, seed=17, count=20):
        lhs = float(x @ A.matvec(x))
        rhs = directional_sq_norm(blocks, a, x) + (1.0 - sigma1) * float(x @ M.matvec(x))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_selfsimilar_sigma1_one_is_pure_square():
    mesh = build_structured_mesh(RectDomain.square(2.0), 8)
    blocks = assemble_blocks(mesh)
    s = 1.3
    a = 1.0 - math.exp(-s)
    A = blocks.matrix(blocks.selfsimilar(s, 1.0))
    for x in random_interior(mesh, seed=23, count=20):
        assert float(x @ A.matvec(x)) == pytest.approx(
            directional_sq_norm(blocks, a, x), rel=1e-12, abs=1e-14)


def test_selfsimilar_rejects_sigma1_above_one():
    mesh = build_structured_mesh(UNIT, 4)
    with pytest.raises(ValueError):
        assemble_blocks(mesh).selfsimilar(1.0, 1.0 + 1e-9)


def test_coercivity_threshold():
    # the mass-term coefficient of the energy identity changes sign at
    # sigma1 = 1: just above it the identity goes negative on every field
    mesh = build_structured_mesh(RectDomain.square(2.0), 8)
    blocks = assemble_blocks(mesh)
    s = 0.7
    a = 1.0 - math.exp(-s)
    eps = 1e-6
    for x in random_interior(mesh, seed=29, count=5):
        m_norm = float(x @ blocks.mass.matvec(x))
        base = float(x @ blocks.matrix(blocks.selfsimilar(s, 1.0)).matvec(x))
        # sigma1 = 1 + eps corresponds to subtracting eps * M from the form
        above = base - eps * m_norm
        assert above - directional_sq_norm(blocks, a, x) < 0.0
        for sigma1 in (1.0, 0.5, 0.0, -1.0):
            val = float(x @ blocks.matrix(blocks.selfsimilar(s, sigma1)).matvec(x))
            assert val - directional_sq_norm(blocks, a, x) >= -1e-13 * m_norm


def test_advection_skew_identity(to_dense):
    # x^T (B + B^T) x = -2 x^T M x on zero-boundary fields
    mesh = build_structured_mesh(RectDomain.square(4.0), 9)
    blocks = assemble_blocks(mesh)
    Bt = to_dense(blocks.b_adv, interior_mask(mesh)).T
    for x in random_interior(mesh, seed=31, count=10):
        inner = x[interior_mask(mesh)]
        lhs = float(x @ blocks.b_adv.matvec(x) + inner @ (Bt @ inner))
        rhs = -2.0 * float(x @ blocks.mass.matvec(x))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_directional_diffusion_positive_semidefinite():
    mesh = build_structured_mesh(RectDomain.square(2.0), 7)
    blocks = assemble_blocks(mesh)
    for s in (0.0, 0.4, 3.0):
        a = 1.0 - math.exp(-s)
        for x in random_interior(mesh, seed=37, count=10):
            assert directional_sq_norm(blocks, a, x) >= 0.0


def test_bandwidth_of_assembled_matrices():
    mesh = build_structured_mesh(UNIT, 12)
    blocks = assemble_blocks(mesh)
    span = 2 * (mesh.n + 1) + 2
    for mat in (blocks.mass, the_blocks(blocks)[1], blocks.b_adv):  # [1] is d_vv
        assert max(abs(off) for off in mat.offsets) <= span


def test_split_params():
    # the reaction split sigma1 + sigma2 = 2 and theta belong to RunConfig;
    # the assembled implicit operator guards sigma1 <= 1 on its own
    p = RunConfig(sigma1=0.5)
    assert p.sigma2 == 1.5
    with pytest.raises(ValueError):
        RunConfig(sigma1=1.5)
    with pytest.raises(ValueError):
        RunConfig(theta=1.5)
    with pytest.raises(ValueError):
        assemble_blocks(build_structured_mesh(UNIT, 3)).selfsimilar(0.5, 1.5)
