import math

import numpy as np
import pytest

from kfplab.assembly import _element_blocks, assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh
from kfplab.solvers import RunConfig

UNIT = RectDomain(0.0, 1.0, 0.0, 1.0)


def random_interior(mesh, seed=0, count=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, (count, mesh.interior_count))


def directional_sq_norm(blocks, a, x):
    """||(d_v + a d_z) u||^2 via the quadratic form of the diffusion blocks."""
    D = blocks.matrix([0.0, 1.0, a * a, a, 0.0])
    return float(x @ D.matvec(x))


def dense_reference(mesh, kernel):
    """Element kernels scattered straight into an (m, m) array on the interior
    unknowns, element by element in order, independently of the banded
    storage."""
    ele = mesh.elements
    rows = np.repeat(ele, 3, axis=1).reshape(-1, 3, 3)
    cols = np.transpose(rows, (0, 2, 1))
    ri = mesh.interior_index[rows].ravel()
    ci = mesh.interior_index[cols].ravel()
    keep = (ri >= 0) & (ci >= 0)
    a = np.zeros((mesh.interior_count, mesh.interior_count))
    np.add.at(a, (ri[keep], ci[keep]), kernel.ravel()[keep])
    return a


def test_assembly_matches_dense_reference(to_dense):
    for n in (2, 3, 7):
        mesh = build_structured_mesh(RectDomain(-1.0, 2.0, 0.5, 3.0), n)
        kernels = _element_blocks(mesh)
        blocks = assemble_blocks(mesh)
        for name, kernel in kernels.items():
            assert np.array_equal(to_dense(getattr(blocks, name)),
                                  dense_reference(mesh, kernel)), (n, name)


def test_element_mass_matrix_closed_form():
    mesh = build_structured_mesh(UNIT, 1)
    blocks = _element_blocks(mesh)
    area = 0.5
    want = area / 12.0 * (np.ones((3, 3)) + np.eye(3))
    for e in range(len(mesh.elements)):
        assert np.allclose(blocks["mass"][e], want, atol=1e-15)


def test_full_mass_integrates_one():
    mesh = build_structured_mesh(RectDomain(-3.0, 1.0, 2.0, 7.0), 6)
    # the full mass matrix is the sum of its element kernels, and its
    # entries add up to the integral of 1, the area
    assert _element_blocks(mesh)["mass"].sum() == pytest.approx(mesh.domain.side_v * mesh.domain.side_z,
                                                                rel=1e-13)


def test_mass_symmetric_exactly(to_dense):
    mesh = build_structured_mesh(UNIT, 5)
    M = assemble_blocks(mesh).mass
    assert np.max(np.abs(to_dense(M) - to_dense(M).T)) == 0.0


def test_mass_positive_definite_on_interior():
    mesh = build_structured_mesh(UNIT, 6)
    M = assemble_blocks(mesh).mass
    for x in random_interior(mesh, seed=2, count=10):
        assert x @ M.matvec(x) > 0.0


def test_heat_v_equals_lagrangian_at_zero():
    mesh = build_structured_mesh(RectDomain.square(2.0), 7)
    blocks = assemble_blocks(mesh)
    A0 = blocks.matrix(blocks.lagrangian(0.0))
    Ah = blocks.d_vv
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
    vals[mesh.boundary] = 0.0
    x = vals[mesh.interior]
    blocks = assemble_blocks(mesh)
    q = x @ blocks.matrix(blocks.lagrangian(0.0)).matvec(x)
    assert abs(q - np.pi ** 2 / 4) / (np.pi ** 2 / 4) < 0.02


@pytest.mark.parametrize("t", [0.0, 1.0, 3.7])
def test_lagrangian_symmetric(t, to_dense):
    mesh = build_structured_mesh(RectDomain.square(2.0), 6)
    blocks = assemble_blocks(mesh)
    A = blocks.matrix(blocks.lagrangian(t))
    assert np.max(np.abs(to_dense(A) - to_dense(A).T)) == 0.0


def test_lagrangian_perfect_square_identity():
    mesh = build_structured_mesh(RectDomain.square(3.0), 10)
    blocks = assemble_blocks(mesh)
    grads, areas = mesh.element_gradients()
    for t in (0.0, 0.6, 2.5):
        A = blocks.matrix(blocks.lagrangian(t))
        for x in random_interior(mesh, seed=int(10 * t) + 1, count=20):
            # elementwise quadrature of the squared directional gradient
            vals = np.zeros(mesh.node_count)
            vals[mesh.interior] = x
            ue = vals[mesh.elements]
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
    Bt = to_dense(blocks.b_adv).T
    for x in random_interior(mesh, seed=31, count=10):
        lhs = float(x @ blocks.b_adv.matvec(x) + x @ (Bt @ x))
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
    for mat in (blocks.mass, blocks.d_vv, blocks.b_adv):
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
