"""P1 finite element assembly over the structured mesh.

All element integrals use the 3-midpoint rule. Every integrand that appears
here (products of the linear basis functions, their constant gradients and
the linear advection coefficients) has total degree <= 2, so assembly is
exact and the discrete energy identities hold to machine precision rather
than approximately.

Homogeneous Dirichlet conditions are imposed by reduction to the interior
unknowns; boundary rows and columns are dropped, never penalized.
"""

import math

import numpy as np

from . import sparse
from .mesh import TriMesh, edge_midpoints, midpoint_quadrature


def _element_blocks(mesh: TriMesh):
    """Per-element 3x3 kernels for every bilinear form used by the solvers.

    Returns a dict of (n_el, 3, 3) arrays: mass, d_vv, d_zz, d_vz_sym (the
    symmetrized mixed-gradient pairing) and b_adv, the advection pairing
    ((v/2) d_v u + (3 z / 2) d_z u, w) with u the column index.
    """
    grads, areas = mesh.element_gradients()

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


def _banded(mesh: TriMesh, kernels) -> tuple:
    """Scatter (n_el, 3, 3) element kernels into banded matrices on the
    interior unknowns, all over one band of offsets.

    On the uniform triangulation every node couples only to itself and its
    neighbours at grid offsets +-1, +-w and +-(w + 1), with w = n - 1 the
    width of the grid of interior unknowns. One unbuffered add over the slot
    k * m + row sums each entry's element contributions in element order,
    straight into the array of all bands. Returns (offsets, stack): stack[b]
    is the (k, m) DIA data of kernels[b].
    """
    rows = np.repeat(mesh.elements, 3, axis=1).reshape(-1, 3, 3)  # rows[e, i, j] = elements[e, i]
    rows, cols = rows.ravel(), np.transpose(rows, (0, 2, 1)).ravel()
    rows, cols = mesh.interior_index[rows], mesh.interior_index[cols]
    keep = (rows >= 0) & (cols >= 0)
    rows, cols = rows[keep], cols[keep]
    w, m = mesh.n - 1, mesh.interior_count
    offsets = np.unique([0, 1, -1, w, -w, w + 1, -(w + 1)])  # not distinct for w <= 1
    slot = np.searchsorted(offsets, cols - rows) * m + rows
    del rows, cols  # the slots replace them; freed, they leave room for the bands
    stack = np.zeros((len(kernels), len(offsets), m))
    for band, arr in zip(stack, kernels):
        np.add.at(band.ravel(), slot, arr.ravel()[keep])
    return tuple(int(o) for o in offsets), stack


MASS, D_VV = np.eye(5)[:2]  # the coefficient vectors of the mass and of d_vv


class OperatorBlocks:
    """Mesh-level matrices assembled once and recombined per time step.

    The five blocks live in one (5, k, m) array, stack, over one band of
    offsets; mass, d_vv, d_zz, d_vz_sym and b_adv are SparseMatrix views of
    its rows, in that order. An operator is a vector c of coefficients over
    the blocks, and matrix(c) builds it in one contraction of c with the
    stack, so the time-dependent forms cost one pass per matrix:

        lagrangian(t)     = d_vv + t^2 d_zz + t d_vz_sym
        selfsimilar(s,o1) = d_vv + A d_vz_sym + A^2 d_zz - b_adv - o1 * mass,
                            A = 1 - e^{-s}
    """

    def __init__(self, offsets, stack):
        self.offsets, self.stack = offsets, stack
        self.mass, self.d_vv, self.d_zz, self.d_vz_sym, self.b_adv = (sparse.SparseMatrix(offsets, b) for b in stack)

    def matrix(self, coeffs) -> sparse.SparseMatrix:
        """The operator sum_b coeffs[b] * block b."""
        return sparse.combine(coeffs, self.stack, self.offsets)

    def lagrangian(self, t: float) -> np.ndarray:
        if t < 0:
            raise ValueError("t must be nonnegative")
        return np.array([0.0, 1.0, t * t, t, 0.0])

    def selfsimilar(self, s: float, sigma1: float) -> np.ndarray:
        """Coefficients of the coercive split operator's (negated) weak action:

            a(u, w) = ((d_v + A d_z) u, (d_v + A d_z) w)
                      - ((v/2) d_v u + (3 z/2) d_z u, w) - sigma1 (u, w)

        The advection coefficient is assembled in this combined physical
        form: the split operator's drift has 3z/(2A) in its second slot,
        which is singular at s = 0, but the directional gradient multiplies
        it back by A, so assembling the product is valid for all s >= 0 and
        algebraically identical for s > 0. The theta scheme uses this
        operator directly as the implicit-side operator.
        """
        if s < 0:
            raise ValueError("s must be nonnegative")
        if sigma1 > 1.0:
            raise ValueError("sigma1 must satisfy sigma1 <= 1 (coercivity of the implicit part)")
        a = 1.0 - math.exp(-s)
        return np.array([-sigma1, 1.0, a * a, a, -1.0])


def assemble_blocks(mesh: TriMesh) -> OperatorBlocks:
    """All interior-reduced building-block matrices over one band of offsets."""
    return OperatorBlocks(*_banded(mesh, list(_element_blocks(mesh).values())))
