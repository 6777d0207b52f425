"""P1 finite element operators on the uniform structured triangulation.

Every node couples to itself and to the six neighbours it shares an edge
with, at grid steps (dv, dz) = (0, 0), (+-1, 0), (0, +-1) and +-(1, 1),
since each cell is split along its lower-left to upper-right diagonal. So
each block is a 7-point stencil whose entries are the exact integrals over
the six triangles around the row node, in closed form:

* mass, d_vv, d_zz and d_vz_sym hold one value per stencil point, a multiple
  of the cell area h_v h_z / 2, of h_z / h_v, of h_v / h_z and of 1;
* b_adv, the advection pairing ((v/2) d_v u + (3 z/2) d_z u, w) with u the
  column, has linear coefficients, so its entries are affine in the row
  node's (v, z) on each stencil point.

Exact integrals make the discrete energy identities hold to rounding.
Homogeneous Dirichlet conditions are imposed by a zero frame: the operators
act on node vectors whose boundary values are 0.0 and write zero boundary
rows, never penalized.
"""

import math

import numpy as np

from . import sparse
from .mesh import TriMesh

# Per stencil point (dv, dz), in the order of the offsets dz (n + 1) + dv:
# mass / c, d_vv h_v / h_z, d_zz h_z / h_v and d_vz_sym, then
# b_adv = c k + (h_z / 12) a_v v + (h_v / 4) a_z z at a row node (v, z) as
# (k, a_v, a_z), with c = h_v h_z / 2 the cell area.
STENCIL = (
    ((-1, -1), (1 / 6, 0.0, 0.0, -1.0), (1 / 6, -1.0, -1.0)),
    ((0, -1), (1 / 6, 0.0, -1.0, 1.0), (1 / 3, 1.0, -2.0)),
    ((-1, 0), (1 / 6, -1.0, 0.0, 1.0), (0.0, -2.0, 1.0)),
    ((0, 0), (1.0, 2.0, 2.0, -2.0), (-1.0, 0.0, 0.0)),
    ((1, 0), (1 / 6, -1.0, 0.0, 1.0), (0.0, 2.0, -1.0)),
    ((0, 1), (1 / 6, 0.0, -1.0, 1.0), (1 / 3, -1.0, 2.0)),
    ((1, 1), (1 / 6, 0.0, 0.0, -1.0), (1 / 6, 1.0, 1.0)),
)

MASS, D_VV = np.eye(5)[:2]  # the coefficient vectors of the mass and of d_vv


class OperatorBlocks:
    """Mesh-level matrices assembled once and recombined per time step.

    mass, d_vv, d_zz and d_vz_sym are one stencil each, the rows of the
    (4, 7) table, and mass is a matrix too; b_adv has a stencil per node. An
    operator is a vector c of coefficients over the five blocks, in that
    order, and matrix(c) builds it: 7 numbers, c[:4] @ table, plus c[4]
    times b_adv's rows when c[4] is not 0. The time-dependent forms are

        lagrangian(t)     = d_vv + t^2 d_zz + t d_vz_sym
        selfsimilar(s,o1) = d_vv + A d_vz_sym + A^2 d_zz - b_adv - o1 * mass,
                            A = 1 - e^{-s}
    """

    def __init__(self, table, b_adv: sparse.SparseMatrix):
        self.table, self.b_adv = table, b_adv
        self.mass = sparse.SparseMatrix(b_adv.side, table[0])

    def matrix(self, coeffs, out=None) -> sparse.SparseMatrix:
        """The operator sum_b coeffs[b] * block b, its rows written into out if given."""
        return sparse.combine(coeffs, self.table, self.b_adv, out=out)

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
    """The five building blocks on the node grid of side s = n + 1, where
    the stencil point (dv, dz) lies at offset dz s + dv."""
    hv, hz = mesh.hv, mesh.hz
    cell = hv * hz / 2
    scale = np.array([cell, hz / hv, hv / hz, 1.0])
    v, z = mesh.nodes.T
    table = scale[:, None] * np.array([consts for _, consts, _ in STENCIL]).T
    b_adv = np.array([cell * k + hz / 12 * a_v * v + hv / 4 * a_z * z for _, _, (k, a_v, a_z) in STENCIL])
    return OperatorBlocks(table, sparse.SparseMatrix(mesh.n + 1, b_adv))
