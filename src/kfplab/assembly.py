"""P1 finite element operators on the uniform structured triangulation.

Every interior node couples to itself and to the six neighbours it shares an
edge with, at grid steps (dv, dz) = (0, 0), (+-1, 0), (0, +-1) and +-(1, 1),
since each cell is split along its lower-left to upper-right diagonal. So
each block is a 7-point stencil whose entries are the exact integrals over
the six triangles around the row node, in closed form:

* mass, d_vv, d_zz and d_vz_sym hold one value per stencil point, a multiple
  of the cell area h_v h_z / 2, of h_z / h_v, of h_v / h_z and of 1;
* b_adv, the advection pairing ((v/2) d_v u + (3 z/2) d_z u, w) with u the
  column, has linear coefficients, so its entries are affine in the row
  node's (v, z) on each stencil point.

Exact integrals make the discrete energy identities hold to rounding.
Homogeneous Dirichlet conditions are imposed by reduction to the interior
unknowns: boundary rows and columns are dropped, never penalized.
"""

import math

import numpy as np

from . import sparse
from .mesh import TriMesh

# Per stencil point (dv, dz): mass / c, d_vv h_v / h_z, d_zz h_z / h_v and
# d_vz_sym, then b_adv = c k + (h_z / 12) a_v v + (h_v / 4) a_z z at a row
# node (v, z) as (k, a_v, a_z), with c = h_v h_z / 2 the cell area.
STENCIL = (
    ((0, 0), (1.0, 2.0, 2.0, -2.0), (-1.0, 0.0, 0.0)),
    ((1, 0), (1 / 6, -1.0, 0.0, 1.0), (0.0, 2.0, -1.0)),
    ((-1, 0), (1 / 6, -1.0, 0.0, 1.0), (0.0, -2.0, 1.0)),
    ((0, 1), (1 / 6, 0.0, -1.0, 1.0), (1 / 3, -1.0, 2.0)),
    ((0, -1), (1 / 6, 0.0, -1.0, 1.0), (1 / 3, 1.0, -2.0)),
    ((1, 1), (1 / 6, 0.0, 0.0, -1.0), (1 / 6, 1.0, 1.0)),
    ((-1, -1), (1 / 6, 0.0, 0.0, -1.0), (1 / 6, -1.0, -1.0)),
)

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

    def matrix(self, coeffs, out=None) -> sparse.SparseMatrix:
        """The operator sum_b coeffs[b] * block b, its data written into out if given."""
        return sparse.combine(coeffs, self.stack, self.offsets, out=out)

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
    """All interior-reduced building-block matrices over one band of offsets.

    The unknown i = a w + c sits at column c and row a of the w x w grid of
    interior nodes, w = n - 1, so the stencil point (dv, dz) lies at offset
    dz w + dv. Its slot is 0 where that neighbour falls off the grid: on the
    boundary, or past the end of a grid row, where the offset wraps.
    """
    w, m = mesh.n - 1, mesh.interior_count
    hv, hz = mesh.hv, mesh.hz
    cell = hv * hz / 2
    scale = np.array([cell, hz / hv, hv / hz, 1.0])
    v, z = mesh.nodes[mesh.interior].T
    a, c = np.divmod(np.arange(m), max(w, 1))
    on_v, on_z = ({-1: i > 0, 0: i >= 0, 1: i < w - 1} for i in (c, a))  # neighbour on the grid
    offsets = sorted({dz * w + dv for (dv, dz), _, _ in STENCIL})  # not distinct for w <= 1
    stack = np.zeros((5, len(offsets), m))
    for (dv, dz), consts, (k, a_v, a_z) in STENCIL:
        inside = on_v[dv] & on_z[dz]  # at most one stencil point is inside per slot
        band = stack[:, offsets.index(dz * w + dv)]
        np.copyto(band[:4], (scale * consts)[:, None], where=inside)
        np.copyto(band[4], cell * k + hz / 12 * a_v * v + hv / 4 * a_z * z, where=inside)
    return OperatorBlocks(tuple(offsets), stack)
