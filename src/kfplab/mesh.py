"""Structured triangular meshes of rectangles with P1 interpolation.

A mesh is its (n + 1) x (n + 1) node grid. Every grid cell is split along
the lower-left to upper-right diagonal, so assembly and error numbers are
fully deterministic. No element or boundary array is stored: the error
norm reads the grid's four corner slices, and the boundary is the frame
that sparse.zero_frame zeroes. Meshes are immutable after construction
and all operations here are pure. A Location holds points placed on a
mesh, so that fixed points are located once and any field on the mesh is
interpolated there by one gather.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RectDomain:
    """Rectangle [v_min, v_max] x [z_min, z_max].

    The first axis is the velocity-like variable, the second is the
    position-like variable (x, z or the rescaled one, depending on the
    variables in use).
    """

    v_min: float
    v_max: float
    z_min: float
    z_max: float

    def __post_init__(self):
        if not np.isfinite([self.v_min, self.v_max, self.z_min, self.z_max, self.side_v, self.side_z]).all():
            raise ValueError(f"domain bounds and sides must be finite, got {self}")
        if not (self.v_min < self.v_max and self.z_min < self.z_max):
            raise ValueError("degenerate domain: need v_min < v_max and z_min < z_max")

    @property
    def side_v(self) -> float:
        return self.v_max - self.v_min

    @property
    def side_z(self) -> float:
        return self.z_max - self.z_min

    @staticmethod
    def square(half_width: float) -> "RectDomain":
        return RectDomain(-half_width, half_width, -half_width, half_width)


class TriMesh:
    """Uniform triangulation of a rectangle with n subdivisions per side.

    Nodes are ordered row-major over the structured grid: node id
    iz * (n + 1) + iv. Each of the n*n cells is split into two triangles
    (lower: ll, lr, ur and upper: ll, ur, ul), all with positive area; the
    corner of every cell at once is an (n, n) slice of the node grid, e.g.
    ll = grid[:-1, :-1] and ur = grid[1:, 1:].
    """

    def __init__(self, domain: RectDomain, n: int):
        if n < 1:
            raise ValueError("n must be a positive integer")
        self.domain = domain
        self.n = int(n)
        self.hv = domain.side_v / n
        self.hz = domain.side_z / n
        self.h = max(self.hv, self.hz)

        nv = n + 1
        vs = np.linspace(domain.v_min, domain.v_max, nv)
        zs = np.linspace(domain.z_min, domain.z_max, nv)
        V, Z = np.meshgrid(vs, zs, indexing="xy")  # row iz, column iv
        self.nodes = np.column_stack([V.ravel(), Z.ravel()])

    @property
    def node_count(self) -> int:
        return (self.n + 1) ** 2


@dataclass
class Field:
    """Nodal coefficients of a P1 function on a mesh, tagged with its time."""

    mesh: TriMesh
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.mesh.node_count,):
            raise ValueError("field length does not match mesh node count")


def build_structured_mesh(domain: RectDomain, n: int) -> TriMesh:
    """Uniform mesh of (n+1)^2 nodes and 2 n^2 triangles over the rectangle."""
    return TriMesh(domain, n)


@dataclass(frozen=True)
class Location:
    """Points placed on a mesh once, for P1 interpolation of any field on it.

    Per point: the node ids (a, b, c) of the triangle holding it and their
    P1 weights, and whether it lies outside the domain. a is the cell's
    lower-left node; b, c are its lower-right and upper-right nodes in the
    lower triangle and its upper-right and upper-left nodes in the upper one.
    """

    mesh: TriMesh
    nodes: np.ndarray  # rows a, b, c, ints of shape (3, N)
    weights: np.ndarray  # rows wa, wb, wc, floats of shape (3, N)
    outside: np.ndarray  # bool, shape (N,)


def locate(mesh: TriMesh, points: np.ndarray) -> Location:
    """Place (N, 2) points on the mesh: cell-index arithmetic on the uniform
    grid followed by the two-triangle test. Points within 1e-12 * h of the
    boundary count as inside; a point with a non-finite coordinate counts as
    outside."""
    dom = mesh.domain
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = mesh.n
    tol = 1e-12 * mesh.h
    gx = (pts[:, 0] - dom.v_min) / mesh.hv
    gy = (pts[:, 1] - dom.z_min) / mesh.hz
    pad = tol / min(mesh.hv, mesh.hz)
    inside = (gx >= -pad) & (gx <= n + pad) & (gy >= -pad) & (gy <= n + pad)

    # outside points go to cell 0, which keeps NaN out of the integer cast
    gx = np.clip(np.where(inside, gx, 0.0), 0.0, n)
    gy = np.clip(np.where(inside, gy, 0.0), 0.0, n)
    i = np.minimum(gx.astype(np.int64), n - 1)
    j = np.minimum(gy.astype(np.int64), n - 1)
    xi = gx - i
    eta = gy - j

    nv = n + 1
    ll = j * nv + i
    ul = ll + nv
    ur = ul + 1
    lower = eta <= xi
    nodes = np.stack([ll, np.where(lower, ll + 1, ur), np.where(lower, ur, ul)])
    weights = np.stack([np.where(lower, 1.0 - xi, 1.0 - eta), np.where(lower, xi - eta, xi),
                        np.where(lower, eta, eta - xi)])
    return Location(mesh, nodes, weights, ~inside)


def interpolate_many(field: Field, points: "np.ndarray | Location", scratch: np.ndarray | None = None) -> np.ndarray:
    """P1 values at arbitrary points, 0 outside the domain (Dirichlet extension).

    points is an (N, 2) array, located here, or a Location on the field's
    mesh, which lets a caller locate fixed points once for many fields.
    scratch, a (3, N) float array if given, takes the three vertices'
    weighted values, so that a caller that interpolates many fields at the
    same points allocates only the result.
    """
    loc = points if isinstance(points, Location) else locate(field.mesh, points)
    if loc.mesh is not field.mesh:
        raise ValueError("the points were located on another mesh")
    v = np.take(field.values, loc.nodes, out=scratch, mode="clip")  # one gather; every node id is in range
    v *= loc.weights
    out = np.add(v[0], v[1])
    out += v[2]
    out[loc.outside] = 0.0
    return out
