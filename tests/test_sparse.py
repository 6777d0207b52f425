import math
import tracemalloc

import numpy as np
import pytest

from kfplab import analytic, sparse
from kfplab.assembly import D_VV, MASS, STENCIL, assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh
from kfplab.solvers import project_initial
from conftest import _to_dense
from test_mesh import boundary_mask, interior_count, interior_mask

DOMAINS = [RectDomain.square(10.0), RectDomain(-1.0, 2.0, 0.5, 3.0)]


class DiaMatrix:
    """The oracle: a square banded matrix in diagonal (DIA) storage, as
    kfplab kept its operators on the interior unknowns before they became
    grid operators on node vectors.

    offsets are strictly increasing and data has shape (len(offsets), m),
    row-aligned: y[i] = sum_k data[k, i] * x[i + offsets[k]]. Slots whose
    column i + offsets[k] falls outside the matrix are ignored. The matrix
    is immutable, so the span of rows each diagonal reaches is fixed at
    construction.
    """

    def __init__(self, offsets, data):
        self.offsets = tuple(int(o) for o in offsets)
        self.data = np.asarray(data, dtype=float)
        if any(b <= a for a, b in zip(self.offsets, self.offsets[1:])):
            raise ValueError("offsets must be strictly increasing")
        if self.data.ndim != 2 or self.data.shape[0] != len(self.offsets):
            raise ValueError(f"data shape {self.data.shape} does not match {len(self.offsets)} offsets")
        self.rows = m = self.data.shape[1]
        # (diagonal in rows lo..hi, lo, hi, lo + off, hi + off) per diagonal
        # that reaches the matrix, in ascending offset order
        self._spans = []
        for off, d in zip(self.offsets, self.data):
            lo, hi = max(0, -off), min(m, m - off)
            if lo < hi:
                self._spans.append((d[lo:hi], lo, hi, lo + off, hi + off))

    @property
    def nnz(self) -> int:
        """Stored entries inside the matrix: the multiply-adds of one matvec."""
        return sum(hi - lo for _, lo, hi, _, _ in self._spans)

    def matvec(self, x, out=None, scratch=None):  # the ascending sum needs no scratch
        x = np.asarray(x, dtype=float)
        if x.shape != (self.rows,):
            raise ValueError(f"dimension mismatch: matrix is {self.rows}x{self.rows}, vector has length {len(x)}")
        # ascending offsets are ascending columns, so every row sums its
        # entries in column order starting from zero
        out = np.empty(self.rows) if out is None else out
        out.fill(0.0)
        for d, lo, hi, x_lo, x_hi in self._spans:
            out[lo:hi] += d * x[x_lo:x_hi]
        return out

    def diagonal(self):
        if 0 not in self.offsets:
            return np.zeros(self.rows)
        return self.data[self.offsets.index(0)].copy()


def stencils(A):
    """A grid operator's data as (7, A.rows): the stencil of every row."""
    return np.broadcast_to(A.data.T, (A.rows, 7)).T


def interior_dia(A, mesh):
    """The grid operator A as the oracle holds it on the interior unknowns,
    i = a w + c at row a and column c of the w x w interior grid, w = n - 1:
    the stencil point (dv, dz) at offset dz w + dv, its slot 0 where that
    neighbour is a boundary node or the offset wraps past the end of a grid
    row. For w <= 1 the offsets collapse, and at most one stencil point is
    inside per slot."""
    w, m = mesh.n - 1, interior_count(mesh)
    a, c = np.divmod(np.arange(m), max(w, 1))
    on_v, on_z = ({-1: i > 0, 0: i >= 0, 1: i < w - 1} for i in (c, a))  # neighbour on the grid
    offsets = sorted({dz * w + dv for (dv, dz), _, _ in STENCIL})
    data = np.zeros((len(offsets), m))
    rows = stencils(A)[:, interior_mask(mesh)]  # in the order of A.offsets, which is STENCIL's
    for ((dv, dz), _, _), row in zip(STENCIL, rows):
        np.copyto(data[offsets.index(dz * w + dv)], row, where=on_v[dv] & on_z[dz])
    return DiaMatrix(offsets, data)


def interior_of(A):
    """The mask of the interior nodes of A's grid."""
    grid = np.zeros((A.side, A.side), dtype=bool)
    grid[1:-1, 1:-1] = True
    return grid.ravel()


def framed(A, values):
    """A node vector of A's grid holding values on its interior nodes and 0.0 on the frame."""
    x = np.zeros(A.rows)
    x[interior_of(A)] = values
    return x


def dense_of(triplets, shape):
    a = np.zeros(shape)
    for i, j, v in triplets:
        a[i, j] += v
    return a


def dia_of(dense):
    """DIA matrix holding every diagonal of a square dense array."""
    m = len(dense)
    offsets = np.arange(-(m - 1), m)
    data = np.zeros((len(offsets), m))
    for k, off in enumerate(offsets):
        i = np.arange(max(0, -off), min(m, m - off))
        data[k, i] = dense[i, i + off]
    return DiaMatrix(offsets, data)


def identity(m):
    return DiaMatrix((0,), np.ones((1, m)))


def the_blocks(blocks):
    """mass, d_vv, d_zz, d_vz_sym and b_adv, the five blocks in the order of
    the coefficients; the three that OperatorBlocks does not keep are built
    as the combination of one block, which gives their stored bits."""
    return (blocks.mass, *(blocks.matrix(c) for c in np.eye(5)[1:4]), blocks.b_adv)


def sides(n, domain=DOMAINS[0], dt=0.05):
    """A Lagrangian side, 7 numbers, and a self-similar one, with a row per node."""
    blocks = assemble_blocks(build_structured_mesh(domain, n))
    return blocks.matrix(MASS + dt * blocks.lagrangian(2.0)), blocks.matrix(MASS + dt * blocks.selfsimilar(0.7, 0.5))


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        DiaMatrix((0, 0), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DiaMatrix((1, -1), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DiaMatrix((-1, 0, 1), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        DiaMatrix((0,), np.zeros(3))
    # a grid operator is 7 numbers or 7 rows over a grid of side >= 2
    for side, data in ((1, np.zeros(7)), (3, np.zeros(6)), (3, np.zeros((7, 8))), (3, np.zeros((6, 9)))):
        with pytest.raises(ValueError):
            sparse.SparseMatrix(side, data)


def test_empty_matrix_matvec_is_zero():
    A = DiaMatrix((), np.zeros((0, 4)))
    out = A.matvec(np.ones(4))
    assert out.shape == (4,)
    assert np.all(out == 0.0)
    # a grid with no interior node (n = 1) is all frame
    for A in sides(1):
        out = A.matvec(np.ones(4))
        assert out.shape == (4,) and np.all(out == 0.0) and A.nnz == 0


def test_identity_triplets():
    A = identity(5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    assert np.allclose(A.matvec(x), x, atol=1e-15)


def test_csr_invariants():
    # storage invariants of the grid operators: the offsets follow from the
    # grid side s = n + 1, strictly increasing for every n; the four
    # constant blocks are 7 numbers, b_adv 7 rows, and every column an
    # interior row reaches lies inside the matrix
    for n in (1, 2, 3, 12):
        mesh = build_structured_mesh(RectDomain.square(1.0), n)
        blocks = assemble_blocks(mesh)
        s = n + 1
        for A in the_blocks(blocks):
            assert A.offsets == (-s - 1, -s, -1, 0, 1, s, s + 1) and np.all(np.diff(A.offsets) > 0)
            assert A.data.shape == ((7, mesh.node_count) if A is blocks.b_adv else (7,))
            rows = np.flatnonzero(interior_mask(mesh))
            for off in A.offsets:
                assert np.all((rows + off >= 0) & (rows + off < A.rows)), (n, off)


def test_matvec_dimension_mismatch():
    A = identity(3)
    with pytest.raises(ValueError):
        A.matvec(np.ones(4))
    with pytest.raises(ValueError):
        sides(3)[0].matvec(np.ones(15))


def test_matvec_against_dense_reference():
    rng = np.random.default_rng(1)
    trip = [(int(i), int(j), float(v)) for i, j, v in
            zip(rng.integers(0, 20, 120), rng.integers(0, 20, 120), rng.standard_normal(120))]
    D = dense_of(trip, (20, 20))
    A = dia_of(D)
    x = rng.standard_normal(20)
    assert np.max(np.abs(A.matvec(x) - D @ x)) < 1e-13


def _matvec_by_rows(A, x, folded=False):
    """y[i] summed entry by entry on the interior rows, 0.0 on the frame: in
    ascending offset order from 0.0, or folded, from the centre product
    data[3] x[i] on, adding data[k] (x[i - off_k] + x[i + off_k]) for the
    offsets off_k = 1, s and s + 1 of k = 4, 5, 6 in that order."""
    data = stencils(A)
    y = np.zeros(A.rows)
    for i in np.flatnonzero(interior_of(A)):
        if folded:
            acc = data[3, i] * x[i]
            for k in (4, 5, 6):
                acc += data[k, i] * (x[i - A.offsets[k]] + x[i + A.offsets[k]])
        else:
            acc = 0.0
            for k, off in enumerate(A.offsets):
                acc += data[k, i] * x[i + off]
        y[i] = acc
    return y


@pytest.mark.parametrize("n", [2, 3, 7])  # at n = 2 one node is interior
def test_matvec_is_bit_identical_to_a_row_loop(n):
    # the four symmetric blocks sum folded, b_adv's rows in ascending order
    mesh = build_structured_mesh(RectDomain(-1.0, 2.0, 0.5, 3.0), n)
    blocks = assemble_blocks(mesh)
    rng = np.random.default_rng(n)
    for A in the_blocks(blocks):
        x = framed(A, rng.standard_normal(interior_count(mesh)))
        x[rng.random(A.rows) < 0.3] = -0.0
        assert A.symmetric == (A is not blocks.b_adv)
        assert A.matvec(x).tobytes() == _matvec_by_rows(A, x, folded=A.symmetric).tobytes()
        # 7 stencil entries applied in each row from the first interior node
        # to the last: (n + 1)^2 - 2 (n + 1) - 2 = n^2 - 3 rows, the 2 (n - 2)
        # frame rows between them included
        assert A.nnz == 7 * (n * n - 3)


@pytest.mark.parametrize("domain", DOMAINS, ids=["square", "rectangle"])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 20, 128])  # at n <= 2 the oracle's offsets collapse
def test_matvec_is_bit_identical_to_the_dia_oracle(n, domain):
    # on every interior row the grid operator gives the bits of the oracle
    # on the interior unknowns, for a side of 7 numbers and one of rows, and
    # it writes a zero frame
    # (the side of 7 numbers is symmetric, so its matvec sums folded: its
    # bits are those of the folded row loop, and each interior row lies
    # within FOLD_BOUND eps sum_j |a_ij x_j| of the oracle's ascending sum)
    mesh = build_structured_mesh(domain, n)
    inner = interior_mask(mesh)
    rng = np.random.default_rng(n)
    for A, ndim in zip(sides(n, domain), (1, 2)):
        assert A.data.ndim == ndim
        x = framed(A, rng.standard_normal(interior_count(mesh)))
        x[rng.random(A.rows) < 0.1] = -0.0
        got, dia = A.matvec(x), interior_dia(A, mesh)
        want = dia.matvec(x[inner])
        if A.symmetric:
            assert got.tobytes() == _matvec_by_rows(A, x, folded=True).tobytes()
            scale = DiaMatrix(dia.offsets, np.abs(dia.data)).matvec(np.abs(x[inner]))
            assert np.all(np.abs(got[inner] - want) <= FOLD_BOUND * np.finfo(float).eps * scale)
        else:
            assert got[inner].tobytes() == want.tobytes()
        assert np.all(got[boundary_mask(mesh)] == 0.0)


# A product's path rounds at most 7 times in the ascending sum (1 multiply,
# up to 6 adds) and 5 times in the folded one (1 add, 1 multiply, up to 3
# adds), so the two lie within gamma_7 and gamma_5 times sum_j |a_ij x_j| of
# the exact row, gamma_k = k u / (1 - k u) with u = eps / 2: 6 eps apart
# and a little over (measured: at most 1.96 eps, n = 160)
FOLD_BOUND = 6.01


def test_the_fold_is_taken_exactly_for_a_symmetric_stencil():
    # a stencil of 7 numbers with data[k] == data[6 - k] sums folded, and
    # one a single ulp from symmetric in ascending order; folded, a row
    # starts from the centre product, not from 0.0, so a row of -0.0
    # products is -0.0 where the ascending sum gives +0.0
    rng = np.random.default_rng(3)
    half = rng.uniform(0.5, 1.5, 4)
    stencil = np.concatenate([half, half[2::-1]])
    skewed = stencil.copy()
    skewed[6] = np.nextafter(skewed[6], 2.0)
    A, B = sparse.SparseMatrix(9, stencil), sparse.SparseMatrix(9, skewed)
    assert A.symmetric and not B.symmetric
    x = framed(A, rng.standard_normal(49))
    assert A.matvec(x).tobytes() == _matvec_by_rows(A, x, folded=True).tobytes()
    assert A.matvec(x).tobytes() != _matvec_by_rows(A, x).tobytes()  # the two orders differ on this x
    assert B.matvec(x).tobytes() == _matvec_by_rows(B, x).tobytes()
    zeros, inner = np.full(A.rows, -0.0), interior_of(A)
    assert np.all(np.signbit(A.matvec(zeros)) == inner) and not np.any(np.signbit(B.matvec(zeros)))
    # a scratch array the caller hands in holds the pair sums, and changes no bit
    out, scratch = np.full(A.rows, np.nan), np.full(A.rows, np.nan)
    assert A.matvec(x, out=out, scratch=scratch) is out and out.tobytes() == A.matvec(x).tobytes()
    assert B.matvec(x, scratch=scratch).tobytes() == B.matvec(x).tobytes()


@pytest.mark.parametrize("n", [2, 3, 16, 128])
def test_quadratic_form_is_the_dot_with_the_matvec(n):
    # four shifted dot products give y . M y on zero-framed vectors, random
    # and the Gaussian initial state, at any power-of-two scale once the
    # scale is taken out as the norm recorder takes it
    mesh = build_structured_mesh(DOMAINS[0], n)
    mass, rng = assemble_blocks(mesh).mass, np.random.default_rng(n)
    states = [framed(mass, rng.uniform(-1.0, 1.0, (n - 1) ** 2)) for _ in range(3)]
    states.append(project_initial(mesh, analytic.gaussian_ic).values)
    for x in states:
        want = x @ mass.matvec(x)
        assert abs(mass.quadratic_form(x) - want) <= 1e-12 * want
        for scale in (2.0 ** -600, 2.0 ** 600):
            e = math.frexp(np.abs(scale * x).max())[1]
            y = np.ldexp(scale * x, -e)
            form = mass.quadratic_form(y)
            assert abs(form - y @ mass.matvec(y)) <= 1e-12 * form
            norm = math.ldexp(math.sqrt(form), e)
            assert abs(norm - scale * math.sqrt(want)) <= 1e-12 * norm


def test_quadratic_form_needs_a_symmetric_stencil():
    A = sides(4)[1]  # a row per node
    with pytest.raises(ValueError, match="symmetric"):
        A.quadratic_form(np.zeros(A.rows))


def test_matvec_linearity():
    rng = np.random.default_rng(2)
    trip = list(zip(rng.integers(0, 15, 80), rng.integers(0, 15, 80), rng.standard_normal(80)))
    A = dia_of(dense_of(trip, (15, 15)))
    x, y = rng.standard_normal(15), rng.standard_normal(15)
    a, b = 1.7, -0.4
    lhs = A.matvec(a * x + b * y)
    rhs = a * A.matvec(x) + b * A.matvec(y)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_solve_identity():
    A = identity(6)
    b = np.arange(6.0)
    x, stats = sparse.solve(A, b, sparse.jacobi(A))
    assert stats.converged
    assert stats.iterations <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_solve_2x2_by_hand():
    A = DiaMatrix((-1, 0, 1), [[0.0, 1.0], [2.0, 3.0], [1.0, 0.0]])  # [[2, 1], [1, 3]]
    x, stats = sparse.solve(A, np.array([3.0, 4.0]), sparse.jacobi(A))
    assert stats.converged
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_solve_zero_rhs_immediate():
    A = identity(4)
    x, stats = sparse.solve(A, np.zeros(4), sparse.jacobi(A))
    assert stats.converged and stats.iterations == 0
    assert np.all(x == 0.0)


def dominant_system():
    """Seeded 50x50 diagonally dominant dense matrix and right-hand side."""
    rng = np.random.default_rng(42)
    n = 50
    D = rng.standard_normal((n, n)) * 0.5
    D += np.diag(np.abs(D).sum(axis=1) + 1.0)
    return D, rng.standard_normal(n)


def test_solve_diagonally_dominant_vs_dense_elimination():
    D, b = dominant_system()
    A = dia_of(D)
    x, stats = sparse.solve(A, b, sparse.jacobi(A), tol=1e-12)
    assert stats.converged
    oracle = np.linalg.solve(D, b)  # dense elimination reference
    assert np.max(np.abs(x - oracle)) < 1e-8


@pytest.mark.parametrize("e", [-900, -500, 500, 900])
def test_solve_is_scale_invariant(e):
    # scaling b by 2^e scales every iterate exactly, so x scales bit for bit
    D, b = dominant_system()
    A = dia_of(D)
    ref, ref_stats = sparse.solve(A, b, sparse.jacobi(A), tol=1e-12)
    x, stats = sparse.solve(A, np.ldexp(b, e), sparse.jacobi(A), tol=1e-12)
    assert stats.converged and stats.iterations == ref_stats.iterations
    assert np.array_equal(x, np.ldexp(ref, e))


def test_solve_left_inverse_of_matvec():
    rng = np.random.default_rng(9)
    n = 30
    D = rng.standard_normal((n, n)) * 0.3
    D += np.diag(np.abs(D).sum(axis=1) + 1.0)
    A = dia_of(D)
    x_true = rng.standard_normal(n)
    x, stats = sparse.solve(A, A.matvec(x_true), sparse.jacobi(A), tol=1e-12)
    assert stats.converged
    assert np.max(np.abs(x - x_true)) < 1e-8


def test_solve_reports_nonconvergence():
    rng = np.random.default_rng(3)
    n = 40
    D = rng.standard_normal((n, n)) * 0.5
    D += np.diag(np.abs(D).sum(axis=1) + 1.0)
    A = dia_of(D)
    x, stats = sparse.solve(A, rng.standard_normal(n), sparse.jacobi(A), tol=1e-14, max_iter=1)
    assert not stats.converged
    assert stats.residual > 1e-14


def test_solve_validates_inputs():
    with pytest.raises(ValueError):
        sparse.solve(identity(2), np.zeros(3), np.positive)
    with pytest.raises(ValueError):
        sparse.solve(identity(2), np.zeros(2), np.positive, tol=0.0)


def test_combine_requires_one_coefficient_per_block():
    # one table holds the constant blocks, so only the count of blocks can mismatch
    table, rows = np.ones((1, 7)), sparse.SparseMatrix(3, np.ones((7, 9)))
    with pytest.raises(ValueError):
        sparse.combine([1.0], table, rows)
    with pytest.raises(ValueError):
        sparse.combine([1.0, 1.0, 1.0], table, rows)
    with pytest.raises(ValueError):  # one coefficient for four table rows
        sparse.combine([1.0, 1.0], np.ones((4, 7)), rows)


def test_combine_of_symmetric_table_rows_is_symmetric():
    # every column sums its blocks as (b0 + b2) + (b1 + b3), so a table of
    # symmetric rows gives a symmetric stencil for any coefficients, which
    # the fold and the sweep need; a BLAS matmul may round columns k and
    # 6 - k apart (x86-64 OpenBLAS does for about half of these tables)
    rng = np.random.default_rng(11)
    rows = sparse.SparseMatrix(4, np.ones((7, 16)))
    for _ in range(200):
        table = rng.standard_normal((4, 7))
        table += table[:, ::-1]
        c = rng.standard_normal(4)
        C = sparse.combine(np.append(c, 0.0), table, rows)
        assert C.symmetric
        want = (c[0] * table[0] + c[2] * table[2]) + (c[1] * table[1] + c[3] * table[3])
        assert C.data.tobytes() == want.tobytes()


def test_combine_and_pattern_assembly(to_dense):
    mesh = build_structured_mesh(RectDomain.square(1.0), 3)
    inner = interior_mask(mesh)
    table = np.array([[2.0, 2.0, 3.0, 1.0, 0.5, 0.0, -1.0]])
    rows = sparse.SparseMatrix(4, np.arange(7 * 16, dtype=float).reshape(7, 16))
    A = sparse.SparseMatrix(4, table[0])
    for coeffs in ([2.0, -1.0], [2.0, 0.0]):
        C = sparse.combine(coeffs, table, rows)
        assert C.data.ndim == (2 if coeffs[1] else 1)
        want = coeffs[0] * to_dense(A, inner) + coeffs[1] * to_dense(rows, inner)
        assert np.allclose(to_dense(C, inner), want)


@pytest.mark.parametrize("n", [2, 3, 7])
def test_contraction_is_the_term_by_term_sum_of_the_blocks(n):
    # each entry is a sum of five products; any order of it, with or without
    # fused multiply-adds, lies within gamma_5 ~ 5 eps of sum |c_b a_b|, so
    # two orders differ by at most 10 eps of it. The four constant blocks
    # are rows of the table, b_adv has rows of its own, and a combination
    # without b_adv is 7 numbers
    blocks = assemble_blocks(build_structured_mesh(RectDomain(-1.0, 2.0, 0.5, 3.0), n))
    names = ("mass", "d_vv", "d_zz", "d_vz_sym", "b_adv")  # the order of the coefficients
    parts = the_blocks(blocks)
    assert np.shares_memory(blocks.mass.data, blocks.table) and blocks.mass.data.base is not None
    for name, part, row in zip(names, parts, blocks.table):
        assert np.array_equal(part.data, row), name
    rng = np.random.default_rng(n)
    out = np.full(blocks.b_adv.data.shape, np.nan)
    for trial in range(20):
        c = rng.standard_normal(5) * 10.0 ** rng.integers(-3, 4, 5)
        c[4] *= trial % 2  # every other combination without b_adv
        got = blocks.matrix(c)
        terms = [cb * stencils(part) for cb, part in zip(c, parts)]
        want = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        bound = 10 * np.finfo(float).eps * sum(np.abs(t) for t in terms)
        assert got.offsets == blocks.mass.offsets and got.data.ndim == (2 if c[4] else 1)
        assert np.all(np.abs(stencils(got) - want) <= bound)
        if c[4]:  # written into an array the caller owns, the rows are the same bits
            assert blocks.matrix(c, out=out).data.tobytes() == got.data.tobytes() == out.tobytes()


def test_solve_breakdown_restart_reports_failure():
    # skew-symmetric system: the BiCGStab recurrence breaks down at once
    # (r* . A p = 0), so its first pass leaves x as it was and the true
    # residual is not lowered: the solve ends there and reports honestly
    A = DiaMatrix((-1, 1), [[0.0, -1.0], [1.0, 0.0]])  # [[0, 1], [-1, 0]]
    x, stats = sparse.solve(A, np.array([1.0, 0.0]), sparse.jacobi(A), tol=1e-12, max_iter=50)
    assert not stats.converged
    assert stats.iterations == 0 and stats.residual == 1.0
    assert np.all(np.isfinite(x)) and not np.any(x)


def lagrangian_lhs(n, t, dt=0.1, domain=DOMAINS[0]):
    """The sheared form's implicit side M + dt/2 A(t), 7 numbers, on the 10-square."""
    blocks = assemble_blocks(build_structured_mesh(domain, n))
    return blocks.matrix(MASS + 0.5 * dt * blocks.lagrangian(t))


def line_jacobi(A):
    """Block Jacobi over the z-lines of the interior grid, r -> T^-1 r on
    every line: the oracle of the line part's inverse, and the iteration
    count the red-black sweep is measured against. T is the tridiagonal part
    of A on a line, its entries at offsets 0 and +-s; A holds one stencil,
    so all lines share it and one matmul with its inverse applies it to all."""
    s, w = A.side, A.side - 2
    if w <= 1:
        return sparse.jacobi(A)
    tri = np.diag(np.full(w, A.diagonal()))
    tri += np.diag(np.full(w - 1, A.data[A.offsets.index(s)]), 1)  # T[a, a + 1]
    tri += np.diag(np.full(w - 1, A.data[A.offsets.index(-s)]), -1)  # T[a, a - 1]
    t_inv = np.linalg.inv(tri)

    def apply(r, out=None):
        out = sparse.zero_frame(np.empty(A.rows) if out is None else out, s)
        out.reshape(s, s)[1:-1, 1:-1] = t_inv @ r.reshape(s, s)[1:-1, 1:-1]
        return out
    return apply


def line_gauss_seidel(A):
    """The oracle of RedBlackLines: the symmetric red-black Gauss-Seidel
    sweep over the z-lines of the interior grid as a preconditioner for
    solve, as kfplab applied it before its solves ran on the odd lines.

    A holds one symmetric stencil, 7 numbers. Line c = 0 .. w - 1, w = s - 2,
    is the grid column iv = c + 1 of the interior nodes. A's line part L, at
    offsets 0 and +-s, is on every line the tridiagonal Toeplitz T, a on the
    diagonal and b beside it, so T^-1 = (Q / lambda) Q in the sine basis,
    lambda_k = a + 2 b cos(k pi / (w + 1)). The offsets +-1 and +-(s + 1)
    couple even lines only to odd ones, by C_oe into odd rows and C_eo into
    even rows, so the sweep is three line solves,
    y_e' = T^-1 r_e, y_o = T^-1 (r_o - C_oe y_e') and y_e = T^-1 (r_e - C_eo y_o),
    or (L + C_eo)^-1 L (L + C_oe)^-1 r: symmetric positive definite whenever
    A is. A line solve subtracts its couplings as two pairs, each pair's sum
    times one number, in arrays of its own; with w <= 1 this is jacobi(A).
    """
    if not isinstance(A, sparse.SparseMatrix) or not A.symmetric:
        raise ValueError("the sweep needs A as one symmetric stencil of 7 numbers")
    s, w = A.side, A.side - 2
    if w <= 1:
        return sparse.jacobi(A)
    q, cos = sparse._sine_basis(w)
    t_inv = (q / (A.diagonal() + 2.0 * A.data[5] * cos)) @ q
    n = (w + 1) // 2, w // 2  # lines of colour p = 0 (even) and 1 (odd)
    row = n[0] + 2
    # line 2j + p is column j of rhs and j + 1 of frames[p], framed by zeros
    # for neighbours off the grid; with `row` entries a row, the neighbours of
    # entry i of the flat rhs lie at i + shift in the flat frames[1 - p][p:]
    frames, rhs, term = np.zeros((2, w + 2, row)), np.empty((w, row)), np.empty(w * row)
    lines = [frames[p, 1:-1, 1:count + 1] for p, count in enumerate(n)]
    shifts = ((A.data[4], row, row + 1), (A.data[6], 0, 2 * row + 1))  # offsets +-1 and +-(s + 1)

    def apply(r, out=None):
        interior = r.reshape(s, s)[1:-1, 1:-1]
        for sweep, p in enumerate((0, 1, 0)):
            rhs[:, :n[p]] = interior[:, p::2]
            if sweep:  # subtract the coupling to the lines of the other colour
                m = (w - 1) * row + n[p]
                target, source = rhs.reshape(-1)[:m], frames[1 - p].reshape(-1)[p:]
                for c, a, b in shifts:
                    target -= np.multiply(c, np.add(source[a:a + m], source[b:b + m], out=term[:m]), out=term[:m])
            np.matmul(t_inv, rhs[:, :n[p]], out=lines[p])
        out = sparse.zero_frame(np.empty(A.rows) if out is None else out, s)
        interior = out.reshape(s, s)[1:-1, 1:-1]
        interior[:, 0::2], interior[:, 1::2] = lines
        return out
    return apply


def line_part(A):
    """The line part L of A, a grid operator of one stencil: its entries at offsets 0 and +-s."""
    return sparse.SparseMatrix(A.side, np.where(np.isin(A.offsets, (0, A.side, -A.side)), A.data, 0.0))


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("n", [3, 5, 12])
def test_line_jacobi_is_the_inverse_of_the_line_part(n, t, to_dense):
    # the z-lines are the entries at offsets 0 and +-s, s = n + 1
    A, s = lagrangian_lhs(n, t), n + 1
    inner = interior_of(A)
    dense = to_dense(A)
    i, j = np.indices(dense.shape)
    tri = np.where(np.isin(j - i, (0, s, -s)), dense, 0.0)[np.ix_(inner, inner)]
    r = framed(A, np.random.default_rng(n).standard_normal(inner.sum()))
    want = np.linalg.solve(tri, r[inner])
    got = line_jacobi(A)(r)
    assert np.max(np.abs(got[inner] - want)) <= 1e-12 * np.max(np.abs(want))
    assert np.all(got[~inner] == 0.0)


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("n", [3, 5, 12])
def test_line_gauss_seidel_of_the_line_part_is_its_inverse(n, t, to_dense):
    # without the offsets +-1 and +-(s + 1) no line couples to another, and
    # the sweep is T^-1 on every line, T from the sine basis
    L = line_part(lagrangian_lhs(n, t))
    assert [off for off, d in zip(L.offsets, L.data) if d != 0.0] == [-(n + 1), 0, n + 1]
    inner = interior_of(L)
    r = framed(L, np.random.default_rng(n).standard_normal(inner.sum()))
    want = np.linalg.solve(to_dense(L, inner), r[inner])
    got = line_gauss_seidel(L)(r)
    assert np.max(np.abs(got[inner] - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("domain", DOMAINS)
@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("n", [3, 4, 5, 12, 13])  # w = n - 1 of both parities; at w = 2 no row is interior
def test_line_gauss_seidel_is_the_symmetric_red_black_sweep(n, t, domain, to_dense):
    # one apply is (L + C_eo)^-1 L (L + C_oe)^-1 r, with L the line part and
    # C_oe (C_eo) the rest of A in the rows of odd (even) lines; taken as a
    # matrix it is symmetric to rounding (measured: up to 2.3e-15 of its
    # largest entry at n = 13)
    A = lagrangian_lhs(n, t, dt=0.1, domain=domain)
    inner = interior_of(A)
    dense, lines = to_dense(A, inner), to_dense(line_part(A), inner)
    odd_row = ((np.arange(A.rows) % A.side - 1) % 2 == 1)[inner][:, None]  # line c = iv - 1 is odd
    c_oe, c_eo = np.where(odd_row, dense - lines, 0.0), np.where(odd_row, 0.0, dense - lines)
    r = framed(A, np.random.default_rng(n).standard_normal(inner.sum()))
    want = np.linalg.solve(lines + c_eo, lines @ np.linalg.solve(lines + c_oe, r[inner]))
    apply = line_gauss_seidel(A)
    assert np.max(np.abs(apply(r)[inner] - want)) <= 1e-12 * np.max(np.abs(want))
    out = np.full(A.rows, np.nan)
    assert apply(r, out=out) is out and out.tobytes() == apply(r).tobytes()
    matrix = np.column_stack([apply(e)[inner] for e in np.eye(A.rows)[inner]])
    assert np.max(np.abs(matrix - matrix.T)) <= 64 * np.finfo(float).eps * np.max(np.abs(matrix))


@pytest.mark.parametrize("n", [1, 2])
def test_line_gauss_seidel_without_lines_is_jacobi(n):
    # w = 0 has no unknowns and w = 1 one, so no line coupling
    A = lagrangian_lhs(n, 1.0)
    r = np.ones(A.rows)
    assert np.array_equal(line_gauss_seidel(A)(r), sparse.jacobi(A)(r))


def full_jacobi(A):
    """The oracle of jacobi: r -> r / diag(A) with the diagonal spread over a
    node vector, 0 in the frame rows, and the identity on its zero entries,
    as jacobi built it before it took the stored centre."""
    diag = sparse.zero_frame(np.full(A.rows, A.data[3]), A.side)
    inv_diag = np.divide(1.0, diag, out=np.ones(A.rows), where=diag != 0.0)
    return lambda r, out=None: np.multiply(inv_diag, r, out=out)


@pytest.mark.parametrize("n", [1, 2, 3, 12, 128])
def test_jacobi_of_the_stored_centre_is_the_full_diagonal_bit_for_bit(n):
    # a 7-number side's diagonal is one number, a self-similar side's one
    # row; the centre is positive, so on a vector with a zero frame, -0.0
    # entries included, the reciprocal of the stored centre gives the
    # oracle's bits in every row, frame included
    for A in sides(n):
        assert np.shape(A.diagonal()) == (() if A.data.ndim == 1 else (A.rows,))
        assert np.all(A.diagonal() > 0.0)
        rng = np.random.default_rng(n)
        r = framed(A, rng.standard_normal(interior_of(A).sum()))
        r[rng.random(A.rows) < 0.3] = -0.0
        want = full_jacobi(A)(r).tobytes()
        for out in (None, np.full(A.rows, np.nan)):
            got = sparse.jacobi(A)(r, out=out)
            assert got.tobytes() == want and (out is None or got is out)
    # a zero centre leaves r as it is
    r = np.random.default_rng(0).standard_normal(16)
    assert sparse.jacobi(sparse.SparseMatrix(4, [1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0]))(r).tobytes() == r.tobytes()


def test_the_diagonal_and_a_jacobi_build_allocate_no_vector():
    # a 7-number side's diagonal is its stored centre: neither A.diagonal()
    # nor building jacobi(A) makes an array of A.rows floats
    A = sides(128)[0]
    for build in (A.diagonal, lambda: sparse.jacobi(A)):
        tracemalloc.start()
        try:
            kept = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept is not None and peak < np.empty(A.rows).nbytes, peak


def test_line_gauss_seidel_rejects_a_nonsymmetric_stencil():
    # the sweep sums each pair of equal coupling terms before its multiply
    A = lagrangian_lhs(5, 1.0)
    for k in (0, 1, 2):
        skewed = A.data.copy()
        skewed[k] = np.nextafter(skewed[k], np.inf)
        with pytest.raises(ValueError):
            line_gauss_seidel(sparse.SparseMatrix(A.side, skewed))


def test_line_gauss_seidel_needs_a_square_grid():
    # a square grid of lines with one stencil: neither a DIA matrix nor a
    # side with a row per node
    with pytest.raises(ValueError):
        line_gauss_seidel(identity(6))
    with pytest.raises(ValueError):
        line_gauss_seidel(sides(5)[1])


def test_solve_with_line_gauss_seidel_vs_dense_elimination(to_dense):
    A = lagrangian_lhs(12, 10.0)
    inner = interior_of(A)
    b = framed(A, np.random.default_rng(5).standard_normal(inner.sum()))
    x, stats = sparse.solve(A, b, tol=1e-12, precond=line_gauss_seidel(A))
    assert stats.converged
    _, jacobi_stats = sparse.solve(A, b, sparse.jacobi(A), tol=1e-12)
    assert stats.iterations < jacobi_stats.iterations
    want = np.linalg.solve(to_dense(A, inner), b[inner])
    assert np.max(np.abs(x[inner] - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [1, 2, 3, 12])  # at n = 1 no node is interior, at n = 2 one
def test_preconditioners_and_solve_keep_the_zero_frame(n):
    # given vectors with a zero frame, jacobi, the sweep and solve return
    # exactly 0.0 on the frame, whatever their out and work arrays held
    for A in sides(n):
        inner = interior_of(A)
        rng = np.random.default_rng(n)
        r = framed(A, rng.standard_normal(inner.sum()))
        preconds = [sparse.jacobi(A)] + ([line_gauss_seidel(A)] if A.data.ndim == 1 else [])
        for precond in preconds:
            for out in (None, np.full(A.rows, np.nan)):
                assert np.all(precond(r, out=out)[~inner] == 0.0)
        for precond in preconds:
            x0 = framed(A, rng.standard_normal(inner.sum()))
            x, stats = sparse.solve(A, r, x0=x0, precond=precond, work=np.full((sparse.WORK_VECTORS, A.rows), np.nan))
            assert stats.converged and np.all(x[~inner] == 0.0)
        if A.data.ndim == 1:  # and so does the solve on packed odd lines
            x, stats = sparse.solve(A, r, sparse.RedBlackLines(A), x0=x0,
                                    work=np.full((sparse.WORK_VECTORS, A.rows), np.nan))
            assert stats.converged and np.all(x[~inner] == 0.0)


@pytest.mark.parametrize("domain", DOMAINS, ids=["square", "rectangle"])
@pytest.mark.parametrize("t", [0.0, 3.3, 9.95])
def test_red_black_solver_on_at_most_one_line_is_dense_elimination(t, domain, to_dense):
    # w = 0 has no unknown, so b = 0 and the solve takes no iteration; w = 1
    # has one, on the even line, whose packed vector is c alone: s vanishes
    # in the first iteration, and x = b / a to within one rounding, as
    # lambda_1 = a + 2 b cos(pi / 2) (measured: at most 1.0 eps relative)
    for n, iterations in ((1, 0), (2, 1)):
        A = lagrangian_lhs(n, t, domain=domain)
        inner = interior_of(A)
        for seed in range(5):
            b = framed(A, np.random.default_rng(seed).standard_normal(inner.sum()) * 10.0 ** (4 * seed - 8))
            x, stats = sparse.solve(A, b, sparse.RedBlackLines(A))
            want = np.linalg.solve(to_dense(A, inner), b[inner])
            assert (stats.iterations, stats.converged) == (iterations, True)
            assert np.all(np.abs(x[inner] - want) <= np.finfo(float).eps * np.abs(want))
            assert np.all(x[~inner] == 0.0)


def red_black_cases(n, t):
    """(A, b, x0) on the sheared form's side at time t: b random on the
    interior, from zero and from a start near the solution; b on the odd
    lines only, whose even part is zero; and b = 0 from a start."""
    A = lagrangian_lhs(n, t)
    rng = np.random.default_rng(n)
    inner = interior_of(A)
    b = framed(A, rng.standard_normal(inner.sum()))
    start = framed(A, np.linalg.solve(_to_dense(A, inner), b[inner]) + 1e-3 * rng.standard_normal(inner.sum())) \
        if n <= 33 else b + framed(A, 0.1 * rng.standard_normal(inner.sum()))
    odd = b.copy()
    odd.reshape(A.side, A.side)[:, 1::2] = 0.0  # grid column iv = 2j + 1 is the even line 2j
    yield A, b, None
    yield A, b, start
    yield A, odd, None
    yield A, np.zeros(A.rows), start


@pytest.mark.parametrize("t", [0.05, 3.3, 9.95])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 9, 10, 33, 128])  # w = n - 1 of both parities, w = 0 and 1 too
def test_red_black_solver_is_the_solve_with_the_sweep(n, t):
    # the packed iteration is solve(A, b, precond=line_gauss_seidel(A)) in
    # exact arithmetic: the same iterations and verdict, and x within 1e-12
    # relative (measured: at most 1.2e-13, n = 128); a stale work array
    # changes no bit
    for A, b, x0 in red_black_cases(n, t):
        want, want_stats = sparse.solve(A, b, x0=x0, precond=line_gauss_seidel(A))
        precond = sparse.RedBlackLines(A)
        x, stats = sparse.solve(A, b, precond, x0=x0)
        assert (stats.iterations, stats.converged) == (want_stats.iterations, want_stats.converged)
        assert stats.residual <= sparse.DEFAULT_TOL or not np.any(b)
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want), initial=0.0)
        stale = sparse.solve(A, b, precond, x0=x0, work=np.full((sparse.WORK_VECTORS, A.rows), np.nan))
        assert stale[0].tobytes() == x.tobytes() and stale[1] == stats


def test_red_black_solver_restarts_as_the_sweep_does():
    # on the line part alone the sweep is L^-1: the packed s vanishes after
    # half a step and the packed solve restarts, where the oracle ends in
    # one step; and a system with one line of each colour, w = 2
    for A in (line_part(lagrangian_lhs(12, 10.0)), lagrangian_lhs(3, 10.0)):
        b = framed(A, np.random.default_rng(2).standard_normal(interior_of(A).sum()))
        want, want_stats = sparse.solve(A, b, precond=line_gauss_seidel(A))
        x, stats = sparse.solve(A, b, sparse.RedBlackLines(A))
        assert stats.converged and stats.iterations == want_stats.iterations
        assert np.max(np.abs(x - want)) <= 1e-12 * np.max(np.abs(want))


def test_red_black_solver_starts_a_new_pass_when_the_full_residual_misses_tol(monkeypatch):
    # a first packed pass that stops at 1e4 times its target hands back an
    # x whose full residual misses tol ||b||; the next pass packs that
    # residual afresh, from where the first ended, and meets tol
    A = lagrangian_lhs(33, 3.3)
    b = framed(A, np.random.default_rng(6).standard_normal(interior_of(A).sum()))
    want, _ = sparse.solve(A, b, precond=line_gauss_seidel(A))
    inner, passes = sparse._iterate, []

    def first_pass_stops_early(P, precond, r, u, target, max_iter, rows):
        target *= 1e4 if not passes else 1.0
        iters = inner(P, precond, r, u, target, max_iter, rows)
        passes.append((iters, math.sqrt(r @ r) <= target))  # the packed recurrence met its target
        return iters
    monkeypatch.setattr(sparse, "_iterate", first_pass_stops_early)
    x, stats = sparse.solve(A, b, sparse.RedBlackLines(A))
    assert len(passes) == 2 and all(met for _, met in passes)
    assert stats.converged and stats.iterations == sum(iters for iters, _ in passes)
    assert math.sqrt(np.sum((b - A.matvec(x)) ** 2)) <= sparse.DEFAULT_TOL * math.sqrt(b @ b)
    assert np.max(np.abs(x - want)) <= 1e-8 * np.max(np.abs(want))


def test_a_pass_whose_packed_solve_takes_no_iteration_ends_the_solve(monkeypatch):
    # a packed pass that takes no iteration leaves x as it was, so the full
    # residual is not lowered, and that alone ends the solve, unconverged
    A = lagrangian_lhs(9, 3.3)
    b = framed(A, np.random.default_rng(7).standard_normal(interior_of(A).sum()))
    calls = []

    def stops_at_once(P, precond, r, u, target, max_iter, rows):
        calls.append(1)
        assert len(calls) <= 10, "the passes do not end"
        return 0
    monkeypatch.setattr(sparse, "_iterate", stops_at_once)
    x, stats = sparse.solve(A, b, sparse.RedBlackLines(A), max_iter=5)
    assert len(calls) == 1 and stats.iterations == 0 and not stats.converged and not np.any(x)


def test_a_red_black_solve_makes_no_packed_product_outside_the_recurrence(monkeypatch):
    # solve alone judges convergence, from the full residual: the packed pass
    # makes the two products of each iteration and no third one of its own
    A = lagrangian_lhs(33, 9.95)
    b = framed(A, np.random.default_rng(9).standard_normal(interior_of(A).sum()))
    product, calls = sparse.RedBlackLines.matvec, []
    monkeypatch.setattr(sparse.RedBlackLines, "matvec",
                        lambda self, *args, **kwargs: calls.append(1) or product(self, *args, **kwargs))
    x, stats = sparse.solve(A, b, sparse.RedBlackLines(A))
    assert stats.converged and stats.iterations > 0 and len(calls) == 2 * stats.iterations


def test_a_drifted_pass_restarts_from_the_true_residual(monkeypatch):
    # on the two 3 x 3 systems of solve_cases the recurrence's residual meets
    # the target before the true residual does; that pass ends, and the next
    # one starts from r = b_k - A x, bit for bit, until the solve converges
    inner, passes = sparse._iterate, []

    def recorded(A, precond, r, x, target, max_iter, rows):
        start = (r.copy(), x.copy())
        iters = inner(A, precond, r, x, target, max_iter, rows)
        passes.append((start, math.sqrt(r @ r) <= target))
        return iters
    monkeypatch.setattr(sparse, "_iterate", recorded)
    for A, b, x0, precond in [case for case in solve_cases() if case[0].rows == 3]:
        passes.clear()
        x, stats = sparse.solve(A, b, x0=x0, precond=precond, max_iter=50)
        b_k = np.ldexp(b, -math.frexp(np.abs(b).max())[1])
        assert all(np.subtract(b_k, A.matvec(start)).tobytes() == r.tobytes() for (r, start), _ in passes)
        assert len(passes) >= 2 and any(met for _, met in passes[:-1])  # a drifted pass restarted
        assert stats.converged and stats.residual <= sparse.DEFAULT_TOL


@pytest.mark.parametrize("build", [sparse.jacobi, sparse.RedBlackLines], ids=["jacobi_solver", "red_black_solver"])
def test_a_solve_refuses_an_x0_of_another_shape_and_a_tol_not_in_0_inf(build):
    # a scalar or length-1 x0 would spread over every row, frame included,
    # and read as converged; tol = inf would take the zero start as
    # converged, tol = nan run to max_iter
    A = lagrangian_lhs(8, 3.3)
    b = framed(A, np.random.default_rng(10).standard_normal(interior_of(A).sum()))
    precond = build(A)
    for kwargs in (dict(x0=np.array([5.0])), dict(x0=5.0), dict(x0=np.zeros(A.rows - 1)),
                   dict(x0=np.zeros((A.rows, 1))), dict(tol=math.inf), dict(tol=math.nan), dict(tol=-1e-10)):
        with pytest.raises(ValueError):
            sparse.solve(A, b, precond, **kwargs)
    x, stats = sparse.solve(A, b, precond, x0=list(np.zeros(A.rows)))
    assert stats.converged


@pytest.mark.parametrize("tol, max_iter", [(1e-300, 30), (1e-14, 1), (1e-10, 2)])
def test_red_black_solver_ends_within_max_iter_and_reports_the_true_residual(tol, max_iter):
    # a packed solve that meets its own test starts a new pass unless the
    # full residual meets tol ||b|| too; here every pass lowers that
    # residual, so the solve stops at max_iter and reports the residual of
    # the x it returns
    A = lagrangian_lhs(33, 9.95)
    b = framed(A, np.random.default_rng(4).standard_normal(interior_of(A).sum()))
    x, stats = sparse.solve(A, b, sparse.RedBlackLines(A), tol=tol, max_iter=max_iter)
    true = math.sqrt(np.sum((b - A.matvec(x)) ** 2)) / math.sqrt(b @ b)
    assert not stats.converged and stats.iterations == max_iter
    assert stats.residual == pytest.approx(true, rel=1e-6)


@pytest.mark.parametrize("build", [sparse.jacobi, sparse.RedBlackLines], ids=["jacobi_solver", "red_black_solver"])
@pytest.mark.parametrize("bad, where", [(math.inf, "b"), (math.nan, "b"), (math.inf, "x0")])
def test_a_solve_from_a_non_finite_residual_ends_at_once_unconverged(build, bad, where):
    # an inf in b must not read as converged (inf <= inf), nor a nan spin
    # through max_iter: a pass whose starting residual is not finite ends
    # the solve at once, unconverged, from zero or from a start
    A = lagrangian_lhs(9, 3.3)
    b = framed(A, np.random.default_rng(8).standard_normal(interior_of(A).sum()))
    for x0 in (None, np.zeros(A.rows)) if where == "b" else (np.zeros(A.rows),):
        vector = b.copy() if where == "b" else x0
        vector[A.side + 2] = bad
        with np.errstate(all="ignore"):
            x, stats = sparse.solve(A, vector if where == "b" else b, build(A), x0=x0)
        assert stats.iterations == 0 and not stats.converged


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_a_solve_near_rounding_ends_once_a_pass_does_not_lower_the_true_residual(seed, monkeypatch):
    # at n = 128, t = 9.95 and tol = 3e-15 the true residual stalls above its
    # target while each packed pass meets its own within an iteration; the
    # solve ends, unconverged, at the first pass that does not lower it,
    # within a few passes instead of one-iteration passes up to max_iter
    A = lagrangian_lhs(128, 9.95)
    b = sparse.zero_frame(np.random.default_rng(seed).standard_normal(A.rows), A.side)
    inner, passes = sparse._iterate, []
    monkeypatch.setattr(sparse, "_iterate", lambda *args: passes.append(1) or inner(*args))
    x, stats = sparse.solve(A, b, sparse.RedBlackLines(A), tol=3e-15, max_iter=200)
    true = math.sqrt(np.sum((b - A.matvec(x)) ** 2)) / math.sqrt(b @ b)
    assert not stats.converged and len(passes) <= 5 and stats.iterations < 200
    assert stats.residual == pytest.approx(true, rel=1e-6)


@pytest.mark.parametrize("side", [lambda blocks: MASS + 0.005 * D_VV,
                                  lambda blocks: MASS + 0.005 * blocks.selfsimilar(0.7, 0.5)])
def test_jacobi_on_a_one_centre_side_is_the_unpreconditioned_solve(side):
    # the original and self-similar theta sides have one centre value at
    # every node (b_adv's centre is -h_v h_z / 2 throughout), so jacobi(A)
    # only scales A M^-1 by that value: solve takes the same iterations
    # with np.positive, the identity, and x agrees to rounding
    blocks = assemble_blocks(build_structured_mesh(DOMAINS[0], 128))
    A = blocks.matrix(side(blocks))
    assert np.ptp(A.diagonal()) == 0.0
    b = sparse.zero_frame(np.random.default_rng(12).standard_normal(A.rows), A.side)
    x, stats = sparse.solve(A, b, precond=sparse.jacobi(A))
    y, plain = sparse.solve(A, b, precond=np.positive)
    assert stats.converged and plain.converged and stats.iterations == plain.iterations
    assert np.max(np.abs(x - y)) <= 1e-12 * np.max(np.abs(y))


@pytest.mark.parametrize("e", [-600, 600])
def test_red_black_solver_is_scale_invariant(e):
    # b and x0 are scaled by a power of two first, so x scales bit for bit
    for A, b, x0 in red_black_cases(33, 3.3):
        precond = sparse.RedBlackLines(A)
        ref, ref_stats = sparse.solve(A, b, precond, x0=x0)
        x, stats = sparse.solve(A, np.ldexp(b, e), precond, x0=None if x0 is None else np.ldexp(x0, e))
        assert stats == ref_stats and x.tobytes() == np.ldexp(ref, e).tobytes()


def test_red_black_solver_checks_its_inputs():
    # one symmetric stencil of 7 numbers, a side of the right length, a
    # positive tol and a work array of the solve's shape; the sweep calls
    # A.diagonal() once at every size, with no line or one line too
    A = lagrangian_lhs(5, 1.0)
    skewed = A.data.copy()
    skewed[0] = np.nextafter(skewed[0], np.inf)
    for bad in (sparse.SparseMatrix(A.side, skewed), sides(5)[1], identity(6)):
        with pytest.raises(ValueError):
            sparse.RedBlackLines(bad)
    precond = sparse.RedBlackLines(A)
    for kwargs in (dict(b=np.ones(A.rows - 1)), dict(b=np.ones(A.rows), tol=0.0),
                   dict(b=np.ones(A.rows), work=np.empty((sparse.WORK_VECTORS - 1, A.rows)))):
        with pytest.raises(ValueError):
            sparse.solve(A, precond=precond, **kwargs)
    for n in (1, 2, 5):
        calls = []
        B = lagrangian_lhs(n, 1.0)
        B.diagonal = lambda B=B: calls.append(1) or sparse.SparseMatrix.diagonal(B)
        sparse.RedBlackLines(B)
        assert len(calls) == 1


def allocating_solve(A, b, precond, tol=sparse.DEFAULT_TOL, max_iter=sparse.DEFAULT_MAX_ITER, x0=None):
    """The reference for solve: the same BiCGStab with every vector a new
    array, as it stood before the iteration ran in a work array."""
    k = int(np.frexp(np.abs(b).max(initial=0.0))[1])
    b = np.ldexp(b, -k)
    norm_b = np.sqrt(b @ b)
    if norm_b == 0.0:
        return np.zeros(A.rows), sparse.SolveStats(0, 0.0, True)
    target = tol * norm_b
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    x = np.zeros(A.rows) if x0 is None else np.ldexp(x0, -k)
    iters, last = 0, np.inf
    while True:
        r = b - A.matvec(x)
        normr = np.sqrt(r @ r)
        if normr <= target or not normr < last or iters >= max_iter:
            return np.ldexp(x, k), sparse.SolveStats(iters, normr / norm_b, bool(normr <= target))
        last = normr
        r_star, p = r.copy(), r.copy()
        rho, norm_star = float(r_star @ r), normr
        while iters < max_iter:
            mp = precond(p)
            amp = A.matvec(mp)
            denom = float(r_star @ amp)
            if abs(rho) <= eps * norm_star * normr or abs(denom) <= eps * norm_star * np.sqrt(amp @ amp):
                break
            alpha = rho / denom
            s = r - alpha * amp
            ms = precond(s)
            ams = A.matvec(ms)
            ams_sq = float(ams @ ams)
            iters += 1
            if ams_sq < tiny:
                x = x + alpha * mp
                break
            omega = float(ams @ s) / ams_sq
            x = x + alpha * mp + omega * ms
            r = s - omega * ams
            normr = np.sqrt(r @ r)
            if normr <= target or abs(omega) < tiny:
                break
            rho_new = float(r_star @ r)
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * amp)


ELEVEN_ROWS = 11


def solve_in_eleven_rows(A, b, precond, tol=sparse.DEFAULT_TOL, max_iter=sparse.DEFAULT_MAX_ITER, x0=None,
                         work=None):
    """The reference for solve's nine rows: the same BiCGStab in a work array
    of ELEVEN_ROWS rows, with s and M s in rows of their own, as it stood
    before s took r's row and M s took M p's."""
    work = np.empty((ELEVEN_ROWS, A.rows)) if work is None else work
    b_k, x, r, r_star, p, mp, amp, s, ms, ams, t = work
    k = int(np.frexp(np.abs(b, out=t).max(initial=0.0))[1])
    np.ldexp(b, -k, out=b_k)
    norm_b = math.sqrt(b_k @ b_k)
    if norm_b == 0.0:
        return np.zeros(A.rows), sparse.SolveStats(0, 0.0, True)
    target = tol * norm_b
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    np.ldexp(0.0 if x0 is None else np.asarray(x0, dtype=float), -k, out=x)
    iters, last = 0, math.inf
    while True:
        np.subtract(b_k, A.matvec(x, out=t, scratch=s), out=r)
        normr = math.sqrt(r @ r)
        if normr <= target or not normr < last or iters >= max_iter:
            return np.ldexp(x, k), sparse.SolveStats(iters, normr / norm_b, bool(normr <= target))
        last = normr
        r_star[:] = r
        p[:] = r
        rho, norm_star = float(r_star @ r), normr
        while iters < max_iter:
            precond(p, out=mp)
            A.matvec(mp, out=amp, scratch=t)
            denom = float(r_star @ amp)
            if abs(rho) <= eps * norm_star * normr or abs(denom) <= eps * norm_star * math.sqrt(amp @ amp):
                break
            alpha = rho / denom
            np.subtract(r, np.multiply(alpha, amp, out=s), out=s)
            precond(s, out=ms)
            A.matvec(ms, out=ams, scratch=t)
            ams_sq = float(ams @ ams)
            iters += 1
            if ams_sq < tiny:
                x += np.multiply(alpha, mp, out=t)
                break
            omega = float(ams @ s) / ams_sq
            x += np.multiply(alpha, mp, out=t)
            x += np.multiply(omega, ms, out=t)
            np.subtract(s, np.multiply(omega, ams, out=r), out=r)
            normr = math.sqrt(r @ r)
            if normr <= target or abs(omega) < tiny:
                break
            rho_new = float(r_star @ r)
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p -= np.multiply(omega, amp, out=t)
            p *= beta
            p += r


def solve_cases():
    """(A, b, x0, precond) for every path of solve: Jacobi and the z-line
    sweep, from zero and from a start; a restart after r* . A M p vanishes
    and another after omega does, each ending where s vanishes; and a system
    that breaks down at once, which ends the solve."""
    A = lagrangian_lhs(12, 10.0)
    rng = np.random.default_rng(11)
    inner = interior_of(A)
    b = framed(A, rng.standard_normal(inner.sum()))
    start = b + framed(A, 0.1 * rng.standard_normal(inner.sum()))
    for precond in (sparse.jacobi(A), line_gauss_seidel(A)):
        for x0 in (None, start):
            yield A, b, x0, precond
    for dense, rhs in (([[-1, -1, -1], [-1, -1, 0], [2, 0, -1]], [1, 1, 0]),
                       ([[-1, -1, -1], [0, 0, 1], [1, -1, 2]], [1, 0, 0]),
                       ([[0, 1], [-1, 0]], [1, 0])):
        D = dia_of(np.array(dense, dtype=float))
        yield D, np.array(rhs, dtype=float), None, sparse.jacobi(D)


def test_solve_in_a_work_array_is_bit_identical_to_the_allocating_reference():
    # the in-place updates keep every operation and its order, so x and the
    # stats are the same bits; stale values in a reused work array do not
    # matter, and a work array of the wrong shape is refused
    for A, b, x0, precond in solve_cases():
        want, want_stats = allocating_solve(A, b, x0=x0, precond=precond, max_iter=50)
        work = np.full((sparse.WORK_VECTORS, A.rows), np.nan)
        for w in (None, work, work):
            x, stats = sparse.solve(A, b, x0=x0, precond=precond, max_iter=50, work=w)
            assert x.tobytes() == want.tobytes() and stats == want_stats
    for shape in ((sparse.WORK_VECTORS, 4), (sparse.WORK_VECTORS - 1, 3)):
        with pytest.raises(ValueError):
            sparse.solve(identity(3), np.ones(3), np.positive, work=np.empty(shape))


def test_solve_in_nine_rows_is_bit_identical_to_the_eleven_row_oracle():
    # s takes r's row and M s takes M p's, and x takes alpha M p before M s
    # is formed: the same operations in the same order, so x and the stats
    # are the same bits on every path, breakdowns and restarts included,
    # from fresh work arrays and from reused ones full of stale values
    assert sparse.WORK_VECTORS == 9
    for A, b, x0, precond in solve_cases():
        want, want_stats = solve_in_eleven_rows(A, b, x0=x0, precond=precond, max_iter=50)
        stale = solve_in_eleven_rows(A, b, x0=x0, precond=precond, max_iter=50,
                                     work=np.full((ELEVEN_ROWS, A.rows), np.nan))
        assert stale[0].tobytes() == want.tobytes() and stale[1] == want_stats
        work = np.full((sparse.WORK_VECTORS, A.rows), np.nan)
        for w in (None, work, work):
            x, stats = sparse.solve(A, b, x0=x0, precond=precond, max_iter=50, work=w)
            assert x.tobytes() == want.tobytes() and stats == want_stats
