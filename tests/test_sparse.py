import math

import numpy as np
import pytest

from kfplab import sparse
from kfplab.assembly import MASS, assemble_blocks
from kfplab.mesh import RectDomain, build_structured_mesh


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
    return sparse.SparseMatrix(offsets, data)


def identity(m):
    return sparse.SparseMatrix((0,), np.ones((1, m)))


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        sparse.SparseMatrix((0, 0), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sparse.SparseMatrix((1, -1), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sparse.SparseMatrix((-1, 0, 1), np.zeros((2, 3)))
    with pytest.raises(ValueError):
        sparse.SparseMatrix((0,), np.zeros(3))


def test_empty_matrix_matvec_is_zero():
    A = sparse.SparseMatrix((), np.zeros((0, 4)))
    out = A.matvec(np.ones(4))
    assert out.shape == (4,)
    assert np.all(out == 0.0)


def test_identity_triplets():
    A = identity(5)
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    assert np.allclose(A.matvec(x), x, atol=1e-15)


def test_csr_invariants():
    # storage invariants of the banded format: offsets strictly increasing
    # (no duplicates, also for n = 2 where the seven grid offsets coincide),
    # data row-aligned as (len(offsets), m), and slots outside the matrix zero
    for n in (2, 3, 12):
        mesh = build_structured_mesh(RectDomain.square(1.0), n)
        blocks = assemble_blocks(mesh)
        for A in (blocks.mass, blocks.d_vv, blocks.d_zz, blocks.d_vz_sym, blocks.b_adv):
            assert np.all(np.diff(A.offsets) > 0)
            assert A.data.shape == (len(A.offsets), mesh.interior_count)
            for off, d in zip(A.offsets, A.data):
                i = np.arange(A.rows)
                assert np.all(d[(i + off < 0) | (i + off >= A.rows)] == 0.0), (n, off)


def test_matvec_dimension_mismatch():
    A = identity(3)
    with pytest.raises(ValueError):
        A.matvec(np.ones(4))


def test_matvec_against_dense_reference():
    rng = np.random.default_rng(1)
    trip = [(int(i), int(j), float(v)) for i, j, v in
            zip(rng.integers(0, 20, 120), rng.integers(0, 20, 120), rng.standard_normal(120))]
    D = dense_of(trip, (20, 20))
    A = dia_of(D)
    x = rng.standard_normal(20)
    assert np.max(np.abs(A.matvec(x) - D @ x)) < 1e-13


def _matvec_by_rows(A, x):
    """y[i] summed entry by entry in ascending offset order from 0.0."""
    y = np.zeros(A.rows)
    for i in range(A.rows):
        acc = 0.0
        for off, d in zip(A.offsets, A.data):
            if 0 <= i + off < A.rows:
                acc += d[i] * x[i + off]
        y[i] = acc
    return y


@pytest.mark.parametrize("n", [2, 3, 7])  # at n = 2 the grid offsets collapse
def test_matvec_is_bit_identical_to_a_row_loop(n):
    blocks = assemble_blocks(build_structured_mesh(RectDomain(-1.0, 2.0, 0.5, 3.0), n))
    rng = np.random.default_rng(n)
    for A in (blocks.mass, blocks.d_vv, blocks.d_zz, blocks.d_vz_sym, blocks.b_adv):
        x = rng.standard_normal(A.rows)
        x[rng.random(A.rows) < 0.3] = -0.0
        assert A.matvec(x).tobytes() == _matvec_by_rows(A, x).tobytes()
        assert A.nnz == sum(0 <= i + off < A.rows for off in A.offsets for i in range(A.rows))


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
    x, stats = sparse.solve(A, b)
    assert stats.converged
    assert stats.iterations <= 1
    assert np.allclose(x, b, atol=1e-12)


def test_solve_2x2_by_hand():
    A = sparse.SparseMatrix((-1, 0, 1), [[0.0, 1.0], [2.0, 3.0], [1.0, 0.0]])  # [[2, 1], [1, 3]]
    x, stats = sparse.solve(A, np.array([3.0, 4.0]))
    assert stats.converged
    assert np.allclose(x, [1.0, 1.0], atol=1e-9)


def test_solve_zero_rhs_immediate():
    A = identity(4)
    x, stats = sparse.solve(A, np.zeros(4))
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
    x, stats = sparse.solve(dia_of(D), b, tol=1e-12)
    assert stats.converged
    oracle = np.linalg.solve(D, b)  # dense elimination reference
    assert np.max(np.abs(x - oracle)) < 1e-8


@pytest.mark.parametrize("e", [-900, -500, 500, 900])
def test_solve_is_scale_invariant(e):
    # scaling b by 2^e scales every iterate exactly, so x scales bit for bit
    D, b = dominant_system()
    A = dia_of(D)
    ref, ref_stats = sparse.solve(A, b, tol=1e-12)
    x, stats = sparse.solve(A, np.ldexp(b, e), tol=1e-12)
    assert stats.converged and stats.iterations == ref_stats.iterations
    assert np.array_equal(x, np.ldexp(ref, e))


def test_solve_left_inverse_of_matvec():
    rng = np.random.default_rng(9)
    n = 30
    D = rng.standard_normal((n, n)) * 0.3
    D += np.diag(np.abs(D).sum(axis=1) + 1.0)
    A = dia_of(D)
    x_true = rng.standard_normal(n)
    x, stats = sparse.solve(A, A.matvec(x_true), tol=1e-12)
    assert stats.converged
    assert np.max(np.abs(x - x_true)) < 1e-8


def test_solve_reports_nonconvergence():
    rng = np.random.default_rng(3)
    n = 40
    D = rng.standard_normal((n, n)) * 0.5
    D += np.diag(np.abs(D).sum(axis=1) + 1.0)
    A = dia_of(D)
    x, stats = sparse.solve(A, rng.standard_normal(n), tol=1e-14, max_iter=1)
    assert not stats.converged
    assert stats.residual > 1e-14


def test_solve_validates_inputs():
    with pytest.raises(ValueError):
        sparse.solve(identity(2), np.zeros(3))
    with pytest.raises(ValueError):
        sparse.solve(identity(2), np.zeros(2), tol=0.0)


def test_combine_requires_one_coefficient_per_block():
    # one array holds one band, so only the count of blocks can mismatch
    stack = np.ones((2, 1, 3))
    with pytest.raises(ValueError):
        sparse.combine([1.0], stack, (0,))
    with pytest.raises(ValueError):
        sparse.combine([1.0, 1.0, 1.0], stack, (0,))


def test_combine_and_pattern_assembly(to_dense):
    A = sparse.SparseMatrix((0,), [[2.0, 2.0, 3.0]])
    B = sparse.SparseMatrix((0,), [[1.0, 0.5, 0.5]])
    C = sparse.combine([2.0, -1.0], np.array([A.data, B.data]), (0,))
    assert np.allclose(to_dense(C), np.diag([3.0, 3.5, 5.5]))


@pytest.mark.parametrize("n", [2, 3, 7])  # at n = 2 the grid offsets collapse
def test_contraction_is_the_term_by_term_sum_of_the_blocks(n):
    # each entry is a sum of five products; any order of it, with or without
    # fused multiply-adds, lies within gamma_5 ~ 5 eps of sum |c_b a_b|, so
    # two orders differ by at most 10 eps of it
    blocks = assemble_blocks(build_structured_mesh(RectDomain(-1.0, 2.0, 0.5, 3.0), n))
    names = ("mass", "d_vv", "d_zz", "d_vz_sym", "b_adv")  # the order of the rows of the stack
    parts = [getattr(blocks, name) for name in names]
    for name, part, band in zip(names, parts, blocks.stack):
        assert np.shares_memory(part.data, blocks.stack), name
        assert part.data.base is not None and np.array_equal(part.data, band)
    rng = np.random.default_rng(n)
    out = np.full(blocks.stack.shape[1:], np.nan)
    for _ in range(20):
        c = rng.standard_normal(5) * 10.0 ** rng.integers(-3, 4, 5)
        got = blocks.matrix(c)
        terms = [cb * part.data for cb, part in zip(c, parts)]
        want = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        bound = 10 * np.finfo(float).eps * sum(np.abs(t) for t in terms)
        assert got.offsets == blocks.offsets
        assert np.all(np.abs(got.data - want) <= bound)
        # written into an array the caller owns, the data is the same bits
        assert blocks.matrix(c, out=out).data.tobytes() == got.data.tobytes() == out.tobytes()


def test_solve_breakdown_restart_reports_failure():
    # skew-symmetric system: the BiCGStab recurrence breaks down at once
    # (r* . A p = 0) after every restart; each restart counts as an iteration,
    # so the solver stops at max_iter and reports honestly
    A = sparse.SparseMatrix((-1, 1), [[0.0, -1.0], [1.0, 0.0]])  # [[0, 1], [-1, 0]]
    x, stats = sparse.solve(A, np.array([1.0, 0.0]), tol=1e-12, max_iter=50)
    assert not stats.converged
    assert stats.iterations == 50
    assert np.all(np.isfinite(x))


def lagrangian_lhs(n, t, dt=0.1):
    """The sheared form's implicit side M + dt/2 A(t) on the 10-square."""
    blocks = assemble_blocks(build_structured_mesh(RectDomain.square(10.0), n))
    return blocks.matrix(MASS + 0.5 * dt * blocks.lagrangian(t))


def line_jacobi(A):
    """Block Jacobi over lines of stride w, r -> T^-1 r on every line: the
    oracle of the line part's inverse, and the iteration count the red-black
    sweep is measured against. T is the tridiagonal part of A on line 0, its
    entries at offsets 0 and +-w; every diagonal of A holds one value, so all
    lines share it and one matmul with its inverse applies it to all."""
    w = math.isqrt(A.rows)
    if w <= 1:
        return sparse.jacobi(A)
    tri = np.diag(A.diagonal()[::w])
    tri += np.diag(A.data[A.offsets.index(w)][:-w:w], 1)  # T[a, a + 1], rows a w
    tri += np.diag(A.data[A.offsets.index(-w)][w::w], -1)  # T[a, a - 1], rows a w
    t_inv = np.linalg.inv(tri)
    return lambda r, out=None: np.matmul(t_inv, r.reshape(w, w),
                                         out=None if out is None else out.reshape(w, w)).ravel()


def line_part(A):
    """The line part L of A: its diagonals at offsets 0 and +-w, w = isqrt(A.rows)."""
    w = math.isqrt(A.rows)
    keep = [k for k, off in enumerate(A.offsets) if off in (0, w, -w)]
    return sparse.SparseMatrix([A.offsets[k] for k in keep], A.data[keep])


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("n", [3, 5, 12])
def test_line_jacobi_is_the_inverse_of_the_line_part(n, t, to_dense):
    # the z-lines are the entries at offsets 0 and +-w, w = n - 1
    A, w = lagrangian_lhs(n, t), n - 1
    dense = to_dense(A)
    i, j = np.indices(dense.shape)
    tri = np.where(np.isin(j - i, (0, w, -w)), dense, 0.0)
    r = np.random.default_rng(n).standard_normal(A.rows)
    want = np.linalg.solve(tri, r)
    got = line_jacobi(A)(r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("n", [3, 5, 12])
def test_line_gauss_seidel_of_the_line_part_is_its_inverse(n, t, to_dense):
    # without the offsets +-1 and +-(w + 1) no line couples to another, and
    # the sweep is T^-1 on every line, T from the sine basis
    L = line_part(lagrangian_lhs(n, t))
    assert L.offsets == (-(n - 1), 0, n - 1)
    r = np.random.default_rng(n).standard_normal(L.rows)
    want = np.linalg.solve(to_dense(L), r)
    got = sparse.line_gauss_seidel(L)(r)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("domain", [RectDomain.square(10.0), RectDomain(-1.0, 2.0, 0.5, 3.0)])
@pytest.mark.parametrize("t", [0.0, 1.0, 10.0])
@pytest.mark.parametrize("n", [3, 4, 5, 12, 13])  # w = n - 1 of both parities; at w = 2 no row is interior
def test_line_gauss_seidel_is_the_symmetric_red_black_sweep(n, t, domain, to_dense):
    # one apply is (L + C_eo)^-1 L (L + C_oe)^-1 r, with L the line part and
    # C_oe (C_eo) the rest of A in the rows of odd (even) lines; taken as a
    # matrix it is symmetric to rounding (measured: up to 2.3e-15 of its
    # largest entry at n = 13)
    blocks = assemble_blocks(build_structured_mesh(domain, n))
    A, w = blocks.matrix(MASS + 0.05 * blocks.lagrangian(t)), n - 1
    dense, lines = to_dense(A), to_dense(line_part(A))
    odd_row = (np.arange(A.rows) % w % 2 == 1)[:, None]
    c_oe, c_eo = np.where(odd_row, dense - lines, 0.0), np.where(odd_row, 0.0, dense - lines)
    r = np.random.default_rng(n).standard_normal(A.rows)
    want = np.linalg.solve(lines + c_eo, lines @ np.linalg.solve(lines + c_oe, r))
    apply = sparse.line_gauss_seidel(A)
    assert np.max(np.abs(apply(r) - want)) <= 1e-12 * np.max(np.abs(want))
    out = np.full(A.rows, np.nan)
    assert apply(r, out=out) is out and out.tobytes() == apply(r).tobytes()
    matrix = np.column_stack([apply(e) for e in np.eye(A.rows)])
    assert np.max(np.abs(matrix - matrix.T)) <= 64 * np.finfo(float).eps * np.max(np.abs(matrix))


@pytest.mark.parametrize("n", [1, 2])
def test_line_gauss_seidel_without_lines_is_jacobi(n):
    # w = 0 has no unknowns and w = 1 one, so no line coupling
    A = lagrangian_lhs(n, 1.0)
    r = np.ones(A.rows)
    assert np.array_equal(sparse.line_gauss_seidel(A)(r), sparse.jacobi(A)(r))


def test_line_gauss_seidel_needs_a_square_grid():
    with pytest.raises(ValueError):
        sparse.line_gauss_seidel(identity(6))


def test_solve_with_line_gauss_seidel_vs_dense_elimination(to_dense):
    A = lagrangian_lhs(12, 10.0)
    b = np.random.default_rng(5).standard_normal(A.rows)
    x, stats = sparse.solve(A, b, tol=1e-12, precond=sparse.line_gauss_seidel(A))
    assert stats.converged
    _, jacobi_stats = sparse.solve(A, b, tol=1e-12)
    assert stats.iterations < jacobi_stats.iterations
    want = np.linalg.solve(to_dense(A), b)
    assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def allocating_solve(A, b, tol=sparse.DEFAULT_TOL, max_iter=sparse.DEFAULT_MAX_ITER, x0=None, precond=None):
    """The reference for solve: the same BiCGStab with every vector a new
    array, as it stood before the iteration ran in a work array."""
    k = int(np.frexp(np.abs(b).max(initial=0.0))[1])
    b = np.ldexp(b, -k)
    norm_b = np.sqrt(b @ b)
    if norm_b == 0.0:
        return np.zeros(A.rows), sparse.SolveStats(0, 0.0, True)
    precond = sparse.jacobi(A) if precond is None else precond
    target = tol * norm_b
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    x = np.zeros(A.rows) if x0 is None else np.ldexp(x0, -k)
    iters = 0
    while True:
        r = b - A.matvec(x)
        normr = np.sqrt(r @ r)
        if normr <= target or iters >= max_iter:
            return np.ldexp(x, k), sparse.SolveStats(iters, normr / norm_b, bool(normr <= target))
        r_star, p = r.copy(), r.copy()
        rho, norm_star = float(r_star @ r), normr
        while iters < max_iter:
            mp = precond(p)
            amp = A.matvec(mp)
            denom = float(r_star @ amp)
            if abs(rho) <= eps * norm_star * normr or abs(denom) <= eps * norm_star * np.sqrt(amp @ amp):
                iters += 1
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
            if normr <= target:
                res = b - A.matvec(x)
                true_res = np.sqrt(res @ res)
                if true_res <= target:
                    return np.ldexp(x, k), sparse.SolveStats(iters, true_res / norm_b, True)
            if abs(omega) < tiny:
                break
            rho_new = float(r_star @ r)
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p = r + beta * (p - omega * amp)


def solve_cases():
    """(A, b, x0, precond) for every path of solve: Jacobi and the z-line
    sweep, from zero and from a start; a restart after r* . A M p vanishes
    and another after omega does, each ending where s vanishes; and a system
    that breaks down after every restart."""
    A = lagrangian_lhs(12, 10.0)
    rng = np.random.default_rng(11)
    b = rng.standard_normal(A.rows)
    start = b + 0.1 * rng.standard_normal(A.rows)
    for precond in (sparse.jacobi(A), sparse.line_gauss_seidel(A)):
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
            sparse.solve(identity(3), np.ones(3), work=np.empty(shape))
