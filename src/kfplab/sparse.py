"""The 7-point operators of the P1 forms on the node grid, their linear
combination and a preconditioned BiCGStab solver with its two preconditioners.

A vector holds the values at the nodes of the (n + 1) x (n + 1) grid, as
Field.values does. Its boundary nodes are the frame, the homogeneous
Dirichlet data, 0.0 in every vector of a solve: a matvec writes zero frame
rows, a preconditioner keeps a zero frame, and so does every linear
combination.

The advection terms make the assembled systems nonsymmetric, hence a stabilized
bi-conjugate-gradient method, solve, the one driver of every solve. Its test of
the true residual at the start of each pass is the only stopping test: a pass
ends once its recurrence's own residual meets the target, and the solve,
unconverged, after a pass that did not lower the true residual. A
preconditioner is a function (r, out=None) -> M^-1 r, written into out if
given, built from the matrix it serves; every solve names its own,
solve(A, b, precond, tol=, max_iter=, x0=, work=) -> (x, SolveStats):

* jacobi(A): the inverse of the main diagonal, one number (a row for a side
  with b_adv). It serves matrices whose couplings stay mass dominated: the
  original and self-similar forms.
* RedBlackLines(A): a symmetric red-black Gauss-Seidel sweep of exact
  solves along the z-lines of the interior grid, the couplings at offsets
  0 and +-s. The sheared form's operator (d_v + t d_z)^2 puts nearly all
  of its coupling there at large t, where diagonal preconditioning needs
  several times as many iterations. The sweep leaves the even lines of
  every residual-space vector a multiple of one vector, so each pass runs
  the recurrence on packed (scalar, odd-line) vectors, whose product takes
  two batches of line solves and no matvec (its run_pass).

A symmetric stencil's matvec adds x[i - o] + x[i + o] before one multiply,
o = 1, s, s + 1. Matrices are immutable after construction. matvec and solve write
only to the out, scratch and work arrays a caller hands them, and to those they return.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 1000


@dataclass
class SolveStats:
    iterations: int
    residual: float  # final residual relative to ||b||, absolute when b = 0
    converged: bool


def zero_frame(v: np.ndarray, side: int) -> np.ndarray:
    """v, a vector on the grid of the given side, with its frame set to 0.0."""
    grid = v.reshape(side, side)
    grid[::side - 1] = grid[:, ::side - 1] = 0.0  # rows and columns 0 and side - 1
    return v


class SparseMatrix:
    """The 7-point operator of a P1 form on the node grid of side s >= 2.

    On every interior row i, y[i] = sum_k data[k] * x[i + offsets[k]] over
    the offsets dz s + dv of the stencil points (dv, dz) = (-1, -1), (0, -1),
    (-1, 0), (0, 0), (1, 0), (0, 1) and (1, 1), summed in that order from 0.0;
    on the frame rows y = 0. data is 7 numbers, one stencil for every row, or
    (7, s * s) rows, data[k, i] in row i. An interior node's neighbours are
    grid nodes, so no offset leaves the matrix or wraps past a grid row. A
    symmetric stencil, data[k] == data[6 - k], is summed folded instead, from
    data[3] x[i] on (not 0.0: a row of -0.0 terms is -0.0), adding data[k]
    (x[i - offsets[k]] + x[i + offsets[k]]) for k = 4, 5, 6 in that order.
    """

    def __init__(self, side: int, data):
        self.side = s = int(side)
        self.offsets = (-s - 1, -s, -1, 0, 1, s, s + 1)
        self.rows = s * s
        self.data = np.asarray(data, dtype=float)
        if s < 2 or self.data.shape not in ((7,), (7, self.rows)):
            raise ValueError(f"data of shape {self.data.shape} is no 7-point operator on a grid of side {s}")
        # matvec sums the rows lo .. hi - 1, the first interior node to the last, a slice per offset
        self._span = lo, hi = s + 1, max(s + 1, self.rows - s - 1)
        self._terms = tuple((d if d.ndim == 0 else d[lo:hi], lo + off, hi + off)
                            for off, d in zip(self.offsets, self.data))
        self.symmetric = self.data.ndim == 1 and bool(np.all(self.data == self.data[::-1]))
        self.nnz = 7 * (hi - lo)  # stencil entries applied per matvec

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
        """A x, written into out if given, the fold's pair sums into scratch if given: A.rows floats each, not x."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.rows,):
            raise ValueError(f"dimension mismatch: matrix is {self.rows}x{self.rows}, vector has length {len(x)}")
        out = np.empty(self.rows) if out is None else out
        rows = out[slice(*self._span)]  # zero_frame zeroes every row outside the span
        if self.symmetric:
            pair = np.empty(len(rows)) if scratch is None else scratch[:len(rows)]
            np.multiply(self.data[3], x[slice(*self._span)], out=rows)
            for (d, b_lo, b_hi), (_, a_lo, a_hi) in zip(self._terms[4:], self._terms[2::-1]):
                rows += np.multiply(d, np.add(x[a_lo:a_hi], x[b_lo:b_hi], out=pair), out=pair)
        else:
            rows.fill(0.0)
            for d, x_lo, x_hi in self._terms:
                rows += d * x[x_lo:x_hi]
        return zero_frame(out, self.side)

    def quadratic_form(self, y: np.ndarray) -> float:
        """y . A y for a symmetric stencil and y zero on the frame, from four dot products:
        d3 y.y + 2 (d4 y[1:].y[:-1] + d5 y[s:].y[:-s] + d6 y[s+1:].y[:-s-1]), d = data. The
        frame cancels every pair that wraps past a grid row, so it equals y . (A y) in algebra."""
        if not self.symmetric:
            raise ValueError("the quadratic form needs a symmetric stencil of 7 numbers")
        d, s = self.data, self.side
        return float(d[3] * (y @ y) + 2.0 * (d[4] * (y[1:] @ y[:-1]) + d[5] * (y[s:] @ y[:-s])
                                             + d[6] * (y[s + 1:] @ y[:-s - 1])))

    def diagonal(self) -> float | np.ndarray:
        """The main diagonal as stored, data[3]: one number, or for rows a row per node."""
        return self.data[3]


def combine(coeffs, table: np.ndarray, rows: SparseMatrix, out=None) -> SparseMatrix:
    """The operator sum_b coeffs[b] * block b: blocks b < k are the stencils of the
    (k, 7) table, added as (b0 + b2 + ...) + (b1 + b3 + ...) in every column alike,
    block k is rows, a stencil per row. It is 7 numbers when coeffs[k] is 0; else
    its (7, s * s) rows go into out if given, and change when out is written again."""
    coeffs = np.asarray(coeffs, dtype=float)
    terms = coeffs[:-1].reshape(len(table), 1) * table  # ValueError unless a coefficient per table row
    data = terms[0::2].sum(axis=0) + terms[1::2].sum(axis=0)  # so symmetric rows give a symmetric stencil
    if coeffs[-1] != 0.0:
        data = np.add(np.multiply(coeffs[-1], rows.data, out=out), data[:, None], out=out)
    return SparseMatrix(rows.side, data)


def jacobi(A: SparseMatrix):
    """Diagonal preconditioner r -> r / diag(A), the identity where diag(A) is 0: one number or row."""
    diag = A.diagonal()
    inv_diag = np.divide(1.0, diag, out=np.ones(np.shape(diag)), where=diag != 0.0)
    return lambda r, out=None: np.multiply(inv_diag, r, out=out)


@functools.lru_cache(maxsize=4)
def _sine_basis(w: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvectors Q[j, k] = sqrt(2 / (w + 1)) sin(j k pi / (w + 1)), j, k = 1..w, of every
    symmetric tridiagonal Toeplitz w x w matrix, and cos(k pi / (w + 1)); Q = Q^T = Q^-1."""
    angles = np.arange(1, w + 1) * np.pi / (w + 1)
    return math.sqrt(2.0 / (w + 1)) * np.sin(np.outer(np.arange(1, w + 1), angles)), np.cos(angles)


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector, as np.linalg.norm takes it, without its dispatch."""
    return math.sqrt(v @ v)


WORK_VECTORS = 9  # rows of the work array solve iterates in
_EPS, _TINY = float(np.finfo(float).eps), float(np.finfo(float).tiny)


def solve(A: SparseMatrix, b: np.ndarray, precond, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER, x0: np.ndarray | None = None, work=None):
    """Right-preconditioned BiCGStab for A x = b, the one driver of every solve.

    A is a SparseMatrix, or any operator with rows and matvec(x, out,
    scratch). precond is a preconditioner built from A, such as jacobi(A)
    or np.positive, the identity; one with a run_pass, as RedBlackLines(A),
    runs each pass itself, with its sweep on packed vectors. b and x0 (zero
    by default) are vectors of A.rows floats, and 0 < tol < inf. x0 only
    sets where the iteration begins: every start meets the same stopping
    test. With b and x0 zero on the frame, every vector of the iteration is,
    and x too.

    Returns (x, SolveStats); convergence means ||A x - b||_2 <= tol * ||b||_2.
    Each pass runs the recurrence from the current iterate x and its true
    residual r = b - A x, and the test of that r is the only stopping test: the
    solve stops once ||r|| meets the target, and unconverged once ||r|| is not
    below the last pass's (inf for the first, so a nan or inf in b or x0 ends
    it at once) or max_iter iterations are spent. A pass ends once its
    recurrence's own residual meets the target, so one that has drifted from
    the true residual restarts from it (residual replacement, Sleijpen & van
    der Vorst 1996). The recurrence breaks down when r* turns orthogonal to r
    or to A M p: |r* . r| or |r* . A M p| at most eps times the product of the
    two norms (van der Vorst 1992).

    The iteration runs on b / 2^k and x0 / 2^k, with 2^k the power of two just
    above max|b|, and x is scaled back by 2^k. Scaling by a power of two is
    exact, so x and the stats do not depend on the scale of b, and the norms
    and the tests against the smallest normal float stay in range.

    It iterates in place in the rows of work, a (WORK_VECTORS, A.rows) array
    that aliases neither b nor x0, or in a new one when work is None, with
    the same results; a caller that solves many systems of one size passes
    one work array to all of them, so that no solve allocates its vectors.
    b / 2^k, x and r take the first three rows and the pass the other six.
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    b = np.asarray(b, dtype=float)
    if b.shape != (A.rows,) or (x0 is not None and np.shape(x0) != (A.rows,)):
        raise ValueError(f"b and x0 must be vectors of {A.rows} floats")
    work = np.empty((WORK_VECTORS, A.rows)) if work is None else work
    if work.shape != (WORK_VECTORS, A.rows):
        raise ValueError(f"work must have shape {(WORK_VECTORS, A.rows)}, got {work.shape}")
    b_k, x, r, rows = work[0], work[1], work[2], work[3:]

    k = math.frexp(max(b.max(), -b.min()))[1]
    np.ldexp(b, -k, out=b_k)
    norm_b = _norm(b_k)
    if norm_b == 0.0:
        return np.zeros(A.rows), SolveStats(0, 0.0, True)

    run_pass = getattr(precond, "run_pass", None) or functools.partial(_iterate, A, precond)
    target = tol * norm_b

    np.ldexp(0.0 if x0 is None else np.asarray(x0, dtype=float), -k, out=x)
    iters, last = 0, math.inf
    while True:
        np.subtract(b_k, A.matvec(x, out=rows[5], scratch=rows[1]), out=r)
        normr = _norm(r)
        if normr <= target < math.inf or not normr < last or iters >= max_iter:
            return np.ldexp(x, k), SolveStats(iters, normr / norm_b, normr <= target < math.inf)
        iters, last = iters + run_pass(r, x, target, max_iter - iters, rows), normr


def _iterate(A, precond, r: np.ndarray, x: np.ndarray, target: float, max_iter: int, rows) -> int:
    """One pass of right-preconditioned BiCGStab from x and its residual r, in
    place in x, r and the six rows of rows; A is a SparseMatrix or any operator
    with rows and matvec(x, out, scratch). It makes the two products of each
    iteration and no other, and returns the iterations it completed: it stops
    once the recurrence's residual r meets target, on a breakdown (0 with x as
    it was, at the first), when s vanishes or after max_iter iterations. s = r
    - alpha A M p overwrites r, and M s overwrites M p once x has taken alpha M
    p, before omega M s."""
    r_star, p, mp, amp, ams, t = rows
    r_star[:] = r
    p[:] = r
    normr = _norm(r)
    rho, norm_star = float(r_star @ r), normr
    iters = 0
    while iters < max_iter:
        precond(p, out=mp)
        A.matvec(mp, out=amp, scratch=t)
        denom = float(r_star @ amp)
        if (abs(rho) <= _EPS * norm_star * normr
                or abs(denom) <= _EPS * norm_star * _norm(amp)):
            return iters  # breakdown
        alpha = rho / denom
        np.subtract(r, np.multiply(alpha, amp, out=t), out=r)  # s = r - alpha A M p
        x += np.multiply(alpha, mp, out=t)  # x + alpha M p, the first term of the update
        precond(r, out=mp)
        A.matvec(mp, out=ams, scratch=t)
        ams_sq = float(ams @ ams)
        iters += 1
        if ams_sq < _TINY:  # s vanished: x + alpha M p is the next iterate
            break
        omega = float(ams @ r) / ams_sq
        x += np.multiply(omega, mp, out=t)  # + omega M s
        np.subtract(r, np.multiply(omega, ams, out=t), out=r)  # r = s - omega A M s
        normr = _norm(r)
        if normr <= target or abs(omega) < _TINY:  # solve judges x; or a breakdown: restart
            break
        rho_new = float(r_star @ r)
        beta = (rho_new / rho) * (alpha / omega)
        rho = rho_new
        p -= np.multiply(omega, amp, out=t)  # p = r + beta (p - omega A M p)
        p *= beta
        p += r
    return iters


class RedBlackLines:
    """The symmetric red-black z-line sweep M as solve's right preconditioner,
    with each pass run on packed vectors of the odd lines.

    Line c = 0 .. w - 1, w = s - 2, is the grid column iv = c + 1 of the
    interior nodes. A's line part, at offsets 0 and +-s, is on every line the
    tridiagonal Toeplitz T, a on the diagonal and b beside it, so
    T^-1 = (Q / lambda) Q in the sine basis, lambda_k = a + 2 b cos(k pi / (w + 1)).
    The offsets +-1 and +-(s + 1) couple even lines only to odd ones, by C_oe
    into odd rows and C_eo into even rows, so with the even lines first
    A = [[T, C_eo], [C_oe, T]]. The sweep is three line solves,
    y_e' = T^-1 r_e, y_o = T^-1 (r_o - C_oe y_e') and y_e = T^-1 (r_e - C_eo y_o),
    or M^-1 = (L + C_eo)^-1 L (L + C_oe)^-1: symmetric positive definite
    whenever A is. It gives A M^-1 = [[I, 0], [X, Y]] with
    Y = I - C_oe T^-1 C_eo T^-1 and X = C_oe T^-1 C_eo T^-1 C_oe T^-1.

    So the even part of every residual-space vector of BiCGStab (r, p, s,
    A M p, A M s) is a multiple of r0_e, with r0 = b - A x0 the residual its
    pass starts from. A pass packs each such vector as (c, q), for
    c e + q, e = r0_e / ||r0_e|| and q the odd lines: packed dot products
    are the full ones. The product (c, q) -> (c, c X e + Y q), matvec, takes
    two batches of line solves and two couplings, where the sweep and a
    matvec took three and one; X e is formed once a pass.

    A coupling is two pairs, each pair's sum times one number. A holds one
    symmetric stencil, 7 numbers.
    """

    def __init__(self, A: SparseMatrix):
        if not isinstance(A, SparseMatrix) or not A.symmetric:
            raise ValueError("the sweep needs A as one symmetric stencil of 7 numbers")
        w = A.side - 2
        q, cos = _sine_basis(w)
        self.A, self.t_inv = A, (q / (A.diagonal() + 2.0 * A.data[5] * cos)) @ q
        self.n = n = (w + 1) // 2, w // 2  # lines of colour p = 0 (even) and 1 (odd)
        self.rows = 1 + w * n[1]  # a packed vector: c, then the odd lines
        row = n[0] + 2
        # line 2j + p is column j of rhs and j + 1 of frames[p], framed by zeros
        # for neighbours off the grid; with `row` entries a row, the neighbours of
        # entry i of the flat rhs lie at i + shift in the flat frames[1 - p][p:]
        self.frames, self.rhs, self.term = np.zeros((2, w + 2, row)), np.empty((w, row)), np.empty(w * row)
        self.lines = [self.frames[p, 1:-1, 1:count + 1] for p, count in enumerate(n)]
        self.shifts = ((A.data[4], row, row + 1), (A.data[6], 0, 2 * row + 1))  # offsets +-1 and +-(s + 1)
        self.xe = None  # X e of the current pass

    def _line_solve(self, p: int, r: np.ndarray) -> np.ndarray:
        """T^-1 r on the lines of colour p, into their frame; r is (w, n[p])."""
        return np.matmul(self.t_inv, r, out=self.lines[p])

    def _couple(self, p: int) -> np.ndarray:
        """The coupling of the lines of colour 1 - p in their frame into the
        rows of colour p, C_oe z_e for p = 1 and C_eo z_o for p = 0, in rhs."""
        m = (len(self.t_inv) - 1) * self.rhs.shape[1] + self.n[p]
        target, source, term = self.rhs.reshape(-1)[:m], self.frames[1 - p].reshape(-1)[p:], self.term[:m]
        (c1, a1, b1), (c2, a2, b2) = self.shifts
        np.multiply(c1, np.add(source[a1:a1 + m], source[b1:b1 + m], out=target), out=target)
        target += np.multiply(c2, np.add(source[a2:a2 + m], source[b2:b2 + m], out=term), out=term)
        return self.rhs[:, :self.n[p]]

    def matvec(self, u: np.ndarray, out: np.ndarray | None = None, scratch=None) -> np.ndarray:
        """A M^-1 packed: (c, q) -> (c, c X e + Y q), into out if given; scratch is not needed."""
        w, n_odd = len(self.t_inv), self.n[1]
        out = np.empty(self.rows) if out is None else out
        c, q = u[0], u[1:].reshape(w, n_odd)
        self._line_solve(1, q)
        self._line_solve(0, self._couple(0))
        coupled = self._couple(1)  # C_oe T^-1 C_eo T^-1 q
        out[0] = c
        y = np.multiply(c, self.xe, out=out[1:].reshape(w, n_odd))
        y += q
        y -= coupled
        return out

    def run_pass(self, r: np.ndarray, x: np.ndarray, target: float, max_iter: int, rows) -> int:
        """solve's pass with M from x and its residual r, as _iterate(A, M, ...)
        runs it in exact arithmetic: the same start, operator, shadow residual
        and stopping rule. r is packed as r_p = (||r_e||, r_o), _iterate runs
        on matvec from u = 0 with the identity as preconditioner, and
        x += M^-1 (c e, q) for u = (c, q), in two more batches. rows, six of
        A.rows floats, hold the eight packed vectors, X e, T^-1 e and
        C_oe T^-1 e: 8 + w (10 n_odd + n_even) <= 6 w^2 + 8 floats. Returns
        the iterations."""
        s, w = self.A.side, len(self.t_inv)
        (n_even, n_odd), size = self.n, self.rows
        packed = rows.reshape(-1, copy=False)
        r_p, u, *packed_rows = packed[:8 * size].reshape(8, size)
        self.xe, te, cte = (packed[8 * size + w * lo:][:w * count].reshape(w, count)
                            for lo, count in ((0, n_odd), (n_odd, n_even), (n_odd + n_even, n_odd)))
        rhs_even, rhs_odd = self.rhs[:, :n_even], self.rhs[:, :n_odd]

        # r packed as (||r_e||, r_o); then T^-1 e, C_oe T^-1 e and X e
        r_lines = r.reshape(s, s)[1:-1, 1:-1]
        r_p[1:].reshape(w, n_odd)[...] = r_lines[:, 1::2]
        np.copyto(te, r_lines[:, 0::2])
        r_p[0] = norm_e = _norm(te.reshape(-1))
        np.copyto(te, self._line_solve(0, np.divide(te, norm_e or 1.0, out=rhs_even)))
        np.copyto(cte, self._couple(1))
        self._line_solve(1, cte)
        self._line_solve(0, self._couple(0))
        np.copyto(self.xe, self._couple(1))
        u.fill(0.0)
        iters = _iterate(self, np.positive, r_p, u, target, max_iter, packed_rows)
        # x + M^-1 (c e, q): y_o = T^-1 (q - c C_oe T^-1 e), y_e = c T^-1 e - T^-1 C_eo y_o
        x_lines = x.reshape(s, s)[1:-1, 1:-1]
        c, q = u[0], u[1:].reshape(w, n_odd)
        x_lines[:, 1::2] += self._line_solve(1, np.subtract(q, np.multiply(c, cte, out=rhs_odd), out=rhs_odd))
        t_coupled = self._line_solve(0, self._couple(0))
        x_even = x_lines[:, 0::2]
        x_even += np.multiply(c, te, out=rhs_even)
        x_even -= t_coupled
        return iters
