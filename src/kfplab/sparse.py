"""Banded (DIA) matrices, their linear combination in one contraction, a
preconditioned BiCGStab solver and its two preconditioners.

The advection terms make the assembled systems nonsymmetric, hence a
stabilized bi-conjugate-gradient method. A preconditioner is a function
(r, out=None) -> M^-1 r, written into out if given, built once per matrix:

* jacobi: the inverse of the main diagonal. It serves matrices whose
  couplings stay mass dominated, as in the original and self-similar forms.
* line_gauss_seidel: a symmetric red-black sweep of exact solves along the
  lines at offsets 0 and +-w of a w x w grid of unknowns. The sheared form's
  operator (d_v + t d_z)^2 puts nearly all of its coupling there at large t,
  where diagonal preconditioning needs several times as many iterations.

Matrices are immutable after construction. matvec and solve write only to
the out and work arrays a caller hands them, and to the arrays they return.
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


class SparseMatrix:
    """Square banded matrix in diagonal (DIA) storage.

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

    def matvec(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """A x, written into out if given: a float array of A.rows entries other than x."""
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

    def diagonal(self) -> np.ndarray:
        if 0 not in self.offsets:
            return np.zeros(self.rows)
        return self.data[self.offsets.index(0)].copy()


def combine(coeffs, stack: np.ndarray, offsets, out=None) -> SparseMatrix:
    """The linear combination sum_b coeffs[b] * stack[b] of the DIA data of
    matrices over one band of offsets, stack of shape (blocks, k, m), as one
    contraction: a single matrix-vector product over the whole array. Its
    data is written into out, a (k, m) array, if given: the matrix changes
    when out is written again."""
    data = np.matmul(np.asarray(coeffs, dtype=float), stack.reshape(len(stack), -1),
                     out=None if out is None else out.reshape(-1))
    return SparseMatrix(offsets, data.reshape(stack.shape[1:]))


def jacobi(A: SparseMatrix):
    """Diagonal preconditioner r -> r / diag(A), the identity on zero diagonal entries."""
    diag = A.diagonal()
    inv_diag = np.where(np.abs(diag) > 0, 1.0 / np.where(diag == 0, 1.0, diag), 1.0)
    return lambda r, out=None: np.multiply(inv_diag, r, out=out)


@functools.lru_cache(maxsize=4)
def _sine_basis(w: int) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvectors Q[j, k] = sqrt(2 / (w + 1)) sin(j k pi / (w + 1)), j, k = 1..w, of every
    symmetric tridiagonal Toeplitz w x w matrix, and cos(k pi / (w + 1)); Q = Q^T = Q^-1."""
    angles = np.arange(1, w + 1) * np.pi / (w + 1)
    return math.sqrt(2.0 / (w + 1)) * np.sin(np.outer(np.arange(1, w + 1), angles)), np.cos(angles)


def line_gauss_seidel(A: SparseMatrix):
    """Symmetric red-black Gauss-Seidel over the lines of stride w.

    A has w * w rows, i = a * w + c, and line c holds the rows c, w + c, ...
    Its line part L, at offsets 0 and +-w, is on every line the tridiagonal
    Toeplitz T, a on the diagonal and b beside it, so T^-1 = (Q / lambda) Q
    in the sine basis, lambda_k = a + 2 b cos(k pi / (w + 1)). The offsets
    +-1 and +-(w + 1) couple even lines only to odd ones, by C_oe into odd
    rows and C_eo into even rows, so the sweep is three line solves,
    y_e' = T^-1 r_e, y_o = T^-1 (r_o - C_oe y_e') and y_e = T^-1 (r_e - C_eo y_o),
    or (L + C_eo)^-1 L (L + C_oe)^-1 r: symmetric positive definite whenever
    A is. Each diagonal of A is taken to hold one value, read in a row whose
    neighbour is on the grid, as in the sides assembly builds; with w <= 1 no
    lines couple and this is jacobi(A). It sweeps in arrays of its own.
    """
    w = math.isqrt(A.rows)
    if A.rows != w * w:
        raise ValueError(f"a matrix of {A.rows} rows is not a square grid of lines")
    if w <= 1:
        return jacobi(A)
    value = lambda off, row: A.data[A.offsets.index(off), row] if off in A.offsets else 0.0
    q, cos = _sine_basis(w)
    t_inv = (q / (A.diagonal()[0] + 2.0 * value(w, 0) * cos)) @ q
    n = (w + 1) // 2, w // 2  # lines of colour p = 0 (even) and 1 (odd)
    row = n[0] + 2
    # line 2j + p is column j of rhs and j + 1 of frames[p], framed by zeros
    # for neighbours off the grid; with `row` entries a row, the neighbours of
    # entry i of the flat rhs lie at i + shift in the flat frames[1 - p][p:]
    frames, rhs = np.zeros((2, w + 2, row)), np.empty((w, row))
    lines = [frames[p, 1:-1, 1:count + 1] for p, count in enumerate(n)]
    shifts = ((value(-1, 1), row), (value(1, 0), row + 1), (value(-w - 1, w + 1), 0), (value(w + 1, 0), 2 * row + 1))
    def apply(r, out=None):
        for sweep, p in enumerate((0, 1, 0)):
            rhs[:, :n[p]] = r.reshape(w, w)[:, p::2]
            if sweep:  # subtract the coupling to the lines of the other colour
                m = (w - 1) * row + n[p]
                target, source = rhs.reshape(-1)[:m], frames[1 - p].reshape(-1)[p:]
                for c, shift in shifts:
                    target -= c * source[shift:shift + m]
            np.matmul(t_inv, rhs[:, :n[p]], out=lines[p])
        out = np.empty(w * w) if out is None else out
        out.reshape(w, w)[:, 0::2], out.reshape(w, w)[:, 1::2] = lines
        return out
    return apply


def _norm(v: np.ndarray) -> float:
    """The 2-norm of a vector, as np.linalg.norm takes it, without its dispatch."""
    return math.sqrt(v @ v)


WORK_VECTORS = 11  # rows of the work array solve iterates in


def solve(A: SparseMatrix, b: np.ndarray, tol: float = DEFAULT_TOL,
          max_iter: int = DEFAULT_MAX_ITER, x0: np.ndarray | None = None, precond=None, work=None):
    """Right-preconditioned BiCGStab for A x = b.

    precond is a preconditioner built from A, such as jacobi(A) or
    line_gauss_seidel(A); jacobi(A) is the default. x0, zero by default, only
    sets where the iteration begins: every start meets the same stopping test.

    Returns (x, SolveStats); convergence means ||A x - b||_2 <= tol * ||b||_2.
    The recurrence breaks down when r* turns orthogonal to r or to A M p, to
    within rounding: |r* . r| or |r* . A M p| at most eps times the product
    of the two norms (van der Vorst 1992). Each breakdown restarts it from
    the current iterate; a pass that breaks down before its first step
    counts as an iteration, so every solve ends within max_iter.

    The iteration runs on b / 2^k and x0 / 2^k, with 2^k the power of two just
    above max|b|, and x is scaled back by 2^k. Scaling by a power of two is
    exact, so x and the stats do not depend on the scale of b, and the norms
    and the tests against the smallest normal float stay in range.

    It iterates in place in the rows of work, a (WORK_VECTORS, A.rows) array
    that aliases neither b nor x0, or in a new one when work is None, with
    the same results; a caller that solves many systems of one size passes
    one work array to all of them, so that no solve allocates its vectors.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b = np.asarray(b, dtype=float)
    if b.shape != (A.rows,):
        raise ValueError("right-hand side has wrong length")
    work = np.empty((WORK_VECTORS, A.rows)) if work is None else work
    b_k, x, r, r_star, p, mp, amp, s, ms, ams, t = work  # ValueError on another shape

    k = int(np.frexp(np.abs(b, out=t).max(initial=0.0))[1])
    np.ldexp(b, -k, out=b_k)
    norm_b = _norm(b_k)
    if norm_b == 0.0:
        return np.zeros(A.rows), SolveStats(0, 0.0, True)

    if precond is None:
        precond = jacobi(A)
    target = tol * norm_b
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny

    np.ldexp(0.0 if x0 is None else np.asarray(x0, dtype=float), -k, out=x)
    iters = 0
    while True:  # each pass starts the recurrence from the current iterate
        np.subtract(b_k, A.matvec(x, out=t), out=r)
        normr = _norm(r)
        if normr <= target or iters >= max_iter:
            return np.ldexp(x, k), SolveStats(iters, normr / norm_b, bool(normr <= target))
        r_star[:] = r
        p[:] = r
        rho, norm_star = float(r_star @ r), normr
        while iters < max_iter:
            precond(p, out=mp)
            A.matvec(mp, out=amp)
            denom = float(r_star @ amp)
            if (abs(rho) <= eps * norm_star * normr
                    or abs(denom) <= eps * norm_star * _norm(amp)):
                iters += 1  # breakdown: the restart counts as an iteration
                break
            alpha = rho / denom
            np.subtract(r, np.multiply(alpha, amp, out=s), out=s)  # s = r - alpha A M p
            precond(s, out=ms)
            A.matvec(ms, out=ams)
            ams_sq = float(ams @ ams)
            iters += 1
            if ams_sq < tiny:  # s vanished: x + alpha M p is the next iterate
                x += np.multiply(alpha, mp, out=t)
                break
            omega = float(ams @ s) / ams_sq
            x += np.multiply(alpha, mp, out=t)  # x + alpha M p + omega M s, in that order
            x += np.multiply(omega, ms, out=t)
            np.subtract(s, np.multiply(omega, ams, out=r), out=r)  # r = s - omega A M s
            normr = _norm(r)
            if normr <= target:
                true_res = _norm(np.subtract(b_k, A.matvec(x, out=t), out=t))
                if true_res <= target:
                    return np.ldexp(x, k), SolveStats(iters, true_res / norm_b, True)
            if abs(omega) < tiny:  # breakdown: restart
                break
            rho_new = float(r_star @ r)
            beta = (rho_new / rho) * (alpha / omega)
            rho = rho_new
            p -= np.multiply(omega, amp, out=t)  # p = r + beta (p - omega A M p)
            p *= beta
            p += r
