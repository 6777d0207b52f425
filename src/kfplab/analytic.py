"""Closed-form kernel, exact solutions, decay bounds and a mesh-free
convolution oracle for the degenerate diffusion-transport equation

    d/dt f = d^2/dv^2 f + v d/dx f

together with its Lagrangian form (z = x + t v) and its rescaled form in
self-similar variables (s = log(1 + t), vt = v e^{-s/2}, zt = z e^{-3s/2},
amplitude e^{2s}). Everything in this module is the analytic ground truth the
finite element solvers are judged against.

The fundamental solution in the sheared frame is

    G_t(v, z) = sqrt(3)/(2 pi t^2) * exp(-(3 z^2 + (2 t v - 3 z)^2)/(4 t^3)),

a unit-mass Gaussian with covariance [[2t, t^2], [t^2, 2t^3/3]]. The solution
for the Gaussian initial state exp(-v^2 - x^2) is itself Gaussian, obtained by
adding covariances; the closed forms below were derived that way and are
cross-validated against the quadrature oracle in the test suite.

The kernel's exponent -nu^2/t - 3 ze^2/t^3 + 3 nu ze/t^2 is a quadratic
form, so the kernel splits along the axes up to one cross factor,

    G_t(nu, ze) = G_t(nu, 0) G_t(0, ze) exp(3 nu ze / t^2) / G_t(0, 0),

and each axis-aligned Gaussian of the initial data splits into a v and an x
factor. The convolution oracle integrates in this factored form: on a
tensor Gauss grid only the cross factor is a full m x m array. Inside the
oracle's +-8 sigma kernel box |3 nu ze / t^2| <= 384 / sqrt(3) ~ 221.7, so
the cross factor stays finite at any t. For G_t^q that bound is q times
larger and overflows exp for q above about 3.2, so kernel_Lq_quadrature
keeps the per-node form.
"""

import functools
import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .mesh import RectDomain

SQRT3 = math.sqrt(3.0)


class QuadratureError(RuntimeError):
    """Raised when the oracle's quadrature refinement fails to stabilize."""


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------

class GaussianSum:
    """Finite sum of axis-aligned Gaussians a * exp(-av (v-cv)^2 - ax (x-cx)^2).

    This is the only family of initial data the convolution oracle accepts;
    it is closed under the superposition tests and has a trivially
    computable effective support box.
    """

    def __init__(self, terms):
        self.terms = [tuple(map(float, t)) for t in terms]
        if not self.terms or any(len(t) != 5 for t in self.terms):
            raise ValueError("a GaussianSum needs one or more terms of five numbers (amp, cv, cx, av, ax)")
        if not np.isfinite(self.terms).all():
            raise ValueError("Gaussian terms must be finite")
        for amp, cv, cx, av, ax in self.terms:
            if av <= 0 or ax <= 0:
                raise ValueError("Gaussian decay rates must be positive")
        table = np.array(self.terms)
        self._amp, self._centre, self._neg_rate = table[:, 0], table[:, 1:3], -table[:, 3:]

    def __call__(self, v, x):
        v, x = np.asarray(v, dtype=float), np.asarray(x, dtype=float)
        out, term = np.zeros(np.broadcast(v, x).shape), np.empty(np.broadcast(v, x).shape)
        for amp, cv, cx, av, ax in self.terms:  # in place: no grid-sized temporaries
            np.exp(np.subtract(-av * (v - cv) ** 2, ax * (x - cx) ** 2, out=term), out=term)
            out += np.multiply(amp, term, out=term)
        return out[()]

    def factors(self, vx):
        """The terms' axis factors at vx, an array whose first axis holds
        (v, x): an array of shape (terms,) + vx.shape whose [k, 0] is
        amp exp(-av (v-cv)^2) and [k, 1] is exp(-ax (x-cx)^2) for the k-th
        term, so that [k, 0] * [k, 1] is the term's value."""
        vx = np.asarray(vx, dtype=float)
        shape = (len(self.terms), 2) + (1,) * (vx.ndim - 1)
        f = np.exp(self._neg_rate.reshape(shape) * (vx - self._centre.reshape(shape)) ** 2)
        f[:, 0] *= self._amp.reshape(shape[:1] + shape[2:])
        return f

    def support_box(self, k: float = 8.0):
        """Box outside which every term has decayed below exp(-k^2)."""
        vlo = min(cv - k / math.sqrt(av) for _, cv, _, av, _ in self.terms)
        vhi = max(cv + k / math.sqrt(av) for _, cv, _, av, _ in self.terms)
        xlo = min(cx - k / math.sqrt(ax) for _, _, cx, _, ax in self.terms)
        xhi = max(cx + k / math.sqrt(ax) for _, _, cx, _, ax in self.terms)
        return vlo, vhi, xlo, xhi


# the reference initial state exp(-v^2 - x^2): mass pi, sup norm 1
gaussian_ic = GaussianSum([(1.0, 0.0, 0.0, 1.0, 1.0)])


# ---------------------------------------------------------------------------
# kernel and its norms
# ---------------------------------------------------------------------------

def _check_kernel_time(t: float) -> None:
    """The kernel's time must be finite and positive, and 4 t^3 must be finite
    and must not underflow to 0: the kernel divides by 4.0 * t ** 3. The
    product 4 t t t is tested for overflow first, since t ** 3 raises there."""
    if not (math.isfinite(t) and t > 0 and math.isfinite(4.0 * t * t * t) and 4.0 * t ** 3 > 0):
        raise ValueError(f"the kernel is defined for finite t > 0 with 4 t^3 finite and nonzero, got {t}")


def _kernel_peak(t: float) -> float:
    """G_t(0, 0) = sqrt(3)/(2 pi t^2), the kernel's maximum."""
    return SQRT3 / (2.0 * math.pi * t * t)


def kernel_G(t: float, v, z):
    """Fundamental solution G_t(v, z) in the sheared frame, t > 0."""
    _check_kernel_time(t)
    v, z = np.asarray(v, dtype=float), np.asarray(z, dtype=float)
    pref = _kernel_peak(t)
    g = np.asarray(np.square(2.0 * t * v - 3.0 * z))  # in place from here: same bits, fewer temporaries
    g += 3.0 * z ** 2
    # at tiny t the quotient may overflow to inf, and exp(-inf) is the exact limit 0
    with np.errstate(over="ignore"):
        g /= -4.0 * t ** 3
    return np.multiply(np.exp(g, out=g), pref, out=g)[()]


def _kernel_exponent(q) -> float:
    """q as a float, which must satisfy q >= 1 (inf included) for an L^q norm of the kernel."""
    q = float(q)
    if not q >= 1:  # NaN fails too
        raise ValueError("q must satisfy q >= 1")
    return q


def kernel_Lq_norm(t: float, q) -> float:
    """||G_t||_{L^q}: q^{-1/q} (sqrt(3)/(2 pi t^2))^{(q-1)/q}, sup norm at q=inf."""
    _check_kernel_time(t)
    pref = _kernel_peak(t)
    q = _kernel_exponent(q)
    if q == math.inf:
        return pref
    return q ** (-1.0 / q) * pref ** ((q - 1.0) / q)


KERNEL_QUAD_NODES = 400  # Gauss-Legendre nodes per axis


@functools.lru_cache(maxsize=None)
def _gauss_rule(m):
    """Gauss-Legendre nodes and weights of order m on [-1, 1], computed on
    first use and shared read-only by every later caller."""
    nodes, weights = leggauss(m)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _tensor_gauss(f, box, m):
    """Integral of f over the box (lo_v, hi_v, lo_z, hi_z) by the m x m
    tensor Gauss-Legendre rule; f receives the nodes as arrays of shapes
    (m, 1) and (1, m) and returns the (m, m) integrand values."""
    nodes, weights = _gauss_rule(m)
    lo_v, hi_v, lo_z, hi_z = box
    half_v, half_z = 0.5 * (hi_v - lo_v), 0.5 * (hi_z - lo_z)
    nv, nz = half_v * nodes + 0.5 * (lo_v + hi_v), half_z * nodes + 0.5 * (lo_z + hi_z)
    return np.einsum("i,j,ij->", half_v * weights, half_z * weights, f(nv[:, None], nz[None, :]))


def kernel_Lq_quadrature(t: float, q) -> float:
    """||G_t||_q by tensor Gauss-Legendre over the +-8 sigma kernel box.

    Independent of the closed form above; the sup norm is sampled on a fine
    grid around the origin instead of integrated. G_t^q is evaluated at
    every node rather than in the convolution oracle's factored form: its
    cross factor exp(3 q nu ze / t^2) reaches exp(221.7 q) at the box's
    corners, which overflows for q above about 3.2.
    """
    _check_kernel_time(t)
    q = _kernel_exponent(q)
    if q == math.inf:
        sv = math.sqrt(2.0 * t)
        sz = math.sqrt(2.0 * t ** 3 / 3.0)
        g1 = np.linspace(-0.5 * sv, 0.5 * sv, 1001)
        g2 = np.linspace(-0.5 * sz, 0.5 * sz, 1001)
        V, Z = np.meshgrid(g1, g2, indexing="ij")
        return float(kernel_G(t, V, Z).max())
    sv = 8.0 * math.sqrt(2.0 * t)
    sz = 8.0 * math.sqrt(2.0 * t ** 3 / 3.0)
    val = _tensor_gauss(lambda v, z: kernel_G(t, v, z) ** q, (-sv, sv, -sz, sz), KERNEL_QUAD_NODES)
    return float(val ** (1.0 / q))


# ---------------------------------------------------------------------------
# exact solutions for the Gaussian initial state
# ---------------------------------------------------------------------------

def _denominator(t):
    return 3.0 + 12.0 * t + 4.0 * t ** 3 + 4.0 * t ** 4


def exact_original(t, v, x):
    """Solution in the original (v, x) variables."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    den = _denominator(t)
    num = (3.0 + 3.0 * t ** 2 + 4.0 * t ** 3) * v ** 2 + 6.0 * t * (1.0 + 2.0 * t) * v * x + 3.0 * (1.0 + 4.0 * t) * x ** 2
    return np.exp(-num / den) / np.sqrt(den / 3.0)


def exact_lagrangian(t, v, z):
    """Solution in the sheared (v, z = x + t v) variables."""
    t = np.asarray(t, dtype=float)
    v = np.asarray(v, dtype=float)
    z = np.asarray(z, dtype=float)
    den = _denominator(t)
    num = (3.0 + 4.0 * t ** 3) * v ** 2 - 12.0 * t ** 2 * v * z + 3.0 * (1.0 + 4.0 * t) * z ** 2
    return np.exp(-num / den) / np.sqrt(den / 3.0)


def exact_selfsimilar(s, vt, zt):
    """Solution in self-similar variables, written directly in E = e^s.

    Expanded independently of exact_lagrangian; the change-of-variables
    identity between the two is asserted in the tests.
    """
    s = np.asarray(s, dtype=float)
    vt = np.asarray(vt, dtype=float)
    zt = np.asarray(zt, dtype=float)
    E = np.exp(s)
    den = 4.0 * E ** 4 - 12.0 * E ** 3 + 12.0 * E ** 2 + 8.0 * E - 9.0
    num = ((4.0 * E ** 4 - 12.0 * E ** 3 + 12.0 * E ** 2 - E) * vt ** 2
           + (-12.0 * E ** 4 + 24.0 * E ** 3 - 12.0 * E ** 2) * vt * zt
           + (12.0 * E ** 4 - 9.0 * E ** 3) * zt ** 2)
    return E ** 2 * SQRT3 * np.exp(-num / den) / np.sqrt(den)


def exact_solution(form: str, time, point):
    """Dispatch on the formulation tag; point is (a, b) or arrays thereof."""
    exact = {"original": exact_original, "lagrangian": exact_lagrangian, "selfsimilar": exact_selfsimilar}
    if form not in exact:
        raise ValueError(f"unknown formulation {form!r}")
    return exact[form](time, *point)


def steady_state(vt, zt):
    """Long-time profile of the self-similar solution, an elliptic Gaussian
    of magnitude sqrt(3)/2; equals pi * G_1 pointwise."""
    vt = np.asarray(vt, dtype=float)
    zt = np.asarray(zt, dtype=float)
    return 0.5 * SQRT3 * np.exp(-vt ** 2 + 3.0 * vt * zt - 3.0 * zt ** 2)


def linf_envelope(s: float, l1_norm: float, linf_norm: float) -> float:
    """Upper bound for ||g~(s)||_inf from Young's inequality, s > 0:
    min of the kernel-driven branch and the pure-growth branch."""
    if s <= 0:
        raise ValueError("the envelope is defined for s > 0")
    if l1_norm < 0 or linf_norm < 0:
        raise ValueError("norms must be nonnegative")
    branch1 = SQRT3 / (2.0 * math.pi) * l1_norm / (1.0 - math.exp(-s)) ** 2
    branch2 = math.exp(2.0 * s) * linf_norm
    return min(branch1, branch2)


# ---------------------------------------------------------------------------
# truncated-domain constants
# ---------------------------------------------------------------------------

def poincare_constant(domain: RectDomain, t: float) -> float:
    """C(t) in the directional Poincare inequality on the rectangle."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    r = domain.side_z / domain.side_v * t
    return 1.0 if r <= 1.0 else r


def poincare_coefficient(domain: RectDomain, t: float) -> float:
    """The constant |O1| / (sqrt(2) C(t)) multiplying ||d_v g + t d_z g||."""
    return domain.side_v / (math.sqrt(2.0) * poincare_constant(domain, t))


def domain_condition(domain: RectDomain) -> bool:
    """Whether the truncated domain is large enough that the rescaled energy
    bound does not force decay to zero."""
    s1, s2 = domain.side_v, domain.side_z
    if s2 <= s1:
        return s1 > math.sqrt(2.0)
    return s2 > s1 ** 2 / math.sqrt(2.0)


# ---------------------------------------------------------------------------
# convolution oracle
# ---------------------------------------------------------------------------

ORACLE_ABS_TOL = 1e-9  # two successive Gauss grids must agree to this
ORACLE_START_NODES = 32  # nodes per axis of the first grid; each refinement doubles it
ORACLE_MAX_NODES = 4096  # the refinement gives up past this
SUP_GRID = 33  # oracle_sup_norm samples SUP_GRID x SUP_GRID points
TENSOR_CHUNK = 2 ** 18  # most (box, node, node) entries of the cross factor one chunk of boxes holds


def _oracle_factors(f0, t, vz, nodes):
    """The oracle's integrand G_t(nu, ze) f0(v - nu, z - ze) in factored form.

    vz holds the points' (v, z), of shape (2, P, 1), and nodes the rows nu,
    0 and ze, each of shape (P, m): the nodes of each point's box along the
    two axes. Returns an array F of shape (terms, 2, P, m), the axis factors
    of each term of f0 times G_t(nu, 0) / G_t(0, 0) along v and G_t(0, ze)
    along z, and the (P, m) array r = 3 nu / t^2. At node (i, j) of box p
    the integrand is the sum over the terms k of
    F[k, 0, p, i] exp(r[p, i] ze[p, j]) F[k, 1, p, j].
    """
    g = kernel_G(t, nodes[:2], nodes[1:])  # one call: G_t(nu, 0) and G_t(0, ze)
    g[0] /= _kernel_peak(t)
    return f0.factors(vz - nodes[::2]) * g, (3.0 / (t * t)) * nodes[0]


@functools.lru_cache(maxsize=None)
def _joined_gauss_rule(ms):
    """The Gauss-Legendre rules of the orders in the tuple ms, their nodes
    and their weights each joined end to end in the order of ms, computed on
    first use and shared read-only like _gauss_rule's."""
    nodes, weights = (np.concatenate(part) for part in zip(*map(_gauss_rule, ms)))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _oracle_grids(f0, t, boxes, ms):
    """Integrals of the oracle's integrand over P boxes by the m x m tensor
    Gauss-Legendre rule for each m in ms, as a list of arrays of shape (P,)
    in the order of ms. boxes is (half, mid, vz) of shape (3, 2, P): each
    box's half widths and midpoints along (v, z), and its point's (v, z).

    All the grids in ms share one _oracle_factors call, and so one kernel_G
    call, on their joined nodes: the axis factors take (terms, 2, P, sum(ms))
    floats, (terms, 2, P, 96) for the oracle's first pass over the 32- and
    64-node grids, which every live box takes. Each later grid is a call of
    its own for the boxes still live: most boxes of a sup-norm sample stop
    at 64 nodes, and 128-node factors would be wasted on them. The Gauss
    weights absorb the axis factors, so each term of box p sums to a @ C @ b
    on each grid, with C the m x m cross factor. A chunk of boxes holds at
    most TENSOR_CHUNK entries of C, or one box when m * m is larger. Each
    box's sum is the same matrix-vector and dot products as for that box
    and grid alone, so the result does not depend on P, on the chunking or
    on the other grids in ms.
    """
    rule_nodes, rule_weights = _joined_gauss_rule(ms)
    half, mid, vz = boxes[:, :, :, None]
    nodes = np.zeros((3, boxes.shape[2], len(rule_nodes)))  # rows nu, 0, ze
    nodes[::2] = half * rule_nodes + mid
    factors, r = _oracle_factors(f0, t, vz, nodes)
    factors *= half * rule_weights
    sums, end = [], 0
    for m in ms:
        grid = slice(end, end + m)
        end += m
        # each box's factor rows keep unit stride: the same BLAS calls as one grid alone
        grid_factors, grid_r, grid_ze = factors[..., grid], r[:, grid], nodes[2, :, grid]
        out = np.zeros(boxes.shape[2])
        k = max(1, TENSOR_CHUNK // (m * m))
        for start in range(0, len(out), k):
            c = slice(start, start + k)
            cross = np.einsum("pi,pj->pij", grid_r[c], grid_ze[c], order="C")
            np.exp(cross, out=cross)
            for a, b in grid_factors[:, :, c]:
                out[c] += (a[:, None, :] @ (cross @ b[:, :, None]))[:, 0, 0]
        sums.append(out)
    return sums


def _check_initial_data(f0) -> None:
    """The oracle integrates against a GaussianSum only."""
    if not isinstance(f0, GaussianSum):
        raise TypeError(f"the oracle's initial data must be a GaussianSum, got {type(f0).__name__}")


def convolution_oracle(f0: GaussianSum, t: float, points) -> np.ndarray:
    """Reference solution values f(t, v, x) by quadrature of the kernel
    convolution, refined until successive Gauss grids agree to ORACLE_ABS_TOL.

    points is N points (v, x), as an (N, 2) array, or one point [v, x]. The
    integration box covers +-8 standard deviations of the kernel along each
    axis, intersected with the effective support of the shifted initial data
    (outside the intersection the integrand is below exp(-64)). All points
    are integrated together, and only those whose last two grids still
    differ go on to the next grid.

    Every point with a non-empty box takes both the 32- and the 64-node
    grid, so those two share one pass over the axis factors. Each later grid
    (128, 256, ... nodes) has a pass of its own over the boxes still live.
    The 128-node grid is not evaluated ahead of need: most boxes of a
    sup-norm sample stop at 64 nodes, and for them its factors would be
    wasted work.

    The integrand is taken in the factored form of the module docstring:
    G_t(nu, 0) and G_t(0, ze) come from one kernel_G call on the two axes,
    each term of f0 adds one factor per axis, and the Gauss weights absorb
    them all, so that exp(3 nu ze / t^2) is the one m x m exponential. It
    stays finite at any t: inside the box |nu| <= 8 sqrt(2 t) and
    |ze| <= 8 sqrt(2 t^3 / 3), so |3 nu ze / t^2| <= 384 / sqrt(3) ~ 221.7,
    below the exp overflow at 709.
    """
    _check_initial_data(f0)
    _check_kernel_time(t)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[None]
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"oracle points must be N points (v, x), got an array of shape {np.shape(points)}")
    if not np.isfinite(pts).all():
        raise ValueError("oracle points must be finite")
    sv = 8.0 * math.sqrt(2.0 * t)
    sz = 8.0 * math.sqrt(2.0 * t ** 3 / 3.0)
    vlo0, vhi0, xlo0, xhi0 = f0.support_box()
    v, x = pts.T
    vz = np.array([v, x + v * t])
    lo = np.maximum([[-sv], [-sz]], vz - [[vhi0], [xhi0]])
    hi = np.minimum([[sv], [sz]], vz - [[vlo0], [xlo0]])
    boxes = np.array([0.5 * (hi - lo), 0.5 * (lo + hi), vz])
    out = np.zeros(len(pts))  # an empty box integrates to 0

    def refine(live, prev, cur):
        """Store the live points whose last two grids agree; the rest stay live."""
        done = np.abs(cur - prev) < ORACLE_ABS_TOL
        out[live[done]] = cur[done]
        return live[~done], cur[~done]

    live = np.flatnonzero((lo < hi).all(axis=0))
    m = ORACLE_START_NODES
    if live.size and m < ORACLE_MAX_NODES:  # every live box takes both first grids
        m *= 2
        live, prev = refine(live, *_oracle_grids(f0, t, boxes[:, :, live], (m // 2, m)))
    while live.size and m < ORACLE_MAX_NODES:
        m *= 2
        live, prev = refine(live, prev, *_oracle_grids(f0, t, boxes[:, :, live], (m,)))
    if live.size:
        k = live[0]
        raise QuadratureError(f"oracle quadrature did not stabilize at t={t}, point=({pts[k, 0]}, {pts[k, 1]})")
    return out


def oracle_sup_norm(f0: GaussianSum, t: float) -> float:
    """Sampled sup of |f(t)| over a centered grid sized to the solution spread."""
    _check_initial_data(f0)
    _check_kernel_time(t)
    sigma_v = math.sqrt(2.0 * t + 0.5)
    sigma_x = math.sqrt(2.0 * t ** 3 / 3.0 + t ** 2 / 2.0 + 0.5)
    vlo, vhi, xlo, xhi = f0.support_box(k=1.0)
    half_v = 2.0 * sigma_v + max(abs(vlo), abs(vhi))
    half_x = 2.0 * sigma_x + max(abs(xlo), abs(xhi))
    vs = np.linspace(-half_v, half_v, SUP_GRID)
    xs = np.linspace(-half_x, half_x, SUP_GRID)
    V, X = np.meshgrid(vs, xs, indexing="ij")
    pts = np.column_stack([V.ravel(), X.ravel()])
    return float(np.abs(convolution_oracle(f0, t, pts)).max())
