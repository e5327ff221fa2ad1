"""Exponential-sum approximate inverse of a Kronecker-sum operator.

1/z is approximated by sum_j alpha_j exp(-beta_j z) over a spectral
interval, turning the inverse of a Kronecker sum into a short sum of
rank-preserving mode multiplications with cached matrix exponentials.  An
apply rounds that sum in one streamed pass (``ExpSumPreconditioner``).

The fit (``expsum_coeffs``) places the nodes beta_j by a pattern search over
geometric ladders.  For each ladder nonnegative minimax weights on a grid
come from a discrete linear Remez exchange (``_exchange_weights``) run on an
active set of nodes (``_window_weights``): a node whose weight comes out
negative is dropped and the exchange run again.  The search does no work
that cannot change its result: a ladder's exchange stops as soon as its
lower bound loses to the best ladder so far, and no ladder is scored twice.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
# np.linalg.solve's kernel for one right-hand side, called without its wrapper
from numpy.linalg._umath_linalg import solve1 as _solve
from scipy.linalg.lapack import dgeqp3
from scipy.optimize import nnls

from .streaming import streamed_mode_sum
from .tt import RoundSpec, ShapeMismatch, TTVector, check_count, check_finite
# mode_multiply lives in tt; it stays importable from here, where it was
from .tt import mode_multiply  # noqa: F401

_EVAL_POINTS = 1000
# the exchange stops when its grid error is within a factor 1 + _EXCHANGE_TOL
# of its lower bound, and gives up after _EXCHANGE_STEPS steps per reference point
_EXCHANGE_TOL = 1e-9
_EXCHANGE_STEPS = 20


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with degree-13 Pade.

    Takes one square matrix or a stack of them, shape (k, n, n); a stack's
    exponentials are bitwise those of its matrices taken one at a time.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ShapeMismatch(f"matrix_exp needs a square matrix or a stack of them, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp needs finite entries")
    return scipy.linalg.expm(m)


def _eval_relerr(z, alpha, beta):
    with np.errstate(over="ignore", under="ignore"):
        e = np.exp(-np.clip(np.outer(z, beta), 0.0, 700.0)) @ alpha
    return z * e - 1.0


def _scaled_basis(z, beta):
    """The functions z*exp(-beta_j z) on the grid z, each column scaled to
    max-norm 1; returns (basis, scale), basis C-ordered.

    Each product, exponential, maximum and quotient is worked out on rows
    beta_j * z, where numpy's loops run along the grid, and the result is
    transposed once; the entries are nonnegative, so the column maxima are
    the max-norms.
    """
    rows = np.multiply.outer(beta, z)
    np.clip(rows, 0.0, 700.0, out=rows)
    np.negative(rows, out=rows)
    with np.errstate(over="ignore", under="ignore"):
        np.exp(rows, out=rows)
        rows *= z
    scale = rows.max(axis=1)
    scale[scale == 0] = 1.0
    rows /= scale[:, None]
    return rows.T.copy(), scale


def _ladder(u, v, lo, hi, zeta):
    """The nodes of the window (u, v) on [lo, hi]: zeta geometric points
    from e^u/hi to e^v/lo, or None if the window is empty."""
    bmin, bmax = np.exp(u) / hi, np.exp(v) / lo
    if bmax <= bmin:
        return None
    if zeta == 1:
        return np.array([np.sqrt(bmin * bmax)])
    return np.geomspace(bmin, bmax, zeta)


def _exchange_weights(bs, best=np.inf):
    """Unconstrained minimax weights for the scaled basis ``bs`` by a
    discrete linear Remez (Stiefel single-point) exchange.

    The columns z*exp(-beta_j z) with distinct nodes form a Haar system, so
    the best fit of 1 equioscillates on m+1 grid points.  Each step solves
    for the weights a and level h that make the error alternate with
    modulus |h| on a reference of m+1 points, then swaps the grid point of
    largest error into the reference, keeping the signs alternating.  By de
    la Vallee Poussin, the smallest error on a reference where the error
    alternates is a lower bound on every fit's error, the nonnegative ones
    included.

    Returns (a, err, bound): the weights, their max error on the grid and
    the largest such lower bound met, with err <= bound * (1 +
    _EXCHANGE_TOL) when the exchange converges.  If rounding stops it
    first, a and err are those of the iterate with the smallest grid error;
    if there is no iterate (a singular first reference), they are None.
    bound is the largest lower bound met (0 if none).  The exchange also
    stops, with a and err None, as soon as bound reaches ``best``: no fit
    for these nodes, the exchange's own included, can then beat ``best``.

    A step costs its arithmetic: the (m+1) x (m+1) solve goes straight to
    the LAPACK kernel that ``np.linalg.solve`` calls (``solve1``, so the
    bits are that function's), the start reference is the ``dgeqp3``
    pivot order that ``scipy.linalg.qr`` returns, and the error vector, the
    reference and its system are updated in place, a swapped point by its
    row.  The operations and their order are those of the plain loop.
    """
    npts, m = bs.shape
    # start from m+1 points where the basis and the constant are well
    # separated: the pivots of a QR of every 8th grid point, by the dgeqp3
    # that scipy.linalg.qr calls, on a Fortran-ordered matrix it works in
    coarse = np.empty((m + 1, len(bs[::8])), order="F")
    coarse[:m] = bs[::8].T
    coarse[m] = 1.0
    ref = 8 * np.sort(dgeqp3(coarse, overwrite_a=1)[1][: m + 1] - 1)
    # the reference system, kept equal to [bs[ref], (-1)**k] row by row
    mat = np.empty((m + 1, m + 1))
    mat[:, :m] = bs[ref]
    mat[:, m] = (-1.0) ** np.arange(m + 1)
    ones = np.ones(m + 1)
    err, abs_err = np.empty(npts), np.empty(npts)
    h_prev = bound = 0.0
    a_best = err_best = None
    # solve1 marks a singular reference with NaN and the invalid flag, which
    # np.linalg.solve turned into LinAlgError; here the NaN stops the loop
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        for _ in range(_EXCHANGE_STEPS * (m + 1)):
            sol = _solve(mat, ones, signature="dd->d")
            a, h = sol[:m], abs(sol[m])
            # |h| never falls in exact arithmetic: if it does, rounding has
            # taken over
            if not h >= h_prev * (1.0 - _EXCHANGE_TOL):
                break
            h_prev = h
            np.matmul(bs, a, out=err)
            err -= 1.0
            err_ref = err[ref]
            sgn = np.sign(err_ref)
            if (sgn[1:] == -sgn[:-1]).all():
                bound = max(bound, float(np.abs(err_ref).min()))
                if bound >= best:
                    return None, None, bound
            np.abs(err, out=abs_err)
            i = int(abs_err.argmax())
            err_i = float(abs_err[i])
            if err_i <= bound * (1.0 + _EXCHANGE_TOL):
                return a, err_i, bound
            if err_best is None or err_i < err_best:
                a_best, err_best = a, err_i
            k = int(ref.searchsorted(i))
            if k <= m and ref[k] == i:
                break  # the worst point is already in the reference
            # swap i in for the neighbour whose error has its sign; past
            # either end with the opposite sign, drop the point at the other
            s_i = np.sign(err[i])
            if k == 0 and sgn[0] != s_i:
                ref[1:], mat[1:, :m] = ref[:-1], mat[:-1, :m]
                j = 0
            elif k == m + 1 and sgn[m] != s_i:
                ref[:-1], mat[:-1, :m] = ref[1:], mat[1:, :m]
                j = m
            elif k == m + 1 or (k > 0 and sgn[k - 1] == s_i):
                j = k - 1
            else:
                j = k
            ref[j], mat[j, :m] = i, bs[i]
    return a_best, err_best, bound


def _window_weights(bs, best):
    """Nonnegative minimax weights for the scaled basis ``bs``, as (a, err).

    An active set: the exchange runs on the free nodes, and while a weight
    is negative the node of the most negative weight is fixed at zero and
    the exchange run again; the first all-nonnegative fit is taken.  It is
    the best fit on the nodes it keeps; with every node kept it is also the
    best nonnegative fit, and otherwise it can lie above that.
    Returns None when an exchange's lower bound shows that no fit on its
    nodes can beat ``best``: the active set's fit then cannot either.  A
    window with no exchange iterate at all takes nonnegative least-squares
    weights, or None if that solver gives up.
    """
    free = np.arange(bs.shape[1])
    while True:
        a, err, bound = _exchange_weights(bs[:, free], best)
        if bound >= best:
            return None
        if a is None:
            break
        if np.all(a >= 0):
            w = np.zeros(bs.shape[1])
            w[free] = a
            return w, err
        free = np.delete(free, np.argmin(a))
    try:
        w = nnls(bs, np.ones(len(bs)))[0]
    except RuntimeError:  # nnls's iteration limit
        return None
    return w, float(np.max(np.abs(bs @ w - 1.0)))


def expsum_coeffs(lambda_min: float, lambda_max: float, zeta: int):
    """Exponential-sum coefficients for 1/z on [lambda_min, lambda_max].

    Nodes beta_j = exp(s_j) sit on a uniform grid s_j = s_lo + j*h (the
    trapezoid grid of the integral 1/z = int exp(-z e^s + s) ds).  A
    pattern search tunes the window (s_lo, s_hi): a 6 x 6 scan, then
    compass moves of halving size.  For each window the weights alpha_j are
    nonnegative and minimax-optimal on the nodes they keep, on max(1200,
    20*zeta) log-spaced points (``_window_weights``: a Remez exchange on an
    active set of nodes).  A window's exchange stops as soon as its lower
    bound shows that the window cannot beat the best so far, and a window
    whose nodes this call has scored before is skipped; neither changes a
    decision of the search.  This lands close to the best attainable
    exponential sum.

    The relative error is scale-invariant: the fit on [c*lo, c*hi] has
    nodes beta/c and, up to rounding, the same bound.

    Raises ValueError unless the endpoints are finite with 0 < lambda_min
    <= lambda_max and zeta is an integer >= 1.  Returns (alpha, beta,
    bound) with bound = max over 1000 log-spaced z of |z * E(z) - 1|,
    measured directly.
    """
    lo, hi = float(lambda_min), float(lambda_max)
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("lambda_min and lambda_max must be finite")
    if lo <= 0:
        raise ValueError("lambda_min must be positive")
    if hi < lo:
        raise ValueError("lambda_max must be >= lambda_min")
    zeta = check_count(zeta, "zeta")
    if hi / lo < 1.0 + 1e-9:
        lo, hi = lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)
    z = np.logspace(np.log10(lo), np.log10(hi), max(1200, 20 * zeta))

    # nodes scored before lost then or are the best so far, and best only
    # falls, so they cannot win now; compass moves often step back, and
    # (u + s) - s need not round to u, so the record keys on the nodes
    scored = set()

    def score(u, v, best_sig):
        beta = _ladder(u, v, lo, hi, zeta)
        if beta is None or beta.tobytes() in scored:
            return None, None, np.inf
        scored.add(beta.tobytes())
        bs, scale = _scaled_basis(z, beta)
        fit = _window_weights(bs, best_sig)
        if fit is None:
            return None, None, np.inf  # cannot beat best_sig
        return fit[0] / scale, beta, fit[1]

    best = (np.inf, None, None, (0.0, 0.0))
    for u in np.linspace(-1.5, 2.0, 6):
        for v in np.linspace(-1.0, 2.5, 6):
            alpha, beta, sig = score(u, v, best[0])
            if sig < best[0]:
                best = (sig, alpha, beta, (u, v))
    u, v = best[3]
    step = 0.4
    while step > 0.02:
        moved = False
        for du, dv in ((step, 0), (-step, 0), (0, step), (0, -step), (step, step), (-step, -step)):
            alpha, beta, sig = score(u + du, v + dv, best[0])
            if sig < best[0]:
                best = (sig, alpha, beta, (u + du, v + dv))
                u, v = u + du, v + dv
                moved = True
                break
        if not moved:
            step /= 2.0
    alpha, beta = best[1], best[2]
    z_report = np.logspace(np.log10(lo), np.log10(hi), _EVAL_POINTS)
    bound = float(np.max(np.abs(_eval_relerr(z_report, alpha, beta))))
    return alpha, beta, bound


def spectral_interval(factors):
    """[lambda_min, lambda_max] for the symmetric part of a Kronecker sum of
    the given factors: exact lambda_min, Gershgorin lambda_max.

    lambda_min sums the smallest eigenvalue of each factor's symmetric part
    (``np.linalg.eigvalsh``), floored at 1e-8 * lambda_max; lambda_max sums
    per-factor Gershgorin upper bounds.  The eigenvalues of a non-normal
    factor's symmetric part do not alone bound the fit's error on it.
    """
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for i, f in enumerate(mats):
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ShapeMismatch(f"factor {i} is not square")
        if not np.all(np.isfinite(f)):
            raise ValueError(f"factor {i} has non-finite entries")
    hi_total = 0.0
    lo_total = 0.0
    for f in mats:
        sym = 0.5 * (f + f.T)
        radii = np.sum(np.abs(sym), axis=1) - np.abs(np.diag(sym))
        hi_total += float(np.max(np.diag(sym) + radii))
        lo_total += float(np.linalg.eigvalsh(sym)[0])
    lo_total = max(lo_total, 1e-8 * hi_total)
    return lo_total, hi_total


class ExpSumPreconditioner:
    """Approximate inverse of a Kronecker sum via exponential sums.

    Caches the zeta*d factor exponentials exp(-beta_j A_i) at
    construction, by one stacked ``matrix_exp`` call per factor.  An apply forms the zeta rank-preserving mode products
    (x_i exp(-beta_j A_i)) v and rounds their alpha-weighted sum in one
    streamed pass, ``streamed_mode_sum``: the products are sketched
    against one frame, the weighted sketches added and recovered once at
    the spec's tolerance, and a frame of double the rank is drawn until the
    recovered rank leaves room in it.  The spec's rank cap applies to the
    result only.  Every apply draws its frames afresh from ``stream_seed``
    (frame i from the seed [stream_seed, i]), so an input gives bitwise
    the same result on every call; a P^{-1} that changed from call to call
    would keep the sketched solvers' breakdown stop from firing.  Keeping
    the frames between applies would save their draw (~1 ms an apply at
    markov4 sizes; markov4-spgmres ``solve_s`` 0.066-0.068 -> 0.058-0.061 s)
    but, held through the solver's own roundings, raised markov4-spgmres
    peak RSS from 8.8 to 9.9 MiB (+1.1 MiB; medians of 10 benchmark pairs
    at each of seeds 0 and 7, with the solution's sketch pairs kept
    factored).
    """

    def __init__(self, factors, alpha, beta, spec: RoundSpec,
                 quad_bound: float | None = None, *, stream_seed: int = 0):
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ValueError("alpha and beta must be equal-length vectors")
        if self.alpha.size == 0:
            raise ValueError("alpha and beta need at least one term")
        if not (np.all(np.isfinite(self.alpha)) and np.all(np.isfinite(self.beta))):
            raise ValueError("alpha and beta coefficients must be finite")
        if np.any(self.beta < 0):
            raise ValueError("beta coefficients must be nonnegative")
        self.spec = spec
        self.quad_bound = quad_bound
        self.stream_seed = check_count(stream_seed, "stream_seed", 0)
        # one stacked call per factor: exps[j][i] = exp(-beta_j A_i)
        stacks = [matrix_exp(-self.beta[:, None, None] * f) for f in self.factors]
        self.exps = [list(row) for row in zip(*stacks)]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @classmethod
    def from_kron_sum(cls, factors, zeta: int, spec: RoundSpec, *,
                      accumulate: str = "sequential",
                      stream_seed: int = 0) -> "ExpSumPreconditioner":
        """Build coefficients for the spectral interval of sum_i (+) A_i.

        ``stream_seed`` seeds the apply's frames.  ``accumulate`` exists
        only for the benchmark's set-up, which passes it, and must be
        ``"sequential"``.
        """
        if accumulate != "sequential":
            raise ValueError("accumulate must be 'sequential'")
        alpha, beta, bound = expsum_coeffs(*spectral_interval(factors), zeta)
        return cls(factors, alpha, beta, spec, quad_bound=bound, stream_seed=stream_seed)

    def apply_inverse(self, v: TTVector) -> TTVector:
        """Apply the approximate inverse of the Kronecker sum to v."""
        check_finite(v.cores)
        if v.dims != self.dims:
            raise ShapeMismatch(f"vector dims {v.dims} do not match {self.dims}")
        return streamed_mode_sum(v, self.exps, self.alpha, self.stream_seed, self.spec)
