"""Exponential-sum approximate inverse of a Kronecker-sum operator.

1/z is approximated by sum_j alpha_j exp(-beta_j z) over a spectral
interval, turning the inverse of a Kronecker sum into a short sum of
rank-preserving mode multiplications with cached matrix exponentials.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg
from scipy.optimize import linprog

from .tt import RoundedSum, RoundSpec, ShapeMismatch, TTVector, tt_round

_EVAL_POINTS = 1000


def matrix_exp(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with degree-13 Pade."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeMismatch(f"matrix_exp needs a square matrix, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix_exp needs finite entries")
    return scipy.linalg.expm(m)


def _eval_relerr(z, alpha, beta):
    with np.errstate(over="ignore", under="ignore"):
        e = np.exp(-np.clip(np.outer(z, beta), 0.0, 700.0)) @ alpha
    return z * e - 1.0


def _minimax_weights(z, beta):
    """Best nonnegative weights for fixed nodes: a small linear program."""
    with np.errstate(over="ignore", under="ignore"):
        basis = z[:, None] * np.exp(-np.clip(np.outer(z, beta), 0.0, 700.0))
    scale = np.abs(basis).max(axis=0)
    scale[scale == 0] = 1.0
    bs = basis / scale[None, :]
    npts, m = bs.shape
    cost = np.zeros(m + 1)
    cost[-1] = 1.0
    a_ub = np.vstack(
        [
            np.hstack([bs, -np.ones((npts, 1))]),
            np.hstack([-bs, -np.ones((npts, 1))]),
        ]
    )
    b_ub = np.concatenate([np.ones(npts), -np.ones(npts)])
    res = linprog(
        cost,
        A_ub=a_ub,
        b_ub=b_ub,
        bounds=[(0, None)] * m + [(0, None)],
        method="highs",
    )
    if res.status != 0:
        return None, np.inf
    return res.x[:m] / scale, float(res.x[m])


def expsum_coeffs(lambda_min: float, lambda_max: float, zeta: int):
    """Exponential-sum coefficients for 1/z on [lambda_min, lambda_max].

    Nodes beta_j = exp(s_j) sit on a uniform grid s_j = s_lo + j*h (the
    trapezoid grid of the integral 1/z = int exp(-z e^s + s) ds); the
    window is tuned by a pattern search and the weights alpha_j are the
    minimax-optimal ones for those nodes (linear program), which lands
    close to the best attainable exponential sum.  Falls back to the raw
    trapezoid weights h*exp(s_j) if the LP solver fails.

    Returns (alpha, beta, bound) with bound = max over 1000 log-spaced z
    of |z * E(z) - 1|, measured directly.
    """
    if lambda_min <= 0:
        raise ValueError("lambda_min must be positive")
    if lambda_max < lambda_min:
        raise ValueError("lambda_max must be >= lambda_min")
    if zeta < 1:
        raise ValueError("zeta must be >= 1")
    lo, hi = float(lambda_min), float(lambda_max)
    if hi / lo < 1.0 + 1e-9:
        lo, hi = lo * (1.0 - 1e-9), hi * (1.0 + 1e-9)
    z = np.logspace(np.log10(lo), np.log10(hi), max(1200, 20 * zeta))

    def ladder(u, v):
        bmin, bmax = np.exp(u) / hi, np.exp(v) / lo
        if bmax <= bmin:
            return None
        if zeta == 1:
            return np.array([np.sqrt(bmin * bmax)])
        return np.geomspace(bmin, bmax, zeta)

    def score(u, v):
        beta = ladder(u, v)
        if beta is None:
            return None, None, np.inf
        alpha, sig = _minimax_weights(z, beta)
        if alpha is None:
            h = (v - u + np.log(hi / lo)) / max(zeta - 1, 1)
            alpha = h * beta  # plain truncated-trapezoid weights
            sig = float(np.max(np.abs(_eval_relerr(z, alpha, beta))))
        return alpha, beta, sig

    best = (np.inf, None, None, (0.0, 0.0))
    for u in np.linspace(-1.5, 2.0, 6):
        for v in np.linspace(-1.0, 2.5, 6):
            alpha, beta, sig = score(u, v)
            if sig < best[0]:
                best = (sig, alpha, beta, (u, v))
    u, v = best[3]
    step = 0.4
    while step > 0.02:
        moved = False
        for du, dv in ((step, 0), (-step, 0), (0, step), (0, -step), (step, step), (-step, -step)):
            alpha, beta, sig = score(u + du, v + dv)
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
    """Estimate [lambda_min, lambda_max] for the symmetric part of a
    Kronecker sum of the given factors.

    lambda_max sums per-factor Gershgorin upper bounds; lambda_min sums
    per-factor smallest-eigenvalue estimates from power iteration on the
    shifted symmetric part, floored at 1e-8 * lambda_max.
    """
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for i, f in enumerate(mats):
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ShapeMismatch(f"factor {i} is not square")
    hi_total = 0.0
    lo_total = 0.0
    for f in mats:
        sym = 0.5 * (f + f.T)
        radii = np.sum(np.abs(sym), axis=1) - np.abs(np.diag(sym))
        hi = float(np.max(np.diag(sym) + radii))
        hi_total += hi
        lo_total += _smallest_eig_estimate(sym, hi)
    lo_total = max(lo_total, 1e-8 * hi_total)
    return lo_total, hi_total


def _smallest_eig_estimate(sym, shift):
    """Power iteration on shift*I - sym; returns a lower estimate of the
    smallest eigenvalue of sym (Rayleigh quotient minus residual)."""
    n = sym.shape[0]
    if n == 1:
        return float(sym[0, 0])
    v = np.ones(n) + 1e-3 * np.cos(np.arange(n))
    v /= np.linalg.norm(v)
    rho_prev = np.inf
    rho = 0.0
    for it in range(20 * n + 200):
        w = shift * v - sym @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            # sym == shift*I exactly
            return float(shift)
        v = w / nw
        if it % 8 == 0:
            rho = float(v @ (sym @ v))
            if abs(rho - rho_prev) <= 1e-12 * max(abs(shift), 1.0):
                break
            rho_prev = rho
    rho = float(v @ (sym @ v))
    res = float(np.linalg.norm(sym @ v - rho * v))
    return max(rho - res, 0.0)


def mode_multiply(v: TTVector, matrices) -> TTVector:
    """Multiply mode k of the tensor by matrices[k]; ranks unchanged."""
    if len(matrices) != v.d:
        raise ShapeMismatch("need one matrix per mode")
    cores = []
    for m, c in zip(matrices, v.cores):
        m = np.asarray(m, dtype=np.float64)
        if m.shape[1] != c.shape[1]:
            raise ShapeMismatch("matrix columns must match mode size")
        g = np.tensordot(c, m, axes=([1], [1]))  # (r0, r1, m_rows)
        cores.append(g.transpose(0, 2, 1))
    return TTVector(cores)


class ExpSumPreconditioner:
    """Approximate inverse of a Kronecker sum via exponential sums.

    Caches the zeta*d factor exponentials exp(-beta_j A_i) at
    construction.  An apply adds the zeta rank-preserving mode products
    alpha_j * (x_i exp(-beta_j A_i)) v by rounded additions at the spec's
    tolerance (a ``RoundedSum``), then rounds the sum once more at the
    full spec, so its rank cap applies to the result only.
    """

    def __init__(self, factors, alpha, beta, spec: RoundSpec,
                 quad_bound: float | None = None):
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        self.alpha = np.asarray(alpha, dtype=np.float64)
        self.beta = np.asarray(beta, dtype=np.float64)
        if self.alpha.shape != self.beta.shape or self.alpha.ndim != 1:
            raise ValueError("alpha and beta must be equal-length vectors")
        if np.any(self.beta < 0):
            raise ValueError("beta coefficients must be nonnegative")
        self.spec = spec
        self.quad_bound = quad_bound
        self.exps = [
            [matrix_exp(-bj * f) for f in self.factors] for bj in self.beta
        ]

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[0] for f in self.factors)

    @classmethod
    def from_kron_sum(cls, factors, zeta: int, spec: RoundSpec, *,
                      accumulate: str = "sequential",
                      stream_seed: int = 0) -> "ExpSumPreconditioner":
        """Build coefficients for the spectral interval of sum_i (+) A_i.

        ``accumulate`` and ``stream_seed`` exist only for the benchmark's
        set-up, which passes them: ``accumulate`` must be ``"sequential"``
        and ``stream_seed`` is ignored.
        """
        if accumulate != "sequential":
            raise ValueError("accumulate must be 'sequential'")
        alpha, beta, bound = expsum_coeffs(*spectral_interval(factors), zeta)
        return cls(factors, alpha, beta, spec, quad_bound=bound)

    def apply_inverse(self, v: TTVector) -> TTVector:
        """Apply the approximate inverse of the Kronecker sum to v."""
        if v.dims != self.dims:
            raise ShapeMismatch(f"vector dims {v.dims} do not match {self.dims}")
        acc = RoundedSum(RoundSpec(self.spec.rel_tol))
        for e in self.exps:
            acc.add(mode_multiply(v, e))
        return tt_round(acc.combine(self.alpha), self.spec)
