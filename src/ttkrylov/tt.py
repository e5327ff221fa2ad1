"""Tensor-train vectors and operators: exact arithmetic and TT-SVD rounding.

A d-mode tensor is stored as a chain of order-3 cores, core k of shape
(r_{k-1}, n_k, r_k) with r_0 = r_d = 1.  Linear operators on such tensors
are chains of order-4 cores (rho_{k-1}, m_k, n_k, rho_k).  All arithmetic
is in float64.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqp3, dorgqr

# Entry cap for densification helpers; keeps oracles at desk scale.
DENSE_CAP = 1_000_000


class ShapeMismatch(ValueError):
    """Operands have incompatible mode sizes or rank chains."""


class SizeLimit(ValueError):
    """A dense materialization would exceed the configured entry cap."""


class NonFiniteCore(ValueError):
    """A core holds a NaN or infinite entry."""


def check_count(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; ValueError naming ``name`` unless it is an
    integer >= ``minimum``.  Python and numpy integers pass; bools, floats
    and strings do not."""
    if type(value) is int and value >= minimum:  # the common case, quickly
        return value
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or count < minimum or isinstance(value, (bool, np.bool_)):
        what = "a nonnegative integer" if minimum == 0 else f"an integer >= {minimum}"
        raise ValueError(f"{name} must be {what}, got {value!r}")
    return count


def check_seed(seed) -> np.random.SeedSequence:
    """``seed`` as a ``SeedSequence``; ValueError naming the seed unless it
    is a nonnegative Python or numpy integer, a list of such integers, or a
    ``SeedSequence`` (returned as it is).  ``default_rng(check_seed(s))``
    draws what ``default_rng(s)`` does."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, list):
        return np.random.SeedSequence([check_count(s, "seed", 0) for s in seed])
    return np.random.SeedSequence(check_count(seed, "seed", 0))


@dataclass(frozen=True)
class RoundSpec:
    """Rounding control: relative Frobenius tolerance and optional rank cap."""

    rel_tol: float = 0.0
    max_rank: int | None = None

    def __post_init__(self):
        if not self.rel_tol >= 0:  # NaN too
            raise ValueError(f"rel_tol must be nonnegative, got {self.rel_tol!r}")
        if self.max_rank is not None:
            check_count(self.max_rank, "max_rank")


def _check_chain(cores, order: int) -> None:
    """Raise unless ``cores`` is a nonempty list of order-``order`` cores
    whose ranks (first and last axes) chain up and are 1 at both ends."""
    if not cores:
        raise ValueError("need at least one core")
    kind = "op " if order == 4 else ""
    rank = 1  # the rank core k must start with
    for k, c in enumerate(cores):
        if c.ndim != order:
            raise ShapeMismatch(f"{kind}core {k} must be order {order}, got shape {c.shape}")
        if c.shape[0] != rank:
            raise ShapeMismatch(f"{kind}rank chain broken between cores {k - 1} and {k}"
                                if k else f"boundary {kind}ranks must equal 1")
        rank = c.shape[-1]
    if rank != 1:
        raise ShapeMismatch(f"boundary {kind}ranks must equal 1")


class TTVector:
    """A d-mode tensor in TT format (chain of order-3 cores)."""

    def __init__(self, cores):
        self.cores = [np.asarray(c, dtype=np.float64) for c in cores]
        _check_chain(self.cores, 3)

    @property
    def d(self) -> int:
        return len(self.cores)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[2] for c in self.cores)

    def copy(self) -> "TTVector":
        return TTVector([c.copy() for c in self.cores])

    def __repr__(self):
        return f"TTVector(dims={self.dims}, ranks={self.ranks})"


class TTOperator:
    """A linear map between d-mode tensors (chain of order-4 cores)."""

    def __init__(self, op_cores):
        self.op_cores = [np.asarray(c, dtype=np.float64) for c in op_cores]
        _check_chain(self.op_cores, 4)

    @property
    def d(self) -> int:
        return len(self.op_cores)

    @property
    def row_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[1] for c in self.op_cores)

    @property
    def col_dims(self) -> tuple[int, ...]:
        return tuple(c.shape[2] for c in self.op_cores)

    @property
    def ranks(self) -> tuple[int, ...]:
        return (1,) + tuple(c.shape[3] for c in self.op_cores)

    def copy(self) -> "TTOperator":
        return TTOperator([c.copy() for c in self.op_cores])

    def __repr__(self):
        return (
            f"TTOperator(row_dims={self.row_dims}, col_dims={self.col_dims}, "
            f"ranks={self.ranks})"
        )


# ---------------------------------------------------------------------------
# construction helpers


def tt_zero(dims) -> TTVector:
    """All-zero TT with unit ranks."""
    return TTVector([np.zeros((1, n, 1)) for n in dims])


def tt_rank_one(vectors) -> TTVector:
    """Rank-1 TT denoting the outer product of the given mode vectors."""
    return TTVector([np.asarray(v, dtype=np.float64).reshape(1, -1, 1) for v in vectors])


def attainable_ranks(dims) -> list[int]:
    """The full interior TT ranks min(n_1 ... n_k, n_{k+1} ... n_d), k < d."""
    dims = list(dims)
    return [min(math.prod(dims[:k]), math.prod(dims[k:])) for k in range(1, len(dims))]


def tt_random(dims, ranks, seed=0) -> TTVector:
    """Random TT with i.i.d. standard normal core entries.

    `ranks` gives the interior rank profile (r_1, ..., r_{d-1}); it is
    clipped so every unfolding rank stays attainable.
    """
    dims = [check_count(n, "dims") for n in dims]
    d = len(dims)
    ranks = list(ranks) if d > 1 else []
    if len(ranks) != max(d - 1, 0):
        raise ValueError("ranks must have length d-1")
    full = [1, *(min(check_count(r, "ranks"), f)
                 for r, f in zip(ranks, attainable_ranks(dims))), 1]
    rng = np.random.default_rng(check_seed(seed))
    cores = [rng.standard_normal((full[k], dims[k], full[k + 1])) for k in range(d)]
    return TTVector(cores)


def identity_operator(dims) -> TTOperator:
    """Identity map as a TT operator with unit op-ranks."""
    return TTOperator([np.eye(n).reshape(1, n, n, 1) for n in dims])


# ---------------------------------------------------------------------------
# dense conversions


def tt_to_dense(v: TTVector) -> np.ndarray:
    """Contract the core chain into a dense d-mode array (C-order modes)."""
    total = int(np.prod(v.dims, dtype=np.int64))
    if total > DENSE_CAP:
        raise SizeLimit(f"dense tensor would have {total} entries (cap {DENSE_CAP})")
    m = v.cores[0].reshape(v.dims[0], -1)
    for c in v.cores[1:]:
        m = m @ c.reshape(c.shape[0], -1)
        m = m.reshape(-1, c.shape[2])
    return m.reshape(v.dims)


def tt_op_to_dense(a: TTOperator) -> np.ndarray:
    """Dense matricization of a TT operator (row-major mode fusion)."""
    d = a.d
    # split each fused mode (m_k n_k) and put the row modes first
    t = tt_to_dense(_op_as_vector(a))
    t = t.reshape([x for mn in zip(a.row_dims, a.col_dims) for x in mn])
    t = t.transpose([*range(0, 2 * d, 2), *range(1, 2 * d, 2)])
    return t.reshape(math.prod(a.row_dims), math.prod(a.col_dims))


def _truncation_rank(sv: np.ndarray, budget: float) -> int:
    """Smallest rank r whose discarded tail sv[r:] has Frobenius norm <=
    budget.

    `sv` holds singular values, sorted descending, or the row norms of a
    column-pivoted R, none above sqrt(R's column count) * sv[0]; the tail
    is summed relative to sv[0], so no square overflows or underflows.
    """
    if sv.size == 0 or sv[0] == 0:
        return 1
    rel = sv / sv[0]
    tail = np.sqrt(np.cumsum(rel[::-1] ** 2)[::-1])
    # tail[r] = norm of sv[r:] / sv[0]; keep minimal r with tail[r] <= budget
    ok = np.nonzero(tail <= budget / sv[0])[0]
    r = int(ok[0]) if ok.size else sv.size
    return max(r, 1)


def tt_from_dense(tensor: np.ndarray, spec: RoundSpec = RoundSpec()) -> TTVector:
    """Compress a dense array into TT form by the TT-SVD.

    The relative Frobenius error is at most spec.rel_tol (budget split
    uniformly over the d-1 truncated SVDs); spec.max_rank caps every
    interior rank.  Intended for small test instances.
    """
    t = np.asarray(tensor, dtype=np.float64)
    if t.size == 0:
        raise ValueError("tensor must be nonempty")
    if t.size > DENSE_CAP:
        raise SizeLimit(f"dense input has {t.size} entries (cap {DENSE_CAP})")
    dims = list(t.shape) if t.ndim > 0 else [1]
    d = len(dims)
    if d == 1:
        return TTVector([t.reshape(1, dims[0], 1)])
    nrm = np.linalg.norm(t)
    if nrm == 0:
        return tt_zero(dims)
    budget = spec.rel_tol * nrm / np.sqrt(d - 1)
    cores = []
    r_prev = 1
    work = t.reshape(dims)
    for k in range(d - 1):
        work = work.reshape(r_prev * dims[k], -1)
        u, sv, vt = np.linalg.svd(work, full_matrices=False)
        r = _truncation_rank(sv, budget)
        if spec.max_rank is not None:
            r = min(r, spec.max_rank)
        cores.append(u[:, :r].reshape(r_prev, dims[k], r))
        work = sv[:r, None] * vt[:r]
        r_prev = r
    cores.append(work.reshape(r_prev, dims[-1], 1))
    return TTVector(cores)


# ---------------------------------------------------------------------------
# arithmetic


def tt_add(a: TTVector, b: TTVector) -> TTVector:
    """Exact sum; interior ranks add (block-diagonal core concatenation)."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims differ: {a.dims} vs {b.dims}")
    d = a.d
    if d == 1:
        return TTVector([a.cores[0] + b.cores[0]])
    cores = []
    for k in range(d):
        ca, cb = a.cores[k], b.cores[k]
        ra0, n, ra1 = ca.shape
        rb0, _, rb1 = cb.shape
        if k == 0:
            cores.append(np.concatenate([ca, cb], axis=2))
        elif k == d - 1:
            cores.append(np.concatenate([ca, cb], axis=0))
        else:
            c = np.zeros((ra0 + rb0, n, ra1 + rb1))
            c[:ra0, :, :ra1] = ca
            c[ra0:, :, ra1:] = cb
            cores.append(c)
    return TTVector(cores)


def tt_scale(a: TTVector, alpha: float) -> TTVector:
    """Scale the denoted tensor; the factor is absorbed by the last core."""
    cores = [c.copy() for c in a.cores]
    cores[-1] *= alpha
    return TTVector(cores)


def mode_multiply(v: TTVector, matrices) -> TTVector:
    """Multiply mode k of the tensor by matrices[k]; ranks unchanged."""
    if len(matrices) != v.d:
        raise ShapeMismatch("need one matrix per mode")
    cores = []
    for k, (m, c) in enumerate(zip(matrices, v.cores)):
        m = np.asarray(m, dtype=np.float64)
        if m.ndim != 2 or m.shape[1] != c.shape[1]:
            raise ShapeMismatch(f"matrix {k} must be 2-D with {c.shape[1]} columns, got shape {m.shape}")
        cores.append(m @ c)  # (r0, m_rows, r1), contiguous
    return TTVector(cores)


def tt_dot(a: TTVector, b: TTVector) -> float:
    """Euclidean inner product via left-to-right core contraction.

    When the plain contraction overflows, it is repeated with the cores
    and the running contraction scaled to unit magnitude by powers of two
    and the exponents summed apart, so only the result itself can
    overflow.
    """
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims differ: {a.dims} vs {b.dims}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = _dot_chain(a.cores, b.cores, scaled=False)
    return out if np.isfinite(out) else _dot_chain(a.cores, b.cores, scaled=True)


def _dot_chain(acores, bcores, scaled):
    m, exp = np.ones((1, 1)), 0
    for ca, cb in zip(acores, bcores):
        if scaled:  # largest entries into [0.5, 1); exact for powers of two
            exps = [np.frexp(np.max(np.abs(x), initial=0.0))[1] for x in (ca, cb, m)]
            ca, cb, m = (np.ldexp(x, -e) for x, e in zip((ca, cb, m), exps))
            exp += sum(exps)
        # m: (ra, rb) -> (rb, n ra') -> (rb n, ra')^T (rb n, rb') = (ra', rb')
        tmp = (m.T @ ca.reshape(ca.shape[0], -1)).reshape(-1, ca.shape[2])
        m = tmp.T @ cb.reshape(-1, cb.shape[2])
    return float(np.ldexp(m[0, 0], exp))


def tt_norm(a: TTVector) -> float:
    """Frobenius norm of the denoted tensor.

    Taken from the triangular factors of the right-to-left pivoted QR
    sweep (_right_factors, shared with tt_round), not as
    sqrt(tt_dot(a, a)): that square root keeps only half the digits of a
    difference of nearly equal tensors, and its square overflows once the
    norm passes about 1e154.  The directions the pivoted sweep drops carry
    a mass of at most sqrt(r_k) * _PIVOT_RTOL times its first pivot at
    core k, so the norm of a sum with exactly dependent terms, such as
    v + v, keeps its digits.
    """
    lfac = _right_factors(a.cores)
    c = a.cores[0]
    return _norm(c.reshape(-1, c.shape[2]) @ lfac[1])


def tt_matvec(a: TTOperator, v: TTVector) -> TTVector:
    """Apply the operator core by core; output ranks multiply (no rounding).

    Output core k is the (rho_k r_k, m_k, rho_{k+1} r_{k+1}) array with
    entries [(x, a), i, (y, b)] = sum_j D_xy[i, j] C[a, j, b]: the fused
    rank indices are op rank major.  D_xy = dk[x, :, :, y] are the m x n
    op-rank blocks and C the vector's core.  Each block's product with C is
    r_k matrix products (m x n)(n x r_{k+1}), 2 m n r_k r_{k+1} flops,
    written by the BLAS straight into the output's (x, :, :, y, :) slot, so
    there is no intermediate and no transposed copy.  Per column y, the
    products run from the first nonzero block to the last; all-zero blocks
    outside that run, such as the one of a Kronecker sum's cores [[I, 0],
    [F, I]], are skipped and their slots set to zero.
    """
    if a.col_dims != v.dims:
        raise ShapeMismatch(f"operator col_dims {a.col_dims} do not match {v.dims}")
    return TTVector([_matvec_core(dk, ck) for dk, ck in zip(a.op_cores, v.cores)])


def _matvec_core(dk: np.ndarray, ck: np.ndarray) -> np.ndarray:
    """One output core of ``tt_matvec``: op core dk applied to vector core ck."""
    rho0, m, n, rho1 = dk.shape
    r0, _, r1 = ck.shape
    # the blocks column y by column, each contiguous for the BLAS
    blocks = np.ascontiguousarray(dk.transpose(3, 0, 1, 2))
    out = np.empty((rho0, r0, m, rho1, r1))
    for y, col in enumerate(blocks.reshape(rho1, rho0, -1).any(axis=2).tolist()):
        nonzero = [x for x, live in enumerate(col) if live]
        lo, hi = (nonzero[0], nonzero[-1] + 1) if nonzero else (0, 0)
        if len(nonzero) < rho0:
            out[:lo, :, :, y] = 0.0
            out[hi:, :, :, y] = 0.0
        np.matmul(blocks[y, lo:hi, None], ck, out=out[lo:hi, :, :, y])
    return out.reshape(rho0 * r0, m, rho1 * r1)


# ---------------------------------------------------------------------------
# rounding

# a tensor whose norm is below exp(_ZERO_LOG_RATIO) * ||G_0|| * ||L_1||
# is cancellation noise (see tt_round)
_ZERO_LOG_RATIO = np.log(1e-14)
# below this a plain Frobenius norm may have lost squares to underflow
_NORM_SAFE_MIN = 1e-100
# a pivot of the right-to-left QR sweep at or below this fraction of the
# first pivot is roundoff of an exactly dependent direction (_right_factors):
# such remainders measured 2-5 eps at 40 to 4000 rows
_PIVOT_RTOL = 16 * np.finfo(np.float64).eps


def _norm(x: np.ndarray) -> float:
    """Frobenius norm without overflow or underflow of the squares.

    NaN when x holds a NaN or infinite entry.
    """
    with np.errstate(over="ignore", under="ignore"):
        nrm = np.linalg.norm(x)
    if np.isfinite(nrm) and nrm > _NORM_SAFE_MIN:
        return float(nrm)
    peak = np.max(np.abs(x), initial=0.0)
    if not np.isfinite(peak):
        return np.nan
    return float(peak * np.linalg.norm(x / peak)) if peak > 0 else 0.0


def _to_unit(x: np.ndarray) -> int:
    """Scale x in place by 2**-e so that its largest |entry| lies in [0.5, 1).

    Returns e (0 for a zero or non-finite x); the scaling is exact.
    """
    e = math.frexp(max(x.max(), -x.min()))[1]
    np.ldexp(x, -e, out=x)
    return e


def _right_factors(cores) -> list:
    """Triangular factors of the right-to-left pivoted QR sweep.

    lfac[k], k = 1..d, is an (r_k, q_k) matrix such that the unfolding of
    cores k..d-1 equals lfac[k] times a matrix with orthonormal rows, up
    to the dropped pivots below; lfac[d] = [[1]].  Only geqp3 runs: no Q
    is formed.

    With M_k = G_k x_3 L_{k+1} unfolded as (r_k, n_k q_{k+1}), column
    pivoting gives M_k^T P = Q R with |R_00| >= |R_11| >= ..., where
    |R_jj| is the largest column norm of the trailing block left at step
    j.  With q the first j where |R_jj| <= _PIVOT_RTOL * |R_00|, rows q..
    of R are dropped, so L_k = P R[:q]^T, of r_k x q entries, and the
    dropped mass is at most sqrt(r_k - q) * |R_qq|: roundoff, the size of
    Householder QR's own backward error.  Exactly dependent directions of
    the rank-r_k representation, such as those v puts into A v - h v when
    A is a Kronecker sum, so cost nothing further in this sweep or in the
    SVDs of tt_round.

    M_k goes to LAPACK scaled by a power of two to unit magnitude and R is
    scaled back, which is exact: a power-of-two scaling of any core leaves
    the matrices LAPACK sees unchanged.
    """
    d = len(cores)
    lfac = [None] * (d + 1)
    lfac[d] = np.ones((1, 1))
    for k in range(d - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        m = (cores[k].reshape(r0 * n, r1) @ lfac[k + 1]).reshape(r0, -1)
        e = _to_unit(m)
        # pivoted QR of m.T without forming Q; m.T is Fortran-ordered, so
        # LAPACK works on it in place
        qr, piv = dgeqp3(m.T, overwrite_a=True)[:2]
        diag = np.abs(np.diagonal(qr))
        small = np.flatnonzero(diag <= _PIVOT_RTOL * diag[0])
        q = max(int(small[0]) if small.size else diag.size, 1)
        lfac[k] = np.empty((r0, q))
        lfac[k][piv - 1] = np.ldexp(_upper(qr[:q]).T, e)  # piv is 1-based
    return lfac


def _upper(r: np.ndarray) -> np.ndarray:
    """r with its strict lower triangle zeroed in place: the R of a
    LAPACK QR whose reflectors are no longer needed."""
    r[np.tri(*r.shape, -1, dtype=bool)] = 0.0
    return r


def check_finite(arrays, what: str = "core") -> list[float]:
    """Check every array, such as a TT vector's cores, for NaN or inf
    entries; return their norms.

    Raises NonFiniteCore naming the first such array "<what> k".
    """
    norms = [_norm(c) for c in arrays]
    for k, nrm in enumerate(norms):
        if not np.isfinite(nrm):
            raise NonFiniteCore(f"{what} {k} holds a non-finite entry")
    return norms


def tt_round(v: TTVector, spec: RoundSpec, pivoted: bool = False) -> TTVector:
    """TT-SVD recompression from triangular factors only.

    A right-to-left sweep keeps only the R factors of the column-pivoted
    QR of each core's transposed unfolding: with L_d = [[1]] and, for
    k = d-1..1, L_k = P_k R_k[:q_k]^T where (G_k x_3 L_{k+1})^T P_k =
    Q_k R_k, the unfolding of cores k..d-1 equals L_k times a matrix with
    orthonormal rows that is never formed.  Rows of R_k whose pivots are
    at or below _PIVOT_RTOL = 16 eps of the first are dropped; the
    mass they carry is at most sqrt(r_k - q_k) * |R_k[q_k, q_k]|, so the
    sweep and the SVDs run on the numerical rank q_k of the input's
    representation, not on its rank r_k.  A left-to-right sweep then
    truncates B_k = (C_k G_k) L_{k+1}, where C_k is the carry (C_0 =
    [[1]]), to an orthonormal basis U_r of r columns, keeps U_r as the new
    core and passes C_{k+1} = U_r^T (C_k G_k) on to the original next
    core.  Every matrix goes to LAPACK scaled by a power of two, so a
    power-of-two scaling of the input scales the result exactly.

    By default U_r is from the truncated SVD of B_k, the best rank-r
    approximation.  With ``pivoted=True`` it is Q[:, :r] of the
    column-pivoted QR B_k P = Q R, formed by orgqr from the first r
    reflectors; since Q is orthonormal, keeping r pivots discards exactly
    ||R[r:, :]||_F, and r is the smallest rank whose trailing rows of R
    fit the same budget.  That keeps the error bound below, and the cut
    takes 0.35-0.43 of the SVD's time at cd4-gmres's sizes (B_k of 256 to
    512 rows and 16 to 32 columns, one BLAS thread).  The first rank is
    never below the SVD's and can exceed it; later bonds see another carry,
    so their ranks can also come out lower.  Over the 39 relaxed roundings
    of A z in a cd4-gmres solve (``tt_gmres``) the interior ranks summed
    1,801, as the SVD's do.  A bond where max_rank binds is truncated by
    the SVD in either case, so each capped bond keeps the best
    rank-max_rank approximation of its B_k.

    Each truncation discards at most rel_tol*||v||/sqrt(d-1) in Frobenius
    norm, so the total relative error stays below rel_tol; a max_rank cap
    overrides the tolerance where it binds.  Cores 0..d-2 of the result
    are left-orthonormal and the norm sits in the last core.

    A zero tensor rounds to the all-zero unit-rank TT, and so does one
    whose norm is below 1e-14 * ||G_0|| * ||L_1||, the bound its first
    core and the rest of the chain put on it: such a result is
    cancellation noise.  Norms are computed without squaring large or
    small values and compared as logs, so no magnitude that float64 can
    hold overflows.  A NaN or infinite core raises NonFiniteCore.
    """
    norms = check_finite(v.cores)
    if min(norms) == 0:
        return tt_zero(v.dims)
    d = v.d
    if d == 1:
        return v.copy()
    cores = v.cores
    lfac = _right_factors(cores)
    out = []
    carry = np.ones((1, 1))
    for k in range(d - 1):
        r0, n, r1 = cores[k].shape
        a = (carry @ cores[k].reshape(r0, n * r1)).reshape(-1, r1)
        basis, mass = (_pivoted_cut if pivoted else _svd_cut)(a, lfac[k + 1])
        if k == 0:
            nrm = _norm(mass)
            bound = (norms[0], _norm(lfac[1]))
            if nrm == 0 or np.log(nrm) - np.log(bound).sum() <= _ZERO_LOG_RATIO:
                return tt_zero(v.dims)
            budget = spec.rel_tol * nrm / np.sqrt(d - 1)
        r = _truncation_rank(mass, budget)
        if spec.max_rank is not None and r > spec.max_rank:
            if pivoted:  # the best rank-max_rank approximation is the SVD's
                basis, mass = _svd_cut(a, lfac[k + 1])
                r = _truncation_rank(mass, budget)
            r = min(r, spec.max_rank)
        u = basis(r)
        out.append(u.reshape(-1, n, r))
        carry = u.T @ a
    r0, n, _ = cores[-1].shape
    out.append((carry @ cores[-1].reshape(r0, n)).reshape(-1, n, 1))
    return TTVector(out)


def _svd_cut(a: np.ndarray, lfac: np.ndarray):
    """(basis, mass) of B = a lfac for tt_round: basis(r) is the matrix of
    B's first r left singular vectors and mass its singular values."""
    b = a @ lfac
    e = _to_unit(b)
    u, sv, _ = np.linalg.svd(b, full_matrices=False)
    return (lambda r: u[:, :r]), np.ldexp(sv, e)


def _pivoted_cut(a: np.ndarray, lfac: np.ndarray):
    """(basis, mass) of B = a lfac for tt_round, by the column-pivoted QR
    B P = Q R: basis(r) is Q[:, :r], C-ordered, and mass[i] = ||R[i, :]||,
    so that keeping r columns discards ||mass[r:]||."""
    b = (lfac.T @ a.T).T  # Fortran-ordered, so geqp3 works on it in place
    e = _to_unit(b)
    qr, _, tau = dgeqp3(b, overwrite_a=True)[:3]
    rows = np.linalg.norm(_upper(qr[: min(qr.shape)].copy()), axis=1)

    def basis(r):
        return np.ascontiguousarray(dorgqr(qr[:, :r], tau[:r], overwrite_a=True)[0])

    return basis, np.ldexp(rows, e)


class RoundedSum:
    """Linear combinations start + sum_i c_i t_i of kept TT vectors.

    ``add`` keeps a term whole; ``combine(coeffs)`` adds the scaled terms
    to the start one at a time and rounds each partial sum at ``spec``.
    Without a start the first scaled term is taken as it is.  ``nbytes``
    is the size of the kept terms' cores.
    """

    def __init__(self, spec: RoundSpec, start: TTVector | None = None):
        self.spec, self.start, self.terms = spec, start, []

    def add(self, t: TTVector) -> None:
        self.terms.append(t)

    @property
    def nbytes(self) -> int:
        return sum(c.nbytes for t in self.terms for c in t.cores)

    def combine(self, coeffs) -> TTVector:
        x = self.start
        for t, c in zip(self.terms, coeffs):
            term = tt_scale(t, float(c))
            x = term if x is None else tt_round(tt_add(x, term), self.spec)
        return x


# ---------------------------------------------------------------------------
# operator arithmetic (via the fused-mode order-3 view)


def _op_as_vector(a: TTOperator) -> TTVector:
    return TTVector(
        [c.reshape(c.shape[0], c.shape[1] * c.shape[2], c.shape[3]) for c in a.op_cores]
    )


def _vector_as_op(v: TTVector, row_dims, col_dims) -> TTOperator:
    cores = []
    for c, m, n in zip(v.cores, row_dims, col_dims):
        cores.append(c.reshape(c.shape[0], m, n, c.shape[2]))
    return TTOperator(cores)


def tt_op_add(a: TTOperator, b: TTOperator) -> TTOperator:
    """Exact operator sum (fused-mode block concatenation)."""
    if a.row_dims != b.row_dims or a.col_dims != b.col_dims:
        raise ShapeMismatch("operator dims differ")
    s = tt_add(_op_as_vector(a), _op_as_vector(b))
    return _vector_as_op(s, a.row_dims, a.col_dims)


def tt_op_round(a: TTOperator, spec: RoundSpec) -> TTOperator:
    """Round an operator by treating each core as order 3 with fused modes."""
    r = tt_round(_op_as_vector(a), spec)
    return _vector_as_op(r, a.row_dims, a.col_dims)


# a core of the identity's path solved to within this fraction of its
# right-hand side holds up to roundoff: the CD and Markov operators' cores
# measured 2e-16 to 8e-16
_SHIFT_RTOL = 1e-13


def tt_op_shift_core(a: TTOperator) -> np.ndarray | None:
    """The block E with A + sigma I = (A's cores 0..d-2, last core + sigma E)
    for every sigma, or None when there is none.

    Such an E exists when the identity on modes 0..d-2 is a combination
    sum_x c[x] L_x of the operators L_x that A's op-rank channels carry into
    the last core; then E = c (x) I.  The coefficients are found core by
    core, from c = [1] before core 0: the next c solves
    sum_y D_k[x, :, :, y] c_next[y] = c[x] I for every channel x, in the
    least-squares sense.  A Kronecker sum's path is its passthrough channel
    1 (``kron_sum_operator``), so shifting it shifts its last factor
    (Kressner and Tobler, SIMAX 31(4), 2010).  The left-orthonormal cores
    of a rounded operator carry independent channels, so there every step
    has one solution and a failed step means no E exists.  None is
    returned for non-square modes or when a step leaves more than
    _SHIFT_RTOL of its right-hand side, as for a generic random operator;
    an operator with redundant op ranks can also take None when an E
    exists.
    """
    if a.row_dims != a.col_dims:
        return None
    c = np.ones(1)
    for dk in a.op_cores[:-1]:
        rho0, m, n, rho1 = dk.shape
        mat = dk.reshape(rho0 * m * n, rho1)
        rhs = np.kron(c, np.eye(n).ravel())
        c = np.linalg.lstsq(mat, rhs, rcond=None)[0]
        if _norm(mat @ c - rhs) > _SHIFT_RTOL * _norm(rhs):
            return None
    n = a.col_dims[-1]
    return c[:, None, None, None] * np.eye(n)[:, :, None]


def kron_sum_operator(factors) -> TTOperator:
    """Kronecker sum of square matrices as a TT operator.

    Factor i acts on mode i; interior op-ranks are 2.  Every core is the
    two-channel block [[I, 0], [F_i, I]] (channel 0 has applied its factor,
    channel 1 not yet), cut to its second row at mode 0 and to its
    first column at mode d-1.
    """
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for i, f in enumerate(mats):
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ShapeMismatch(f"factor {i} is not square: shape {f.shape}")
    d = len(mats)
    if d == 0:
        raise ValueError("need at least one factor")
    cores = []
    for i, f in enumerate(mats):
        n = f.shape[0]
        eye = np.eye(n)
        first, last = int(i == 0), int(i == d - 1)
        # the block's rows first..1 and columns 0..1-last, allocated as cut
        c = np.zeros((2 - first, n, n, 2 - last))
        for row, col, m in ((0, 0, eye), (1, 0, f), (1, 1, eye)):
            if row >= first and col < 2 - last:
                c[row - first, :, :, col] = m
        cores.append(c)
    return TTOperator(cores)
