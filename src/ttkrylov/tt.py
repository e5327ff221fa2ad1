"""Tensor-train vectors and operators: exact arithmetic and TT-SVD rounding.

A d-mode tensor is stored as a chain of order-3 cores, core k of shape
(r_{k-1}, n_k, r_k) with r_0 = r_d = 1.  Linear operators on such tensors
are chains of order-4 cores (rho_{k-1}, m_k, n_k, rho_k).  All arithmetic
is in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgeqrf

# Entry cap for densification helpers; keeps oracles at desk scale.
DENSE_CAP = 1_000_000

_VEC_MAGIC = b"TTKVEC01"
_OP_MAGIC = b"TTKOPR01"


class ShapeMismatch(ValueError):
    """Operands have incompatible mode sizes or rank chains."""


class SizeLimit(ValueError):
    """A dense materialization would exceed the configured entry cap."""


class NonFiniteCore(ValueError):
    """A core holds a NaN or infinite entry."""


@dataclass(frozen=True)
class RoundSpec:
    """Rounding control: relative Frobenius tolerance and optional rank cap."""

    rel_tol: float = 0.0
    max_rank: int | None = None

    def __post_init__(self):
        if self.rel_tol < 0:
            raise ValueError("rel_tol must be nonnegative")
        if self.max_rank is not None and self.max_rank < 1:
            raise ValueError("max_rank must be >= 1 when given")


class TTVector:
    """A d-mode tensor in TT format (chain of order-3 cores)."""

    def __init__(self, cores):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ValueError("need at least one core")
        for k, c in enumerate(cores):
            if c.ndim != 3:
                raise ShapeMismatch(f"core {k} must be order 3, got shape {c.shape}")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise ShapeMismatch("boundary ranks must equal 1")
        for k in range(len(cores) - 1):
            if cores[k].shape[2] != cores[k + 1].shape[0]:
                raise ShapeMismatch(
                    f"rank chain broken between cores {k} and {k + 1}"
                )
        self.cores = cores

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
        op_cores = [np.asarray(c, dtype=np.float64) for c in op_cores]
        if not op_cores:
            raise ValueError("need at least one core")
        for k, c in enumerate(op_cores):
            if c.ndim != 4:
                raise ShapeMismatch(f"op core {k} must be order 4, got shape {c.shape}")
        if op_cores[0].shape[0] != 1 or op_cores[-1].shape[3] != 1:
            raise ShapeMismatch("boundary op-ranks must equal 1")
        for k in range(len(op_cores) - 1):
            if op_cores[k].shape[3] != op_cores[k + 1].shape[0]:
                raise ShapeMismatch(
                    f"op-rank chain broken between cores {k} and {k + 1}"
                )
        self.op_cores = op_cores

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


def tt_random(dims, ranks, seed=0) -> TTVector:
    """Random TT with i.i.d. standard normal core entries.

    `ranks` gives the interior rank profile (r_1, ..., r_{d-1}); it is
    clipped so every unfolding rank stays attainable.
    """
    dims = list(dims)
    d = len(dims)
    ranks = list(ranks) if d > 1 else []
    if len(ranks) != max(d - 1, 0):
        raise ValueError("ranks must have length d-1")
    full = [1] + ranks + [1]
    left = np.cumprod([1] + dims)
    right = np.cumprod([1] + dims[::-1])[::-1]
    for k in range(1, d):
        full[k] = int(min(full[k], left[k], right[k]))
    rng = np.random.default_rng(seed)
    cores = [rng.standard_normal((full[k], dims[k], full[k + 1])) for k in range(d)]
    return TTVector(cores)


def identity_operator(dims) -> TTOperator:
    """Identity map as a TT operator with unit op-ranks."""
    return TTOperator([np.eye(n).reshape(1, n, n, 1) for n in dims])


# ---------------------------------------------------------------------------
# dense conversions


def tt_to_dense(v: TTVector, max_entries: int = DENSE_CAP) -> np.ndarray:
    """Contract the core chain into a dense d-mode array (C-order modes)."""
    total = int(np.prod(v.dims, dtype=np.int64))
    if total > max_entries:
        raise SizeLimit(f"dense tensor would have {total} entries (cap {max_entries})")
    m = v.cores[0].reshape(v.dims[0], -1)
    for c in v.cores[1:]:
        m = m @ c.reshape(c.shape[0], -1)
        m = m.reshape(-1, c.shape[2])
    return m.reshape(v.dims)


def tt_op_to_dense(a: TTOperator, max_entries: int = DENSE_CAP) -> np.ndarray:
    """Dense matricization of a TT operator (row-major mode fusion)."""
    nrow = int(np.prod(a.row_dims, dtype=np.int64))
    ncol = int(np.prod(a.col_dims, dtype=np.int64))
    if nrow * ncol > max_entries:
        raise SizeLimit(
            f"dense matrix would have {nrow * ncol} entries (cap {max_entries})"
        )
    m = a.op_cores[0].reshape(a.row_dims[0] * a.col_dims[0], -1)
    rows, cols = a.row_dims[0], a.col_dims[0]
    for c in a.op_cores[1:]:
        rho, mk, nk, rho2 = c.shape
        m = m @ c.reshape(rho, -1)
        # m indices: (rows, cols, mk, nk, rho2) -> (rows*mk, cols*nk, rho2)
        m = m.reshape(rows, cols, mk, nk, rho2).transpose(0, 2, 1, 3, 4)
        rows, cols = rows * mk, cols * nk
        m = m.reshape(rows * cols, rho2)
    return m.reshape(rows, cols)


def _truncation_rank(sv: np.ndarray, budget: float) -> int:
    """Smallest rank whose discarded tail has Frobenius mass <= budget.

    `sv` is sorted descending; the tail is summed relative to sv[0], so
    no square overflows or underflows.
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


def tt_dot(a: TTVector, b: TTVector) -> float:
    """Euclidean inner product via left-to-right core contraction."""
    if a.dims != b.dims:
        raise ShapeMismatch(f"dims differ: {a.dims} vs {b.dims}")
    m = np.ones((1, 1))
    for ca, cb in zip(a.cores, b.cores):
        # m: (ra, rb); update to (ra', rb')
        tmp = np.tensordot(m, ca, axes=([0], [0]))  # (rb, n, ra')
        m = np.tensordot(tmp, cb, axes=([0, 1], [0, 1]))  # (ra', rb')
    return float(m[0, 0])


def tt_norm(a: TTVector) -> float:
    """Frobenius norm of the denoted tensor.

    Taken from the triangular factors of a right-to-left QR sweep (see
    tt_round), not as sqrt(tt_dot(a, a)): that square root keeps only
    half the digits of a difference of nearly equal tensors, and its
    square overflows once the norm passes about 1e154.
    """
    lfac = _right_factors(a.cores)
    c = a.cores[0]
    return _norm(c.reshape(-1, c.shape[2]) @ lfac[1])


def tt_matvec(a: TTOperator, v: TTVector) -> TTVector:
    """Apply the operator core by core; output ranks multiply (no rounding)."""
    if a.col_dims != v.dims:
        raise ShapeMismatch(f"operator col_dims {a.col_dims} do not match {v.dims}")
    cores = []
    for dk, ck in zip(a.op_cores, v.cores):
        rho0, mk, nk, rho1 = dk.shape
        r0, _, r1 = ck.shape
        # (r0, j, r1) x (rho0, i, j, rho1) over j -> (r0, r1, rho0, i, rho1)
        g = np.tensordot(ck, dk, axes=([1], [2]))
        g = g.transpose(0, 2, 3, 1, 4).reshape(r0 * rho0, mk, r1 * rho1)
        cores.append(g)
    return TTVector(cores)


# ---------------------------------------------------------------------------
# rounding

# a tensor whose norm is below exp(_ZERO_LOG_RATIO) * ||G_0|| * ||L_1||
# is cancellation noise (see tt_round)
_ZERO_LOG_RATIO = np.log(1e-14)
# below this a plain Frobenius norm may have lost squares to underflow
_NORM_SAFE_MIN = 1e-100


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


def _right_factors(cores) -> list:
    """Triangular factors of the right-to-left QR sweep.

    lfac[k], k = 1..d, is an (r_k, s_k) matrix such that the unfolding of
    cores k..d-1 equals lfac[k] times a matrix with orthonormal rows;
    lfac[d] = [[1]].  Only geqrf runs: no Q is formed.
    """
    d = len(cores)
    lfac = [None] * (d + 1)
    lfac[d] = np.ones((1, 1))
    for k in range(d - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        m = (cores[k].reshape(r0 * n, r1) @ lfac[k + 1]).reshape(r0, -1)
        # Householder QR of m.T without forming Q; m.T is Fortran-ordered,
        # so LAPACK works on it in place
        qr = dgeqrf(m.T, overwrite_a=True)[0]
        lfac[k] = np.triu(qr[: min(qr.shape)]).T
    return lfac


def check_finite(v: TTVector) -> list[float]:
    """Check every core for NaN or inf entries; return the core norms.

    Raises NonFiniteCore naming the first core with such an entry.
    """
    norms = [_norm(c) for c in v.cores]
    for k, nrm in enumerate(norms):
        if not np.isfinite(nrm):
            raise NonFiniteCore(f"core {k} holds a non-finite entry")
    return norms


def tt_round(v: TTVector, spec: RoundSpec) -> TTVector:
    """TT-SVD recompression from triangular factors only.

    A right-to-left sweep keeps only the R factors of the QR of each
    core's transposed unfolding: with L_d = [[1]] and, for k = d-1..1,
    L_k = R_k^T where (G_k x_3 L_{k+1})^T = Q_k R_k, the unfolding of
    cores k..d-1 equals L_k times a matrix with orthonormal rows that is
    never formed.  A left-to-right sweep then takes the truncated SVD
    U S V^T of B_k = (C_k G_k) L_{k+1}, where C_k is the carry
    (C_0 = [[1]]), keeps U_r as the new core and passes
    C_{k+1} = U_r^T (C_k G_k) on to the original next core.  Cost: one
    geqrf per core and no orgqr, so no orthonormal core is ever built.

    Each SVD discards at most rel_tol*||v||/sqrt(d-1) in Frobenius norm,
    so the total relative error stays below rel_tol; a max_rank cap
    overrides the tolerance where it binds.  Cores 0..d-2 of the result
    are left-orthonormal and the norm sits in the last core.

    A zero tensor rounds to the all-zero unit-rank TT, and so does one
    whose norm is below 1e-14 * ||G_0|| * ||L_1||, the bound its first
    core and the rest of the chain put on it: such a result is
    cancellation noise.  Norms are computed without squaring large or
    small values and compared as logs, so no magnitude that float64 can
    hold overflows.  A NaN or infinite core raises NonFiniteCore.
    """
    norms = check_finite(v)
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
        u, sv, _ = np.linalg.svd(a @ lfac[k + 1], full_matrices=False)
        if k == 0:
            nrm = _norm(sv)
            bound = (norms[0], _norm(lfac[1]))
            if nrm == 0 or np.log(nrm) - np.log(bound).sum() <= _ZERO_LOG_RATIO:
                return tt_zero(v.dims)
            budget = spec.rel_tol * nrm / np.sqrt(d - 1)
        r = _truncation_rank(sv, budget)
        if spec.max_rank is not None:
            r = min(r, spec.max_rank)
        out.append(u[:, :r].reshape(-1, n, r))
        carry = u[:, :r].T @ a
    r0, n, _ = cores[-1].shape
    out.append((carry @ cores[-1].reshape(r0, n)).reshape(-1, n, 1))
    return TTVector(out)


def max_rank(v) -> int:
    """Largest rank in the profile of a TT vector or operator."""
    return max(v.ranks)


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


def tt_op_scale(a: TTOperator, alpha: float) -> TTOperator:
    cores = [c.copy() for c in a.op_cores]
    cores[-1] *= alpha
    return TTOperator(cores)


def tt_op_round(a: TTOperator, spec: RoundSpec) -> TTOperator:
    """Round an operator by treating each core as order 3 with fused modes."""
    r = tt_round(_op_as_vector(a), spec)
    return _vector_as_op(r, a.row_dims, a.col_dims)


def kron_sum_operator(factors) -> TTOperator:
    """Kronecker sum of square matrices as a TT operator.

    Factor i acts on mode i; interior op-ranks are 2 (identity/passthrough
    two-channel construction).
    """
    mats = [np.asarray(f, dtype=np.float64) for f in factors]
    for i, f in enumerate(mats):
        if f.ndim != 2 or f.shape[0] != f.shape[1]:
            raise ShapeMismatch(f"factor {i} is not square: shape {f.shape}")
    d = len(mats)
    if d == 0:
        raise ValueError("need at least one factor")
    if d == 1:
        n = mats[0].shape[0]
        return TTOperator([mats[0].reshape(1, n, n, 1)])
    cores = []
    for i, f in enumerate(mats):
        n = f.shape[0]
        eye = np.eye(n)
        if i == 0:
            c = np.zeros((1, n, n, 2))
            c[0, :, :, 0] = f
            c[0, :, :, 1] = eye
        elif i == d - 1:
            c = np.zeros((2, n, n, 1))
            c[0, :, :, 0] = eye
            c[1, :, :, 0] = f
        else:
            c = np.zeros((2, n, n, 2))
            c[0, :, :, 0] = eye
            c[1, :, :, 0] = f
            c[1, :, :, 1] = eye
        cores.append(c)
    return TTOperator(cores)


# ---------------------------------------------------------------------------
# serialization: magic, int64 header, row-major float64 payloads (all LE)


def _write_ints(fh, values):
    fh.write(np.asarray(values, dtype="<i8").tobytes())


def _read_ints(fh, count):
    data = fh.read(8 * count)
    if len(data) != 8 * count:
        raise ValueError("truncated TT container")
    return np.frombuffer(data, dtype="<i8").tolist()


def save_vector(path, v: TTVector) -> None:
    """Write a TTVector to the binary container format."""
    with open(path, "wb") as fh:
        fh.write(_VEC_MAGIC)
        _write_ints(fh, [v.d])
        _write_ints(fh, list(v.dims))
        _write_ints(fh, list(v.ranks))
        for c in v.cores:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def load_vector(path) -> TTVector:
    with open(path, "rb") as fh:
        magic = fh.read(len(_VEC_MAGIC))
        if magic != _VEC_MAGIC:
            raise ValueError("not a TT vector container")
        (d,) = _read_ints(fh, 1)
        dims = _read_ints(fh, d)
        ranks = _read_ints(fh, d + 1)
        cores = []
        for k in range(d):
            shape = (ranks[k], dims[k], ranks[k + 1])
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(8 * count), dtype="<f8")
            cores.append(data.reshape(shape).copy())
    return TTVector(cores)


def save_operator(path, a: TTOperator) -> None:
    """Write a TTOperator to the binary container format."""
    with open(path, "wb") as fh:
        fh.write(_OP_MAGIC)
        _write_ints(fh, [a.d])
        _write_ints(fh, list(a.row_dims))
        _write_ints(fh, list(a.col_dims))
        _write_ints(fh, list(a.ranks))
        for c in a.op_cores:
            fh.write(np.ascontiguousarray(c, dtype="<f8").tobytes())


def load_operator(path) -> TTOperator:
    with open(path, "rb") as fh:
        magic = fh.read(len(_OP_MAGIC))
        if magic != _OP_MAGIC:
            raise ValueError("not a TT operator container")
        (d,) = _read_ints(fh, 1)
        row_dims = _read_ints(fh, d)
        col_dims = _read_ints(fh, d)
        ranks = _read_ints(fh, d + 1)
        cores = []
        for k in range(d):
            shape = (ranks[k], row_dims[k], col_dims[k], ranks[k + 1])
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(8 * count), dtype="<f8")
            cores.append(data.reshape(shape).copy())
    return TTOperator(cores)
