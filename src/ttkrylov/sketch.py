"""Khatri-Rao structured sketching of TT vectors.

The embedding S maps the full tensor space to R^s.  Row j of S is the
Kronecker product of row j of d small Gaussian factors, so applying S to
a TT vector splits across the cores and never densifies anything.
"""

from __future__ import annotations

import numpy as np

from .tt import ShapeMismatch, TTVector, check_count

# memory budget (floats) for the per-mode intermediate of kr_apply; a few
# hundred KiB, so that no sketch needs a large short-lived array
_CHUNK_BUDGET = 1 << 15


class KhatriRaoSketch:
    """Row-wise Khatri-Rao product of Gaussian factor matrices.

    Factor entries are N(0, s^(-1/d)) (variance), which makes the product
    entries of each row have variance 1/s, so E||Sv||^2 = ||v||^2.
    """

    def __init__(self, factors):
        self.factors = [np.asarray(f, dtype=np.float64) for f in factors]
        rows = {f.shape[0] for f in self.factors}
        if len(rows) != 1:
            raise ShapeMismatch("all factors must have the same row count")
        self.rows = rows.pop()

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(f.shape[1] for f in self.factors)


def kr_sketch_new(dims, rows: int, seed=0) -> KhatriRaoSketch:
    """Draw a fresh Khatri-Rao sketch; deterministic for a given seed."""
    rows = check_count(rows, "rows")
    dims = list(dims)
    d = len(dims)
    std = float(rows) ** (-0.5 / d)
    rng = np.random.default_rng(seed)
    factors = [rng.normal(0.0, std, size=(rows, n)) for n in dims]
    return KhatriRaoSketch(factors)


def kr_apply(s: KhatriRaoSketch, v: TTVector) -> np.ndarray:
    """Apply the sketch to a TT vector, returning a dense length-s vector.

    Per mode, every row keeps a running 1 x r_k state.  A block of b rows
    advances factor first: its factor rows times the core laid out as
    n x (r_k r_{k+1}), one (b x n)(n x r_k r_{k+1}) matrix product, then
    each row's state times its own r_k x r_{k+1} slice of the result.
    That is 2 s n r_k r_{k+1} + 2 s r_k r_{k+1} flops per mode, and the
    intermediate holds b x r_k x r_{k+1} floats; blocks of rows keep it
    within _CHUNK_BUDGET.  Rows do not mix, so the blocking changes no
    row's arithmetic; only the BLAS kernel a block's size selects can move
    the last bits.
    """
    if s.dims != v.dims:
        raise ShapeMismatch(f"sketch dims {s.dims} do not match vector {v.dims}")
    rows = s.rows
    state = np.ones((rows, 1))
    for f, c in zip(s.factors, v.cores):
        r0, n, r1 = c.shape
        cmat = c.transpose(1, 0, 2).reshape(n, r0 * r1)
        blocks = -(-rows * r0 * r1 // _CHUNK_BUDGET)
        step = -(-rows // blocks)
        nxt = np.empty((rows, r1))
        for lo in range(0, rows, step):
            blk = slice(lo, lo + step)
            # (b, n) x (n, r0 r1) -> (b, r0, r1), then each row's state
            t = (f[blk] @ cmat).reshape(-1, r0, r1)
            nxt[blk] = np.matmul(state[blk, None, :], t)[:, 0]
        state = nxt
    return state[:, 0]
