"""Khatri-Rao structured sketching of TT vectors.

The embedding S maps the full tensor space to R^s.  Row j of S is the
Kronecker product of row j of d small Gaussian factors, so applying S to
a TT vector splits across the cores and never densifies anything.
"""

from __future__ import annotations

import numpy as np

from .tt import ShapeMismatch, TTVector

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
    if rows < 1:
        raise ValueError("rows must be >= 1")
    dims = list(dims)
    d = len(dims)
    std = float(rows) ** (-0.5 / d)
    rng = np.random.default_rng(seed)
    factors = [rng.normal(0.0, std, size=(rows, n)) for n in dims]
    return KhatriRaoSketch(factors)


def kr_apply(s: KhatriRaoSketch, v: TTVector) -> np.ndarray:
    """Apply the sketch to a TT vector, returning a dense length-s vector.

    Per mode, every row keeps a running 1 x r_k state.  A block of rows
    advances by contracting its states with the core (one matrix product)
    and then with its factor rows, O(s d n r^2) total.  The intermediate
    is rows x n x r_{k+1}; blocks of rows keep it within _CHUNK_BUDGET.
    """
    if s.dims != v.dims:
        raise ShapeMismatch(f"sketch dims {s.dims} do not match vector {v.dims}")
    rows = s.rows
    state = np.ones((rows, 1))
    for f, c in zip(s.factors, v.cores):
        r0, n, r1 = c.shape
        blocks = -(-rows * n * r1 // _CHUNK_BUDGET)
        step = -(-rows // blocks)
        nxt = np.empty((rows, r1))
        for lo in range(0, rows, step):
            blk = slice(lo, lo + step)
            # (b, r0) x (r0, n, r1) -> (b, n, r1), then the factor rows
            t = (state[blk] @ c.reshape(r0, n * r1)).reshape(-1, n, r1)
            nxt[blk] = np.einsum("sn,snt->st", f[blk], t)
        state = nxt
    return state[:, 0]

