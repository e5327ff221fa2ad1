"""Khatri-Rao structured sketching of TT vectors.

The embedding S maps the full tensor space to R^s.  Row j of S is the
Kronecker product of row j of d small Gaussian factors, so applying S to
a TT vector splits across the cores and never densifies anything.
"""

from __future__ import annotations

import numpy as np

from .tt import ShapeMismatch, TTVector

# memory budget (floats) for the per-mode batched contraction in kr_apply
_CHUNK_BUDGET = 8_000_000


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

    Per mode, every row keeps a running 1 x r_k state; all rows advance in
    one batched contraction, O(s d n r^2) total.
    """
    if s.dims != v.dims:
        raise ShapeMismatch(f"sketch dims {s.dims} do not match vector {v.dims}")
    rows = s.rows
    out = np.empty(rows)
    r_max = max(v.ranks)
    chunk = max(1, int(_CHUNK_BUDGET // max(r_max * r_max, 1)))
    for lo in range(0, rows, chunk):
        hi = min(lo + chunk, rows)
        state = np.ones((hi - lo, 1))
        for f, c in zip(s.factors, v.cores):
            # (rows, n) x (r0, n, r1) -> (rows, r0, r1)
            m = np.tensordot(f[lo:hi], c, axes=([1], [1]))
            state = np.einsum("sr,srt->st", state, m)
        out[lo:hi] = state[:, 0]
    return out


def kr_dense_matrix(s: KhatriRaoSketch, max_entries: int = 1_000_000) -> np.ndarray:
    """Materialize the full s x prod(n_k) sketch matrix (small cases only)."""
    total = s.rows * int(np.prod(s.dims, dtype=np.int64))
    if total > max_entries:
        raise ValueError(f"dense sketch would have {total} entries")
    out = np.ones((s.rows, 1))
    for f in s.factors:
        out = np.einsum("si,sj->sij", out, f).reshape(s.rows, -1)
    return out
