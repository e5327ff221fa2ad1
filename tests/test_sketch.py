import numpy as np
import pytest

from ttkrylov.sketch import (
    KhatriRaoSketch,
    kr_apply,
    kr_sketch_new,
)
from ttkrylov.tt import (
    ShapeMismatch,
    TTVector,
    tt_add,
    tt_dot,
    tt_norm,
    tt_random,
    tt_scale,
    tt_to_dense,
)


class TestConstruction:
    def test_deterministic(self):
        a = kr_sketch_new([2, 2], 4, seed=123)
        b = kr_sketch_new([2, 2], 4, seed=123)
        for fa, fb in zip(a.factors, b.factors):
            assert np.array_equal(fa, fb)

    def test_seed_changes_factors(self):
        a = kr_sketch_new([2, 2], 4, seed=1)
        b = kr_sketch_new([2, 2], 4, seed=2)
        assert not np.array_equal(a.factors[0], b.factors[0])

    def test_shapes(self):
        s = kr_sketch_new([3, 5, 2], 7, seed=0)
        assert [f.shape for f in s.factors] == [(7, 3), (7, 5), (7, 2)]
        assert s.dims == (3, 5, 2)

    def test_default_rows_rule(self):
        # rows default is decided by the caller as 2*maxit
        assert kr_sketch_new([2], 2 * 200, seed=0).rows == 400
        assert kr_sketch_new([2], 2 * 20, seed=0).rows == 40

    def test_factor_variance(self):
        s = kr_sketch_new([50, 50], 200, seed=5)
        d = 2
        var = float(200) ** (-1.0 / d)
        sample = np.var(s.factors[0])
        assert abs(sample - var) <= 0.1 * var

    def test_mismatched_rows_rejected(self):
        with pytest.raises(ShapeMismatch):
            KhatriRaoSketch([np.zeros((3, 2)), np.zeros((4, 2))])


def kr_dense_matrix(s):
    """The full rows x prod(n_k) sketch matrix: row j is the Kronecker
    product of row j of each factor."""
    out = np.ones((s.rows, 1))
    for f in s.factors:
        out = np.einsum("si,sj->sij", out, f).reshape(s.rows, -1)
    return out


class TestApply:
    def test_d1_matches_matrix_product(self):
        s = kr_sketch_new([6], 4, seed=7)
        v = tt_random([6], [], seed=8)
        assert np.allclose(kr_apply(s, v), s.factors[0] @ tt_to_dense(v), atol=1e-13)

    def test_dense_khatri_rao_oracle(self):
        s = kr_sketch_new([3, 4, 4], 7, seed=9)
        v = tt_random([3, 4, 4], [3, 2], seed=10)
        want = kr_dense_matrix(s) @ tt_to_dense(v).ravel()
        got = kr_apply(s, v)
        assert np.allclose(got, want, atol=1e-12 * max(1.0, np.linalg.norm(want)))

    def test_linearity(self):
        s = kr_sketch_new([3, 3, 3], 9, seed=11)
        a = tt_random([3, 3, 3], [2, 2], seed=12)
        b = tt_random([3, 3, 3], [2, 3], seed=13)
        lhs = kr_apply(s, tt_add(a, b))
        rhs = kr_apply(s, a) + kr_apply(s, b)
        assert np.allclose(lhs, rhs, atol=1e-12 * max(1.0, np.linalg.norm(rhs)))

    def test_scale_equivariance(self):
        s = kr_sketch_new([4, 4], 5, seed=14)
        a = tt_random([4, 4], [2], seed=15)
        assert np.allclose(kr_apply(s, tt_scale(a, -2.5)), -2.5 * kr_apply(s, a), atol=1e-12)

    def test_dim_mismatch(self):
        s = kr_sketch_new([3, 3], 4, seed=16)
        with pytest.raises(ShapeMismatch):
            kr_apply(s, tt_random([3, 4], [2], seed=17))

    def test_chunked_matches_direct(self, monkeypatch):
        # a solver-sized case; at 100 rows the budgets split the middle
        # modes (r_k r_{k+1} = 480) into 2 and 4 even blocks, 7 uneven
        # ones (6 of 15 rows, one of 10) and one row a block, and leave
        # the outer modes in one block or, at the smallest, blocks of 4
        import ttkrylov.sketch as sk

        s = kr_sketch_new([16] * 4, 100, seed=18)
        v = tt_random([16] * 4, [16, 30, 16], seed=19)
        monkeypatch.setattr(sk, "_CHUNK_BUDGET", 1 << 62)
        full = kr_apply(s, v)  # one block per mode
        # rows do not mix, but OpenBLAS picks its kernel by a block's size,
        # so the last bits may move: over 20 seeds of this case the
        # difference was at most 4.4e-16 ||S v||
        for budget in (1 << 15, 15000, 7000, 64):
            monkeypatch.setattr(sk, "_CHUNK_BUDGET", budget)
            assert np.linalg.norm(kr_apply(s, v) - full) <= 1e-14 * np.linalg.norm(full)


def kron_sketch_apply(factors, v):
    """Kronecker-product sketch as a TT vector: core k is C_k contracted
    with factor k along the mode index, so the ranks are unchanged."""
    cores = []
    for f, c in zip(factors, v.cores):
        g = np.tensordot(c, np.asarray(f, dtype=np.float64), axes=([1], [1]))  # (r0, r1, s_k)
        cores.append(g.transpose(0, 2, 1))
    return TTVector(cores)


class TestKronSketch:
    def test_identity_factors(self):
        v = tt_random([3, 4], [2], seed=20)
        w = kron_sketch_apply([np.eye(3), np.eye(4)], v)
        assert np.allclose(tt_to_dense(w), tt_to_dense(v), atol=1e-13)

    def test_dense_oracle_d2(self):
        rng = np.random.default_rng(21)
        f1, f2 = rng.standard_normal((3, 4)), rng.standard_normal((2, 5))
        v = tt_random([4, 5], [3], seed=22)
        w = kron_sketch_apply([f1, f2], v)
        want = np.kron(f1, f2) @ tt_to_dense(v).ravel()
        assert np.allclose(tt_to_dense(w).ravel(), want, atol=1e-12)

    def test_ranks_preserved(self):
        rng = np.random.default_rng(23)
        fs = [rng.standard_normal((2, 4)) for _ in range(3)]
        v = tt_random([4, 4, 4], [3, 2], seed=24)
        assert kron_sketch_apply(fs, v).ranks == v.ranks


class TestEmbeddingStatistics:
    """Statistical isometry checks; rerun-once policy for the random tail."""

    def _isometry_stats(self, seed):
        s = kr_sketch_new([8, 8, 8, 8], 400, seed=seed)
        rng = np.random.default_rng(seed + 1)
        norms = []
        for t in range(200):
            ranks = [int(rng.integers(1, 4)) for _ in range(3)]
            v = tt_random([8, 8, 8, 8], ranks, seed=10_000 + t)
            v = tt_scale(v, 1.0 / tt_norm(v))
            norms.append(float(np.sum(kr_apply(s, v) ** 2)))
        return np.asarray(norms)

    def test_norm_preservation(self):
        for attempt in range(2):
            stats = self._isometry_stats(seed=31 + attempt)
            ok = 0.8 <= stats.mean() <= 1.2 and stats.min() > 0.3 and stats.max() < 3.0
            if ok:
                return
        raise AssertionError(f"embedding statistics out of range: {stats.mean()}")

    def test_inner_product_preservation(self):
        for attempt in range(2):
            s = kr_sketch_new([6, 6, 6], 300, seed=41 + attempt)
            rng = np.random.default_rng(42 + attempt)
            gaps = []
            for t in range(100):
                a = tt_random([6, 6, 6], [2, 2], seed=20_000 + t)
                b = tt_random([6, 6, 6], [2, 2], seed=30_000 + t)
                a = tt_scale(a, 1.0 / tt_norm(a))
                b = tt_scale(b, 1.0 / tt_norm(b))
                sa, sb = kr_apply(s, a), kr_apply(s, b)
                gaps.append(float(sa @ sb) - tt_dot(a, b))
            if abs(np.mean(gaps)) <= 0.1:
                return
        raise AssertionError(f"inner products drift: mean gap {np.mean(gaps)}")
