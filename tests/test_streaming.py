import numpy as np
import pytest

from ttkrylov.streaming import (
    DegenerateRecovery,
    SketchPair,
    StreamFrame,
    combine_pairs,
    stream_recover,
    stream_sketch,
    tt_drm_new,
)
from ttkrylov.tt import (
    RoundSpec,
    ShapeMismatch,
    tt_add,
    tt_norm,
    tt_random,
    tt_scale,
    tt_to_dense,
    tt_zero,
)


def rel_err(got, want):
    return np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300)


def interface_left(cores, mu):
    # (n_1...n_mu) x r_mu interface matrix, dense oracle
    m = np.ones((1, 1))
    for c in cores[:mu]:
        m = np.tensordot(m, c, axes=([1], [0]))
        m = m.reshape(-1, c.shape[2])
    return m


def interface_right(cores, mu):
    # (n_{mu+1}...n_d) x r_mu interface matrix, dense oracle
    m = np.ones((1, 1))
    for c in reversed(cores[mu:]):
        tmp = np.tensordot(c, m, axes=([2], [1]))  # (r0, n, tail)
        m = tmp.transpose(1, 2, 0).reshape(-1, c.shape[0])
    return m


def _reference_sketch(t, frame):
    # the einsum form of stream_sketch, kept as its reference
    d = t.d
    ycores, xcores = frame.left.cores, frame.right.cores
    lmats = [np.ones((1, 1))]
    for k in range(d - 1):
        lmats.append(np.einsum("aic,ab,bid->cd", ycores[k], lmats[k], t.cores[k], optimize=True))
    rmats = [None] * (d + 1)
    rmats[d] = np.ones((1, 1))
    for k in range(d - 1, 0, -1):
        rmats[k] = np.einsum("lio,xip,op->lx", t.cores[k], xcores[k], rmats[k + 1], optimize=True)
    psi = []
    for mu in range(d):
        p = np.einsum("ab,bic,cx->aix", lmats[mu], t.cores[mu], rmats[mu + 1], optimize=True)
        psi.append(p.reshape(-1, p.shape[2]))
    omega = [lmats[mu] @ rmats[mu] for mu in range(1, d)]
    return psi, omega


class TestDRM:
    def test_rank_one_profile(self):
        drm = tt_drm_new([3, 4, 5], [1, 1], seed=0)
        assert [c.shape for c in drm.cores] == [(1, 3, 1), (1, 4, 1), (1, 5, 1)]

    def test_entry_variance(self):
        drm = tt_drm_new([40, 40], [8], seed=1)
        want = 1.0 / (1 * 40 * 8)
        got = np.var(drm.cores[0])
        assert abs(got - want) <= 0.2 * want

    def test_deterministic(self):
        a = tt_drm_new([3, 3], [2], seed=42)
        b = tt_drm_new([3, 3], [2], seed=42)
        for ca, cb in zip(a.cores, b.cores):
            assert np.array_equal(ca, cb)


class TestSketch:
    def test_zero_tensor(self):
        frame = StreamFrame.create([3, 4, 3], [2, 2], oversampling=3, seed=2)
        pair = stream_sketch(tt_zero([3, 4, 3]), frame)
        assert all(np.all(p == 0) for p in pair.psi)
        assert all(np.all(o == 0) for o in pair.omega)

    def test_linearity(self):
        frame = StreamFrame.create([3, 3, 3], [2, 2], oversampling=4, seed=3)
        a = tt_random([3, 3, 3], [2, 2], seed=4)
        b = tt_random([3, 3, 3], [1, 2], seed=5)
        pa, pb, ps = stream_sketch(a, frame), stream_sketch(b, frame), stream_sketch(tt_add(a, b), frame)
        for k in range(3):
            assert np.allclose(pa.psi[k] + pb.psi[k], ps.psi[k], atol=1e-12)
        for k in range(2):
            assert np.allclose(pa.omega[k] + pb.omega[k], ps.omega[k], atol=1e-12)

    def test_dense_formula_oracle(self):
        # Psi_mu = (Y_{<=mu-1}^T kron I) T_{<=mu} X_{>mu} from dense unfoldings
        dims = [3, 4, 3]
        frame = StreamFrame.create(dims, [2, 2], oversampling=3, seed=6)
        t = tt_random(dims, [2, 3], seed=7)
        pair = stream_sketch(t, frame)
        full = tt_to_dense(t)
        d = len(dims)
        for mu in range(d):
            rows = int(np.prod(dims[: mu + 1]))
            unf = full.reshape(rows, -1)
            yl = interface_left(frame.left.cores, mu)
            xr = interface_right(frame.right.cores, mu + 1)
            want = np.kron(yl.T, np.eye(dims[mu])) @ unf @ xr
            assert np.allclose(pair.psi[mu], want, atol=1e-11), f"psi mismatch at mode {mu}"
        for mu in range(1, d):
            rows = int(np.prod(dims[:mu]))
            unf = full.reshape(rows, -1)
            yl = interface_left(frame.left.cores, mu)
            xr = interface_right(frame.right.cores, mu)
            want = yl.T @ unf @ xr
            assert np.allclose(pair.omega[mu - 1], want, atol=1e-11), f"omega mismatch at mode {mu}"

    @pytest.mark.parametrize(
        "dims, frame_ranks, ranks",
        [
            ([5], [], []),
            ([6, 7], [3], [4]),
            ([4, 5, 3, 6], [3, 5, 2], [4, 7, 3]),
            ([8, 3, 8], [2, 2], [6, 6]),
        ],
    )
    def test_matches_einsum_reference(self, dims, frame_ranks, ranks):
        frame = StreamFrame.create(dims, frame_ranks, oversampling=3, seed=31)
        t = tt_random(dims, ranks, seed=32)
        pair = stream_sketch(t, frame)
        psi, omega = _reference_sketch(t, frame)
        assert len(pair.psi) == len(psi) and len(pair.omega) == len(omega)
        for got, want in zip(pair.psi + pair.omega, psi + omega):
            assert got.shape == want.shape
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_dim_mismatch(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=2, seed=8)
        with pytest.raises(ShapeMismatch):
            stream_sketch(tt_random([3, 4], [2], seed=9), frame)


class TestCombine:
    def test_identity(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=3, seed=10)
        a = tt_random([3, 3], [2], seed=11)
        pa = stream_sketch(a, frame)
        c = combine_pairs([pa], [1.0])
        for k in range(2):
            assert np.array_equal(c.psi[k], pa.psi[k])

    def test_pair_linearity(self):
        frame = StreamFrame.create([3, 3, 3], [3, 3], oversampling=4, seed=12)
        a = tt_random([3, 3, 3], [2, 2], seed=13)
        b = tt_random([3, 3, 3], [2, 2], seed=14)
        lhs = combine_pairs([stream_sketch(a, frame), stream_sketch(b, frame)], [1.0, 1.0])
        rhs = stream_sketch(tt_add(a, b), frame)
        for k in range(3):
            assert np.allclose(lhs.psi[k], rhs.psi[k], atol=1e-12)

    def test_five_pair_combination_matches_dense(self):
        dims = [4, 4, 4]
        frame = StreamFrame.create(dims, [4, 4], oversampling=5, seed=15)
        vs = [tt_random(dims, [2, 2], seed=100 + i) for i in range(5)]
        ys = np.linspace(-2, 2, 5)
        comb = combine_pairs([stream_sketch(v, frame) for v in vs], ys)
        want = np.zeros(dims)
        for y, v in zip(ys, vs):
            want += y * tt_to_dense(v)
        from ttkrylov.tt import tt_from_dense

        direct = stream_sketch(tt_from_dense(want, RoundSpec(0.0)), frame)
        for k in range(3):
            assert np.allclose(comb.psi[k], direct.psi[k], atol=1e-10)

    def test_frame_mismatch_detected(self):
        f1 = StreamFrame.create([3, 3], [2], oversampling=2, seed=16)
        f2 = StreamFrame.create([3, 3], [1], oversampling=2, seed=17)
        a = stream_sketch(tt_random([3, 3], [2], seed=18), f1)
        b = stream_sketch(tt_random([3, 3], [1], seed=19), f2)
        with pytest.raises(ShapeMismatch):
            combine_pairs([a, b], [1.0, 1.0])


class TestRecover:
    def test_exact_recovery(self):
        dims = [4, 5, 4]
        frame = StreamFrame.create(dims, [3, 3], oversampling=6, seed=20)
        v = tt_random(dims, [2, 3], seed=21)
        w = stream_recover(stream_sketch(v, frame), RoundSpec(0.0))
        assert rel_err(tt_to_dense(w), tt_to_dense(v)) <= 1e-10

    def test_combined_recovery(self):
        dims = [4, 4, 4, 4]
        # middle-cut rank of the 5-term sum can reach 10; frame must cover it
        frame = StreamFrame.create(dims, [4, 10, 4], oversampling=8, seed=22)
        vs = [tt_random(dims, [2, 2, 2], seed=200 + i) for i in range(5)]
        ys = np.array([0.3, -1.1, 2.0, 0.7, -0.4])
        comb = combine_pairs([stream_sketch(v, frame) for v in vs], ys)
        got = stream_recover(comb, RoundSpec(1e-12))
        want = np.zeros(dims)
        for y, v in zip(ys, vs):
            want += y * tt_to_dense(v)
        assert rel_err(tt_to_dense(got), want) <= 1e-8

    def test_zero_pair(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=2, seed=23)
        pair = stream_sketch(tt_zero([3, 3]), frame)
        out = stream_recover(pair, RoundSpec(0.0))
        assert tt_norm(out) == 0.0

    def test_degenerate_raises(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=2, seed=24)
        pair = stream_sketch(tt_random([3, 3], [2], seed=25), frame)
        pair.omega[0][:] = 0.0
        with pytest.raises(DegenerateRecovery):
            stream_recover(pair, RoundSpec(0.0))

    def test_round_spec_applied(self):
        dims = [5, 5, 5]
        frame = StreamFrame.create(dims, [4, 4], oversampling=5, seed=26)
        v = tt_random(dims, [4, 4], seed=27)
        w = stream_recover(stream_sketch(v, frame), RoundSpec(0.0, max_rank=2))
        assert all(r <= 2 for r in w.ranks)

    def test_streamability(self):
        # recover(sum of pair sketches) == recover(sketch of accumulated sum)
        dims = [4, 4, 4]
        frame = StreamFrame.create(dims, [6, 6], oversampling=6, seed=28)
        vs = [tt_random(dims, [2, 2], seed=300 + i) for i in range(4)]
        acc_pair = combine_pairs([stream_sketch(v, frame) for v in vs], [1.0] * 4)
        acc_tensor = vs[0]
        for v in vs[1:]:
            acc_tensor = tt_add(acc_tensor, v)
        a = stream_recover(acc_pair, RoundSpec(0.0))
        b = stream_recover(stream_sketch(acc_tensor, frame), RoundSpec(0.0))
        assert rel_err(tt_to_dense(a), tt_to_dense(b)) <= 1e-10


class TestExactRecoveryProperty:
    def test_many_trials(self):
        # rank condition met -> recovery exact to 1e-10 (rerun-once policy)
        def batch(seed0):
            fails = 0
            for t in range(25):
                dims = [4, 4, 4]
                frame = StreamFrame.create(dims, [4, 4], oversampling=6, seed=seed0 + t)
                v = tt_random(dims, [3, 3], seed=seed0 + 1000 + t)
                w = stream_recover(stream_sketch(v, frame), RoundSpec(0.0))
                if rel_err(tt_to_dense(w), tt_to_dense(v)) > 1e-10:
                    fails += 1
            return fails

        if batch(4000) > 0:
            assert batch(6000) == 0
