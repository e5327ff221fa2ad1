import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkrylov import streaming
from ttkrylov.problems import ConvectionDiffusionSpec, convection_diffusion
from ttkrylov.sketch import kr_sketch_new
from ttkrylov.solvers import SolverConfig, tt_sgmres
from ttkrylov.streaming import (
    LADDER_OVERSAMPLING,
    LADDER_START,
    DegenerateRecovery,
    GrowingFrame,
    SketchPair,
    StreamedSum,
    StreamFrame,
    combine_pairs,
    stream_recover,
    stream_sketch,
    streamed_mode_sum,
    tt_drm_new,
)
from ttkrylov.tt import (
    RoundSpec,
    ShapeMismatch,
    mode_multiply,
    tt_add,
    tt_from_dense,
    tt_norm,
    tt_random,
    tt_round,
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

    def test_generator_gives_the_same_pair(self):
        frame = StreamFrame.create([3, 3, 3], [3, 3], oversampling=4, seed=12)
        vs = [tt_random([3, 3, 3], [2, 2], seed=30 + i) for i in range(3)]
        coeffs = [0.5, -2.0, 1.5]
        want = combine_pairs([stream_sketch(v, frame) for v in vs], coeffs)
        got = combine_pairs((stream_sketch(v, frame) for v in vs), coeffs)
        for a, b in zip(got.psi + got.omega, want.psi + want.omega):
            assert np.array_equal(a, b)

    def test_lengths_must_match(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=2, seed=16)
        pairs = [stream_sketch(tt_random([3, 3], [2], seed=18 + i), frame) for i in range(2)]
        with pytest.raises(ValueError):
            combine_pairs(pairs, [1.0])
        with pytest.raises(ValueError):
            combine_pairs(pairs[:1], [1.0, 2.0])
        with pytest.raises(ValueError, match="at least one pair"):
            combine_pairs([], [])


class TestRecover:
    def test_exact_recovery(self):
        dims = [4, 5, 4]
        frame = StreamFrame.create(dims, [3, 3], oversampling=6, seed=20)
        v = tt_random(dims, [2, 3], seed=21)
        w = stream_recover([stream_sketch(v, frame)], [1.0], RoundSpec(0.0))
        assert rel_err(tt_to_dense(w), tt_to_dense(v)) <= 1e-10

    def test_combined_recovery(self):
        dims = [4, 4, 4, 4]
        # middle-cut rank of the 5-term sum can reach 10; frame must cover it
        frame = StreamFrame.create(dims, [4, 10, 4], oversampling=8, seed=22)
        vs = [tt_random(dims, [2, 2, 2], seed=200 + i) for i in range(5)]
        ys = np.array([0.3, -1.1, 2.0, 0.7, -0.4])
        got = stream_recover([stream_sketch(v, frame) for v in vs], ys, RoundSpec(1e-12))
        want = np.zeros(dims)
        for y, v in zip(ys, vs):
            want += y * tt_to_dense(v)
        assert rel_err(tt_to_dense(got), want) <= 1e-8

    def test_zero_pair(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=2, seed=23)
        pair = stream_sketch(tt_zero([3, 3]), frame)
        out = stream_recover([pair], [1.0], RoundSpec(0.0))
        assert tt_norm(out) == 0.0

    def test_degenerate_raises(self):
        frame = StreamFrame.create([3, 3], [2], oversampling=2, seed=24)
        pair = stream_sketch(tt_random([3, 3], [2], seed=25), frame)
        pair.omega[0][:] = 0.0
        with pytest.raises(DegenerateRecovery):
            stream_recover([pair], [1.0], RoundSpec(0.0))

    def test_round_spec_applied(self):
        dims = [5, 5, 5]
        frame = StreamFrame.create(dims, [4, 4], oversampling=5, seed=26)
        v = tt_random(dims, [4, 4], seed=27)
        w = stream_recover([stream_sketch(v, frame)], [1.0], RoundSpec(0.0, max_rank=2))
        assert all(r <= 2 for r in w.ranks)

    def test_streamability(self):
        # recover(sum of pair sketches) == recover(sketch of accumulated sum)
        dims = [4, 4, 4]
        frame = StreamFrame.create(dims, [6, 6], oversampling=6, seed=28)
        vs = [tt_random(dims, [2, 2], seed=300 + i) for i in range(4)]
        acc_tensor = vs[0]
        for v in vs[1:]:
            acc_tensor = tt_add(acc_tensor, v)
        a = stream_recover([stream_sketch(v, frame) for v in vs], [1.0] * 4, RoundSpec(0.0))
        b = stream_recover([stream_sketch(acc_tensor, frame)], [1.0], RoundSpec(0.0))
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
                w = stream_recover([stream_sketch(v, frame)], [1.0], RoundSpec(0.0))
                if rel_err(tt_to_dense(w), tt_to_dense(v)) > 1e-10:
                    fails += 1
            return fails

        if batch(4000) > 0:
            assert batch(6000) == 0


# ---------------------------------------------------------------------------
# property tests against dense oracles: a frame whose recovery ranks cover
# the tensor's ranks recovers it to roundoff, then rounds at the spec


@st.composite
def _terms(draw):
    """(dims, rank profiles of 1 to 3 terms, coefficients, seed)."""
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    count = draw(st.integers(1, 3))
    profiles = [
        draw(st.lists(st.integers(1, 3), min_size=len(dims) - 1, max_size=len(dims) - 1))
        for _ in range(count)
    ]
    coeffs = draw(st.lists(
        st.floats(-2, 2).filter(lambda c: c == 0 or abs(c) >= 1e-3), min_size=count, max_size=count
    ))
    return dims, profiles, coeffs, draw(st.integers(0, 2**32 - 1))


_RECOVERY_SLACK = 1e-8


class TestRecoveryProperties:
    @settings(max_examples=50, deadline=None)
    @given(case=_terms(), oversampling=st.integers(1, 6),
           rel_tol=st.sampled_from([0.0, 1e-10, 1e-4, 1e-1]))
    def test_recover_covered_tensor(self, case, oversampling, rel_tol):
        dims, (ranks, *_), _, seed = case
        v = tt_random(dims, ranks, seed=seed)
        frame = StreamFrame.create(dims, v.ranks[1:-1], oversampling=oversampling, seed=seed + 1)
        w = stream_recover([stream_sketch(v, frame)], [1.0], RoundSpec(rel_tol))
        want = tt_to_dense(v)
        err = np.linalg.norm(tt_to_dense(w) - want)
        assert err <= (rel_tol + _RECOVERY_SLACK) * np.linalg.norm(want)

    @settings(max_examples=50, deadline=None)
    @given(case=_terms(), oversampling=st.integers(1, 6),
           rel_tol=st.sampled_from([0.0, 1e-10, 1e-4, 1e-1]))
    def test_streamed_sum_against_dense(self, case, oversampling, rel_tol):
        dims, profiles, coeffs, seed = case
        terms = [tt_random(dims, r, seed=seed + i) for i, r in enumerate(profiles)]
        # the sum's ranks are at most the sums of the terms' ranks
        cover = [sum(t.ranks[k] for t in terms) for k in range(1, len(dims))]
        frame = StreamFrame.create(dims, cover, oversampling=oversampling, seed=seed + 7)
        acc = StreamedSum(frame, RoundSpec(rel_tol))
        for t in terms:
            acc.add(t)
        want = sum(c * tt_to_dense(t) for c, t in zip(coeffs, terms))
        scale = sum(abs(c) * tt_norm(t) for c, t in zip(coeffs, terms))
        err = np.linalg.norm(tt_to_dense(acc.combine(coeffs)) - want)
        assert err <= rel_tol * np.linalg.norm(want) + _RECOVERY_SLACK * scale

    def test_combine_adds_start_whole(self):
        # the frame covers the terms only; the start is never sketched
        dims = [3, 4, 3]
        frame = StreamFrame.create(dims, [4, 4], oversampling=4, seed=50)
        terms = [tt_random(dims, [2, 2], seed=51 + i) for i in range(3)]
        start = tt_random(dims, [3, 3], seed=55)
        acc = StreamedSum(frame, RoundSpec(0.0), start=start)
        for t in terms:
            acc.add(t)
        got = acc.combine([0.5, -2.0])
        want = tt_to_dense(start) + 0.5 * tt_to_dense(terms[0]) - 2.0 * tt_to_dense(terms[1])
        assert rel_err(tt_to_dense(got), want) <= 1e-10


def _held_entries(pair, mu):
    if pair.psi[mu] is not None:
        return pair.psi[mu].size
    return sum(a.size for a in pair.factors[mu])


class TestKeptPairs:
    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(2, 9), min_size=2, max_size=5),
           rank=st.integers(1, 8), frame_rank=st.integers(1, 8),
           oversampling=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_never_larger_than_dense(self, dims, rank, frame_rank, oversampling, seed):
        t = tt_random(dims, [rank] * (len(dims) - 1), seed=seed)
        frame = StreamFrame.create(dims, [frame_rank] * (len(dims) - 1),
                                   oversampling=oversampling, seed=seed + 1)
        dense = stream_sketch(t, frame)
        kept = dense.kept()
        for mu, m in enumerate(dense.psi):
            assert _held_entries(kept, mu) <= m.size
            assert np.array_equal(kept.psi_matrix(mu), m)
        assert kept.nbytes <= sum(a.nbytes for a in dense.psi + dense.omega)

    def test_combine_bitwise_equal_to_dense_pairs(self):
        # l = 10, n = 8, r = 6: Psi is kept factored up to rank 5 and dense
        # from rank 6 on at the interior modes
        dims = [8, 8, 8, 8]
        frame = StreamFrame.create(dims, [6, 6, 6], oversampling=4, seed=60)
        terms = [tt_random(dims, r, seed=61 + i)
                 for i, r in enumerate([[2, 3, 2], [8, 8, 8], [4, 7, 5], [1, 1, 1]])]
        coeffs = [0.7, -1.3, 2.1, 0.4]
        acc = StreamedSum(frame, RoundSpec(1e-8))
        kept = [acc.add(t) for t in terms]
        forms = {p.psi[mu] is None for p in kept for mu in range(len(dims))}
        assert forms == {True, False}
        dense = [stream_sketch(t, frame) for t in terms]
        want = combine_pairs(dense, coeffs)
        got = combine_pairs(kept, coeffs)
        for a, b in zip(got.psi + got.omega, want.psi + want.omega):
            assert np.array_equal(a, b)
        x, y = acc.combine(coeffs), stream_recover(dense, coeffs, RoundSpec(1e-8))
        assert all(np.array_equal(a, b) for a, b in zip(x.cores, y.cores))
        assert acc.nbytes == sum(p.nbytes for p in kept)
        assert acc.nbytes < sum(a.nbytes for p in dense for a in p.psi + p.omega)

    def test_stta_solve_reusing_kept_pairs(self, monkeypatch):
        # ell = 2 keeps two window entries, the newest one's pair being the
        # assembly's kept pair; the same solve on dense pairs (kept = self)
        # must agree bitwise
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=3, n=8))
        runs, factored = [], []
        real_kept = SketchPair.kept

        def spy(pair):
            k = real_kept(pair)
            factored.append(any(m is None for m in k.psi))
            return k

        for kept in (spy, lambda pair: pair):
            monkeypatch.setattr(SketchPair, "kept", kept)
            cfg = SolverConfig(maxit=30, tol=1e-7, ell=2, seed=14, combine_mode="stta")
            sk = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=15)
            runs.append(tt_sgmres(op, rhs, None, cfg, sk))
        assert any(factored)
        (x, rep), (x_dense, rep_dense) = runs
        assert rep.res_sketched == rep_dense.res_sketched
        assert all(np.array_equal(a, b) for a, b in zip(x.cores, x_dense.cores))
        assert 0 < rep.kept_mb < rep_dense.kept_mb


# ---------------------------------------------------------------------------
# nested frames and the rank-adaptive streamed sum


def frame_cores(frame):
    return frame.right.cores + frame.left.cores


class TestLeading:
    def test_leading_blocks_keep_the_margin(self):
        frame = StreamFrame.create([4, 5, 4], [4, 4], oversampling=3, seed=1)
        sub = frame.leading([2, 9])
        assert sub.right.ranks == (1, 2, 4, 1)
        assert sub.left.ranks == (1, 5, 7, 1)
        for c, s in zip(frame_cores(frame), frame_cores(sub)):
            assert np.shares_memory(c, s)
            assert np.array_equal(c[: s.shape[0], :, : s.shape[2]], s)


def recorded_frames(monkeypatch):
    """The frames streamed_mode_sum sketches against, in order."""
    frames, sketch = [], streaming.stream_sketch

    def record(t, frame):
        if not frames or frames[-1] is not frame:
            frames.append(frame)
        return sketch(t, frame)

    monkeypatch.setattr(streaming, "stream_sketch", record)
    return frames


def random_matrices(dims, count, seed):
    """``count`` lists of one random square matrix per mode."""
    rng = np.random.default_rng(seed)
    return [[rng.standard_normal((n, n)) for n in dims] for _ in range(count)]


def dense_mode_sum(v, matrices, coeffs):
    return sum(c * tt_to_dense(mode_multiply(v, m)) for c, m in zip(coeffs, matrices))


def full_rank_sum(monkeypatch):
    # the rank bound is 4 * 9 = 36 at the middle mode, the full rank, and
    # the sum reaches it: the first two frames (16, 32) have no room for
    # it, the third reaches it exactly
    dims = [6, 6, 6, 6]
    v = tt_random(dims, [3, 9, 3], seed=60)
    matrices = random_matrices(dims, 4, seed=61)
    coeffs = [1.0, -0.5, 2.0, 0.25]
    frames = recorded_frames(monkeypatch)
    got = streamed_mode_sum(v, matrices, coeffs, 5, RoundSpec(1e-8))
    return got, dense_mode_sum(v, matrices, coeffs), frames


class TestAdaptiveStreamedSum:
    """``streamed_mode_sum``: the rank-adaptive streamed sum of the
    preconditioner's apply."""

    def test_grows_to_the_full_rank(self, monkeypatch):
        got, want, _ = full_rank_sum(monkeypatch)
        assert got.ranks == (1, 6, 36, 6, 1)
        assert rel_err(tt_to_dense(got), want) <= 1e-8 + _RECOVERY_SLACK

    def test_rungs_double_and_clip(self, monkeypatch):
        # frame ranks double, clipped to the full ranks
        _, _, frames = full_rank_sum(monkeypatch)
        assert [f.right.ranks for f in frames] == [
            (1, 6, 16, 6, 1), (1, 6, 32, 6, 1), (1, 6, 36, 6, 1)]
        assert [f.left.ranks for f in frames] == [
            (1, 22, 32, 22, 1), (1, 22, 48, 22, 1), (1, 22, 52, 22, 1)]

    def test_climbing_frames_drawn_within_the_bound(self, monkeypatch):
        # rank bound 4 * 10 = 40 at the middle mode, below the full rank
        # 64: frames 16 and 32 have no room, the third is drawn at 40, not
        # at 64
        dims = [8, 8, 8, 8]
        v = tt_random(dims, [2, 10, 2], seed=80)
        matrices = random_matrices(dims, 4, seed=81)
        coeffs = [1.0, 0.5, -2.0, 0.75]
        drawn, create = [], StreamFrame.create

        def record(cls, *args, **kwargs):
            drawn.append(create(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(StreamFrame, "create", classmethod(record))
        got = streamed_mode_sum(v, matrices, coeffs, 3, RoundSpec(1e-8))
        bound = (1, 8, 40, 8, 1)
        assert got.ranks == bound
        assert [f.right.ranks[2] for f in drawn] == [16, 32, 40]
        # no core of any drawn frame is larger than the bound allows
        for f in drawn:
            for b, r, lr in zip(bound, f.right.ranks, f.left.ranks):
                assert r <= b and lr <= b + LADDER_OVERSAMPLING
        want = dense_mode_sum(v, matrices, coeffs)
        assert rel_err(tt_to_dense(got), want) <= 1e-8 + _RECOVERY_SLACK

    def test_low_rank_sum_on_the_first_rung(self, monkeypatch):
        # the products differ only at the last mode, so the sum keeps v's
        # ranks (4 at the middle mode), well below the bound 5 * 4 = 20
        dims = [6, 6, 6, 6]
        v = tt_random(dims, [2, 4, 2], seed=70)
        rng = np.random.default_rng(71)
        matrices = [[np.eye(6)] * 3 + [rng.standard_normal((6, 6))] for _ in range(5)]
        coeffs = [0.5, -1.0, 0.25, 2.0, -0.75]
        frames = recorded_frames(monkeypatch)
        got = streamed_mode_sum(v, matrices, coeffs, 6, RoundSpec(1e-9))
        assert max(got.ranks) <= 12  # room left in the rank-16 frame
        assert len(frames) == 1
        want = dense_mode_sum(v, matrices, coeffs)
        assert rel_err(tt_to_dense(got), want) <= 1e-9 + _RECOVERY_SLACK

    def test_products_formed_one_at_a_time(self, monkeypatch):
        # each mode product is formed just before it is sketched
        events, multiply, sketch = [], streaming.mode_multiply, streaming.stream_sketch
        monkeypatch.setattr(streaming, "mode_multiply",
                            lambda t, m: events.append("form") or multiply(t, m))
        monkeypatch.setattr(streaming, "stream_sketch",
                            lambda t, f: events.append("sketch") or sketch(t, f))
        dims = [4, 4, 4]
        v = tt_random(dims, [2, 2], seed=3)
        streamed_mode_sum(v, random_matrices(dims, 3, seed=4), [1.0, 2.0, 3.0], 0,
                          RoundSpec(1e-8))
        assert events == ["form", "sketch"] * 3

    @pytest.mark.parametrize("seed", [-1, 1.5, "0", True])
    def test_bad_seed(self, seed):
        v = tt_random([4, 4, 4], [2, 2], seed=1)
        with pytest.raises(ValueError, match="nonnegative integer"):
            streamed_mode_sum(v, [[np.eye(4)] * 3], [1.0], seed, RoundSpec(1e-8))

    def test_seed_picks_the_maps(self, monkeypatch):
        dims = [4, 4, 4]
        v = tt_random(dims, [2, 2], seed=1)
        matrices = [[np.eye(4)] * 3]
        frames = recorded_frames(monkeypatch)
        for seed in (0, 1):
            streamed_mode_sum(v, matrices, [1.0], seed, RoundSpec(1e-8))
        assert len(frames) == 2
        assert not np.array_equal(frames[0].right.cores[1], frames[1].right.cores[1])
        # the first frame is a plain StreamFrame drawn from [seed, 0], cut
        # to the bound 1 * 2
        want = StreamFrame.create(dims, [LADDER_START] * 2, LADDER_OVERSAMPLING, seed=[1, 0])
        want = want.leading([2, 2])
        for a, b in zip(frame_cores(frames[1]), frame_cores(want)):
            assert np.array_equal(a, b)

    def test_zero_sum(self):
        v = tt_random([3, 3, 3], [2, 2], seed=1)
        got = streamed_mode_sum(v, random_matrices([3, 3, 3], 2, seed=2), [0.0, 0.0], 0,
                                RoundSpec(1e-8))
        assert np.all(tt_to_dense(got) == 0)


class TestGrowingFrame:
    def test_climbs_until_the_sum_has_room_and_stays(self, monkeypatch):
        # the middle rank of the sum is its bound 5 + 5 + 5 = 15; rungs
        # ceil(4 * 1.25**i) are 4, 5, 7, 8, 10, 13, 16, and 16 reaches it
        monkeypatch.setattr(streaming, "GROWTH_START", 4)
        dims = [6, 6, 6, 6]
        terms = [tt_random(dims, [3, 5, 3], seed=70 + i) for i in range(3)]
        coeffs = [1.0, -0.5, 2.0]
        frames = GrowingFrame(dims, seed=0)
        got = frames.round_sum(terms, coeffs, RoundSpec(1e-12))
        want = sum(c * tt_to_dense(t) for c, t in zip(coeffs, terms))
        assert rel_err(tt_to_dense(got), want) <= 1e-8
        assert list(got.ranks) == [1, 6, 15, 6, 1]
        assert frames.rung == 6 and list(frames.frame.right.ranks) == [1, 6, 16, 6, 1]
        # at a full-rank mode the left rank exceeds the recovery rank by one
        assert list(frames.frame.left.ranks) == [1, 7, 26, 7, 1]
        # the next sum starts on the rung the last one ended on
        frame = frames.frame
        frames.round_sum(terms[:1], [1.0], RoundSpec(1e-12))
        assert frames.frame is frame

    def test_max_rank_needs_room_for_what_it_keeps(self, monkeypatch):
        # cut to rank 2, the sum needs a frame with room for 2: rung 2,
        # rank 7 (7 - 4 = 3), not rung 6; the extra ranks oversample the cut
        monkeypatch.setattr(streaming, "GROWTH_START", 4)
        dims = [6, 6, 6, 6]
        terms = [tt_random(dims, [3, 5, 3], seed=70 + i) for i in range(3)]
        coeffs = [1.0, -0.5, 2.0]
        frames = GrowingFrame(dims, seed=0)
        got = frames.round_sum(terms, coeffs, RoundSpec(1e-12, max_rank=2))
        assert frames.rung == 2 and list(got.ranks) == [1, 2, 2, 2, 1]
        want = sum(c * tt_to_dense(t) for c, t in zip(coeffs, terms))
        best = tt_to_dense(tt_round(tt_from_dense(want, RoundSpec(0.0)), RoundSpec(0.0, 2)))
        assert rel_err(tt_to_dense(got), want) <= 1.5 * rel_err(best, want)

    def test_seed_draws_the_frame(self):
        dims = [4, 4, 4]
        a, b, c = (GrowingFrame(dims, seed=s).frame for s in (0, 0, 1))
        assert all(np.array_equal(x, y) for x, y in zip(a.right.cores, b.right.cores))
        assert not np.array_equal(a.right.cores[1], c.right.cores[1])
