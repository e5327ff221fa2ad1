import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ttkrylov.problems import (
    ConvectionDiffusionSpec,
    MarkovSpec,
    convection_diffusion,
    markov_chain,
)
from ttkrylov.sketch import kr_sketch_new
from ttkrylov.streaming import StreamFrame, tt_drm_new
from ttkrylov.tt import (
    NonFiniteCore,
    RoundedSum,
    RoundSpec,
    ShapeMismatch,
    SizeLimit,
    TTOperator,
    TTVector,
    check_count,
    identity_operator,
    kron_sum_operator,
    load_operator,
    load_vector,
    save_operator,
    save_vector,
    tt_add,
    tt_dot,
    tt_from_dense,
    tt_matvec,
    tt_norm,
    tt_op_add,
    tt_op_round,
    tt_op_shift_core,
    tt_op_to_dense,
    tt_random,
    tt_rank_one,
    tt_round,
    tt_scale,
    tt_to_dense,
    tt_zero,
)
from ttkrylov.tt import _right_factors, _truncation_rank


def dense_kron_sum(factors):
    # oracle: sum_i I x ... x A_i x ... x I with factor i in slot i
    d = len(factors)
    n = [f.shape[0] for f in factors]
    total = int(np.prod(n))
    out = np.zeros((total, total))
    for i in range(d):
        m = np.ones((1, 1))
        for j in range(d):
            m = np.kron(m, factors[j] if j == i else np.eye(n[j]))
        out += m
    return out


def random_operator(row_dims, col_dims, ranks, seed):
    rng = np.random.default_rng(seed)
    full = [1] + list(ranks) + [1]
    cores = [
        rng.standard_normal((full[k], row_dims[k], col_dims[k], full[k + 1]))
        for k in range(len(row_dims))
    ]
    return TTOperator(cores)


class TestFromDense:
    def test_rank_one_tensor(self):
        rng = np.random.default_rng(0)
        u, v, w = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(5)
        t = np.einsum("i,j,k->ijk", u, v, w)
        tt = tt_from_dense(t, RoundSpec(1e-12))
        assert tt.ranks == (1, 1, 1, 1)
        assert np.allclose(tt_to_dense(tt), t, atol=1e-12 * np.linalg.norm(t))

    def test_zero_tensor(self):
        tt = tt_from_dense(np.zeros((3, 3, 3)), RoundSpec(1e-8))
        assert tt.ranks == (1, 1, 1, 1)
        assert tt_norm(tt) == 0.0

    def test_round_trip_random(self):
        rng = np.random.default_rng(1)
        t = rng.standard_normal((4, 4, 4))
        tt = tt_from_dense(t, RoundSpec(1e-14))
        err = np.linalg.norm(tt_to_dense(tt) - t) / np.linalg.norm(t)
        assert err <= 1e-13

    def test_exact_round_trip(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal((3, 5, 2, 4))
        tt = tt_from_dense(t, RoundSpec(0.0))
        assert np.allclose(tt_to_dense(tt), t, rtol=0, atol=1e-13 * np.linalg.norm(t))

    def test_max_rank_cap(self):
        rng = np.random.default_rng(3)
        t = rng.standard_normal((6, 6, 6))
        tt = tt_from_dense(t, RoundSpec(0.0, max_rank=2))
        assert all(r <= 2 for r in tt.ranks)

    def test_size_cap(self):
        with pytest.raises(SizeLimit):
            tt_from_dense(np.zeros((101, 101, 101)))


class TestToDense:
    def test_all_ones(self):
        tt = tt_rank_one([np.ones(2)] * 3)
        assert np.array_equal(tt_to_dense(tt), np.ones((2, 2, 2)))

    def test_d1(self):
        v = np.arange(5.0)
        tt = TTVector([v.reshape(1, 5, 1)])
        assert np.array_equal(tt_to_dense(tt), v)

    def test_cap(self):
        tt = tt_zero([101, 101, 101])
        with pytest.raises(SizeLimit):
            tt_to_dense(tt)


class TestAdd:
    def test_rank_sum(self):
        a = tt_random([3, 3, 3], [2, 3], seed=0)
        b = tt_random([3, 3, 3], [1, 2], seed=1)
        s = tt_add(a, b)
        assert s.ranks == (1, 3, 5, 1)

    def test_cancellation_rounds_to_zero(self):
        a = tt_random([3, 4, 3], [2, 2], seed=2)
        z = tt_round(tt_add(a, tt_scale(a, -1.0)), RoundSpec(1e-12))
        assert z.ranks == (1, 1, 1, 1)
        assert np.allclose(tt_to_dense(z), 0.0, atol=1e-10)

    def test_dense_oracle(self):
        for seed in range(3):
            a = tt_random([2, 4, 3, 2], [2, 3, 2], seed=seed)
            b = tt_random([2, 4, 3, 2], [1, 2, 2], seed=seed + 50)
            assert np.allclose(
                tt_to_dense(tt_add(a, b)),
                tt_to_dense(a) + tt_to_dense(b),
                atol=1e-12 * (tt_norm(a) + tt_norm(b)),
            )

    def test_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            tt_add(tt_zero([2, 2]), tt_zero([2, 3]))

    def test_d1(self):
        a = TTVector([np.array([[[1.0], [2.0]]])])
        b = TTVector([np.array([[[5.0], [7.0]]])])
        assert np.array_equal(tt_to_dense(tt_add(a, b)), [6.0, 9.0])


class TestScale:
    def test_identity(self):
        a = tt_random([3, 3], [2], seed=4)
        assert np.allclose(tt_to_dense(tt_scale(a, 1.0)), tt_to_dense(a))

    def test_zero(self):
        a = tt_random([3, 3], [2], seed=5)
        assert tt_norm(tt_scale(a, 0.0)) == 0.0

    def test_norm_scaling(self):
        a = tt_random([3, 4, 3], [2, 2], seed=6)
        assert np.isclose(tt_norm(tt_scale(a, 3.0)), 3.0 * tt_norm(a), rtol=1e-12)

    def test_ranks_unchanged(self):
        a = tt_random([3, 4, 3], [2, 2], seed=7)
        assert tt_scale(a, -2.5).ranks == a.ranks


def _reference_dot(a, b):
    # the tensordot chain, with the power-of-two fallback of tt_dot
    def chain(scaled):
        m, exp = np.ones((1, 1)), 0
        for ca, cb in zip(a.cores, b.cores):
            if scaled:
                exps = [np.frexp(np.max(np.abs(x), initial=0.0))[1] for x in (ca, cb, m)]
                ca, cb, m = (np.ldexp(x, -e) for x, e in zip((ca, cb, m), exps))
                exp += sum(exps)
            tmp = np.tensordot(m, ca, axes=([0], [0]))  # (rb, n, ra')
            m = np.tensordot(tmp, cb, axes=([0, 1], [0, 1]))  # (ra', rb')
        return float(np.ldexp(m[0, 0], exp))

    with np.errstate(over="ignore", invalid="ignore"):
        out = chain(scaled=False)
    return out if np.isfinite(out) else chain(scaled=True)


def _dot_cases():
    # the operand pairs of the TestDotNorm cases below
    ones = tt_rank_one([np.ones(2)] * 3)
    cases = [("all-ones", ones, ones)]
    cases += [(f"self-{s}", a, a) for s, a in ((s, tt_random([4, 3, 4], [3, 3], seed=s)) for s in range(5))]
    cases.append(("pair", tt_random([5, 5, 5], [3, 3], seed=8), tt_random([5, 5, 5], [2, 4], seed=9)))
    cases += [(f"self-{s}", a, a) for s, a in ((s, tt_random([4, 4, 4], [3, 3], seed=s)) for s in range(20, 25))]
    big = tt_rank_one([np.full(4, 1e200), np.full(4, 1e200), np.full(4, 1e-300)])
    unit = tt_rank_one([np.ones(4)] * 3)
    cases += [("partial-overflow", big, unit), ("partial-overflow-swapped", unit, big)]
    cases.append(("core-overflow", tt_rank_one([np.full(3, 1e300), np.full(3, 1e-300)]),
                  tt_rank_one([np.full(3, 1e100), np.full(3, 1e-100)])))
    a, b = tt_random([4, 5, 4], [3, 2], seed=14), tt_random([4, 5, 4], [2, 3], seed=15)
    cases += [("pow2", a, b), ("pow2-scaled", tt_scale(a, 2.0**700), tt_scale(b, 2.0**300))]
    return cases


class TestDotNorm:
    @pytest.mark.parametrize("case", _dot_cases(), ids=lambda c: c[0])
    def test_matches_tensordot_reference(self, case):
        _, a, b = case
        want = _reference_dot(a, b)
        assert abs(tt_dot(a, b) - want) <= 1e-14 * abs(want)

    def test_all_ones(self):
        a = tt_rank_one([np.ones(2)] * 3)
        assert tt_dot(a, a) == pytest.approx(8.0)
        assert tt_norm(a) == pytest.approx(np.sqrt(8.0))

    def test_nonnegative(self):
        for seed in range(5):
            a = tt_random([4, 3, 4], [3, 3], seed=seed)
            assert tt_dot(a, a) >= 0.0

    def test_dense_oracle(self):
        a = tt_random([5, 5, 5], [3, 3], seed=8)
        b = tt_random([5, 5, 5], [2, 4], seed=9)
        expect = float(np.vdot(tt_to_dense(a), tt_to_dense(b)))
        assert np.isclose(tt_dot(a, b), expect, rtol=1e-12)

    def test_norm_dense_oracle(self):
        a = tt_random([4, 6, 3], [2, 5], seed=10)
        assert np.isclose(tt_norm(a), np.linalg.norm(tt_to_dense(a)), rtol=1e-12)

    def test_zero_norm(self):
        assert tt_norm(tt_zero([3, 3, 3])) == 0.0

    def test_norm_dot_consistency(self):
        for seed in range(5):
            a = tt_random([4, 4, 4], [3, 3], seed=seed + 20)
            assert abs(tt_norm(a) ** 2 - tt_dot(a, a)) <= 1e-10 * tt_norm(a) ** 2

    def test_norm_of_near_cancelling_difference(self):
        # (g + 1e-10 c) - a, where g is a with an orthogonal gauge between
        # cores 0 and 1: the same tensor in other cores, so the difference
        # cancels only up to roundoff, and sqrt(tt_dot) reads about
        # 25 times the true norm
        a = tt_random([4, 5, 4], [3, 3], seed=11)
        c = tt_random([4, 5, 4], [2, 2], seed=12)
        q = np.linalg.qr(np.random.default_rng(13).standard_normal((3, 3)))[0]
        g = TTVector(
            [
                np.tensordot(a.cores[0], q, axes=([2], [0])),
                np.tensordot(q.T, a.cores[1], axes=([1], [0])),
                a.cores[2],
            ]
        )
        diff = tt_add(tt_add(g, tt_scale(c, 1e-10)), tt_scale(a, -1.0))
        assert tt_norm(diff) == pytest.approx(1e-10 * np.linalg.norm(tt_to_dense(c)), rel=1e-4)

    def test_norm_beyond_squared_overflow(self):
        # norm (2e20)**10 ~ 1e203: its square is not a float64
        a = tt_rank_one([np.full(4, 1e20)] * 10)
        assert tt_norm(a) == pytest.approx(2e20**10, rel=1e-12)

    def test_dot_past_partial_overflow(self):
        # the contraction after two cores, 1.6e401, is not a float64; the
        # result, ||a|| * ||b|| = 6.4e101, is
        a = tt_rank_one([np.full(4, 1e200), np.full(4, 1e200), np.full(4, 1e-300)])
        b = tt_rank_one([np.ones(4)] * 3)
        with np.errstate(all="raise"):
            assert tt_dot(a, b) == pytest.approx(6.4e101, rel=1e-12)
            assert tt_dot(b, a) == pytest.approx(6.4e101, rel=1e-12)

    def test_dot_past_overflow_in_one_core(self):
        # 1e300 * 1e100 overflows inside the first core's contraction
        a = tt_rank_one([np.full(3, 1e300), np.full(3, 1e-300)])
        b = tt_rank_one([np.full(3, 1e100), np.full(3, 1e-100)])
        assert tt_dot(a, b) == pytest.approx(9.0, rel=1e-12)

    def test_dot_scale_invariant_by_powers_of_two(self):
        a = tt_random([4, 5, 4], [3, 2], seed=14)
        b = tt_random([4, 5, 4], [2, 3], seed=15)
        big = tt_dot(tt_scale(a, 2.0**700), tt_scale(b, 2.0**300))
        assert big * 2.0**-1000 == tt_dot(a, b)


class TestMatvec:
    def test_identity(self):
        v = tt_random([3, 4, 5], [2, 3], seed=11)
        av = tt_matvec(identity_operator([3, 4, 5]), v)
        assert av.ranks == v.ranks
        assert np.allclose(tt_to_dense(av), tt_to_dense(v), atol=1e-13)

    def test_rank_product_law(self):
        a = random_operator([3, 3, 3], [3, 3, 3], [2, 2], seed=12)
        v = tt_random([3, 3, 3], [3, 3], seed=13)
        av = tt_matvec(a, v)
        assert av.ranks == (1, 6, 6, 1)

    def test_dense_oracle(self):
        a = random_operator([4, 4, 4], [4, 4, 4], [2, 3], seed=14)
        v = tt_random([4, 4, 4], [2, 2], seed=15)
        lhs = tt_to_dense(tt_matvec(a, v)).ravel()
        rhs = tt_op_to_dense(a) @ tt_to_dense(v).ravel()
        assert np.allclose(lhs, rhs, atol=1e-10)

    def test_rectangular(self):
        a = random_operator([2, 3], [4, 5], [2], seed=16)
        v = tt_random([4, 5], [3], seed=17)
        av = tt_matvec(a, v)
        assert av.dims == (2, 3)
        lhs = tt_to_dense(av).ravel()
        rhs = tt_op_to_dense(a) @ tt_to_dense(v).ravel()
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_dim_mismatch(self):
        a = identity_operator([2, 2])
        with pytest.raises(ShapeMismatch):
            tt_matvec(a, tt_zero([2, 3]))


def _zeroed_blocks(a, blocks):
    """``a`` with the op-rank blocks (core, x, y) set to zero."""
    cores = [c.copy() for c in a.op_cores]
    for k, x, y in blocks:
        cores[k][x, :, :, y] = 0.0
    return TTOperator(cores)


def _matvec_cases():
    rng = np.random.default_rng(90)
    dims = [3, 4, 5]
    kron = kron_sum_operator([rng.standard_normal((n, n)) for n in dims])
    yield "kron_sum", kron, [2, 3]
    yield "op_add", tt_op_add(kron, random_operator(dims, dims, [2, 2], seed=91)), [3, 2]
    yield "op_rank_3", random_operator(dims, dims, [3, 3], seed=92), [2, 2]
    yield "rectangular", random_operator([2, 3, 4], [4, 3, 2], [3, 2], seed=93), [3, 2]
    yield "d1", random_operator([4], [6], [], seed=94), []
    # zero blocks first, between and after nonzero ones in a column, and a
    # column with no nonzero block at all
    rank3 = random_operator(dims, dims, [3, 3], seed=95)
    zeroed = [(1, 0, 0), (1, 2, 0), (1, 1, 1), (1, 0, 2), (1, 1, 2), (1, 2, 2), (2, 1, 0)]
    yield "zero_blocks", _zeroed_blocks(rank3, zeroed), [3, 2]


class TestMatvecOracle:
    @pytest.mark.parametrize("case", list(_matvec_cases()), ids=lambda c: c[0])
    def test_against_dense(self, case):
        _, a, ranks = case
        v = tt_random(a.col_dims, ranks, seed=96)
        got = tt_to_dense(tt_matvec(a, v)).ravel()
        want = tt_op_to_dense(a) @ tt_to_dense(v).ravel()
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestRound:
    def test_already_minimal(self):
        a = tt_random([4, 4, 4], [2, 2], seed=18)
        r = tt_round(a, RoundSpec(1e-14))
        err = np.linalg.norm(tt_to_dense(r) - tt_to_dense(a))
        assert err <= 1e-13 * tt_norm(a)

    def test_doubled_ranks_recompress(self):
        a = tt_random([4, 4, 4], [2, 2], seed=19)
        s = tt_add(a, a)
        assert s.ranks == (1, 4, 4, 1)
        r = tt_round(s, RoundSpec(1e-12))
        assert r.ranks == (1, 2, 2, 1)
        assert np.allclose(tt_to_dense(r), 2 * tt_to_dense(a), atol=1e-10)

    @pytest.mark.parametrize("tol", [1e-2, 1e-6, 1e-10])
    def test_rounding_contract(self, tol):
        for seed in range(8):
            a = tt_random([5, 6, 4, 5], [4, 6, 4], seed=seed)
            r = tt_round(a, RoundSpec(tol))
            err = np.linalg.norm(tt_to_dense(r) - tt_to_dense(a))
            assert err <= tol * tt_norm(a)

    def test_loose_tolerance_measured_error(self):
        a = tt_random([5, 5, 5], [4, 4], seed=20)
        r = tt_round(a, RoundSpec(0.1))
        err = np.linalg.norm(tt_to_dense(r) - tt_to_dense(a))
        assert err <= 0.1 * tt_norm(a)

    def test_cap_binds(self):
        a = tt_random([6, 6, 6], [5, 5], seed=21)
        r = tt_round(a, RoundSpec(0.0, max_rank=2))
        assert all(rk <= 2 for rk in r.ranks)

    def test_idempotent_rank_profile(self):
        a = tt_add(tt_random([4, 5, 4], [3, 3], seed=22), tt_random([4, 5, 4], [2, 2], seed=23))
        r1 = tt_round(a, RoundSpec(1e-3))
        r2 = tt_round(r1, RoundSpec(1e-3))
        assert r1.ranks == r2.ranks

    def test_zero(self):
        z = tt_round(tt_zero([3, 3, 3]), RoundSpec(1e-8))
        assert z.ranks == (1, 1, 1, 1)

    def test_d1_copy(self):
        a = TTVector([np.arange(4.0).reshape(1, 4, 1)])
        r = tt_round(a, RoundSpec(1e-2))
        assert np.array_equal(tt_to_dense(r), tt_to_dense(a))


def _reference_round(v, spec):
    # explicit-Q TT-SVD: right-to-left QR sweep forming orthonormal cores,
    # then left-to-right truncated SVDs carrying S V^T forward
    d = v.d
    if d == 1:
        return v.copy()
    cores = [c.copy() for c in v.cores]
    scale = np.prod([np.linalg.norm(c) for c in cores])
    for k in range(d - 1, 0, -1):
        r0, n, r1 = cores[k].shape
        q, lt = np.linalg.qr(cores[k].reshape(r0, n * r1).T)
        cores[k] = q.T.reshape(q.shape[1], n, r1)
        cores[k - 1] = np.tensordot(cores[k - 1], lt.T, axes=([2], [0]))
    nrm = np.linalg.norm(cores[0])
    if nrm == 0 or nrm <= 1e-14 * scale:
        return tt_zero(v.dims)
    budget = spec.rel_tol * nrm / np.sqrt(d - 1)
    for k in range(d - 1):
        r0, n, r1 = cores[k].shape
        u, sv, vt = np.linalg.svd(cores[k].reshape(r0 * n, r1), full_matrices=False)
        r = _truncation_rank(sv, budget)
        if spec.max_rank is not None:
            r = min(r, spec.max_rank)
        cores[k] = u[:, :r].reshape(r0, n, r)
        cores[k + 1] = np.tensordot(sv[:r, None] * vt[:r], cores[k + 1], axes=([1], [0]))
    return TTVector(cores)


def _left_orthonormality_gap(v):
    gap = 0.0
    for c in v.cores[:-1]:
        m = c.reshape(-1, c.shape[2])
        gap = max(gap, np.max(np.abs(m.T @ m - np.eye(m.shape[1]))))
    return gap


def _dependent_cases():
    # rank-r representations of tensors of smaller exact rank: a doubled
    # tensor, A v - c v for a Kronecker sum A (whose identity channel puts v
    # inside A v), and a tensor with zero-padded ranks
    dims = [8, 7, 6, 9]
    v = tt_random(dims, [2, 3, 2], seed=60)
    rng = np.random.default_rng(61)
    av = tt_matvec(kron_sum_operator([rng.standard_normal((n, n)) for n in dims]), v)
    c = tt_dot(av, v) / tt_dot(v, v)
    padded = [np.pad(core, ((0, k > 0), (0, 0), (0, k < len(dims) - 1))) for k, core in enumerate(v.cores)]
    return [
        ("doubled", tt_add(v, v)),
        ("kron-sum", tt_add(av, tt_scale(v, -c))),
        ("zero-padded", TTVector(padded)),
    ]


def _round_cases():
    # (name, tensor, spec): generic sums, d=2, wide cores, binding caps,
    # near-cancelling sums, exactly dependent directions
    a = tt_random([4, 5, 4, 3], [3, 4, 3], seed=40)
    b = tt_random([4, 5, 4, 3], [2, 3, 2], seed=41)
    wide = TTVector([np.ones((1, 1, 6)), np.random.default_rng(42).standard_normal((6, 2, 1))])
    wide_mid = tt_add(tt_random([3, 2, 2, 3], [3, 2, 3], seed=43), tt_random([3, 2, 2, 3], [3, 4, 3], seed=44))
    c = tt_random([5, 4, 5], [3, 3], seed=45)
    doubled, kron_sum, padded = (v for _, v in _dependent_cases())
    return [
        ("sum", tt_add(a, tt_scale(b, 0.7)), RoundSpec(1e-6)),
        ("sum-loose", tt_add(a, tt_scale(b, 0.01)), RoundSpec(1e-2)),
        ("d2", tt_add(tt_random([7, 9], [4], seed=46), tt_random([7, 9], [3], seed=47)), RoundSpec(1e-8)),
        ("wide-d2", wide, RoundSpec(1e-10)),
        ("wide-mid", wide_mid, RoundSpec(1e-8)),
        ("cap", tt_add(a, b), RoundSpec(1e-10, max_rank=2)),
        ("cancel", tt_add(c, tt_scale(c, -(1 - 1e-9))), RoundSpec(1e-5)),
        ("doubled", doubled, RoundSpec(1e-12)),
        ("kron-sum", kron_sum, RoundSpec(1e-12)),
        ("zero-padded", padded, RoundSpec(1e-6)),
    ]


class TestRoundAgainstReference:
    @pytest.mark.parametrize("case", _round_cases(), ids=lambda c: c[0])
    def test_matches_explicit_q_rounding(self, case):
        _, v, spec = case
        got, ref = tt_round(v, spec), _reference_round(v, spec)
        assert got.ranks == ref.ranks
        dense, nrm = tt_to_dense(v), tt_norm(v)
        assert np.linalg.norm(tt_to_dense(got) - tt_to_dense(ref)) <= 2 * spec.rel_tol * nrm
        if spec.max_rank is None:
            assert np.linalg.norm(tt_to_dense(got) - dense) <= spec.rel_tol * nrm

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 5), min_size=2, max_size=5),
        data=st.data(),
        rel_tol=st.sampled_from([0.0, 1e-10, 1e-4, 1e-1, 0.5]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_contract_against_dense(self, dims, data, rel_tol, seed):
        ranks = data.draw(st.lists(st.integers(1, 4), min_size=len(dims) - 1, max_size=len(dims) - 1))
        v = tt_add(tt_random(dims, ranks, seed=seed), tt_random(dims, ranks[::-1], seed=seed + 1))
        r = tt_round(v, RoundSpec(rel_tol))
        dense = tt_to_dense(v)
        nrm = np.linalg.norm(dense)
        assert np.linalg.norm(tt_to_dense(r) - dense) <= rel_tol * nrm + 1e-12 * nrm
        assert _left_orthonormality_gap(r) <= 1e-12
        assert np.linalg.norm(r.cores[-1]) == pytest.approx(np.linalg.norm(tt_to_dense(r)), rel=1e-12)


def _unfolding_ranks(dense):
    return [
        int(np.linalg.matrix_rank(dense.reshape(int(np.prod(dense.shape[:k])), -1)))
        for k in range(1, dense.ndim)
    ]


class TestDependentDirections:
    @pytest.mark.parametrize("case", _dependent_cases(), ids=lambda c: c[0])
    def test_sweep_keeps_numerical_rank(self, case):
        _, v = case
        widths = [f.shape[1] for f in _right_factors(v.cores)[1:-1]]
        assert widths == _unfolding_ranks(tt_to_dense(v))
        assert all(w < r for w, r in zip(widths, v.ranks[1:-1]))

    @pytest.mark.parametrize("case", _dependent_cases(), ids=lambda c: c[0])
    def test_norm_matches_dense(self, case):
        _, v = case
        want = np.linalg.norm(tt_to_dense(v))
        assert abs(tt_norm(v) - want) <= 1e-14 * want

    def test_planted_component_survives(self):
        # the doubled tensor loses its duplicate directions; a component of
        # relative size 1e-10 is no roundoff and keeps its ranks and digits
        dims = [8, 7, 6, 9]
        a, c = tt_random(dims, [2, 3, 2], seed=62), tt_random(dims, [1, 2, 1], seed=63)
        planted = tt_scale(c, 1e-10 * tt_norm(a) / tt_norm(c))
        v = tt_add(tt_add(a, a), planted)
        r = tt_round(v, RoundSpec(0))
        assert r.ranks == tt_add(a, c).ranks
        got = tt_to_dense(r) - 2 * tt_to_dense(a)
        want = tt_to_dense(planted)
        assert np.linalg.norm(got - want) <= 1e-4 * np.linalg.norm(want)


def _two_rank_one_terms(d, entry):
    # rank-1 terms of norm (2*entry)**d and half that, at an angle of 60
    # degrees in every mode; interior cores of the sum have norm
    # 2*sqrt(2)*entry, so the core-norm product exceeds ||v|| by ~2**(d/2)
    u = np.array([1.0, 1.0, 1.0, 1.0]) * entry
    w = np.array([1.0, 1.0, 1.0, -1.0]) * entry
    return tt_add(tt_rank_one([u] * d), tt_rank_one([w / 2] + [w] * (d - 1)))


class TestRoundExtremeMagnitudes:
    @pytest.mark.parametrize("entry", [0.25, 1.0, 9.0])
    def test_long_sum_keeps_rank_two(self, entry):
        # at entry 9 the core-norm product is ~1e210 and ||v||**2 overflows
        v = _two_rank_one_terms(d=150, entry=entry)
        r = tt_round(v, RoundSpec(1e-8))
        assert r.ranks == (1,) + (2,) * 149 + (1,)
        # ||v||**2 = (2*entry)**300 * (1 + 1/4 + 2**-150), taken in logs
        last = r.cores[-1]
        peak = np.max(np.abs(last))
        log_norm = np.log(peak) + np.log(np.linalg.norm(last / peak))
        assert log_norm == pytest.approx(150 * np.log(2 * entry) + 0.5 * np.log(1.25), abs=1e-10)

    def test_power_of_two_scaling_commutes(self):
        v = _two_rank_one_terms(d=150, entry=9.0)
        scaled = tt_scale(v, 2.0**-700)
        r, rs = tt_round(v, RoundSpec(1e-8)), tt_round(scaled, RoundSpec(1e-8))
        assert r.ranks == rs.ranks
        # cores 0..d-2 are orthonormal, so their entries compare absolutely
        for k in range(v.d - 1):
            assert np.max(np.abs(rs.cores[k] - r.cores[k])) <= 1e-10
        last = r.cores[-1] * 2.0**-700
        assert np.linalg.norm(rs.cores[-1] - last) <= 1e-10 * np.linalg.norm(last)

    def test_tiny_tensor_is_not_zero(self):
        v = tt_scale(tt_random([3, 4, 3], [2, 2], seed=48), 1e-200)
        r = tt_round(v, RoundSpec(1e-12))
        assert r.ranks == (1, 2, 2, 1)
        assert tt_to_dense(r) == pytest.approx(tt_to_dense(v), rel=1e-10, abs=0)


class TestRoundNonFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejected_with_core_named(self, bad):
        v = tt_random([3, 3, 3], [2, 2], seed=49)
        v.cores[1][0, 1, 0] = bad
        with pytest.raises(NonFiniteCore, match="core 1"):
            tt_round(v, RoundSpec(1e-8))

    def test_d1_rejected(self):
        with pytest.raises(NonFiniteCore):
            tt_round(TTVector([np.array([np.nan, 1.0]).reshape(1, 2, 1)]), RoundSpec(0.0))

    def test_is_value_error(self):
        assert issubclass(NonFiniteCore, ValueError)


class TestOperatorArithmetic:
    def test_add_zero_operator(self):
        a = random_operator([3, 3, 3], [3, 3, 3], [2, 2], seed=24)
        zero = TTOperator([np.zeros((1, 3, 3, 1))] * 3)
        s = tt_op_round(tt_op_add(a, zero), RoundSpec(1e-13))
        assert np.allclose(tt_op_to_dense(s), tt_op_to_dense(a), atol=1e-11)

    def test_dense_oracle_add(self):
        a = random_operator([3, 4, 3], [3, 4, 3], [2, 2], seed=25)
        b = random_operator([3, 4, 3], [3, 4, 3], [1, 3], seed=26)
        assert np.allclose(
            tt_op_to_dense(tt_op_add(a, b)),
            tt_op_to_dense(a) + tt_op_to_dense(b),
            atol=1e-12,
        )

    def test_kron_sum_rank_after_round(self):
        rng = np.random.default_rng(27)
        factors = []
        for _ in range(3):
            t = np.diag(rng.standard_normal(4))
            t += np.diag(rng.standard_normal(3), 1) + np.diag(rng.standard_normal(3), -1)
            factors.append(t)
        # doubled sum has op-ranks (1,4,4,1); rounding restores (1,2,2,1)
        a = kron_sum_operator(factors)
        s = tt_op_add(a, a)
        r = tt_op_round(s, RoundSpec(1e-13))
        assert r.ranks == (1, 2, 2, 1)

    def test_dim_mismatch(self):
        a = identity_operator([2, 2])
        b = identity_operator([2, 3])
        with pytest.raises(ShapeMismatch):
            tt_op_add(a, b)


class TestKronSum:
    def test_d1(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        op = kron_sum_operator([m])
        assert np.array_equal(tt_op_to_dense(op), m)

    def test_identity_factors(self):
        op = kron_sum_operator([np.eye(3), np.eye(3)])
        assert np.allclose(tt_op_to_dense(op), 2.0 * np.eye(9))

    def test_dense_oracle_tridiagonal(self):
        rng = np.random.default_rng(28)
        factors = []
        for _ in range(3):
            t = np.diag(rng.standard_normal(4))
            t += np.diag(rng.standard_normal(3), 1) + np.diag(rng.standard_normal(3), -1)
            factors.append(t)
        op = kron_sum_operator(factors)
        assert op.ranks == (1, 2, 2, 1)
        assert np.allclose(tt_op_to_dense(op), dense_kron_sum(factors), atol=1e-13)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            kron_sum_operator([np.zeros((2, 3))])


def _shifted(a, e, sigma):
    return TTOperator([*a.op_cores[:-1], a.op_cores[-1] + sigma * e])


_SHIFT_CASES = {
    "cd": lambda: convection_diffusion(ConvectionDiffusionSpec(d=3, n=5))[0],
    # op-rounded: the identity's path runs through rotated channels
    "markov": lambda: markov_chain(MarkovSpec(d=3, n=5, seed=9))[0],
    "d1": lambda: kron_sum_operator([np.random.default_rng(29).standard_normal((4, 4))]),
}


class TestOpShiftCore:
    """A + sigma I from A's cores 0..d-2 and a shifted last core."""

    @pytest.mark.parametrize("case", list(_SHIFT_CASES))
    @pytest.mark.parametrize("sigma", [-3.0, -0.25, 0.7, 1e3])
    def test_dense_oracle(self, case, sigma):
        a = _SHIFT_CASES[case]()
        e = tt_op_shift_core(a)
        assert e is not None and e.shape == (a.ranks[-2], a.row_dims[-1], a.col_dims[-1], 1)
        want = tt_op_to_dense(a) + sigma * np.eye(int(np.prod(a.col_dims)))
        got = tt_op_to_dense(_shifted(a, e, sigma))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    def test_kron_sum_path_is_the_passthrough_channel(self):
        a = convection_diffusion(ConvectionDiffusionSpec(d=4, n=6))[0]
        e = tt_op_shift_core(a)
        assert np.allclose(e[1, :, :, 0], np.eye(6), rtol=0, atol=1e-14)
        assert np.allclose(e[0], 0.0, rtol=0, atol=1e-14)

    def test_random_operator_has_none(self):
        assert tt_op_shift_core(random_operator([3, 3, 3], [3, 3, 3], [2, 2], seed=30)) is None

    def test_non_square_modes_have_none(self):
        assert tt_op_shift_core(random_operator([2, 3], [3, 3], [2], seed=31)) is None

    @settings(max_examples=40, deadline=None)
    @given(sigma=st.floats(-1e4, 1e4, allow_nan=False), seed=st.integers(0, 50))
    def test_shift_property(self, sigma, seed):
        rng = np.random.default_rng(seed)
        a = kron_sum_operator([rng.standard_normal((n, n)) for n in (2, 3, 4)])
        e = tt_op_shift_core(a)
        want = tt_op_to_dense(a) + sigma * np.eye(24)
        got = tt_op_to_dense(_shifted(a, e, sigma))
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)


class TestDensifyCommute:
    # add/scale/matvec densify-commute on random instances, d <= 4, n <= 6
    def test_property_sweep(self):
        rng = np.random.default_rng(29)
        for trial in range(6):
            d = int(rng.integers(2, 5))
            dims = [int(rng.integers(2, 7)) for _ in range(d)]
            ranks = [int(rng.integers(1, 4)) for _ in range(d - 1)]
            a = tt_random(dims, ranks, seed=100 + trial)
            b = tt_random(dims, ranks, seed=200 + trial)
            alpha = float(rng.standard_normal())
            da, db = tt_to_dense(a), tt_to_dense(b)
            scale = max(np.linalg.norm(da), np.linalg.norm(db), 1.0)
            assert np.allclose(tt_to_dense(tt_add(a, b)), da + db, atol=1e-12 * scale)
            assert np.allclose(tt_to_dense(tt_scale(a, alpha)), alpha * da, atol=1e-12 * scale * max(1, abs(alpha)))
            op = random_operator(dims, dims, [2] * (d - 1), seed=300 + trial)
            assert np.allclose(
                tt_to_dense(tt_matvec(op, a)).ravel(),
                tt_op_to_dense(op) @ da.ravel(),
                atol=1e-12 * np.linalg.norm(tt_op_to_dense(op)) * scale,
            )


class TestSerialization:
    def test_vector_round_trip(self, tmp_path):
        v = tt_random([3, 5, 2], [2, 3], seed=30)
        p = tmp_path / "v.ttk"
        save_vector(p, v)
        w = load_vector(p)
        assert w.dims == v.dims and w.ranks == v.ranks
        for cw, cv in zip(w.cores, v.cores):
            assert np.array_equal(cw, cv)

    def test_operator_round_trip(self, tmp_path):
        a = random_operator([3, 4], [2, 5], [3], seed=31)
        p = tmp_path / "a.ttk"
        save_operator(p, a)
        b = load_operator(p)
        assert b.row_dims == a.row_dims and b.col_dims == a.col_dims
        for cb, ca in zip(b.op_cores, a.op_cores):
            assert np.array_equal(cb, ca)

    def test_magic_check(self, tmp_path):
        p = tmp_path / "junk.ttk"
        p.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_vector(p)

    @pytest.mark.parametrize("kind", ["vector", "operator"])
    @pytest.mark.parametrize("damage", ["trailing bytes", "truncated payload"])
    def test_payload_length_checked(self, tmp_path, kind, damage):
        p = tmp_path / "x.ttk"
        if kind == "vector":
            save_vector(p, tt_random([3, 4], [2], seed=33))
        else:
            save_operator(p, random_operator([3, 4], [2, 2], [2], seed=34))
        data = p.read_bytes()
        p.write_bytes(data + bytes(8) if damage == "trailing bytes" else data[:-8])
        with pytest.raises(ValueError, match="corrupt"):
            (load_vector if kind == "vector" else load_operator)(p)

    # header slots after the magic: d, dims[0], dims[1], ranks[0..2]
    @pytest.mark.parametrize("slot,value", [(0, 0), (1, -3), (2, 0), (4, 0), (5, 2)],
                             ids=["d", "negative dim", "zero dim", "zero rank", "boundary rank"])
    def test_header_range_checked(self, tmp_path, slot, value):
        p = tmp_path / "x.ttk"
        save_vector(p, tt_random([3, 4], [2], seed=35))
        data = bytearray(p.read_bytes())
        data[8 + 8 * slot : 16 + 8 * slot] = np.int64(value).tobytes()
        p.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="corrupt"):
            load_vector(p)


class TestChainChecks:
    """TTVector and TTOperator share one check of their core chain."""

    @pytest.mark.parametrize("cls, shapes, message", [
        (TTVector, [(1, 2, 2, 1)], "core 0 must be order 3"),
        (TTOperator, [(1, 2, 2, 1), (1, 2, 1)], "op core 1 must be order 4"),
        (TTVector, [(1, 2, 3), (2, 3, 1)], "rank chain broken between cores 0 and 1"),
        (TTOperator, [(1, 2, 2, 3), (2, 3, 3, 1)], "op rank chain broken between cores 0 and 1"),
        (TTVector, [(2, 2, 1)], "boundary ranks"),
        (TTOperator, [(1, 2, 2, 2)], "boundary op ranks"),
    ], ids=["vector order", "operator order", "vector chain", "operator chain",
            "vector boundary", "operator boundary"])
    def test_malformed_cores(self, cls, shapes, message):
        with pytest.raises(ShapeMismatch, match=message):
            cls([np.zeros(shape) for shape in shapes])

    @pytest.mark.parametrize("cls", [TTVector, TTOperator])
    def test_no_cores(self, cls):
        with pytest.raises(ValueError, match="at least one core"):
            cls([])


# each entry point that takes a count, as a function of that one count
COUNT_ENTRY_POINTS = {
    "max_rank": lambda c: RoundSpec(1e-8, c),
    "rows": lambda c: kr_sketch_new([4, 5, 4], c),
    "oversampling": lambda c: StreamFrame.create([4, 5, 4], [2, 2], oversampling=c),
    "recovery_ranks": lambda c: StreamFrame.create([4, 5, 4], [c, 2]),
    "ranks": lambda c: tt_random([4, 5, 4], [c, 2]),
    "ranks of a TT-DRM": lambda c: tt_drm_new([4, 5, 4], [2, c]),
    "d of a CD problem": lambda c: ConvectionDiffusionSpec(d=c, n=5),
    "n of a CD problem": lambda c: ConvectionDiffusionSpec(d=3, n=c),
    "d of a Markov chain": lambda c: MarkovSpec(d=c, n=5),
    "n of a Markov chain": lambda c: MarkovSpec(d=3, n=c),
}


class TestCountCheck:
    @pytest.mark.parametrize("value", [2.5, 3.0, np.float64(3.0), "3", True, np.True_, None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(ValueError, match=r"^count must be an integer >= 1, got "):
            check_count(value, "count")

    @pytest.mark.parametrize("value, minimum", [(0, 1), (1, 2), (-1, 0)])
    def test_too_small_rejected(self, value, minimum):
        with pytest.raises(ValueError, match="count must be"):
            check_count(value, "count", minimum)

    def test_minimum_zero_says_nonnegative(self):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got -1$"):
            check_count(-1, "seed", 0)

    @pytest.mark.parametrize("value", [3, np.int64(3), np.uint8(3), np.int32(3)])
    def test_integers_returned_as_int(self, value):
        assert type(check_count(value, "count")) is int
        assert check_count(value, "count") == 3

    # a float count used to fail inside numpy, a float rank to be truncated
    # and a bool to be taken as 1
    @pytest.mark.parametrize("value", [2.5, True, np.float64(3.0), 0])
    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_entry_points_reject_non_integers(self, entry, value):
        with pytest.raises(ValueError, match=entry.split()[0]):
            COUNT_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("entry", COUNT_ENTRY_POINTS)
    def test_entry_points_accept_numpy_integers(self, entry):
        COUNT_ENTRY_POINTS[entry](np.int64(3))

    @pytest.mark.parametrize("rel_tol", [np.nan, -1e-8])
    def test_bad_rel_tol(self, rel_tol):
        with pytest.raises(ValueError, match="rel_tol must be nonnegative"):
            RoundSpec(rel_tol)


class TestMaxRank:
    def test_vector(self):
        assert max(tt_random([4, 4, 4], [3, 2], seed=32).ranks) == 3

    def test_operator(self):
        assert max(identity_operator([2, 2, 2]).ranks) == 1


# ---------------------------------------------------------------------------
# property tests of the TT algebra against dense oracles


@st.composite
def tt_shapes(draw):
    """(dims, interior ranks, seed) of a small random TT vector."""
    dims = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    ranks = draw(st.lists(st.integers(1, 3), min_size=len(dims) - 1, max_size=len(dims) - 1))
    return dims, ranks, draw(st.integers(0, 2**32 - 1))


def _core_norm_product(cores):
    # bounds every entry of the dense tensor and its contraction error
    return float(np.prod([np.linalg.norm(c) for c in cores]))


_COEFF = st.floats(-2, 2).filter(lambda c: c == 0 or abs(c) >= 1e-3)


class TestAlgebraProperties:
    @settings(max_examples=50, deadline=None)
    @given(shape=tt_shapes(), data=st.data())
    def test_add_against_dense(self, shape, data):
        dims, ranks, seed = shape
        ranks_b = data.draw(st.permutations(ranks))
        a, b = tt_random(dims, ranks, seed=seed), tt_random(dims, ranks_b, seed=seed + 1)
        s = tt_add(a, b)
        assert s.ranks[1:-1] == tuple(x + y for x, y in zip(a.ranks[1:-1], b.ranks[1:-1]))
        slack = 1e-12 * (_core_norm_product(a.cores) + _core_norm_product(b.cores))
        assert np.max(np.abs(tt_to_dense(s) - tt_to_dense(a) - tt_to_dense(b))) <= slack

    @settings(max_examples=50, deadline=None)
    @given(shape=tt_shapes(), data=st.data())
    def test_matvec_against_dense(self, shape, data):
        col_dims, ranks, seed = shape
        row_dims = data.draw(st.lists(st.integers(1, 4), min_size=len(col_dims), max_size=len(col_dims)))
        op_ranks = data.draw(st.lists(st.integers(1, 3), min_size=len(col_dims) - 1, max_size=len(col_dims) - 1))
        a = random_operator(row_dims, col_dims, op_ranks, seed=seed)
        v = tt_random(col_dims, ranks, seed=seed + 1)
        av = tt_matvec(a, v)
        assert av.dims == tuple(row_dims)
        want = tt_op_to_dense(a) @ tt_to_dense(v).ravel()
        slack = 1e-12 * _core_norm_product(a.op_cores) * _core_norm_product(v.cores)
        assert np.max(np.abs(tt_to_dense(av).ravel() - want)) <= slack

    @settings(max_examples=50, deadline=None)
    @given(
        shape=tt_shapes(),
        coeffs=st.lists(_COEFF, min_size=1, max_size=4),
        with_start=st.booleans(),
        rel_tol=st.sampled_from([0.0, 1e-10, 1e-4, 1e-1]),
    )
    def test_rounded_sum_against_dense(self, shape, coeffs, with_start, rel_tol):
        dims, ranks, seed = shape
        terms = [tt_random(dims, ranks, seed=seed + i) for i in range(len(coeffs))]
        start = tt_random(dims, ranks[::-1], seed=seed + 99) if with_start else None
        acc = RoundedSum(RoundSpec(rel_tol), start=start)
        for t in terms:
            acc.add(t)
        got = tt_to_dense(acc.combine(coeffs))
        # each partial sum S_k is rounded once: the errors e_k obey
        # e_k <= (1 + tol) e_{k-1} + tol ||S_k||
        partial = np.zeros(dims) if start is None else tt_to_dense(start)
        sums = []
        for c, t in zip(coeffs, terms):
            partial = partial + c * tt_to_dense(t)
            sums.append(np.linalg.norm(partial))
        scale = sum(abs(c) * tt_norm(t) for c, t in zip(coeffs, terms))
        scale += 0.0 if start is None else tt_norm(start)
        bound = rel_tol * (1 + rel_tol) ** len(coeffs) * sum(sums) + 1e-12 * scale
        assert np.linalg.norm(got - partial) <= bound

    def test_rounded_sum_keeps_first_term_unrounded(self):
        t = tt_add(tt_random([3, 4, 3], [2, 2], seed=40), tt_random([3, 4, 3], [2, 2], seed=41))
        acc = RoundedSum(RoundSpec(0.5))
        acc.add(t)
        out = acc.combine([2.0])
        assert out.ranks == t.ranks
        assert np.array_equal(tt_to_dense(out), tt_to_dense(tt_scale(t, 2.0)))


_ANY_FLOAT = st.floats(allow_nan=True, allow_infinity=True, width=64)


@st.composite
def _cores(draw, modes):
    """Cores of d <= 3 modes with any float64 entries, NaN and inf included."""
    d = draw(st.integers(1, 3))
    dims = [draw(st.lists(st.integers(1, 3), min_size=d, max_size=d)) for _ in range(modes)]
    ranks = [1] + draw(st.lists(st.integers(1, 3), min_size=d - 1, max_size=d - 1)) + [1]
    return [
        draw(arrays(np.float64, (ranks[k], *(m[k] for m in dims), ranks[k + 1]), elements=_ANY_FLOAT))
        for k in range(d)
    ]


def _same_bits(got, want):
    return len(got) == len(want) and all(
        g.shape == w.shape and g.tobytes() == w.tobytes() for g, w in zip(got, want)
    )


class TestSerializationProperties:
    @settings(max_examples=40, deadline=None)
    @given(cores=_cores(modes=1))
    def test_vector_round_trip_is_bitwise(self, tmp_path_factory, cores):
        p = tmp_path_factory.mktemp("vec") / "v.ttk"
        save_vector(p, TTVector(cores))
        assert _same_bits(load_vector(p).cores, cores)

    @settings(max_examples=40, deadline=None)
    @given(cores=_cores(modes=2))
    def test_operator_round_trip_is_bitwise(self, tmp_path_factory, cores):
        p = tmp_path_factory.mktemp("op") / "a.ttk"
        save_operator(p, TTOperator(cores))
        assert _same_bits(load_operator(p).op_cores, cores)
