import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ttkrylov.tt import (
    NonFiniteCore,
    RoundSpec,
    ShapeMismatch,
    SizeLimit,
    TTOperator,
    TTVector,
    identity_operator,
    kron_sum_operator,
    load_operator,
    load_vector,
    max_rank,
    save_operator,
    save_vector,
    tt_add,
    tt_dot,
    tt_from_dense,
    tt_matvec,
    tt_norm,
    tt_op_add,
    tt_op_round,
    tt_op_to_dense,
    tt_random,
    tt_rank_one,
    tt_round,
    tt_scale,
    tt_to_dense,
    tt_zero,
)
from ttkrylov.tt import _truncation_rank


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


class TestDotNorm:
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


def _round_cases():
    # (name, tensor, spec): generic sums, d=2, wide cores, binding caps,
    # near-cancelling sums
    a = tt_random([4, 5, 4, 3], [3, 4, 3], seed=40)
    b = tt_random([4, 5, 4, 3], [2, 3, 2], seed=41)
    wide = TTVector([np.ones((1, 1, 6)), np.random.default_rng(42).standard_normal((6, 2, 1))])
    wide_mid = tt_add(tt_random([3, 2, 2, 3], [3, 2, 3], seed=43), tt_random([3, 2, 2, 3], [3, 4, 3], seed=44))
    c = tt_random([5, 4, 5], [3, 3], seed=45)
    return [
        ("sum", tt_add(a, tt_scale(b, 0.7)), RoundSpec(1e-6)),
        ("sum-loose", tt_add(a, tt_scale(b, 0.01)), RoundSpec(1e-2)),
        ("d2", tt_add(tt_random([7, 9], [4], seed=46), tt_random([7, 9], [3], seed=47)), RoundSpec(1e-8)),
        ("wide-d2", wide, RoundSpec(1e-10)),
        ("wide-mid", wide_mid, RoundSpec(1e-8)),
        ("cap", tt_add(a, b), RoundSpec(1e-10, max_rank=2)),
        ("cancel", tt_add(c, tt_scale(c, -(1 - 1e-9))), RoundSpec(1e-5)),
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


class TestMaxRank:
    def test_vector(self):
        assert max_rank(tt_random([4, 4, 4], [3, 2], seed=32)) == 3

    def test_operator(self):
        assert max_rank(identity_operator([2, 2, 2])) == 1
