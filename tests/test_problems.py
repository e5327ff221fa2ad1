import numpy as np
import pytest

from ttkrylov.problems import (
    ConvectionDiffusionSpec,
    MarkovSpec,
    cd_factor_matrices,
    convection_diffusion,
    dense_reference,
    markov_chain,
    markov_factor_matrices,
    markov_generator,
    markov_rate_matrices,
)
from ttkrylov.tt import SizeLimit, tt_op_to_dense, tt_to_dense


def kron_chain(mats):
    m = np.ones((1, 1))
    for x in mats:
        m = np.kron(m, x)
    return m


def dense_cd_factors(spec):
    # independent finite-difference factors, one per mode
    n, h, k = spec.n, spec.h, spec.diffusion
    lap = (k / h**2) * (-2 * np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1))
    return [-(lap + (w / h) * (-np.eye(n) + np.diag(np.ones(n - 1), 1))) for w in spec.convection]


def dense_cd_matrix(spec):
    # independent assembly by explicit Kronecker products
    n = spec.n
    out = np.zeros((n**spec.d, n**spec.d))
    for i, fac in enumerate(dense_cd_factors(spec)):
        out += kron_chain([np.eye(n)] * i + [fac] + [np.eye(n)] * (spec.d - 1 - i))
    return out


class TestConvectionDiffusion:
    def test_rhs_is_rank_one(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=6))
        assert rhs.ranks == (1, 1, 1, 1, 1)

    def test_operator_ranks(self):
        op, _ = convection_diffusion(ConvectionDiffusionSpec(d=4, n=6))
        assert op.ranks == (1, 2, 2, 2, 1)

    def test_dense_matches_independent_assembly(self):
        spec = ConvectionDiffusionSpec(d=3, n=5)
        op, rhs = convection_diffusion(spec)
        assert np.allclose(tt_op_to_dense(op), dense_cd_matrix(spec), atol=1e-13)
        want = np.exp(-10.0 * spec.grid**2)
        got = tt_to_dense(rhs)
        assert np.allclose(got, np.einsum("i,j,k->ijk", want, want, want), atol=1e-13)

    @pytest.mark.parametrize("d, n, convection", [
        (3, 5, None), (4, 16, None), (6, 64, None), (4, 34, (0.7, -0.3, 0.0, 1.9)),
    ])
    def test_factors_match_independent_construction(self, d, n, convection):
        # byte for byte, signs of zeros included
        spec = ConvectionDiffusionSpec(d=d, n=n, convection=convection)
        got, want = cd_factor_matrices(spec), dense_cd_factors(spec)
        assert len(got) == d
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_symmetric_when_no_convection(self):
        spec = ConvectionDiffusionSpec(d=3, n=4, convection=(0.0, 0.0, 0.0))
        op, _ = convection_diffusion(spec)
        m = tt_op_to_dense(op)
        assert np.allclose(m, m.T, atol=1e-13)

    def test_positive_definite_orientation(self):
        spec = ConvectionDiffusionSpec(d=2, n=6)
        m = tt_op_to_dense(convection_diffusion(spec)[0])
        eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
        assert eigs.min() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            ConvectionDiffusionSpec(d=0, n=5)
        with pytest.raises(ValueError):
            ConvectionDiffusionSpec(d=2, n=1)
        with pytest.raises(ValueError):
            ConvectionDiffusionSpec(d=2, n=5, convection=(1.0,))


class TestMarkovGenerator:
    def test_zero_row_sums(self):
        gen = markov_generator(MarkovSpec(d=3, n=4, seed=3))
        m = tt_op_to_dense(gen)
        assert np.abs(m.sum(axis=1)).max() <= 1e-12

    def test_no_sync_is_kron_sum(self):
        spec = MarkovSpec(d=3, n=4, sync_rate=0.0, seed=4)
        gen = markov_generator(spec)
        qs = markov_rate_matrices(spec)
        want = np.zeros((4**3, 4**3))
        for i, q in enumerate(qs):
            want += kron_chain([np.eye(4)] * i + [q] + [np.eye(4)] * (2 - i))
        assert np.allclose(tt_op_to_dense(gen), want, atol=1e-12)

    def test_rank_growth_bounded(self):
        r3 = max(markov_generator(MarkovSpec(d=3, n=4, seed=5)).ranks)
        r4 = max(markov_generator(MarkovSpec(d=4, n=4, seed=5)).ranks)
        r5 = max(markov_generator(MarkovSpec(d=5, n=4, seed=5)).ranks)
        assert r4 - r3 <= 3 and r5 - r4 <= 3

    def test_deterministic(self):
        a = markov_rate_matrices(MarkovSpec(d=3, n=5, seed=11))
        b = markov_rate_matrices(MarkovSpec(d=3, n=5, seed=11))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rates_in_range(self):
        for q in markov_rate_matrices(MarkovSpec(d=3, n=6, seed=12)):
            off = q[np.triu_indices(6, 1)]
            vals = off[off != 0]
            assert np.all((vals >= 1.0) & (vals <= 2.0))


class TestMarkovSystem:
    def test_solution_is_stationary_distribution(self):
        spec = MarkovSpec(d=3, n=4, seed=6)
        op, rhs = markov_chain(spec)
        m, e = dense_reference(op, rhs)
        x = np.linalg.solve(m, e)
        pi = x / x.sum()
        gen = tt_op_to_dense(markov_generator(spec))
        # stationarity: pi^T G = 0 and pi sums to one
        assert np.linalg.norm(gen.T @ pi) <= 1e-10
        assert pi.min() > 0

    def test_system_nonsingular(self):
        op, rhs = markov_chain(MarkovSpec(d=3, n=5, seed=7))
        m, _ = dense_reference(op, rhs)
        assert np.linalg.cond(m) < 1e6

    def test_rhs_all_ones_rank_one(self):
        _, rhs = markov_chain(MarkovSpec(d=3, n=4, seed=8))
        assert rhs.ranks == (1, 1, 1, 1)
        assert np.array_equal(tt_to_dense(rhs), np.ones((4, 4, 4)))

    def test_factor_matrices_orientation(self):
        # negated generator blocks: spectrum in the right half plane so the
        # exponential-sum terms decay
        spec = MarkovSpec(d=2, n=5, seed=9)
        for f in markov_factor_matrices(spec):
            assert np.linalg.eigvals(f).real.min() >= -1e-12
            assert np.diag(f).min() >= 0


class TestParameterChecks:
    # these were accepted (a NaN operator), or failed inside numpy or in the
    # generator's rounding, naming no field
    @pytest.mark.parametrize("field, make", [
        ("diffusion", lambda x: ConvectionDiffusionSpec(d=3, n=4, diffusion=x)),
        ("convection", lambda x: ConvectionDiffusionSpec(d=3, n=4, convection=(0.1, x, 0.0))),
        ("sync_rate", lambda x: MarkovSpec(d=3, n=4, sync_rate=x)),
        ("rate_low", lambda x: MarkovSpec(d=3, n=4, rate_low=x)),
        ("rate_high", lambda x: MarkovSpec(d=3, n=4, rate_high=x)),
    ])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, make, value):
        with pytest.raises(ValueError, match=f"^{field} must be .*finite, got "):
            make(value)

    @pytest.mark.parametrize("seed", [1.5, -1, True])
    def test_bad_markov_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer"):
            MarkovSpec(d=3, n=4, seed=seed)


class TestDenseReference:
    def test_round_trips_small_problem(self):
        spec = ConvectionDiffusionSpec(d=2, n=4)
        op, rhs = convection_diffusion(spec)
        m, e = dense_reference(op, rhs)
        assert m.shape == (16, 16)
        assert e.shape == (16,)

    def test_cap(self):
        op, rhs = convection_diffusion(ConvectionDiffusionSpec(d=4, n=32))
        with pytest.raises(SizeLimit):
            dense_reference(op, rhs)
