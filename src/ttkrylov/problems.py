"""Benchmark problem generators: a convection-diffusion PDE and a
synchronized Markov chain, both as (TTOperator, TTVector) systems, plus
dense reference assembly for small oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .tt import (
    DENSE_CAP,
    RoundSpec,
    SizeLimit,
    TTOperator,
    TTVector,
    check_count,
    kron_sum_operator,
    tt_op_add,
    tt_op_round,
    tt_op_to_dense,
    tt_rank_one,
    tt_to_dense,
)


@dataclass
class ConvectionDiffusionSpec:
    """Steady convection-diffusion on [-1, 1]^d, zero Dirichlet boundary.

    n interior grid points per mode, diffusion coefficient `diffusion`,
    convection vector `convection` (defaults to 1e-2 in every direction).
    """

    d: int
    n: int
    diffusion: float = 1e-2
    convection: tuple | None = None

    def __post_init__(self):
        check_count(self.d, "d")
        check_count(self.n, "n", 2)
        if not 0 < self.diffusion < math.inf:  # NaN too
            raise ValueError(f"diffusion must be positive and finite, got {self.diffusion!r}")
        if self.convection is None:
            self.convection = tuple([1e-2] * self.d)
        self.convection = tuple(map(float, self.convection))
        if len(self.convection) != self.d:
            raise ValueError("convection must have length d")
        if not all(map(math.isfinite, self.convection)):
            raise ValueError(f"convection must be finite, got {self.convection!r}")

    @property
    def h(self) -> float:
        return 2.0 / (self.n + 1)

    @property
    def grid(self) -> np.ndarray:
        return -1.0 + self.h * np.arange(1, self.n + 1)


def cd_factor_matrices(spec: ConvectionDiffusionSpec):
    """The per-mode matrices -(L + D_i): negated second-difference diffusion
    plus upper-bidiagonal convection, oriented positive definite."""
    n, h = spec.n, spec.h
    eye, up = np.eye(n), np.eye(n, k=1)
    lap = (spec.diffusion / h**2) * (-2.0 * eye + up + up.T)
    shift = -eye + up
    return [-(lap + (w / h) * shift) for w in spec.convection]


def convection_diffusion(spec: ConvectionDiffusionSpec):
    """Build the linear system A x = f for the steady convection-diffusion
    equation.

    A is the Kronecker sum of -(L + D_i) (sign chosen so the symmetric
    part is positive definite); f samples exp(-10 ||x||^2) on the grid and
    has TT-rank exactly 1.
    """
    op = kron_sum_operator(cd_factor_matrices(spec))
    g = np.exp(-10.0 * spec.grid**2)
    rhs = tt_rank_one([g] * spec.d)
    return op, rhs


@dataclass
class MarkovSpec:
    """d birth-death systems with n states each; neighbours fail jointly.

    Forward/backward rates are i.i.d. uniform on [rate_low, rate_high]
    per system; systems i and i+1 share a joint transition from state
    n-1 to state n at rate sync_rate.
    """

    d: int
    n: int
    sync_rate: float = 0.1
    rate_low: float = 1.0
    rate_high: float = 2.0
    seed: int = 0

    def __post_init__(self):
        check_count(self.d, "d", 2)  # synchronizations need neighbours
        check_count(self.n, "n", 2)
        check_count(self.seed, "seed", 0)
        for name in ("sync_rate", "rate_low", "rate_high"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.rate_low > self.rate_high:
            raise ValueError("rate_low must be <= rate_high")


def markov_rate_matrices(spec: MarkovSpec):
    """Tridiagonal generators Q_i of the independent walks (row = source)."""
    rng = np.random.default_rng(spec.seed)
    out = []
    for _ in range(spec.d):
        fwd = rng.uniform(spec.rate_low, spec.rate_high, spec.n - 1)
        bwd = rng.uniform(spec.rate_low, spec.rate_high, spec.n - 1)
        q = np.diag(fwd, 1) + np.diag(bwd, -1)
        np.fill_diagonal(q, -q.sum(axis=1))
        out.append(q)
    return out


def markov_generator(spec: MarkovSpec) -> TTOperator:
    """The full generator Q + W - D of the coupled chain.

    Q is the Kronecker sum of the Q_i; W adds the pairwise synchronized
    jumps; D = diag(W 1) restores zero row sums.  With sync_rate = 0 this
    is exactly the Kronecker sum.  The result is rounded at 1e-13; its
    op-ranks grow at most linearly with d.
    """
    qs = markov_rate_matrices(spec)
    gen = kron_sum_operator(qs)
    if spec.sync_rate != 0.0:
        n = spec.n
        jump = np.zeros((n, n))
        jump[n - 2, n - 1] = 1.0
        stay = np.zeros((n, n))
        stay[n - 2, n - 2] = 1.0
        eye = np.eye(n)
        for i in range(spec.d - 1):
            for block, sign in ((jump, spec.sync_rate), (stay, -spec.sync_rate)):
                cores = []
                for k in range(spec.d):
                    m = block if k in (i, i + 1) else eye
                    cores.append(m.reshape(1, n, n, 1))
                cores[-1] = cores[-1] * sign
                gen = tt_op_add(gen, TTOperator(cores))
    return tt_op_round(gen, RoundSpec(1e-13))


def markov_chain(spec: MarkovSpec):
    """Build the steady-state linear system of the coupled chain.

    The raw generator G = Q + W - D has zero row sums, so G pi = ones is
    singular and inconsistent; the solvable formulation is the standard
    rank-one regularization of the stationarity equations,

        (G^T + c * ones ones^T) pi = ones,   c = 1 / n^d,

    whose unique solution is the stationary distribution scaled by n^d.
    Returns (operator, all-ones rank-1 right-hand side).
    """
    gen = markov_generator(spec)
    n, d = spec.n, spec.d
    # transpose: swap row/col axes of every core
    gt = TTOperator([c.transpose(0, 2, 1, 3).copy() for c in gen.op_cores])
    c = float(n) ** (-d)
    ones_block = np.ones((n, n)).reshape(1, n, n, 1)
    reg_cores = [ones_block.copy() for _ in range(d)]
    reg_cores[-1] = reg_cores[-1] * c
    reg = TTOperator(reg_cores)
    op = tt_op_round(tt_op_add(gt, reg), RoundSpec(1e-13))
    rhs = tt_rank_one([np.ones(n)] * d)
    return op, rhs


def markov_factor_matrices(spec: MarkovSpec):
    """Negated transposed walk generators -Q_i^T: the Kronecker-sum part of
    the steady-state operator, oriented for exponential-sum decay."""
    return [-q.T for q in markov_rate_matrices(spec)]


def dense_reference(op: TTOperator, rhs: TTVector):
    """Exact dense matricization of a problem, for small oracles only."""
    total = int(np.prod(rhs.dims, dtype=np.int64))
    if total**2 > DENSE_CAP:
        raise SizeLimit(f"dense system would have {total}^2 entries")
    return tt_op_to_dense(op), tt_to_dense(rhs).ravel()
