"""Tensor-train linear algebra with randomized sketched GMRES solvers."""

from .precond import (
    ExpSumPreconditioner,
    expsum_coeffs,
    matrix_exp,
    mode_multiply,
    spectral_interval,
)
from .problems import (
    ConvectionDiffusionSpec,
    MarkovSpec,
    cd_factor_matrices,
    convection_diffusion,
    dense_reference,
    markov_chain,
    markov_factor_matrices,
    markov_generator,
)
from .sketch import KhatriRaoSketch, kr_apply, kr_sketch_new
from .solvers import (
    SolveReport,
    SolverConfig,
    make_solver_frame,
    sketched_lsq,
    true_residual,
    tt_gmres,
    tt_sgmres,
    tt_sgmres_vanilla,
    tt_spgmres,
)
from .streaming import (
    SketchPair,
    StreamFrame,
    combine_pairs,
    stream_recover,
    stream_sketch,
    tt_drm_new,
)
from .tt import (
    NonFiniteCore,
    RoundSpec,
    ShapeMismatch,
    SizeLimit,
    TTOperator,
    TTVector,
    identity_operator,
    kron_sum_operator,
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

__version__ = "0.1.0"
