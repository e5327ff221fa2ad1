"""The benchmark's workloads and how one solve of each is set up and run.

Inputs are built the way ``ttk`` builds them (``cli.run_variant``): for a
solve seed s the Khatri-Rao sketch is drawn with seed s, the recovery
frame with seed s+1 and the preconditioner's stream seed is s+7.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import ttkrylov as ttk

TOL = 1e-6
# The Markov rates are part of the workload, not drawn from the solve seed:
# rate seed 1 converges in 5 iterations and would leave only the set-up.
MARKOV_RATE_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    problem: str  # "cd" (convection-diffusion) or "markov"
    d: int
    n: int
    solver: str  # "tt_gmres", "tt_sgmres" or "tt_spgmres"
    maxit: int
    gate: float  # a solve whose true residual exceeds this has failed
    # fixed reference for res_true_excess: the seed code's median res_true,
    # rounded, so that the metric reads the same on every workload
    res_ref: float
    accuracy_solves: int  # iterations/res_true/sol_rank use the first this many
    zeta: int | None = None  # expsum terms, tt_spgmres only
    # (stage, quantity) pairs whose share of the stage's time must exceed
    # one half in the traced run; quantities are "phase.<name>" (solver
    # phase totals) or a traced layer function
    hot_spots: tuple = ()


# why each workload was chosen: see README.md
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cd6-sgmres",
            problem="cd",
            d=6,
            n=64,
            solver="tt_sgmres",
            maxit=50,
            gate=0.5,
            res_ref=7e-2,
            accuracy_solves=8,
            hot_spots=(("solve", "phase.round"),),
        ),
        Workload(
            name="markov4-spgmres",
            problem="markov",
            d=4,
            n=20,
            solver="tt_spgmres",
            maxit=60,
            zeta=9,
            gate=5e-2,
            res_ref=7e-4,
            accuracy_solves=12,
            hot_spots=(("setup", "precond.expsum_coeffs"),),
        ),
        Workload(
            name="cd4-gmres",
            problem="cd",
            d=4,
            n=16,
            solver="tt_gmres",
            maxit=60,
            gate=1e-4,
            res_ref=7e-6,
            accuracy_solves=6,
            hot_spots=(("solve", "phase.orth"),),
        ),
    )
}


@dataclass
class Prepared:
    op: ttk.TTOperator
    rhs: ttk.TTVector
    cfg: ttk.SolverConfig
    sketch: ttk.KhatriRaoSketch | None
    frame: ttk.StreamFrame | None
    precond: ttk.ExpSumPreconditioner | None


def _no_span(name):
    return nullcontext()


def set_up(w: Workload, seed: int, span=_no_span) -> Prepared:
    """Build the problem, sketch, frame and preconditioner for one solve."""
    with span("problems.build"):
        if w.problem == "cd":
            spec = ttk.ConvectionDiffusionSpec(d=w.d, n=w.n)
            op, rhs = ttk.convection_diffusion(spec)
            factors = ttk.cd_factor_matrices(spec)
        else:
            spec = ttk.MarkovSpec(d=w.d, n=w.n, seed=MARKOV_RATE_SEED)
            op, rhs = ttk.markov_chain(spec)
            factors = ttk.markov_factor_matrices(spec)
    cfg = ttk.SolverConfig(maxit=w.maxit, tol=TOL, ell=1, seed=seed)
    sketch = frame = precond = None
    if w.solver != "tt_gmres":
        sketch = ttk.kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=seed)
        frame = ttk.make_solver_frame(rhs, cfg, seed=seed + 1)
    if w.solver == "tt_spgmres":
        spec = ttk.RoundSpec(cfg.eta * cfg.tol, cfg.max_rank)
        precond = ttk.ExpSumPreconditioner.from_kron_sum(
            factors, w.zeta, spec, accumulate="sequential", stream_seed=seed + 7
        )
    return Prepared(op, rhs, cfg, sketch, frame, precond)


def solve(w: Workload, p: Prepared):
    """Run the workload's solver; returns (x, SolveReport)."""
    if w.solver == "tt_gmres":
        return ttk.tt_gmres(p.op, p.rhs, None, p.cfg)
    if w.solver == "tt_sgmres":
        return ttk.tt_sgmres(p.op, p.rhs, None, p.cfg, p.sketch, p.frame)
    return ttk.tt_spgmres(p.op, p.precond, p.rhs, None, p.cfg, p.sketch, p.frame)
