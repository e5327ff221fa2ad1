"""Digests of solver traces, for checking that a refactor changes no numbers.

Run from the repository root::

    python3 tools/trace_digest.py

Runs the four GMRES variants on small convection-diffusion and Markov
problems (d=3, n=5) over fixed seeds, with ``ell`` 1 and 2 (``tt_gmres``
ignores it), from a zero and from a random initial guess.
``tt_spgmres`` uses an exponential-sum preconditioner with zeta=3.

At n=5 every recovery rank of the solver frame is clipped to the full rank
5, so those runs cannot see the frame's size.  Eight more runs can: a
convection-diffusion problem with d=4, n=8 (full ranks 8, 64, 8), solved
from zero by ``tt_sgmres`` and by ``tt_spgmres``, at ``ell`` 1 and 2.
64 runs in all.  For each run it prints two SHA-256 digests:

* ``run``: iterations, converged, the sketched and true residual histories,
  the warnings, the length of every phase-time history and the bytes of the
  cores of the returned solution;
* ``rank``: the ``basis_rank`` history and ``max_resident_basis``.

Beside them it prints the iterations and the final tracked true residual,
so that a change a digest flags shows its direction.

Last, one ``fit`` line for each benchmark workload's interval at zeta 9
(Markov d=4, n=20; convection-diffusion d=4, n=34 and d=6, n=64): the
``repr`` of the fit's bound and a SHA-256 of the bytes of alpha and beta,
so that any drift in a fit shows in the diff against another checkout.

Compare the output of two checkouts on the same machine.  The digests are
bitwise, so they depend on the BLAS and on its thread count; the script pins
one thread.  It is not part of the test suite for that reason; CI only
runs it, so that it keeps working.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import ttkrylov as ttk  # noqa: E402

SEEDS = (0, 1)
PRECOND_ZETA = 3
FIT_ZETA = 9


def problems():
    """(label, operator, rhs, factor matrices, initial guesses, variants)."""
    cd = ttk.ConvectionDiffusionSpec(d=3, n=5)
    op, rhs = ttk.convection_diffusion(cd)
    yield "cd", op, rhs, ttk.cd_factor_matrices(cd), ("zero", "random"), variants
    mk = ttk.MarkovSpec(d=3, n=5, seed=9)
    op, rhs = ttk.markov_chain(mk)
    yield "markov", op, rhs, ttk.markov_factor_matrices(mk), ("zero", "random"), variants
    # full ranks 8, 64, 8: the frame's middle rank is not clipped
    cd4 = ttk.ConvectionDiffusionSpec(d=4, n=8)
    op, rhs = ttk.convection_diffusion(cd4)
    yield "cd4", op, rhs, ttk.cd_factor_matrices(cd4), ("zero",), frame_variants


def variants():
    """(solver, ell)."""
    yield "tt_gmres", 1
    for ell in (1, 2):
        for name in ("tt_sgmres_vanilla", "tt_sgmres", "tt_spgmres"):
            yield name, ell


def frame_variants():
    """The solvers that stream their solution through a frame."""
    for ell in (1, 2):
        for name in ("tt_sgmres", "tt_spgmres"):
            yield name, ell


def benchmark_intervals():
    """(label, factor matrices) of the benchmark workloads' problems."""
    yield "markov d=4 n=20", ttk.markov_factor_matrices(ttk.MarkovSpec(d=4, n=20, seed=0))
    yield "cd d=4 n=34", ttk.cd_factor_matrices(ttk.ConvectionDiffusionSpec(d=4, n=34))
    yield "cd d=6 n=64", ttk.cd_factor_matrices(ttk.ConvectionDiffusionSpec(d=6, n=64))


def solve(name, op, rhs, x0, cfg, precond):
    if name == "tt_gmres":
        return ttk.tt_gmres(op, rhs, x0, cfg)
    sketch = ttk.kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=cfg.seed)
    if name == "tt_sgmres_vanilla":
        return ttk.tt_sgmres_vanilla(op, rhs, x0, cfg, sketch)
    if name == "tt_sgmres":
        return ttk.tt_sgmres(op, rhs, x0, cfg, sketch)
    return ttk.tt_spgmres(op, precond, rhs, x0, cfg, sketch)


def _floats(values) -> bytes:
    return b"none" if values is None else np.asarray(values, dtype=np.float64).tobytes()


def digests(x, rep):
    run = hashlib.sha256()
    run.update(f"{rep.iterations} {rep.converged}".encode())
    run.update(_floats(rep.res_sketched))
    run.update(_floats(rep.res_true))
    run.update("\n".join(rep.warnings).encode())
    run.update(repr(sorted((p, len(h)) for p, h in rep.times.items())).encode())
    for c in x.cores:
        run.update(repr(c.shape).encode())
        run.update(np.ascontiguousarray(c, dtype=np.float64).tobytes())
    rank = hashlib.sha256(repr((list(rep.basis_rank), rep.max_resident_basis)).encode())
    return run.hexdigest(), rank.hexdigest()


def main():
    for pname, op, rhs, factors, guesses, runs in problems():
        precond = ttk.ExpSumPreconditioner.from_kron_sum(
            factors, PRECOND_ZETA, ttk.RoundSpec(0.3 * 1e-8)
        )
        for seed in SEEDS:
            for guess in guesses:
                x0 = None if guess == "zero" else ttk.tt_random(rhs.dims, [2, 2], seed=100 + seed)
                for name, ell in runs():
                    cfg = ttk.SolverConfig(
                        maxit=30, tol=1e-8, ell=ell, seed=seed, solution_rank=12,
                        track_true_residual=True,
                    )
                    x, rep = solve(name, op, rhs, x0, cfg, precond)
                    run, rank = digests(x, rep)
                    label = f"{pname} seed={seed} x0={guess} {name} ell={ell}"
                    print(f"{label:<50} iters={rep.iterations:<3} res_true={rep.res_true[-1]:.2e}"
                          f" run={run} rank={rank}")
    for label, factors in benchmark_intervals():
        alpha, beta, bound = ttk.expsum_coeffs(*ttk.spectral_interval(factors), FIT_ZETA)
        ab = hashlib.sha256(alpha.tobytes() + beta.tobytes()).hexdigest()
        print(f"fit {label} zeta={FIT_ZETA} bound={bound!r} ab={ab}")


if __name__ == "__main__":
    main()
