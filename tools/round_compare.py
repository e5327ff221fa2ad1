"""Every ``tt_round`` of one benchmark solve per workload, against another checkout.

Run from the repository root, with a second checkout (for example the parent
commit, unpacked with ``git archive``) at OTHER::

    python3 tools/round_compare.py OTHER [--seed 3] [--workload NAME ...]

Each workload of ``benchmarks/workloads.py`` is set up and solved once at the
given seed with this checkout's package.  Every ``tt_round`` call of the
solve is also made with OTHER's ``src/ttkrylov/tt.py`` on the same input;
each side is timed, alternating which goes first, and the solve goes on with
this checkout's result.  Keyword arguments of a call, such as ``pivoted``,
go to this checkout's ``tt_round`` and to OTHER's only where its signature
takes them, so a new truncation is compared call by call with the one that
OTHER makes in its place.  Per workload it prints:

* ``calls``, ``rank_diff`` and ``equal``: the number of calls, of calls
  whose output rank profiles differ, and of calls whose outputs are bitwise
  equal;
* ``max_diff_eps``: the largest ||this - other|| / (eps * ||input||) over the
  calls, both norms taken by this checkout's ``tt_norm``; 0 for bitwise equal
  outputs.  Beside it, ``floor``: the largest reading the same quotient gives
  for this checkout's output against itself, the cancellation floor of
  ``tt_norm(this - other)``, below which a difference is not resolved;
* ``max_diff_chain``: the largest ||this - other|| / (eps * ||G_0|| ||L_1||),
  where ||G_0|| ||L_1|| >= ||input|| is the bound that the first core and the
  rest of the chain put on the input (``tt_round``), the scale of the
  roundoff of any rounding of that representation;
* ``this_s`` and ``other_s``: the summed time of each side's calls;
* ``sweep``: the largest input rank and the largest rank this checkout's
  right-to-left QR sweep leaves of it (``tt._right_factors``).

One BLAS thread is pinned, as in the benchmark.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import inspect  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from ttkrylov import solvers, streaming, tt  # noqa: E402
from workloads import WORKLOADS, set_up, solve  # noqa: E402

EPS = np.finfo(np.float64).eps
PATCHED = (tt, solvers, streaming)


def load_other(root: Path):
    path = root / "src" / "ttkrylov" / "tt.py"
    spec = importlib.util.spec_from_file_location("other_tt", path)
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def compare(w, seed, other_round):
    this_round = tt.tt_round
    other_takes = inspect.signature(other_round).parameters
    stats = {"calls": 0, "rank_diff": 0, "equal": 0, "max_diff_eps": 0.0, "floor_eps": 0.0,
             "max_diff_chain": 0.0, "this_s": 0.0, "other_s": 0.0, "rank_in": 0, "rank_sweep": 0}

    def timed(fn, v, spec, kwargs):
        t0 = time.perf_counter()
        out = fn(v, spec, **kwargs)
        return out, time.perf_counter() - t0

    def both(v, spec, **kwargs):
        other_kwargs = {k: x for k, x in kwargs.items() if k in other_takes}
        if stats["calls"] % 2:
            ref, t_ref = timed(other_round, v, spec, other_kwargs)
            got, t_got = timed(this_round, v, spec, kwargs)
        else:
            got, t_got = timed(this_round, v, spec, kwargs)
            ref, t_ref = timed(other_round, v, spec, other_kwargs)
        stats["calls"] += 1
        stats["this_s"] += t_got
        stats["other_s"] += t_ref
        ref = tt.TTVector(ref.cores)
        stats["rank_diff"] += got.ranks != ref.ranks
        equal = got.ranks == ref.ranks and all(
            np.array_equal(g, r) for g, r in zip(got.cores, ref.cores))
        stats["equal"] += equal
        lfac = tt._right_factors(v.cores)
        nrm = tt.tt_norm(v)
        if nrm > 0:
            diff = 0.0 if equal else tt.tt_norm(tt.tt_add(got, tt.tt_scale(ref, -1.0)))
            floor = tt.tt_norm(tt.tt_add(got, tt.tt_scale(got, -1.0)))
            chain = tt._norm(v.cores[0]) * tt._norm(lfac[1])
            stats["max_diff_eps"] = max(stats["max_diff_eps"], diff / (EPS * nrm))
            stats["floor_eps"] = max(stats["floor_eps"], floor / (EPS * nrm))
            stats["max_diff_chain"] = max(stats["max_diff_chain"], diff / (EPS * chain))
        if max(v.ranks) > stats["rank_in"]:
            stats["rank_in"] = max(v.ranks)
            stats["rank_sweep"] = max(f.shape[1] for f in lfac[1:])
        return got

    for mod in PATCHED:
        mod.tt_round = both
    try:
        x, report = solve(w, set_up(w, seed))
    finally:
        for mod in PATCHED:
            mod.tt_round = this_round
    return report, stats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other", type=Path, help="root of the checkout to compare with")
    ap.add_argument("--seed", type=int, default=3)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    other_round = load_other(args.other).tt_round
    for name in args.workload or WORKLOADS:
        report, s = compare(WORKLOADS[name], args.seed, other_round)
        print(f"{name:<16} seed={args.seed} iterations={report.iterations} calls={s['calls']}"
              f" rank_diff={s['rank_diff']} equal={s['equal']}"
              f" max_diff_eps={s['max_diff_eps']:.1f} floor={s['floor_eps']:.1f}"
              f" max_diff_chain={s['max_diff_chain']:.1f}"
              f" this_s={s['this_s']:.3f} other_s={s['other_s']:.3f}"
              f" sweep={s['rank_in']}->{s['rank_sweep']}")


if __name__ == "__main__":
    main()
