"""Solver benchmark for ttkrylov: set-up and solve time, accuracy and memory.

Run from the repository root (see benchmarks/README.md)::

    python3 benchmarks/run.py --workload cd6-sgmres --seed 0 --seconds 30 --trace 0

One run repeats set-up + solve for at least ``--seconds`` seconds in a single
process with one BLAS thread.  Repetition i uses the solve seed
``seed + 1000 * i``.  Every returned solution is checked independently
(``residual.py``).  ``--trace 0`` prints the end-to-end metrics, ``--trace 1``
the per-layer metrics of a traced run (``tracer.py``).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import os
import sys

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
if __name__ == "__main__":
    # single process, one BLAS/OpenMP thread; must precede the numpy import
    for _var in THREAD_VARS:
        os.environ[_var] = "1"

from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "ttkrylov" / "__init__.py").is_file():
    sys.exit(f"benchmark: package source {SRC / 'ttkrylov'} not found; run from a full checkout")
sys.path.insert(0, str(SRC))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from residual import check_solution  # noqa: E402
from tracer import Tracer, layer_figures, phase_agreement, stage_share  # noqa: E402
from workloads import WORKLOADS, set_up, solve  # noqa: E402

SEED_STRIDE = 1000
TRACE_MIN_REPS = 3
HOT_SPOT_SHARE = 0.5
# res_true_excess = EXCESS_OFFSET + log10(res_true / res_ref); the offset keeps
# it positive, and one digit of accuracy lost adds 1 on every workload
EXCESS_OFFSET = 8.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "solve_s": "s",
    "iterations": "count",
    "res_true_excess": "digits",
    "sol_rank": "rank",
    "peak_rss_mb": "MiB",
}
_PHASES = ("matvec", "sketch", "orth", "round", "lsq", "recovery")
PER_LAYER_UNITS = {
    "tt.tt_round.calls": "count",
    "tt.tt_round.self_s": "s",
    "tt.tt_round.rank_in": "rank",
    "tt.tt_round.keep": "ratio",
    "tt.tt_dot.calls": "count",
    "tt.tt_dot.self_s": "s",
    "tt.tt_matvec.calls": "count",
    "tt.tt_matvec.self_s": "s",
    "tt.tt_add.self_s": "s",
    "sketch.kr_apply.calls": "count",
    "sketch.kr_apply.self_s": "s",
    "streaming.stream_sketch.calls": "count",
    "streaming.stream_sketch.self_s": "s",
    "streaming.stream_recover.calls": "count",
    "streaming.stream_recover.self_s": "s",
    "streaming.pairs_mb": "MiB",
    "precond.expsum_coeffs.self_s": "s",
    "precond.matrix_exp.calls": "count",
    "precond.matrix_exp.self_s": "s",
    "precond.apply_inverse.calls": "count",
    "precond.apply_inverse.self_s": "s",
    "precond.mode_multiply.self_s": "s",
    "problems.build.self_s": "s",
    **{f"solvers.phase.{p}_s": "s" for p in _PHASES},
    "solvers.s_per_iter": "s",
    "solvers.res_gap": "ratio",
    "trace.overhead_frac": "ratio",
}


def _maxrss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _rep(w, seed, tr):
    """Set up and solve once; returns (record, (setup span, solve span, report))."""
    rec = {"seed": seed, "failed": None}
    try:
        with tr.span("setup") as setup_span:
            prep = set_up(w, seed, span=tr.span)
        with tr.span("solve") as solve_span:
            x, report = solve(w, prep)
        rec.update(
            setup_s=setup_span.duration,
            solve_s=solve_span.duration,
            iterations=report.iterations,
            res_sketched=report.res_sketched[-1] if report.res_sketched else 0.0,
            sol_rank=max(x.ranks),
        )
        rec["res_true"], rec["failed"] = check_solution(prep.op, prep.rhs, x, w.gate)
    except Exception:  # a failed solve is counted, not fatal
        rec["failed"] = traceback.format_exc(limit=4)
        return rec, None
    return rec, (setup_span, solve_span, report)


def _traced_rep(w, seed, problems):
    tr = Tracer()
    with tr.installed():
        rec, parts = _rep(w, seed, tr)
    if parts is None:
        return rec
    setup_span, solve_span, report = parts
    fig = layer_figures(tr, setup_span, solve_span)
    for p, v in report.phase_totals().items():
        fig[f"solvers.phase.{p}_s"] = v
    fig["solvers.s_per_iter"] = solve_span.duration / max(report.iterations, 1)
    if rec["res_true"] is not None and rec["res_sketched"] > 0:
        fig["solvers.res_gap"] = rec["res_true"] / rec["res_sketched"]
    rec["figures"] = fig
    rec["shares"] = {
        f"{stage}:{q}": stage_share(tr, setup_span if stage == "setup" else solve_span, q, report)
        for stage, q in w.hot_spots
    }
    problems.extend(f"seed {seed}: {msg}" for msg in phase_agreement(tr, solve_span, report))
    return rec


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat set-up + solve for `seconds`; returns metrics and checks."""
    base_mib = _maxrss_mib()
    plain, traced, problems = [], [], []
    min_reps = TRACE_MIN_REPS if trace else w.accuracy_solves
    deadline = time.perf_counter() + seconds
    i = 0
    while i < min_reps or time.perf_counter() < deadline:
        s = seed + SEED_STRIDE * i
        plain.append(_rep(w, s, Tracer())[0])
        if trace:
            traced.append(_traced_rep(w, s, problems))
        i += 1
    peak_mib = _maxrss_mib() - base_mib
    reps = plain + traced
    failed = [r for r in reps if r["failed"] is not None]
    if trace:
        metrics = _per_layer(plain, traced)
        for stage, q in w.hot_spots:
            shares = [r["shares"][f"{stage}:{q}"] for r in traced if "shares" in r]
            share = statistics.median(shares) if shares else 0.0
            if share <= HOT_SPOT_SHARE:
                problems.append(f"hot spot: {q} takes {share:.0%} of {stage}, expected a majority")
    else:
        metrics = _end_to_end(plain, w, peak_mib)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    return {
        "workload": w.name,
        "seed": seed,
        "trace": trace,
        "correct": not failed and not problems,
        "attempted": len(reps),
        "failed": len(failed),
        "problems": problems + [f"seed {r['seed']}: {r['failed']}" for r in failed],
        "metrics": {k: {"value": metrics.get(k), "unit": u} for k, u in units.items()},
        "extra": {k: v for k, v in metrics.items() if k not in units},
    }


def _median(values):
    values = list(values)
    return statistics.median(values) if values else None


def _end_to_end(plain, w, peak_mib) -> dict:
    ok = [r for r in plain if r["failed"] is None]
    acc = [r for r in plain[: w.accuracy_solves] if r["failed"] is None]
    res = _median(r["res_true"] for r in acc)
    return {
        "setup_s": _median(r["setup_s"] for r in ok),
        "solve_s": _median(r["solve_s"] for r in ok),
        "iterations": _median(r["iterations"] for r in acc),
        "res_true_excess": EXCESS_OFFSET + math.log10(res / w.res_ref) if res else None,
        "res_true": res,
        "sol_rank": _median(r["sol_rank"] for r in acc),
        "peak_rss_mb": peak_mib,
    }


def _per_layer(plain, traced) -> dict:
    figs = [r["figures"] for r in traced if "figures" in r]
    out = {k: _median(f[k] for f in figs if k in f) for k in PER_LAYER_UNITS if k != "trace.overhead_frac"}
    t_traced = _median(r["solve_s"] for r in traced if r["failed"] is None)
    t_plain = _median(r["solve_s"] for r in plain if r["failed"] is None)
    if t_traced and t_plain:
        out["trace.overhead_frac"] = t_traced / t_plain - 1.0
    return out


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def run_metadata(seed: int) -> dict:
    """Where and on what a run was made."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "ttkrylov").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def report_lines(result: dict) -> list:
    """Human-readable summary preceding the JSON result line."""
    lines = [f"workload {result['workload']} seed {result['seed']} trace {int(result['trace'])}"]
    lines.append(f"solves: {result['attempted']} attempted, {result['failed']} failed")
    shown = [(k, m["value"], m["unit"]) for k, m in result["metrics"].items()]
    shown += [(k, v, "ratio") for k, v in result["extra"].items()]
    shown.append(("failed_frac", result["failed"] / result["attempted"], "ratio"))
    for name, value, unit in shown:
        lines.append(f"  {name:34s} {_fmt(value):>12s} {unit}")
    verdict = "passed" if result["correct"] else "FAILED"
    lines.append(f"output check: {verdict}")
    lines.extend(f"  problem: {p}" for p in result["problems"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    w = WORKLOADS[args.workload]
    meta = run_metadata(args.seed)
    result = run_workload(w, args.seed, args.seconds, bool(args.trace))
    print("meta " + json.dumps(meta, sort_keys=True))
    print("\n".join(report_lines(result)))
    print(
        json.dumps(
            {
                "correct": result["correct"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": result["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
