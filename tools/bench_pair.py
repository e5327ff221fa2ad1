"""Alternating benchmark runs of this checkout and another, as one record.

Run from the repository root, with a second checkout (for example the parent
commit, unpacked with ``git archive``) at OTHER::

    python3 tools/bench_pair.py OTHER [--workload NAME ...] [--seed N ...]
        [--pairs 10] [--seconds 30] [--what TEXT]

For each workload and seed it runs ``benchmarks/run.py --trace 0`` of OTHER
(the parent) and of this checkout (the change), each run a fresh process,
``--pairs`` times in alternation: the parent goes first in odd pairs, the
change in even ones.  It prints one JSON object, workload name -> record, in
the ``records`` layout of the ``BENCH_*.json`` files:

* ``what``, ``command``, and ``parent``/``change`` with the tree, the
  ``meta`` line and the result line of each side's first run;
* ``pairs``: a ``note``, and per seed (``seed0``, ...) for every end-to-end
  metric of ``BENCHMARK.json`` the per-run values of both sides (pair i at
  index i-1), their medians and quartiles (q1, q3), ``change_won``, the
  number of pairs in which the change was better (lower or higher as the
  metric says), and ``beyond_parent_iqr``, whether the medians differ by
  more than the parent's q3 - q1; then ``correct``, each run's output
  check, and ``same_numbers``, whether ``iterations``, ``sol_rank`` and
  ``res_true_excess`` were equal in every pair.

With OTHER = ``.`` both sides are this checkout: an A/A test.  Its spread
of medians and its won pairs show what the benchmark can resolve on a
workload, and ``same_numbers`` must hold.  Progress goes to standard error.
Nothing is written under either checkout.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# the accuracy columns, which repeat exactly at a fixed seed
SAME_NUMBERS = ("iterations", "sol_rank", "res_true_excess")


def bench_run(tree: Path, workload: str, seed: int, seconds: float):
    """One ``benchmarks/run.py`` process of a tree; returns (meta, result)."""
    cmd = [sys.executable, str(tree / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, cwd=tree)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        sys.exit(f"bench_pair: {' '.join(cmd)} failed:\n{out.stderr}")
    meta = next((json.loads(x[len("meta "):]) for x in lines if x.startswith("meta ")), None)
    return meta, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(runs, metrics):
    """Per-metric values and summary of one seed's runs, a list of
    (parent result, change result) pairs."""
    out = {}
    for name, better in metrics.items():
        vals = {side: [r[i]["metrics"][name]["value"] for r in runs]
                for i, side in enumerate(("parent", "change"))}
        entry = dict(vals)
        if None not in vals["parent"] + vals["change"]:
            sign = 1 if better == "lower" else -1
            med = {side: statistics.median(v) for side, v in vals.items()}
            q = {side: quartiles(v) for side, v in vals.items()}
            entry.update(
                median=med,
                quartiles=q,
                change_won=sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"])),
                beyond_parent_iqr=(abs(med["change"] - med["parent"])
                                   > q["parent"][1] - q["parent"][0]),
            )
        out[name] = entry
    out["correct"] = {side: [r[i]["correct"] for r in runs]
                      for i, side in enumerate(("parent", "change"))}
    out["same_numbers"] = all(
        p["metrics"][k]["value"] == c["metrics"][k]["value"] for p, c in runs for k in SAME_NUMBERS
    )
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("other", type=Path,
                        help="the other checkout (the parent); '.' for an A/A test")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser.add_argument("--workload", nargs="+", choices=names, default=names)
    parser.add_argument("--seed", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--what", default="", help="the change, for the record")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 0 or min(args.seed) < 0:
        parser.error("--pairs must be >= 1, --seconds and --seed non-negative")
    other = args.other.resolve()
    if not (other / "benchmarks" / "run.py").is_file():
        parser.error(f"{other} has no benchmarks/run.py")
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}
    trees = {"parent": other, "change": ROOT}
    shown = {"parent": str(args.other), "change": "."}
    records = {}
    for workload in args.workload:
        first = {}
        pairs = {"note": (
            f"{args.pairs} alternating pairs per seed (parent first in odd pairs), "
            f"--seconds {args.seconds:g}; per-run values, pair i at index i-1"
        )}
        for seed in args.seed:
            runs = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                got = {}
                for side in order:
                    print(f"bench_pair: {workload} seed {seed} pair {i + 1} {side}",
                          file=sys.stderr)
                    got[side] = bench_run(trees[side], workload, seed, args.seconds)
                    first.setdefault(side, {"tree": shown[side], "meta": got[side][0],
                                            "result": got[side][1]})
                runs.append((got["parent"][1], got["change"][1]))
            pairs[f"seed{seed}"] = summarize(runs, metrics)
        records[workload] = {
            "what": args.what,
            "command": (f"python3 benchmarks/run.py --workload {workload} --seed {args.seed[0]} "
                        f"--seconds {args.seconds:g} --trace 0"),
            **first,
            "pairs": pairs,
        }
    print(json.dumps(records, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
