"""Experiment driver: build problems from a config file, run solver
variants, and write machine-readable iteration traces.

Config files are INI-style.  A minimal example::

    [problem]
    type = convection_diffusion
    d = 4
    n = 34

    [solver]
    type = tt_sgmres
    maxit = 80
    tol = 1e-8
    ell = 1

    [output]
    csv = run.csv
    track_true_residual = false

Each section maps onto one library type; a key that is not set keeps the
library's default, and a section or key not listed here is an error:

* ``[problem]``: ``type`` picks ``ConvectionDiffusionSpec``
  (``convection_diffusion``) or ``MarkovSpec`` (``markov_chain``); every
  scalar field of that dataclass is a key, and ``d`` and ``n`` are required.
* ``[solver]``: ``type`` names the variant; every field of ``SolverConfig``
  is a key, except ``track_true_residual``, which lives in ``[output]``.
  The solver frame's oversampling is not a key: it is fixed
  (``solvers.FRAME_OVERSAMPLING``).
* ``[preconditioner]``: ``type = expsum`` with ``zeta`` and, optionally,
  ``max_rank`` (default: the solver's), passed to
  ``ExpSumPreconditioner.from_kron_sum`` with the solver's ``eta * tol``
  as its tolerance and the solve seed + 7 as its stream seed;
  ``tt_spgmres`` needs it.
* ``[output]``: ``csv`` (the ``solve`` trace file name) and
  ``track_true_residual``.
* ``[compare]``: ``variants``, and ``[sweep]``: ``axis`` and ``values``,
  for the subcommands below.

Subcommands: ``ttk solve``, ``ttk compare`` (a [compare] section lists
variants), ``ttk sweep`` (a [sweep] section gives axis and values).
``--maxit``, ``--tol``, ``--seed`` and ``--track-true-residual`` override
the config.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import os
import sys
import time
import typing

from .precond import ExpSumPreconditioner
from .problems import (
    ConvectionDiffusionSpec,
    MarkovSpec,
    cd_factor_matrices,
    convection_diffusion,
    markov_chain,
    markov_factor_matrices,
)
from .sketch import kr_sketch_new
from .solvers import (
    PHASES,
    SolverConfig,
    tt_gmres,
    tt_sgmres,
    tt_sgmres_vanilla,
    tt_spgmres,
)
from .tt import RoundSpec


class ConfigError(Exception):
    pass


CSV_HEADER = ["iter", "res_sketched", "res_true", "max_rank"] + [f"t_{p}" for p in PHASES]
TABLE_HEADER = [
    "axis", "value", "variant", "time", "iterations",
    "peak_rank", "kept_mb", "res_sketched", "res_true", "converged",
]
SOLVER_NAMES = ("tt_gmres", "tt_sgmres_vanilla", "tt_sgmres", "tt_spgmres")
PROBLEMS = {
    "convection_diffusion": (ConvectionDiffusionSpec, convection_diffusion, cd_factor_matrices),
    "markov_chain": (MarkovSpec, markov_chain, markov_factor_matrices),
}


def _get(cp, section, key, conv=str, default=None, required=False):
    raw = cp.get(section, key, fallback="").strip()
    if raw == "":
        if required:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        return conv(raw)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"bad value for key '{key}': {raw}") from exc


def _bool(raw):
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


_CONVERTERS = {int: int, float: float, str: str, bool: _bool}
# [solver] fields that are set from another section
_SOLVER_SKIP = ("track_true_residual",)
# the keys of the sections that no library dataclass describes
_PLAIN_KEYS = {
    "preconditioner": {"type", "zeta", "max_rank"},
    "output": {"csv", "track_true_residual"},
    "compare": {"variants"},
    "sweep": {"axis", "values"},
}


def _key_fields(cls, skip=()):
    """The (field, converter) pairs of dataclass ``cls`` that config keys
    set: every scalar field not in ``skip``."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        conv = _CONVERTERS.get((typing.get_args(hints[f.name]) or (hints[f.name],))[0])
        if conv is not None and f.name not in skip:
            yield f, conv


def _fields_from(cls, cp, section, skip=()):
    """Keyword arguments for dataclass ``cls`` from the keys set in
    ``section``: one key per scalar field, required when it has no default."""
    kwargs = {}
    for f, conv in _key_fields(cls, skip):
        value = _get(cp, section, f.name, conv, required=f.default is dataclasses.MISSING)
        if value is not None:
            kwargs[f.name] = value
    return kwargs


def _check_keys(cp):
    """Reject a section or key that no part of ``ttk`` reads."""
    allowed = dict(_PLAIN_KEYS)
    allowed["problem"] = {"type"} | {f.name for f, _ in _key_fields(_problem(cp)[0])}
    allowed["solver"] = {"type"} | {f.name for f, _ in _key_fields(SolverConfig, _SOLVER_SKIP)}
    for section in cp.sections():
        if section not in allowed:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in allowed[section]:
                raise ConfigError(f"unknown key '{key}' in [{section}]")


def _construct(cls, kwargs, what):
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid {what} configuration: {exc}") from exc


def parse_config(path):
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc
    if "problem" not in cp:
        raise ConfigError("missing [problem] section")
    if "solver" not in cp:
        raise ConfigError("missing [solver] section")
    _check_keys(cp)
    return cp


def _problem(cp):
    """The (spec class, builder, factor matrices) named by [problem] type."""
    kind = _get(cp, "problem", "type", required=True)
    if kind not in PROBLEMS:
        raise ConfigError(f"unknown problem type '{kind}'")
    return PROBLEMS[kind]


def build_problem(cp):
    """The (operator, rhs, factor matrices) of the [problem] section."""
    spec_cls, build, factor_matrices = _problem(cp)
    spec = _construct(spec_cls, _fields_from(spec_cls, cp, "problem"), "problem")
    op, rhs = build(spec)
    return op, rhs, factor_matrices(spec)


def build_solver_config(cp, overrides):
    kwargs = _fields_from(SolverConfig, cp, "solver", skip=_SOLVER_SKIP)
    for key in ("maxit", "tol", "seed"):
        if getattr(overrides, key) is not None:
            kwargs[key] = getattr(overrides, key)
    track = _get(cp, "output", "track_true_residual", _bool)
    if track or overrides.track_true_residual:
        kwargs["track_true_residual"] = True
    return _construct(SolverConfig, kwargs, "solver")


def build_preconditioner(cp, factors, cfg):
    kind = _get(cp, "preconditioner", "type")
    if kind in (None, "none"):
        return None
    if kind != "expsum":
        raise ConfigError(f"unknown preconditioner type '{kind}'")
    zeta = _get(cp, "preconditioner", "zeta", int, required=True)
    cap = _get(cp, "preconditioner", "max_rank", int, cfg.max_rank)
    spec = RoundSpec(cfg.eta * cfg.tol, cap)
    return ExpSumPreconditioner.from_kron_sum(factors, zeta, spec, stream_seed=cfg.seed + 7)


def run_variant(name, cp, overrides, problem=None):
    """Run one solver variant from x0 = 0; returns (report, wall seconds).

    For the solve seed s the Khatri-Rao sketch is drawn with seed s, the
    solvers draw the recovery frame with seed s+1 and the preconditioner's
    frames come from seed s+7.  The wall time includes the preconditioner
    set-up.
    """
    if name not in SOLVER_NAMES:
        raise ConfigError(f"unknown solver name '{name}'")
    cfg = build_solver_config(cp, overrides)
    op, rhs, factors = problem if problem is not None else build_problem(cp)
    t0 = time.perf_counter()
    if name == "tt_gmres":
        _, report = tt_gmres(op, rhs, None, cfg)
    else:
        sketch = kr_sketch_new(rhs.dims, cfg.sketch_rows, seed=cfg.seed)
        if name == "tt_spgmres":
            precond = build_preconditioner(cp, factors, cfg)
            if precond is None:
                raise ConfigError("tt_spgmres requires an expsum [preconditioner]")
            _, report = tt_spgmres(op, precond, rhs, None, cfg, sketch)
        else:
            solver = tt_sgmres if name == "tt_sgmres" else tt_sgmres_vanilla
            _, report = solver(op, rhs, None, cfg, sketch)
    return report, time.perf_counter() - t0


def write_trace(path, report):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for i in range(report.iterations):
            true_val = "" if report.res_true is None else f"{report.res_true[i]:.17g}"
            writer.writerow(
                [i + 1, f"{report.res_sketched[i]:.17g}", true_val, report.basis_rank[i]]
                + [f"{report.times[p][i]:.6g}" for p in PHASES]
            )


def summary_line(name, report, wall):
    final_true = ""
    if report.res_true:
        final_true = f" res_true={report.res_true[-1]:.3e}"
    return (
        f"{name}: iterations={report.iterations} converged={report.converged} "
        f"res_sketched={report.res_sketched[-1]:.3e}{final_true} "
        f"peak_rank={report.peak_rank} wall={wall:.2f}s"
    )


def _out_dir(args):
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    return out_dir


def run_table(cp, args, table, axis=None, values=(None,), traces=False):
    """Run every variant at every point and write one row per run to
    ``<table>.csv`` (columns ``TABLE_HEADER``; ``kept_mb`` is the report's
    ``kept_mb``); returns whether every run converged.

    The variants are the [compare] list, else the [solver] type.  Without
    an axis the config itself is the only point.  With ``traces`` each
    run's iteration trace goes to ``<variant>.csv``.  Each run's warnings
    are printed after its summary line.
    """
    if "compare" in cp:
        variants = [v.strip() for v in _get(cp, "compare", "variants", required=True).split(",")]
        if not all(variants):
            raise ConfigError("empty variant list")
    else:
        variants = [_get(cp, "solver", "type", required=True)]
    out_dir = _out_dir(args)
    rows = []
    for value in values:
        point = cp
        if axis is not None:
            point = configparser.ConfigParser()
            point.read_dict({s: dict(cp[s]) for s in cp.sections()})
            if axis == "max_rank":
                point["solver"]["max_rank"] = "" if value in ("none", "inf") else value
            else:
                point["problem"][axis] = value
        problem = build_problem(point)
        prefix = "" if axis is None else f"{axis}={value} "
        for name in variants:
            report, wall = run_variant(name, point, args, problem=problem)
            if traces:
                write_trace(os.path.join(out_dir, f"{name}.csv"), report)
            print(prefix + summary_line(name, report, wall))
            for w in report.warnings:
                print(f"warning: {w}")
            final_true = f"{report.res_true[-1]:.6e}" if report.res_true else ""
            rows.append([
                axis or "", value or "", name, f"{wall:.4f}", report.iterations,
                report.peak_rank, f"{report.kept_mb:.4f}", f"{report.res_sketched[-1]:.6e}",
                final_true, report.converged,
            ])
    path = os.path.join(out_dir, f"{table}.csv")
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TABLE_HEADER)
        writer.writerows(rows)
    print(f"{table} written to {path}")
    return all(row[-1] for row in rows)


def cmd_solve(args):
    cp = parse_config(args.config)
    solver = _get(cp, "solver", "type", required=True)
    report, wall = run_variant(solver, cp, args)
    path = os.path.join(_out_dir(args), _get(cp, "output", "csv") or "trace.csv")
    write_trace(path, report)
    print(summary_line(solver, report, wall))
    print(f"trace written to {path}")
    for w in report.warnings:
        print(f"warning: {w}")
    return 0 if report.converged else 2


def cmd_compare(args):
    cp = parse_config(args.config)
    if "compare" not in cp:
        raise ConfigError("missing [compare] section")
    return 0 if run_table(cp, args, "summary", traces=True) else 2


def cmd_sweep(args):
    cp = parse_config(args.config)
    if "sweep" not in cp:
        raise ConfigError("missing [sweep] section")
    axis = _get(cp, "sweep", "axis", required=True)
    if axis not in ("d", "n", "max_rank"):
        raise ConfigError(f"sweep axis must be d, n or max_rank, got '{axis}'")
    values = [v.strip() for v in _get(cp, "sweep", "values", required=True).split(",") if v.strip()]
    if not values:
        raise ConfigError("empty sweep value list")
    run_table(cp, args, "sweep", axis, values)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="ttk", description="tensor-train sketched GMRES experiment driver"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("solve", cmd_solve), ("compare", cmd_compare), ("sweep", cmd_sweep)):
        p = sub.add_parser(name)
        p.add_argument("config")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out-dir", default=None)
        p.add_argument("--track-true-residual", action="store_true")
        p.add_argument("--maxit", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.set_defaults(fn=fn)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
