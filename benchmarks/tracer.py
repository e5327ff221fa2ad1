"""Spans around the package's layer functions, for the benchmark's traced run.

Each public layer function is wrapped at every ``ttkrylov`` module attribute
that holds it, because callers look functions up through their own module
(``solvers.tt_round`` and ``streaming.tt_round`` are both the function from
``tt``).  A span records its name, start, end and parent; its self time is
its duration minus that of its child spans.  Spans stay in memory for the
set-up and solve of one traced repetition.

The phase-agreement check also records the intervals the solver's own phase
timer measures (``solvers._PhaseTimer.add``), so that spans can be placed in
the phase that contains them and compared with ``SolveReport.phase_totals()``.
"""

from __future__ import annotations

import bisect
import sys
import time
from contextlib import contextmanager

from ttkrylov import precond, sketch, solvers, streaming, tt

LAYER_FUNCTIONS = (
    (tt, "tt_round"),
    (tt, "tt_dot"),
    (tt, "tt_matvec"),
    (tt, "tt_add"),
    (tt, "tt_scale"),
    (sketch, "kr_apply"),
    (streaming, "stream_sketch"),
    (streaming, "stream_recover"),
    (precond, "expsum_coeffs"),
    (precond, "matrix_exp"),
    (precond, "mode_multiply"),
)
LAYER_METHODS = ((precond.ExpSumPreconditioner, "apply_inverse"),)

# phases whose solver-reported totals the spans must account for
CHECKED_PHASES = ("round", "sketch", "orth")
PHASE_SLACK_REL = 0.10
PHASE_SLACK_ABS = 5e-3

MIB = 1024.0 * 1024.0


def _round_ranks(args, out):
    return max(args[0].ranks), max(out.ranks)


def _pair_bytes(args, out):
    return sum(a.nbytes for a in out.psi) + sum(a.nbytes for a in out.omega)


MEASURES = {"tt_round": _round_ranks, "stream_sketch": _pair_bytes}


class Span:
    __slots__ = ("name", "t0", "t1", "child", "self_s", "parent", "root", "extra")

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


class Tracer:
    """Collects spans while its wrappers are installed."""

    def __init__(self):
        self.spans = []
        self.phase_intervals = []  # (phase, t0, t1), in the order measured
        self._stack = []

    def _open(self, name) -> Span:
        s = Span()
        s.name, s.child, s.extra = name, 0.0, None
        s.parent = self._stack[-1] if self._stack else None
        s.root = self._stack[0] if self._stack else s
        self._stack.append(s)
        s.t0 = time.perf_counter()
        return s

    def _close(self, s: Span) -> None:
        s.t1 = time.perf_counter()
        self._stack.pop()
        s.self_s = s.duration - s.child
        if s.parent is not None:
            s.parent.child += s.duration
        self.spans.append(s)

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield s
        finally:
            self._close(s)

    def _wrap(self, name, fn, measure):
        def wrapper(*args, **kwargs):
            s = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(s)
            if measure is not None:
                s.extra = measure(args, out)
            return out

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the layer functions and the phase timer; undo on exit."""
        modules = [m for k, m in sys.modules.items() if k == "ttkrylov" or k.startswith("ttkrylov.")]
        patches = []
        try:
            for mod, fname in LAYER_FUNCTIONS:
                orig = getattr(mod, fname)
                name = f"{mod.__name__.rsplit('.', 1)[-1]}.{fname}"
                wrapper = self._wrap(name, orig, MEASURES.get(fname))
                for m in modules:
                    if getattr(m, fname, None) is orig:
                        patches.append((m, fname, orig))
                        setattr(m, fname, wrapper)
            for cls, meth in LAYER_METHODS:
                orig = getattr(cls, meth)
                patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(f"precond.{meth}", orig, None))
            timer_add = solvers._PhaseTimer.add
            intervals = self.phase_intervals

            def add(timer, phase, t0):
                intervals.append((phase, t0, time.perf_counter()))
                return timer_add(timer, phase, t0)

            patches.append((solvers._PhaseTimer, "add", timer_add))
            solvers._PhaseTimer.add = add
            yield self
        finally:
            for owner, attr, orig in reversed(patches):
                setattr(owner, attr, orig)

    def under(self, root: Span):
        return [s for s in self.spans if s.root is root and s is not root]


def layer_figures(tr: Tracer, setup: Span, solve: Span) -> dict:
    """Per-layer figures of one traced set-up plus solve."""
    calls, self_s = {}, {}
    rank_in, keep, pair_bytes = [], [], 0
    for s in tr.under(setup) + tr.under(solve):
        calls[s.name] = calls.get(s.name, 0) + 1
        self_s[s.name] = self_s.get(s.name, 0.0) + s.self_s
        if s.name == "tt.tt_round":
            rank_in.append(s.extra[0])
            keep.append(s.extra[1] / s.extra[0])
        elif s.name == "streaming.stream_sketch" and s.parent is solve:
            pair_bytes += s.extra  # pairs the solver keeps for recovery
    fig = {}
    for name, with_calls in (
        ("tt.tt_round", True),
        ("tt.tt_dot", True),
        ("tt.tt_matvec", True),
        ("tt.tt_add", False),
        ("sketch.kr_apply", True),
        ("streaming.stream_sketch", True),
        ("streaming.stream_recover", True),
        ("precond.expsum_coeffs", False),
        ("precond.matrix_exp", True),
        ("precond.apply_inverse", True),
        ("precond.mode_multiply", False),
        ("problems.build", False),
    ):
        if with_calls:
            fig[f"{name}.calls"] = calls.get(name, 0)
        fig[f"{name}.self_s"] = self_s.get(name, 0.0)
    fig["tt.tt_round.rank_in"] = sum(rank_in) / len(rank_in) if rank_in else 0.0
    fig["tt.tt_round.keep"] = sum(keep) / len(keep) if keep else 0.0
    fig["streaming.pairs_mb"] = pair_bytes / MIB
    return fig


def stage_share(tr: Tracer, stage: Span, quantity: str, report) -> float:
    """Share of a stage's time taken by a solver phase or a layer function."""
    if quantity.startswith("phase."):
        part = report.phase_totals()[quantity[len("phase."):]]
    else:
        part = sum(s.duration for s in tr.under(stage) if s.name == quantity)
    return part / stage.duration


def phase_agreement(tr: Tracer, solve: Span, report) -> list:
    """Compare the solver's phase totals with the spans inside each phase.

    Returns a list of problems; empty when, for every checked phase, the
    layer calls the solver makes inside that phase's intervals account for
    the phase total within PHASE_SLACK_REL (plus PHASE_SLACK_ABS seconds).
    """
    totals = report.phase_totals()
    tops = [s for s in tr.spans if s.parent is solve]
    problems = []
    for phase in CHECKED_PHASES:
        intervals = [(t0, t1) for p, t0, t1 in tr.phase_intervals if p == phase]
        measured = sum(t1 - t0 for t0, t1 in intervals)
        if abs(measured - totals[phase]) > PHASE_SLACK_ABS:
            problems.append(
                f"phase {phase}: timer intervals sum to {measured:.4f} s but the report says {totals[phase]:.4f} s"
            )
            continue
        starts = [t0 for t0, _ in intervals]
        covered = 0.0
        for s in tops:
            i = bisect.bisect_right(starts, s.t0) - 1
            if i >= 0 and s.t1 <= intervals[i][1]:
                covered += s.duration
        if abs(totals[phase] - covered) > PHASE_SLACK_REL * totals[phase] + PHASE_SLACK_ABS:
            problems.append(
                f"phase {phase}: layer spans cover {covered:.4f} s of the reported {totals[phase]:.4f} s"
            )
    return problems
