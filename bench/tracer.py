"""Spans around calls into gamedim, recorded from outside the package.

Wrappers are installed at the attribute names that callers actually look
up, because several modules import functions by name: ``dimsolver`` holds
its own references to ``extremal_sets`` and ``equivalent``, the CLI holds
its own ``parse_game`` and generators, and ``solve_feasibility`` finds
``verify_certificate`` through the globals of ``lp``.  Patching only the
defining module would miss those calls.  Every patch is undone on exit.

A span is ``[name, start, end, parent, note]``: ``parent`` is the index of
the enclosing span (-1 at the top) and ``note`` holds counts taken from the
call's arguments or result, such as the row count of an LP.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from functools import cached_property

from stats import percentile, tail


class Tracer:
    """In-memory span recorder with reversible monkey patches."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, fn, name, note=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if note is not None:
                spans[index][4] = note(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr, name, note=None):
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        if isinstance(original, cached_property):
            replacement = cached_property(self.wrap(original.func, name, note))
            replacement.__set_name__(owner, attr)
        else:
            replacement = self.wrap(original, name, note)
        setattr(owner, attr, replacement)

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _lp_note(args, result):
    return (len(args[0].constraints), result.feasible)


def _extremal_note(args, result):
    return (len(result.minimal_winning), len(result.maximal_losing))


def _winning_note(args, result):
    return (len(result), 0)


def _losing_note(args, result):
    return (0, len(result))


def _lines_note(args, result):
    return len(args[0].splitlines())


def _sites(gd):
    """(owner, attribute, span name, note) for every lookup site we time."""
    lp, dimsolver, structure = gd.lp, gd.dimsolver, gd.structure
    gamefile, generators, core = gd.gamefile, gd.generators, gd.core
    cli = importlib.import_module("gamedim.cli")
    sites = [
        (lp, "solve_feasibility", "lp.solve", _lp_note),
        (lp, "verify_certificate", "lp.verify", None),
        (dimsolver.SeparabilityOracleCache, "query", "dimsolver.query", None),
        (dimsolver, "extremal_sets", "structure.extremal_sets", _extremal_note),
        (dimsolver, "equivalent", "dimsolver.recombine", None),
        (core.SimpleGame, "truth_table", "core.truth_table", None),
        (core.SimpleGame, "__post_init__", "core.construct", None),
    ]
    for owner in (gd, dimsolver):
        for fn in ("dimension", "codimension", "is_weighted"):
            sites.append((owner, fn, f"dimsolver.{fn}", None))
    for owner in (gd, structure):
        sites.append((owner, "extremal_sets", "structure.extremal_sets", _extremal_note))
        sites.append((owner, "minimal_winning", "structure.extremal_sets", _winning_note))
        sites.append((owner, "maximal_losing", "structure.extremal_sets", _losing_note))
        sites.append((owner, "dual", "structure.dual", None))
    for owner in (gd, gamefile, cli):
        sites.append((owner, "parse_game", "gamefile.parse", _lines_note))
        sites.append((owner, "serialize_game", "gamefile.serialize", None))
    for owner in (gd, generators, cli):
        for fn in ("gen_example1", "gen_ssp", "gen_random_monotone", "gen_unanimity_composition"):
            sites.append((owner, fn, "generators.gen", None))
    for owner in (gd, core, structure, generators, gamefile):
        sites.append((owner, "make_explicit", "core.make_explicit", None))
    return sites


@contextmanager
def traced(gd):
    """Record spans for every call into gamedim made inside the block."""
    tracer = Tracer()
    try:
        for owner, attr, name, note in _sites(gd):
            tracer.patch(owner, attr, name, note)
        yield tracer
    finally:
        tracer.restore()


_DIMSOLVER_OWN = {
    "dimsolver.dimension",
    "dimsolver.codimension",
    "dimsolver.is_weighted",
    "dimsolver.query",
}
_CONSTRUCT = {"core.construct", "core.make_explicit"}


def layer_metrics(spans, setup_spans):
    """Per-layer counts and times from the spans of one traced pass.

    Times named ``*_s`` are inclusive span time unless the name says
    ``self``; a self time is the span's time minus its child spans, summed
    over the layer, so every instant is charged to the innermost span.
    ``structure.dual_s``, ``gamefile.*`` and ``generators.gen_s`` also count
    the traced build of the inputs, where workloads make duals and files.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def total(names, exclusive=False):
        return sum(
            (
                end - start - (child_time[i] if exclusive else 0.0)
                for i, (name, start, end, _, _) in enumerate(spans)
                if name in names
            ),
            0.0,
        )

    solves = [s for s in spans if s[0] == "lp.solve"]
    solve_ms = [(s[2] - s[1]) * 1e3 for s in solves]
    busy = total({"lp.solve"})
    verify = total({"lp.verify"})
    queries = [i for i, s in enumerate(spans) if s[0] == "dimsolver.query"]
    with_lp = {s[3] for s in solves}
    # Dimension separates the maximal losing coalitions, codimension the
    # minimal winning ones; the counts come from the extremal-sets child.
    targets = [0]
    for name, _, _, parent, note in spans:
        if name == "structure.extremal_sets" and parent >= 0:
            owner = spans[parent][0]
            if owner == "dimsolver.dimension":
                targets.append(note[1])
            elif owner == "dimsolver.codimension":
                targets.append(note[0])
    def with_setup(name):
        return sum((s[2] - s[1] for s in setup_spans + spans if s[0] == name), 0.0)

    parse_s = with_setup("gamefile.parse")
    parse_lines = sum(s[4] for s in setup_spans + spans if s[0] == "gamefile.parse")
    return {
        "lp.solves": len(solves),
        "lp.busy_s": busy,
        "lp.verify_s": verify,
        "lp.self_s": busy - verify,
        "lp.rows_total": sum(s[4][0] for s in solves),
        "lp.rows_max": max((s[4][0] for s in solves), default=0),
        "lp.feasible_frac": sum(s[4][1] for s in solves) / len(solves) if solves else 0.0,
        "lp.ms_per_solve.p50": percentile(solve_ms, 50) if solve_ms else 0.0,
        "lp.ms_per_solve.tail": tail(solve_ms)[1] if solve_ms else 0.0,
        "dimsolver.queries": len(queries),
        "dimsolver.cache_hit_frac": (
            sum(1 for i in queries if i not in with_lp) / len(queries) if queries else 0.0
        ),
        "dimsolver.self_s": total(_DIMSOLVER_OWN, exclusive=True),
        "dimsolver.recombine_s": total({"dimsolver.recombine"}),
        "dimsolver.targets_max": max(targets),
        "structure.extremal_s": total({"structure.extremal_sets"}),
        "structure.extremal_coalitions": sum(
            sum(s[4]) for s in spans if s[0] == "structure.extremal_sets"
        ),
        "structure.dual_s": with_setup("structure.dual"),
        "core.truth_table_s": total({"core.truth_table"}),
        "core.construct_s": total(_CONSTRUCT, exclusive=True),
        "gamefile.parse_s": parse_s,
        "gamefile.parse_lines_per_s": parse_lines / parse_s if parse_s else 0.0,
        "gamefile.serialize_s": with_setup("gamefile.serialize"),
        "generators.gen_s": with_setup("generators.gen"),
    }
