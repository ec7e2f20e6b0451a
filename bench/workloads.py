"""The four workloads: their inputs, their queries and each query's check.

A builder runs the whole set-up of a workload (generating, converting and
serialising its games) and returns the queries.  A query is one public call
into gamedim, or one CLI pipeline; its check is an independent test of the
answer (see ``checker``).  Cross checks compare answers of several queries
after a pass.  The seed orders the queries, and in ``cli-pipe`` it also draws
the random games.

``solve-corpus`` and ``lp-ladder`` ask the same questions for every seed.
Their cost depends so much on the exact game that seeded corpora could not
be compared across seeds: 50 games drawn from six seeds took 6.7 to 45.9 s,
and even relabelling the players of the fixed corpus moved a pass from 6.2
to 12.4 s, because Bland's rule pivots in label order.  So ``solve-corpus``
uses the acceptance suite's frozen corpus (the triples below repeat
``RANDOM_CORPUS_SPECS`` from ``tests/conftest.py``).

SSP yes-instances are checked against the codimension 2^(d-1) pinned in
``tests/test_dimension.py``, not against the 2^d that acceptance
criterion 3 asserts; the solver's 2^(d-1) witnesses re-verify exactly.
"""

from __future__ import annotations

import copy
import hashlib
import itertools
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Callable

import checker

CORPUS_SPECS = tuple((3 + i % 6, 2 + i % 5, 1000 + i) for i in range(50))

SRC = Path(__file__).resolve().parent.parent / "src"

# Seconds after which a hung CLI pipeline is killed and counted as failed.
PIPELINE_TIMEOUT = 60


@dataclass
class Query:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    # The part of an answer kept after its check: cross checks read it and
    # traced and untraced runs must agree on it.  Large answers are reduced
    # so that peak memory stays the program's, not the benchmark's.
    key: Callable[[object], object] = lambda answer: answer
    # In-process stand-in for a CLI pipeline, run once in the traced pass.
    replay: Callable[[], object] | None = None


@dataclass
class Workload:
    queries: list[Query]
    # (label of the query to blame, check over {label: key}) run after a pass.
    cross: list[tuple[str, Callable[[dict], str | None]]] = field(default_factory=list)
    # Texts of the serialised inputs; their digest identifies the inputs.
    texts: list[str] = field(default_factory=list)

    def digest(self) -> str:
        h = hashlib.sha256()
        for text in self.texts:
            h.update(text.encode())
        return h.hexdigest()


def _witness_key(w):
    return (w.value, w.kind, w.parts)


def _explicit_of(gd, game):
    return gd.make_explicit(game.n, list(gd.minimal_winning(game)))


def _subsets(gd, n, size):
    return [gd.Coalition.from_players(c, n) for c in itertools.combinations(range(1, n + 1), size)]


# --------------------------------------------------------------- solve-corpus


def build_solve_corpus(gd, seed, tiny=False):
    specs = CORPUS_SPECS[:3] if tiny else CORPUS_SPECS
    dims = (2,) if tiny else (2, 3, 4, 5)
    codims = (2,) if tiny else (2, 3, 4)
    ssp_ds = (2,) if tiny else (2, 3)
    queries, cross, texts = [], [], []

    # Functions are looked up on the package at call time, so that the
    # tracer's wrappers see the calls.
    def witness_query(label, fn, game, table, value=None):
        queries.append(
            Query(
                label,
                lambda: getattr(gd, fn)(game),
                lambda w: checker.check_witness(w, table, value),
                _witness_key,
            )
        )

    def weighted_query(label, game, table):
        queries.append(
            Query(label, lambda: gd.is_weighted(game), lambda p: checker.check_weighted(p, table))
        )

    for i, (n, m, s) in enumerate(specs):
        game = gd.gen_random_monotone(n, m, s)
        dual = gd.dual(game)
        texts += [gd.serialize_game(game), gd.serialize_game(dual)]
        table = checker.closure_table([c.members >> 1 for c in game.antichain], n)
        tag = f"random-{i:02d}"
        witness_query(f"dim/{tag}", "dimension", game, table)
        witness_query(f"codim/{tag}", "codimension", game, table)
        witness_query(f"codim-dual/{tag}", "codimension", dual, checker.dual_table(table))
        queries.append(
            Query(
                f"weighted/{tag}",
                lambda g=game: gd.is_weighted(g),
                lambda p, t=table: None if p is None else checker.check_weighted(p, t),
            )
        )
        cross.append((f"codim-dual/{tag}", _same_value(f"dim/{tag}", f"codim-dual/{tag}")))
        cross.append((f"weighted/{tag}", _weighted_iff_dim_one(f"weighted/{tag}", f"dim/{tag}")))

    for n in sorted(set(dims) | set(codims)):
        game = gd.gen_example1(n)
        texts.append(gd.serialize_game(game))
        table = checker.example1_table(n)
        if n in dims:
            witness_query(f"dim/example1-{n}", "dimension", game, table, n)
        if n in codims:
            witness_query(f"codim/example1-{n}", "codimension", game, table, 2 ** (n - 1))

    for d in ssp_ds:
        for kind, (b, a) in (("yes", (3, (1, 2, 3))), ("no", (2, (5, 7)))):
            game = gd.gen_ssp(gd.SSPInstance(b, a, d))
            texts.append(gd.serialize_game(game))
            tag = f"ssp-{kind}-{d}"
            if kind == "yes":
                table = checker.ssp_table(b, a, d)
                witness_query(f"dim/{tag}", "dimension", game, table, d)
                witness_query(f"codim/{tag}", "codimension", game, table, 2 ** (d - 1))
                weighted_query(f"weighted/{tag}", game, None)
            else:
                # A no-instance collapses to the weighted game [b+1; a, 0..0].
                table = checker.part_table(b + 1, list(a) + [0] * (2 * d))
                witness_query(f"dim/{tag}", "dimension", game, table, 1)
                witness_query(f"codim/{tag}", "codimension", game, table, 1)
                weighted_query(f"weighted/{tag}", game, table)

    random.Random(seed).shuffle(queries)
    return Workload(queries, cross, texts)


def _same_value(first, second):
    def check(answers):
        a, b = answers.get(first), answers.get(second)
        if a is None or b is None:
            return None  # the failed query is already counted
        if a[0] != b[0]:
            return f"dim {a[0]} != codim of dual {b[0]}"
        return None

    return check


def _weighted_iff_dim_one(weighted, dim):
    def check(answers):
        if weighted not in answers or dim not in answers:
            return None
        part, (value, _, _) = answers[weighted], answers[dim]
        if (part is not None) != (value == 1):
            return f"is_weighted {part!r} disagrees with dimension {value}"
        return None

    return check


# ------------------------------------------------------------------ lp-ladder


def _majority(gd, n):
    return gd.make_explicit(n, _subsets(gd, n, n // 2 + 1))


def _majority_and_ladder(gd, n):
    """[n/2+1; 1..1] intersected with [n; 1, 2, .., n]."""
    parts = [gd.make_weighted(n // 2 + 1, [1] * n), gd.make_weighted(n, range(1, n + 1))]
    return _explicit_of(gd, gd.combine(gd.INTERSECTION, parts))


def _majority_with_trade(gd, n):
    """Majority plus the two halves {1..h} and {h+1..2h} as winning.

    Not weighted: the halves win, while {1..h-1, h+1} and {h, h+2..2h}
    lose and hold the same players.
    """
    h = n // 2
    extra = [gd.Coalition.from_players(range(1, h + 1), n),
             gd.Coalition.from_players(range(h + 1, 2 * h + 1), n)]
    return gd.make_explicit(n, _subsets(gd, n, n // 2 + 1) + extra, gd.ARBITRARY_WINNING)


def _two_halves(gd, n):
    """A majority of {1..n/2} and a majority of the rest; not weighted."""
    h = n // 2
    q = h // 2 + 1
    parts = [gd.make_weighted(q, [1] * h + [0] * (n - h)), gd.make_weighted(q, [0] * h + [1] * (n - h))]
    return _explicit_of(gd, gd.combine(gd.INTERSECTION, parts))


def build_lp_ladder(gd, seed, tiny=False):
    # Feasible games are checked against their closed-form win rule,
    # infeasible ones must be refused.
    def majority_rule(n):
        return [s.bit_count() >= n // 2 + 1 for s in range(1 << n)]

    def ladder_rule(n):
        weights = checker.weight_table(range(1, n + 1))
        return [s.bit_count() >= n // 2 + 1 and weights[s] >= n for s in range(1 << n)]

    rungs = [
        ("majority", _majority, majority_rule, (6, 7, 8)),
        ("majority-ladder", _majority_and_ladder, ladder_rule, (6, 7, 8)),
        ("majority-trade", _majority_with_trade, None, (6, 7, 8)),
        ("two-halves", _two_halves, None, (8, 10)),
        ("example1", lambda gd, n: _explicit_of(gd, gd.gen_example1(n)), None, (6, 7)),
    ]
    if tiny:
        rungs = [("majority", _majority, majority_rule, (4,)), ("majority-trade", _majority_with_trade, None, (4,))]
    queries, texts = [], []
    for name, build, rule, sizes in rungs:
        for n in sizes:
            game = build(gd, n)
            texts.append(gd.serialize_game(game))
            table = rule(n) if rule else None
            queries.append(
                Query(
                    f"weighted/{name}-{n}",
                    lambda g=game: gd.is_weighted(g),
                    lambda p, t=table: checker.check_weighted(p, t),
                )
            )
    random.Random(seed).shuffle(queries)
    return Workload(queries, [], texts)


# -------------------------------------------------------------------- enum-io


def _without_table(game):
    """A copy of the game without its cached truth table."""
    fresh = copy.copy(game)
    vars(fresh).pop("truth_table", None)
    return fresh


def build_enum_io(gd, seed, tiny=False):
    rng = random.Random(seed)
    io_sizes = (6, 7) if tiny else (12, 14)
    redundant_n = 6 if tiny else 13
    extremal_sizes = (8,) if tiny else (20, 22)
    queries, texts = [], []
    games = {}
    for n in io_sizes:
        k = n // 2 + 1
        game = games[n] = _majority(gd, n)
        text = gd.serialize_game(game)
        texts.append(text)
        queries.append(
            Query(
                f"parse/majority-{n}",
                lambda t=text: gd.parse_game(t),
                lambda g, n=n, k=k: checker.check_subsets(g.antichain, n, k, comb(n, k)),
                lambda g: g.antichain,
            )
        )
        expected = "".join(
            ["simplegame 1\n", f"players {n}\n", "form explicit\n"]
            + [
                "win " + "".join("1" if s >> j & 1 else "0" for j in range(n)) + "\n"
                for s in sorted(sum(1 << (p - 1) for p in c) for c in itertools.combinations(range(1, n + 1), k))
            ]
        )
        queries.append(
            Query(
                f"serialize/majority-{n}",
                lambda g=game: gd.serialize_game(g),
                lambda t, e=expected: None if t == e else "serialised text differs",
            )
        )

    n = redundant_n
    k = n // 2 + 1
    redundant = _subsets(gd, n, k) + _subsets(gd, n, k + 1)
    rng.shuffle(redundant)
    queries.append(
        Query(
            f"make-explicit/redundant-{n}",
            lambda n=n: gd.make_explicit(n, redundant, gd.ARBITRARY_WINNING),
            lambda g, n=n, k=k: checker.check_subsets(g.antichain, n, k, comb(n, k)),
            lambda g: g.antichain,
        )
    )

    for n in extremal_sizes:
        k = n // 2 + 1
        part = gd.make_weighted(k, [1] * n)
        queries.append(
            Query(
                f"extremal/majority-{n}",
                lambda p=part: gd.extremal_sets(gd.SimpleGame.from_weighted(p)),
                lambda e, n=n, k=k: checker.check_subsets(e.minimal_winning, n, k, comb(n, k))
                or checker.check_subsets(e.maximal_losing, n, k - 1, comb(n, k - 1)),
                lambda e: (len(e.minimal_winning), len(e.maximal_losing)),
            )
        )

    n = io_sizes[-1]
    k = n // 2 + 1
    game = games[n]
    queries.append(
        Query(
            f"dual/majority-{n}",
            lambda: gd.dual(_without_table(game)),
            # The dual of "at least k of n" is "at least n-k+1 of n".
            lambda g: checker.check_subsets(g.antichain, n, n - k + 1, comb(n, k - 1)),
            lambda g: g.antichain,
        )
    )
    weighted = gd.make_weighted(k, [1] * n)
    queries.append(
        Query(
            f"equivalent/majority-{n}",
            lambda: gd.equivalent(_without_table(game), gd.SimpleGame.from_weighted(weighted)),
            lambda same: None if same is True else "explicit and weighted majority differ",
        )
    )
    rng.shuffle(queries)
    return Workload(queries, [], texts)


# ------------------------------------------------------------------- cli-pipe


def _cli(*argv):
    return [sys.executable, "-c", "from gamedim.cli import main; main()", *argv]


def cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_pipeline(producer, consumer, stdin_text=None):
    """``producer | consumer`` as two CLI processes; returns (codes, stdout).

    Both processes have ended when this returns, also when it raises.
    """
    env = cli_env()
    first = subprocess.Popen(
        _cli(*producer),
        stdin=subprocess.PIPE if stdin_text is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=env,
    )
    processes = [first]
    try:
        second = subprocess.Popen(_cli(*consumer), stdin=first.stdout, stdout=subprocess.PIPE, env=env)
        processes.append(second)
        first.stdout.close()
        if stdin_text is not None:
            first.stdin.write(stdin_text.encode())
            first.stdin.close()
        out, _ = second.communicate(timeout=PIPELINE_TIMEOUT)
        first.wait(timeout=PIPELINE_TIMEOUT)
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    return (first.returncode, second.returncode), out.decode()


def replay_pipeline(gd_cli, producer, consumer, stdin_text=None):
    """The same pipeline through ``cli.run`` in this process."""
    import io

    middle = io.StringIO()
    first = gd_cli.run(list(producer), stdin=io.StringIO(stdin_text or ""), stdout=middle)
    out = io.StringIO()
    second = gd_cli.run(list(consumer), stdin=io.StringIO(middle.getvalue()), stdout=out)
    return (first, second), out.getvalue()


def _check_report(label, table, value=None):
    def check(answer):
        codes, text = answer
        if codes != (0, 0):
            return f"exit codes {codes}"
        header, parts = checker.parse_report(text)
        if label == "weighted":
            if header != ["weighted"] or len(parts) != 1:
                return f"unexpected report {text!r}"
            return None if checker.part_table(*parts[0]) == table else "part does not represent the game"
        if len(header) != 2 or header[0] != label:
            return f"unexpected report {text!r}"
        got = int(header[1])
        if value is not None and got != value:
            return f"{label} {got}, expected {value}"
        if got != len(parts):
            return f"{label} {got} but {len(parts)} parts"
        kind = "intersection" if label == "dimension" else "union"
        return None if checker.combined_table(parts, kind) == table else "parts do not recombine"

    return check


def build_cli_pipe(gd, seed, tiny=False):
    import gamedim.cli as gd_cli

    stream = gd.splitmix64(seed)
    n, m, game_seed = 5, 3, next(stream)
    game = gd.gen_random_monotone(n, m, game_seed)
    other = gd.gen_random_monotone(n, m, next(stream))
    other_text = gd.serialize_game(other)
    example = gd.gen_example1(3)
    ssp = gd.gen_ssp(gd.SSPInstance(2, (5, 7), 2))
    texts = [gd.serialize_game(g) for g in (game, example, ssp)] + [other_text]
    pipelines = [
        ("example1-dim", ["gen", "example1", "--n", "3"], ["dim"], None,
         _check_report("dimension", checker.example1_table(3), 3)),
        ("ssp-weighted", ["gen", "ssp", "--b", "2", "--a", "5,7", "--d", "2"], ["weighted"], None,
         _check_report("weighted", checker.part_table(3, [5, 7, 0, 0, 0, 0]))),
        ("random-codim", ["gen", "random", "--n", str(n), "--m", str(m), "--seed", str(game_seed)],
         ["codim"], None,
         _check_report("codimension", checker.closure_table([c.members >> 1 for c in game.antichain], n))),
        ("random-dual-codim", ["dual"], ["codim"], other_text,
         _check_report("codimension", checker.dual_table(
             checker.closure_table([c.members >> 1 for c in other.antichain], n)))),
    ]
    if tiny:
        pipelines = pipelines[:1]
    queries = [
        Query(
            f"pipe/{label}",
            lambda p=producer, c=consumer, t=text: run_pipeline(p, c, t),
            check,
            replay=lambda p=producer, c=consumer, t=text: replay_pipeline(gd_cli, p, c, t),
        )
        for label, producer, consumer, text, check in pipelines
    ]
    random.Random(seed).shuffle(queries)
    return Workload(queries, [], texts)


BUILDERS = {
    "solve-corpus": build_solve_corpus,
    "lp-ladder": build_lp_ladder,
    "enum-io": build_enum_io,
    "cli-pipe": build_cli_pipe,
}
