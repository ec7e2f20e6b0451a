"""Shared corpus fixtures and independent brute-force oracles.

The oracles deliberately avoid the package's truth-table and enumeration
machinery: they re-evaluate games by directly applying the representation
rules, so library bugs cannot hide on both sides of an assertion.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys

import pytest

import gamedim as gd

# Frozen (n, m, seed) triples for the 50-game random corpus used by the
# acceptance suite; all stay within the solver's 32-target cap.
RANDOM_CORPUS_SPECS = tuple((3 + i % 6, 2 + i % 5, 1000 + i) for i in range(50))


def fresh_python(*args, stdin_text=None):
    """Run a new interpreter that imports this checkout's gamedim."""
    src = os.path.dirname(os.path.dirname(gd.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        input=stdin_text,
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )


def fresh_eval(code, expr, stdin_text=None):
    """``expr`` after running ``code`` in a new interpreter, read back as a literal."""
    proc = fresh_python("-c", f"{code}\nprint(repr({expr}))", stdin_text=stdin_text)
    assert proc.returncode == 0, proc.stderr
    return ast.literal_eval(proc.stdout.splitlines()[-1])


def all_coalitions(n):
    for compact in range(1 << n):
        yield gd.Coalition(compact << 1, n)


def eval_by_hand(game, coalition):
    """Winning test straight from the representation rules, no library dispatch."""
    members = set(coalition.players)
    if game.form == gd.EXPLICIT:
        return any(set(c.players) <= members for c in game.antichain)
    part_wins = [
        sum(p.weights[j - 1] for j in members) >= p.quota for p in game.parts
    ]
    if game.form == gd.WEIGHTED:
        return part_wins[0]
    if game.form == gd.INTERSECTION:
        return all(part_wins)
    return any(part_wins)


def winning_masks_by_hand(game):
    return {
        c.members for c in all_coalitions(game.n) if eval_by_hand(game, c)
    }


def naive_minimal_winning(game):
    wins = winning_masks_by_hand(game)
    return {
        m for m in wins if not any(s != m and s & ~m == 0 for s in wins)
    }


def naive_maximal_losing(game):
    losing = {
        c.members for c in all_coalitions(game.n) if not eval_by_hand(game, c)
    }
    return {
        m for m in losing if not any(s != m and m & ~s == 0 for s in losing)
    }


def games_agree_by_hand(g1, g2):
    return g1.n == g2.n and winning_masks_by_hand(g1) == winning_masks_by_hand(g2)


def all_partitions(items):
    """Every set partition of ``items`` (Bell-number many; keep inputs small)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for smaller in all_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield smaller + [[first]]


def exhaustive_dimension(game):
    """Minimum over all partitions of the maximal losing antichain (independent
    of the solver's search); only sensible for small antichains."""
    sets = gd.extremal_sets(game)
    targets = list(sets.maximal_losing)
    mwc = list(sets.minimal_winning)
    memo = {}

    def block_ok(block):
        key = frozenset(block)
        if key not in memo:
            memo[key] = gd.co_realizable(mwc, [targets[i] for i in block]) is not None
        return memo[key]

    return _least_feasible_partition(len(targets), block_ok)


def _least_feasible_partition(count, block_ok):
    best = count
    for partition in all_partitions(list(range(count))):
        if len(partition) < best and all(block_ok(b) for b in partition):
            best = len(partition)
    return best


def _union_part_exists(n, losing, winning):
    """Whether one weighted game [q; w] loses on every coalition of ``losing``
    and wins on every one of ``winning``, decided by an LP built here in the
    union orientation: q - w(L) >= 1, w(A) - q >= 0, q >= 1, w(N) - q >= 0."""

    def row(coalition, sign, rhs):
        coeffs = tuple(sign * int(j in coalition) for j in range(1, n + 1)) + (-sign,)
        return gd.Constraint(coeffs, rhs)

    rows = [row(c, -1, 1) for c in losing]
    rows += [row(c, 1, 0) for c in winning]
    rows.append(gd.Constraint((0,) * n + (1,), 1))
    rows.append(gd.Constraint((1,) * n + (-1,), 0))
    program = gd.LinearProgram(n + 1, rows)
    return gd.solve_feasibility(program).feasible


def exhaustive_codimension(game):
    """Minimum over all partitions of the minimal winning antichain, each block
    decided by :func:`_union_part_exists` rather than by the package's
    separation oracle; only sensible for small antichains."""
    sets = gd.extremal_sets(game)
    targets = list(sets.minimal_winning)
    mlc = list(sets.maximal_losing)
    memo = {}

    def block_ok(block):
        key = frozenset(block)
        if key not in memo:
            memo[key] = _union_part_exists(game.n, mlc, [targets[i] for i in block])
        return memo[key]

    return _least_feasible_partition(len(targets), block_ok)


@pytest.fixture(scope="session")
def random_corpus():
    return [gd.gen_random_monotone(n, m, seed) for n, m, seed in RANDOM_CORPUS_SPECS]


@pytest.fixture(scope="session")
def random_sweep():
    """Random games at n = 4..10 from 3, 5 and 7 seed coalitions, seeds 2000-2009."""
    return [
        gd.gen_random_monotone(n, m, seed)
        for n in range(4, 11)
        for m in (3, 5, 7)
        for seed in range(2000, 2010)
    ]


@pytest.fixture(scope="session")
def ssp_games():
    return {
        "yes2": gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2)),
        "yes3": gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 3)),
        "no2": gd.gen_ssp(gd.SSPInstance(2, (5, 7), 2)),
        "no3": gd.gen_ssp(gd.SSPInstance(2, (5, 7), 3)),
    }


@pytest.fixture(scope="session")
def acceptance_corpus(random_corpus, ssp_games):
    games = [gd.gen_example1(n) for n in (2, 3, 4)]
    games.append(ssp_games["yes2"])
    games.append(ssp_games["no2"])
    games.extend(random_corpus)
    return games


@pytest.fixture(scope="session")
def small_corpus():
    """A quick mixed-form corpus for unit-level property tests."""
    games = [
        gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1])),
        gd.SimpleGame.from_weighted(gd.make_weighted(4, [1, 1, 1, 1])),
        gd.SimpleGame.from_weighted(gd.make_weighted(1, [1, 0])),
        gd.SimpleGame.from_weighted(gd.make_weighted(3, [5, 7, 0, 0, 0, 0])),
        gd.gen_example1(2),
        gd.gen_example1(3),
        gd.dual(gd.gen_example1(2)),
        gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2)),
        gd.gen_ssp(gd.SSPInstance(2, (5, 7), 2)),
        gd.make_explicit(
            4,
            [gd.Coalition.from_players([1, 2], 4), gd.Coalition.from_players([3, 4], 4)],
        ),
        gd.gen_random_monotone(5, 4, 11),
        gd.gen_random_monotone(6, 3, 12),
    ]
    return games
