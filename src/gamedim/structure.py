"""Extremal coalitions, dual games, and equivalence of simple games.

The enumeration oracle walks all 2^n coalitions through the cached truth
table and keeps each extremal family as a table over compact masks.  One
kernel, :func:`gamedim.core.extremal_tables`, reads both families and the
swing counts in one pass per player: a winning S is minimal when no S - j
wins, and a losing S is maximal when no S + j loses.  The dual of an explicit
game is read off the maximal losing masks: its minimal winning coalitions
are their complements.
"""

from __future__ import annotations

from functools import cached_property

from .core import (
    INTERSECTION,
    MINIMAL_GIVEN,
    UNION,
    WEIGHTED,
    Coalition,
    Immutable,
    SimpleGame,
    WeightedGame,
    combine,
    extremal_tables,
    make_explicit,
    minimal_table,
    set_bits,
    superset_closure,
    swing_counts,
)


class ExtremalSets(Immutable):
    """Minimal winning and maximal losing antichains of one game, as tables.

    Bit S of ``winning`` is set when the compact coalition S is minimal
    winning, and bit S of ``losing`` when it is maximal losing.  The
    ``Coalition`` views, ascending by mask, are built on first access.
    ``swings`` holds the game's swing counts, player 1 first:
    :func:`extremal_sets` fills it in from its one pass, and a hand-built
    instance computes it on first access from the closure of ``winning``.
    """

    n: int
    winning: int
    losing: int

    def __init__(self, n: int, winning: int, losing: int) -> None:
        self._set(n, winning, losing)

    @cached_property
    def minimal_winning(self) -> tuple[Coalition, ...]:
        return _coalitions(self.winning, self.n)

    @cached_property
    def maximal_losing(self) -> tuple[Coalition, ...]:
        return _coalitions(self.losing, self.n)

    @cached_property
    def swings(self) -> tuple[int, ...]:
        return tuple(swing_counts(superset_closure(set_bits(self.winning), self.n), self.n))


def _coalitions(table: int, n: int) -> tuple[Coalition, ...]:
    return tuple(Coalition(m << 1, n) for m in set_bits(table))


def losing_table(table: int, n: int) -> int:
    """Table of the maximal losing compact masks of a monotone ``table``."""
    return extremal_tables(table, n)[1]


def minimal_winning(game: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of winning coalitions all of whose proper subsets lose."""
    return _coalitions(minimal_table(game.truth_table, game.n), game.n)


def maximal_losing(game: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of losing coalitions all of whose proper supersets win."""
    return _coalitions(losing_table(game.truth_table, game.n), game.n)


def extremal_sets(game: SimpleGame) -> ExtremalSets:
    winning, losing, swings = extremal_tables(game.truth_table, game.n)
    sets = ExtremalSets(game.n, winning, losing)
    # Filled in as ``cached_property`` itself would store it.
    sets.__dict__["swings"] = tuple(swings)
    return sets


def dual_weighted(part: WeightedGame) -> WeightedGame:
    """Dual of [q; w] is [w(N) - q + 1; w]."""
    return WeightedGame(sum(part.weights) - part.quota + 1, part.weights)


def dual(game: SimpleGame) -> SimpleGame:
    """The game in which S wins iff the complement of S loses in ``game``.

    The result keeps a form matched to the input: weighted parts dualise by
    the quota flip above in a single pass, intersections become unions of the
    part duals (and vice versa), and an explicit game maps to the
    complements of its maximal losing coalitions, the dual's minimal winning
    ones.
    """
    if game.form == WEIGHTED:
        return SimpleGame.from_weighted(dual_weighted(game.parts[0]))
    if game.form == INTERSECTION:
        return combine(UNION, [dual_weighted(p) for p in game.parts])
    if game.form == UNION:
        return combine(INTERSECTION, [dual_weighted(p) for p in game.parts])
    n, full = game.n, (1 << game.n) - 1
    # Complements of the ascending maximal losing masks, taken from the top
    # down so that they come out ascending.
    losing = reversed(set_bits(losing_table(game.truth_table, n)))
    return make_explicit(n, [Coalition((full ^ m) << 1, n) for m in losing], MINIMAL_GIVEN)


def equivalent(g1: SimpleGame, g2: SimpleGame) -> bool:
    """True iff both games have the same players and the same winning family."""
    return g1.n == g2.n and g1.truth_table == g2.truth_table


def is_self_dual(game: SimpleGame) -> bool:
    return equivalent(game, dual(game))
