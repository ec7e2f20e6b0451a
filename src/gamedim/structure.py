"""Extremal coalitions, dual games, and equivalence of simple games.

The enumeration oracle walks all 2^n coalitions through the cached truth
table with the one minimality routine, :func:`gamedim.core.minimal_table`,
and keeps each extremal family as a table over compact masks.  A losing
coalition S is maximal exactly when its complement is minimal winning in the
dual.  The dual's table is the game's table complemented coalition-wise (its
2^n bits reversed) and then negated, so the maximal losing table is the
complemented minimal table of the dual's.
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
    complemented,
    make_explicit,
    minimal_table,
    set_bits,
)


class ExtremalSets(Immutable):
    """Minimal winning and maximal losing antichains of one game, as tables.

    Bit S of ``winning`` is set when the compact coalition S is minimal
    winning, and bit S of ``losing`` when it is maximal losing.  The
    ``Coalition`` views, ascending by mask, are built on first access.
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


def _coalitions(table: int, n: int) -> tuple[Coalition, ...]:
    return tuple(Coalition(m << 1, n) for m in set_bits(table))


def _dual_table(table: int, n: int) -> int:
    return complemented(table, n) ^ ((1 << (1 << n)) - 1)


def losing_table(table: int, n: int) -> int:
    """Table of the maximal losing compact masks of a monotone ``table``."""
    return complemented(minimal_table(_dual_table(table, n), n), n)


def minimal_winning(game: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of winning coalitions all of whose proper subsets lose."""
    return _coalitions(minimal_table(game.truth_table, game.n), game.n)


def maximal_losing(game: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of losing coalitions all of whose proper supersets win."""
    return _coalitions(losing_table(game.truth_table, game.n), game.n)


def extremal_sets(game: SimpleGame) -> ExtremalSets:
    table = game.truth_table
    return ExtremalSets(game.n, minimal_table(table, game.n), losing_table(table, game.n))


def dual_weighted(part: WeightedGame) -> WeightedGame:
    """Dual of [q; w] is [w(N) - q + 1; w]."""
    return WeightedGame(sum(part.weights) - part.quota + 1, part.weights)


def dual(game: SimpleGame) -> SimpleGame:
    """The game in which S wins iff the complement of S loses in ``game``.

    The result keeps a form matched to the input: weighted parts dualise by
    the quota flip above in a single pass, intersections become unions of the
    part duals (and vice versa), and an explicit game maps to the minimal
    masks of the dual's table, the complements of its maximal losing
    coalitions.
    """
    if game.form == WEIGHTED:
        return SimpleGame.from_weighted(dual_weighted(game.parts[0]))
    if game.form == INTERSECTION:
        return combine(UNION, [dual_weighted(p) for p in game.parts])
    if game.form == UNION:
        return combine(INTERSECTION, [dual_weighted(p) for p in game.parts])
    winning = minimal_table(_dual_table(game.truth_table, game.n), game.n)
    return make_explicit(game.n, _coalitions(winning, game.n), MINIMAL_GIVEN)


def equivalent(g1: SimpleGame, g2: SimpleGame) -> bool:
    """True iff both games have the same players and the same winning family."""
    return g1.n == g2.n and g1.truth_table == g2.truth_table


def is_self_dual(game: SimpleGame) -> bool:
    return equivalent(game, dual(game))
