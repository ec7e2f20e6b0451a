"""Extremal coalitions, dual games, and equivalence of simple games.

The enumeration oracle walks all 2^n coalitions through the cached truth
table with the one minimality routine, :func:`gamedim.core.minimal_masks`.
A losing coalition S is maximal exactly when its complement is minimal
winning in the dual.  Compact mask 2^n - 1 - S is the complement of S, so
the dual's table is the game's table with its 2^n bits reversed and then
complemented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    INTERSECTION,
    MINIMAL_GIVEN,
    UNION,
    WEIGHTED,
    Coalition,
    SimpleGame,
    WeightedGame,
    combine,
    make_explicit,
    minimal_masks,
)

_REVERSED_BYTE = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


@dataclass(frozen=True)
class ExtremalSets:
    """Minimal winning and maximal losing antichains of one game."""

    minimal_winning: tuple[Coalition, ...]
    maximal_losing: tuple[Coalition, ...]


def _coalitions(masks: list[int], n: int) -> tuple[Coalition, ...]:
    return tuple(Coalition(m << 1, n) for m in masks)


def _maximal_losing_masks(table: int, n: int) -> list[int]:
    size = 1 << n
    nbytes = (size + 7) // 8
    flipped = table.to_bytes(nbytes, "big").translate(_REVERSED_BYTE)
    reversal = int.from_bytes(flipped, "little") >> (8 * nbytes - size)
    dual_table = reversal ^ ((1 << size) - 1)
    # Complements of the dual's minimal masks, ascending.
    return [size - 1 - m for m in reversed(minimal_masks(dual_table, n))]


def minimal_winning(game: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of winning coalitions all of whose proper subsets lose."""
    return _coalitions(minimal_masks(game.truth_table, game.n), game.n)


def maximal_losing(game: SimpleGame) -> tuple[Coalition, ...]:
    """Antichain of losing coalitions all of whose proper supersets win."""
    return _coalitions(_maximal_losing_masks(game.truth_table, game.n), game.n)


def extremal_sets(game: SimpleGame) -> ExtremalSets:
    table = game.truth_table
    return ExtremalSets(
        _coalitions(minimal_masks(table, game.n), game.n),
        _coalitions(_maximal_losing_masks(table, game.n), game.n),
    )


def dual_weighted(part: WeightedGame) -> WeightedGame:
    """Dual of [q; w] is [w(N) - q + 1; w]."""
    return WeightedGame(sum(part.weights) - part.quota + 1, part.weights)


def dual(game: SimpleGame) -> SimpleGame:
    """The game in which S wins iff the complement of S loses in ``game``.

    The result keeps a form matched to the input: weighted parts dualise by
    the quota flip above in a single pass, intersections become unions of the
    part duals (and vice versa), and an explicit game maps to the complements
    of its maximal losing coalitions.
    """
    if game.form == WEIGHTED:
        return SimpleGame.from_weighted(dual_weighted(game.parts[0]))
    if game.form == INTERSECTION:
        return combine(UNION, [dual_weighted(p) for p in game.parts])
    if game.form == UNION:
        return combine(INTERSECTION, [dual_weighted(p) for p in game.parts])
    losing = maximal_losing(game)
    return make_explicit(game.n, [c.complement() for c in losing], MINIMAL_GIVEN)


def equivalent(g1: SimpleGame, g2: SimpleGame) -> bool:
    """True iff both games have the same players and the same winning family."""
    return g1.n == g2.n and g1.truth_table == g2.truth_table


def is_self_dual(game: SimpleGame) -> bool:
    return equivalent(game, dual(game))
