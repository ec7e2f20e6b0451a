"""Constructors for the certified instance families and random test games."""

from __future__ import annotations

from operator import index as as_int
from typing import Sequence

from .core import (
    ARBITRARY_WINNING,
    INTERSECTION,
    MINIMAL_GIVEN,
    N_MAX,
    UNION,
    Coalition,
    Immutable,
    InvalidGameError,
    SimpleGame,
    SizeLimitError,
    WeightedGame,
    combine,
    make_explicit,
)

_MASK64 = (1 << 64) - 1


def gen_example1(n: int) -> SimpleGame:
    """Intersection game over 2n players: win iff every pair {2i-1, 2i} is hit.

    Part i is [1; ..0,1,1,0..] with weight on players 2i-1 and 2i only.  The
    game has dimension n and codimension 2^(n-1).
    """
    n = as_int(n)
    if n < 1:
        raise InvalidGameError(f"need at least one pair, got {n}")
    if 2 * n > N_MAX:
        raise SizeLimitError(f"{2 * n} players exceed the cap of {N_MAX}")
    parts = []
    for i in range(n):
        weights = [0] * (2 * n)
        weights[2 * i] = 1
        weights[2 * i + 1] = 1
        parts.append(WeightedGame(1, weights))
    return combine(INTERSECTION, parts)


class SSPInstance(Immutable):
    """A Subset Sum instance (target b, positive integers a) with d gadget pairs."""

    b: int
    a: tuple[int, ...]
    d: int

    def __init__(self, b: int, a: tuple[int, ...], d: int) -> None:
        b, a, d = as_int(b), tuple(as_int(v) for v in a), as_int(d)
        if b < 1:
            raise InvalidGameError("target must be positive")
        if not a or any(v < 1 for v in a):
            raise InvalidGameError("need a nonempty list of positive integers")
        if d < 2:
            raise InvalidGameError("need at least two gadget pairs")
        self._set(b, a, d)

    def is_yes_instance(self) -> bool:
        """Exhaustive check whether some subset of a sums exactly to b."""
        sums = {0}
        for v in self.a:
            sums |= {s + v for s in sums}
        return self.b in sums


def gen_ssp(instance: SSPInstance) -> SimpleGame:
    """Intersection game over n + 2d players encoding a Subset Sum instance.

    Every part has quota 3b+1 and weights 3*a_i on the number players; part j
    adds weight 1 on gadget players n+2j-1 and n+2j.  For yes instances the
    game has dimension d and codimension 2^(d-1), since each exact-sum number
    set restricts it to :func:`gen_example1` on the d pairs; otherwise it
    collapses to the weighted game [b+1; a, 0..0].
    """
    n = len(instance.a)
    players = n + 2 * instance.d
    if players > N_MAX:
        raise SizeLimitError(f"{players} players exceed the cap of {N_MAX}")
    parts = []
    for j in range(instance.d):
        weights = [3 * v for v in instance.a] + [0] * (2 * instance.d)
        weights[n + 2 * j] = 1
        weights[n + 2 * j + 1] = 1
        parts.append(WeightedGame(3 * instance.b + 1, weights))
    return combine(INTERSECTION, parts)


def gen_unanimity_composition(blocks: Sequence[Coalition]) -> SimpleGame:
    """Union of one unanimity game per block: win iff some block is contained.

    Blocks must be nonempty and pairwise disjoint; players outside every
    block are null.  With blocks {1,2},{3,4},...  this is the dual of
    :func:`gen_example1`.
    """
    blocks = tuple(blocks)
    if not blocks:
        raise InvalidGameError("need at least one block")
    n = blocks[0].n
    seen = 0
    parts = []
    for block in blocks:
        if block.n != n:
            raise InvalidGameError(f"block over {block.n} players, expected {n}")
        if block.members == 0:
            raise InvalidGameError("blocks must be nonempty")
        if block.members & seen:
            raise InvalidGameError(f"blocks overlap at {Coalition(block.members & seen, n)}")
        seen |= block.members
        weights = [1 if j in block else 0 for j in range(1, n + 1)]
        parts.append(WeightedGame(block.size, weights))
    return combine(UNION, parts)


def splitmix64(seed: int):
    """The splitmix64 stream: state += 0x9E3779B97F4A7C15, output mixed twice.

    Chosen as the reproducibility anchor for random game corpora because the
    algorithm is tiny, language-neutral, and has published reference outputs.
    """
    state = seed & _MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield z ^ (z >> 31)


def gen_random_monotone(n: int, m: int, seed: int) -> SimpleGame:
    """Deterministic explicit-form game: upward closure of m seeded coalitions.

    Draw k maps to the coalition with compact mask 1 + (k mod (2^n - 2)), so
    draws are nonempty proper subsets and the game is automatically proper.
    The draws stop once every such coalition has been drawn, since no later
    draw can change the game.  The single-player game has no nonempty proper
    coalition; it degenerates to the dictator game.
    """
    n = as_int(n)
    m = as_int(m)
    if n < 1:
        raise InvalidGameError(f"player count must be at least 1, got {n}")
    if n > 12:
        raise SizeLimitError(f"{n} players exceed the random generator's cap of 12")
    if m < 1:
        raise InvalidGameError(f"need at least one seed coalition, got {m}")
    if n == 1:
        return make_explicit(1, [Coalition.grand(1)], MINIMAL_GIVEN)
    stream = splitmix64(seed)
    span = (1 << n) - 2
    drawn: set[int] = set()
    for _ in range(m):
        drawn.add(1 + next(stream) % span)
        if len(drawn) == span:  # every later draw is already in the set
            break
    return make_explicit(n, [Coalition(c << 1, n) for c in drawn], ARBITRARY_WINNING)
