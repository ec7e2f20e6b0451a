"""Coalitions, weighted majority games, and simple games.

Players are numbered 1..n.  A coalition is a bitmask in which bit j is set
exactly when player j belongs to the coalition; bit 0 is never used.  A
simple game stores one of four representations of a monotone winning family:

* ``explicit``      - the antichain of minimal winning coalitions,
* ``weighted``      - a single weighted majority game [q; w_1..w_n],
* ``intersection``  - a coalition wins iff it wins in every listed part,
* ``union``         - a coalition wins iff it wins in some listed part.

Every constructible game is proper: the empty coalition loses and the grand
coalition wins.  All types are immutable and the per-game truth table is
cached.  The table is one Python int of 2^n bits: bit S is set exactly when
the compact coalition S wins, where S = members >> 1 drops the unused bit 0,
so bit j-1 of S stands for player j.  An explicit game builds its table at
construction, as the superset closure of its antichain, and is valid exactly
when the minimal winning coalitions of that table are the given ones; the
other forms build theirs on first use (recomputation is harmless, so
concurrent sharing is safe).

Inside the package coalitions travel as compact masks, and families of them
as tables of the same shape: :func:`minimal_table` keeps the minimal set bits
of a monotone table, and :func:`extremal_tables` reads a game's minimal
winning table, maximal losing table and swing counts off its truth table in
one pass per player.  ``Coalition`` objects are built only where a public
function takes or returns them.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from functools import cached_property, reduce
from operator import index as as_int
from typing import Iterable, Iterator, Sequence

N_MAX = 24

EXPLICIT = "explicit"
WEIGHTED = "weighted"
INTERSECTION = "intersection"
UNION = "union"
FORMS = (EXPLICIT, WEIGHTED, INTERSECTION, UNION)

MINIMAL_GIVEN = "minimal-given"
ARBITRARY_WINNING = "arbitrary-winning"


class InvalidGameError(ValueError):
    """A coalition or game violates a structural invariant."""


class SizeLimitError(InvalidGameError):
    """An operation was refused because an instance exceeds a size cap."""


# Here, not in ``lp``, so that a closed-form certificate can be refused
# without loading the LP code.
class CertificateError(RuntimeError):
    """A certificate failed exact re-verification."""


def full_mask(n: int) -> int:
    """Bitmask of the grand coalition over players 1..n."""
    return ((1 << n) - 1) << 1


def _bad_player_count(n: int) -> InvalidGameError:
    """The error for a player count outside 1..N_MAX; above it is a size limit."""
    if n > N_MAX:
        return SizeLimitError(f"{n} players exceed the cap of {N_MAX}")
    return InvalidGameError(f"player count must be in 1..{N_MAX}, got {n}")


class Immutable:
    """Base of the value types: fixed fields, compared and hashed by value.

    A subclass names its fields once, as class annotations, which set
    ``_fields`` in order; its own ``__init__`` sets them all with one
    ``_set`` call, which assigns through ``object.__setattr__``.  Equality,
    hashing and the ``Name(field=value, ...)`` repr are those of a frozen
    dataclass.  The dataclass decorator generates and execs six methods per
    class at import, about 0.5-0.9 ms a class on a shared 2-core host, and
    every CLI process would pay it.  There are no ``__slots__``: cached properties and
    ``copy.copy`` need the per-instance ``__dict__``.  Fields are neither
    read nor written through ``self.__dict__``: touching it turns the
    compact attribute storage into a full dict, about twice the memory per
    object.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"


class Coalition(Immutable):
    """A subset of the players 1..n, encoded as a bitmask (bit j = player j)."""

    members: int
    n: int

    def __init__(self, members: int, n: int) -> None:
        if not 1 <= n <= N_MAX:
            raise _bad_player_count(n)
        if members & 1:
            raise InvalidGameError("bit 0 is unused; players are numbered from 1")
        if members & ~full_mask(n):
            raise InvalidGameError(f"coalition has members outside players 1..{n}")
        self._set(members, n)

    @classmethod
    def from_players(cls, players: Iterable[int], n: int) -> "Coalition":
        mask = 0
        for j in players:
            j = as_int(j)
            if not 1 <= j <= n:
                raise InvalidGameError(f"player {j} outside 1..{n}")
            mask |= 1 << j
        return cls(mask, n)

    @classmethod
    def from_bitstring(cls, bits: str, n: int | None = None) -> "Coalition":
        """Parse a left-to-right bitstring whose first character is player 1."""
        if n is None:
            n = len(bits)
        if len(bits) != n:
            raise InvalidGameError(f"bitstring length {len(bits)} != player count {n}")
        mask = 0
        for k, ch in enumerate(bits):
            if ch == "1":
                mask |= 1 << (k + 1)
            elif ch != "0":
                raise InvalidGameError(f"bitstring may contain only 0 and 1, got {ch!r}")
        return cls(mask, n)

    @classmethod
    def empty(cls, n: int) -> "Coalition":
        return cls(0, n)

    @classmethod
    def grand(cls, n: int) -> "Coalition":
        return cls(full_mask(n), n)

    @property
    def players(self) -> tuple[int, ...]:
        return tuple(j for j in range(1, self.n + 1) if self.members >> j & 1)

    @property
    def size(self) -> int:
        return self.members.bit_count()

    def __contains__(self, player: int) -> bool:
        return 1 <= player <= self.n and bool(self.members >> player & 1)

    def __iter__(self):
        return iter(self.players)

    def issubset(self, other: "Coalition") -> bool:
        self._check_same_n(other)
        return self.members & ~other.members == 0

    def complement(self) -> "Coalition":
        return Coalition(full_mask(self.n) ^ self.members, self.n)

    def union(self, other: "Coalition") -> "Coalition":
        self._check_same_n(other)
        return Coalition(self.members | other.members, self.n)

    def bitstring(self) -> str:
        return f"{self.members >> 1:0{self.n}b}"[::-1]

    def _check_same_n(self, other: "Coalition") -> None:
        if self.n != other.n:
            raise InvalidGameError(f"player counts differ: {self.n} vs {other.n}")

    def __repr__(self) -> str:
        return f"Coalition({{{', '.join(map(str, self.players))}}}, n={self.n})"


class WeightedGame(Immutable):
    """A weighted majority game [quota; w_1..w_n] with integer entries.

    A coalition S wins iff the total weight of its members is at least the
    quota.  The invariants quota >= 1 and w(N) >= quota guarantee that the
    empty coalition loses and the grand coalition wins.
    """

    quota: int
    weights: tuple[int, ...]

    def __init__(self, quota: int, weights: tuple[int, ...]) -> None:
        quota, weights = as_int(quota), tuple(map(as_int, weights))
        if not 1 <= len(weights) <= N_MAX:
            raise _bad_player_count(len(weights))
        if quota < 1:
            raise InvalidGameError("quota must be at least 1 (the empty coalition loses)")
        if min(weights) < 0:
            raise InvalidGameError("weights must be nonnegative")
        if sum(weights) < quota:
            raise InvalidGameError("total weight below quota (the grand coalition must win)")
        self._set(quota, weights)

    @property
    def n(self) -> int:
        return len(self.weights)

    def weight(self, coalition: Coalition) -> int:
        if coalition.n != self.n:
            raise InvalidGameError(f"player counts differ: {coalition.n} vs {self.n}")
        return self._weight_of_mask(coalition.members >> 1)

    def wins(self, coalition: Coalition) -> bool:
        return self.weight(coalition) >= self.quota

    def _weight_of_mask(self, mask: int) -> int:
        """Total weight of the compact coalition ``mask`` (bit j-1 = player j)."""
        total = 0
        j = 0
        while mask:
            if mask & 1:
                total += self.weights[j]
            mask >>= 1
            j += 1
        return total

    def __repr__(self) -> str:
        return f"[{self.quota}; {', '.join(map(str, self.weights))}]"


_NONZERO_RUN = re.compile(rb"[^\x00]+")
_BYTE_BITS = tuple(tuple(j for j in range(8) if b >> j & 1) for b in range(256))


def set_bits(x: int) -> list[int]:
    """Ascending positions of the set bits of ``x >= 0``.

    One scan over the runs of nonzero bytes of ``x``; clearing the lowest
    bit in a loop would copy a 2 MiB table once per set bit.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    return _bits_between(data, 0, len(data))


def set_bit_chunks(x: int, nbytes: int = 1 << 10) -> Iterator[list[int]]:
    """:func:`set_bits` of ``x`` in ascending pieces, one per ``nbytes`` bytes of ``x``.

    Only one piece's list is alive at a time, so listing a table of
    millions of set bits keeps its memory to one piece.
    """
    data = x.to_bytes((x.bit_length() + 7) // 8, "little")
    for start in range(0, len(data), nbytes):
        yield _bits_between(data, start, start + nbytes)


def _bits_between(data: bytes, start: int, stop: int) -> list[int]:
    """Ascending positions of the set bits in bytes ``start`` to ``stop`` of ``data``."""
    runs = _NONZERO_RUN.finditer(data, start, stop)
    return [8 * k + j for r in runs for k, b in enumerate(r[0], r.start()) for j in _BYTE_BITS[b]]


def _bit_clears(n: int) -> Iterator[tuple[int, int]]:
    """Pairs (j, table of the compact masks below 2^n whose bit j is clear).

    They come from the top player down, j = n-1 first, which is the lower
    half of the table.  Pattern j-1 is pattern j XOR-ed with itself shifted
    2^(j-1), one shift apiece (the step after pattern 0 shifts by 0 and
    gives 0), and each is dropped once the next is built.  The closure and
    minimality passes give the same table in any player order.
    """
    pattern = (1 << (1 << n >> 1)) - 1
    for j in reversed(range(n)):
        yield j, pattern
        pattern ^= pattern << (1 << j >> 1)


def _subset_weights(weights: Sequence[int]) -> list[int]:
    """Coalition weights indexed by compact mask (bit j-1 = player j)."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def _weighted_table(part: WeightedGame) -> int:
    """Truth table of one weighted part, met in the middle of its players.

    The players split at h = n // 2.  Row k of the table holds the low-half
    subsets of weight at least quota - w(k), for high-half subset k.  Sorted
    heaviest first those subsets form a prefix, so each row is one of the
    2^h + 1 prefix ORs, found by bisection; the rows are then concatenated
    pairwise, doubling the width each time.
    """
    h = part.n // 2
    low = _subset_weights(part.weights[:h])
    prefixes = [0]
    for i in sorted(range(len(low)), key=low.__getitem__, reverse=True):
        prefixes.append(prefixes[-1] | 1 << i)
    negated = sorted(-w for w in low)
    high = _subset_weights(part.weights[h:])
    rows = [prefixes[bisect_right(negated, w - part.quota)] for w in high]
    width = 1 << h
    while len(rows) > 1:
        rows = [lo | hi << width for lo, hi in zip(rows[::2], rows[1::2])]
        width <<= 1
    return rows[0]


def _seeded(masks: Sequence[int], n: int) -> int:
    """Table over compact masks, set exactly on ``masks``.

    The masks are seeded through a byte buffer, since OR-ing each bit into a
    growing int copies it every time; the buffer is dropped once it is read.
    """
    table = bytearray(((1 << n) + 7) // 8)
    for m in masks:
        table[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(table, "little")


def superset_closure(masks: Sequence[int], n: int) -> int:
    """Table over compact masks, set exactly on supersets of ``masks``.

    One zeta-transform pass per player: each coalition with player j+1
    inherits the bit of the same coalition without it.
    """
    table = _seeded(masks, n)
    for j, clear in _bit_clears(n):
        table |= (table & clear) << (1 << j)
    return table


def closures(above: Sequence[int], below: Sequence[int], n: int) -> tuple[int, int]:
    """Tables of the supersets of ``above`` and of the subsets of ``below``.

    The passes of :func:`superset_closure`, and the same passes downward,
    share one pattern per player: each coalition without player j+1
    inherits the bit of the same coalition with it.
    """
    up, down = _seeded(above, n), _seeded(below, n)
    for j, clear in _bit_clears(n):
        up |= (up & clear) << (1 << j)
        down |= (down >> (1 << j)) & clear
    return up, down


def minimal_table(table: int, n: int) -> int:
    """Table of the minimal set bits of a monotone table over compact masks.

    Under monotonicity a bit is minimal exactly when dropping any single
    member clears it, which is one shift pass per player.
    """
    is_min = table
    for j, clear in _bit_clears(n):
        is_min &= ~((table & clear) << (1 << j))
    return is_min


def swing_counts(table: int, n: int) -> list[int]:
    """Per player, the winning compact masks that lose once the player leaves.

    Entry j counts the set bits S with bit j set whose S - 2^j bit is clear:
    Banzhaf's swings of player j+1.  The table must be monotone: then each
    winning S without bit j has S + 2^j winning too, so the swings are
    |table| - 2 |table & clear_j|, one AND and one popcount per player.
    """
    size = table.bit_count()
    return [size - 2 * (table & clear).bit_count() for _, clear in _bit_clears(n)][::-1]


def extremal_tables(table: int, n: int) -> tuple[int, int, list[int]]:
    """Minimal winning table, maximal losing table and swing counts of a monotone table.

    One pass per player j serves all three.  A winning S with bit j clear
    makes S + 2^j non-minimal, a losing S + 2^j makes S non-maximal, and the
    winning S with bit j clear give the swings as in :func:`swing_counts`.
    By monotonicity a non-minimal bit is a winning one and a non-maximal bit
    a losing one, so one table collects both, and each family is its side
    of the table less that table.  Each temporary is dropped once read,
    which keeps five tables alive at most, the input aside.
    """
    losing = table ^ ((1 << (1 << n)) - 1)
    size, beaten, swings = table.bit_count(), 0, []
    for j, clear in _bit_clears(n):
        above = (table & clear) << (1 << j)
        swings.append(size - 2 * above.bit_count())
        beaten |= above
        del above
        beaten |= (losing >> (1 << j)) & clear
    del clear
    winning = table ^ (table & beaten)
    losing ^= losing & beaten
    return winning, losing, swings[::-1]


def minimal_masks(table: int, n: int) -> list[int]:
    """Ascending compact masks of the minimal set bits of a monotone table."""
    return set_bits(minimal_table(table, n))


def first_nested_pair(masks: Sequence[int], n: int) -> tuple[int, int] | None:
    """Indices i < j of the first equal or nested pair, by the later index j.

    A prefix of ``masks`` (compact, below 2^n) is an antichain exactly when
    its superset closure has as many minimal masks as the prefix has masks,
    and every longer prefix of a nested one is nested.  So the first bad j is
    found by bisection, each step one closure and one minimality pass, and
    its first partner i by one scan.  This is the error path of the antichain
    check: it names the pair once :func:`minimal_masks` has shown that one
    exists.
    """

    def nested(k: int) -> bool:
        return len(minimal_masks(superset_closure(masks[:k], n), n)) < k

    j = bisect_left(range(len(masks) + 1), True, key=nested) - 1
    if j == len(masks):
        return None
    b = masks[j]
    return next(i for i, a in enumerate(masks[:j]) if a & ~b == 0 or b & ~a == 0), j


class SimpleGame(Immutable):
    """A simple game over players 1..n in one of the four representation forms.

    ``antichain`` is populated for the explicit form only and holds the
    minimal winning coalitions sorted ascending by mask; ``parts`` is
    populated for the weighted (exactly one part), intersection, and union
    forms.  Equality is structural; use :func:`gamedim.structure.
    equivalent` to compare winning families across forms.
    """

    n: int
    form: str
    antichain: tuple[Coalition, ...]
    parts: tuple[WeightedGame, ...]

    def __init__(
        self,
        n: int,
        form: str,
        antichain: tuple[Coalition, ...] = (),
        parts: tuple[WeightedGame, ...] = (),
    ) -> None:
        self._set(n, form, antichain, parts)
        self.__post_init__()

    # Kept apart from __init__: bench/tracer.py patches it to time construction.
    def __post_init__(self) -> None:
        if not 1 <= self.n <= N_MAX:
            raise _bad_player_count(self.n)
        if self.form not in FORMS:
            raise InvalidGameError(f"unknown form {self.form!r}")
        if self.form == EXPLICIT:
            if self.parts:
                raise InvalidGameError("explicit form takes no weighted parts")
            antichain = tuple(self.antichain)
            for c in antichain:
                if not isinstance(c, Coalition):
                    raise InvalidGameError(f"winning coalition {c!r} is not a Coalition")
            object.__setattr__(
                self, "antichain", tuple(sorted(antichain, key=lambda c: c.members))
            )
            self._check_antichain()
        else:
            if self.antichain:
                raise InvalidGameError(f"{self.form} form takes no explicit coalitions")
            object.__setattr__(self, "parts", tuple(self.parts))
            if not self.parts:
                raise InvalidGameError(f"{self.form} form needs at least one part")
            if self.form == WEIGHTED and len(self.parts) != 1:
                raise InvalidGameError("weighted form takes exactly one part")
            for part in self.parts:
                if not isinstance(part, WeightedGame):
                    raise InvalidGameError(f"part {part!r} is not a WeightedGame")
                if part.n != self.n:
                    raise InvalidGameError(
                        f"part has {part.n} players, game has {self.n}"
                    )

    def _check_antichain(self) -> None:
        coalitions = self.antichain
        if not coalitions:
            raise InvalidGameError("explicit form needs at least one winning coalition")
        for c in coalitions:
            if c.n != self.n:
                raise InvalidGameError(f"coalition over {c.n} players, game has {self.n}")
            if c.members == 0:
                raise InvalidGameError("the empty coalition cannot be winning")
        masks = [c.members >> 1 for c in coalitions]
        if minimal_masks(self.truth_table, self.n) != masks:
            i, j = first_nested_pair(masks, self.n)
            raise InvalidGameError(
                "winning coalitions must form an antichain "
                f"({coalitions[i]} and {coalitions[j]} are comparable)"
            )

    @classmethod
    def from_weighted(cls, part: WeightedGame) -> "SimpleGame":
        return cls(part.n, WEIGHTED, parts=(part,))

    def is_winning(self, coalition: Coalition) -> bool:
        if coalition.n != self.n:
            raise InvalidGameError(f"coalition over {coalition.n} players, game has {self.n}")
        # Reading one bit of the table would copy it; the representation is
        # enough, and a table not yet built stays unbuilt.
        mask = coalition.members
        if self.form == EXPLICIT:
            return any(c.members & ~mask == 0 for c in self.antichain)
        wins = (part._weight_of_mask(mask >> 1) >= part.quota for part in self.parts)
        return any(wins) if self.form == UNION else all(wins)

    @cached_property
    def truth_table(self) -> int:
        """Bit S is set exactly when compact coalition S (members >> 1) wins.

        Bit 0 is the empty coalition and bit 2^n - 1 the grand one.  Each part
        is folded in as soon as it is built, so one part table is held at a
        time, however many parts there are.
        """
        if self.form == EXPLICIT:
            return superset_closure([c.members >> 1 for c in self.antichain], self.n)
        fold = int.__and__ if self.form == INTERSECTION else int.__or__
        return reduce(fold, map(_weighted_table, self.parts))


def make_weighted(quota: int, weights: Sequence[int]) -> WeightedGame:
    """Validated weighted majority game [quota; weights]."""
    return WeightedGame(quota, tuple(weights))


def make_explicit(
    n: int, coalitions: Sequence[Coalition], mode: str = MINIMAL_GIVEN
) -> SimpleGame:
    """Explicit-form game whose winning family is the upward closure of ``coalitions``.

    In ``minimal-given`` mode the list must already be an antichain.  In
    ``arbitrary-winning`` mode the antichain is the minimal masks of the
    superset closure of the list, which drops duplicate and non-minimal
    coalitions in O(n 2^n) whatever the list length.
    """
    if mode not in (MINIMAL_GIVEN, ARBITRARY_WINNING):
        raise InvalidGameError(f"unknown mode {mode!r}")
    if not coalitions:
        raise InvalidGameError("need at least one winning coalition")
    for c in coalitions:
        if not isinstance(c, Coalition):
            raise InvalidGameError(f"winning coalition {c!r} is not a Coalition")
        if c.n != n:
            raise InvalidGameError(f"coalition over {c.n} players, game has {n}")
    if mode == ARBITRARY_WINNING:
        # The closure of the list is the closure of its minimal masks, so it
        # becomes the game's cached truth table; validation still checks it.
        table = superset_closure([c.members >> 1 for c in coalitions], n)
        antichain = tuple(Coalition(m << 1, n) for m in minimal_masks(table, n))
        game = object.__new__(SimpleGame)
        game.__dict__["truth_table"] = table
        game.__init__(n, EXPLICIT, antichain=antichain)
        return game
    return SimpleGame(n, EXPLICIT, antichain=tuple(coalitions))


def combine(kind: str, parts: Sequence[WeightedGame]) -> SimpleGame:
    """Intersection- or union-form game built from weighted parts."""
    if kind not in (INTERSECTION, UNION):
        raise InvalidGameError(f"combine kind must be intersection or union, got {kind!r}")
    parts = tuple(parts)
    if not parts:
        raise InvalidGameError("need at least one part")
    if not isinstance(parts[0], WeightedGame):
        raise InvalidGameError(f"part {parts[0]!r} is not a WeightedGame")
    return SimpleGame(parts[0].n, kind, parts=parts)
