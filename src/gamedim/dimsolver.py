"""Exact dimension and codimension of simple games, with witness parts.

The dimension of a game is the least k for which the game is an intersection
of k weighted majority games; the codimension is the least k for a union.
Both reduce to one minimum-partition problem, solved by one separation LP:
partition the targets into the fewest blocks B for which one weighted game
wins on every fixed coalition and loses on all of B (``co_realizable``).

* dimension   - the fixed coalitions are the minimal winning ones and the
  targets the maximal losing ones;
* codimension - the fixed coalitions are the complements N - L of the
  maximal losing L and the targets the complements N - A of the minimal
  winning A.  The dual [w(N) - q + 1; w] of a game found for a block then
  loses on every L and wins on the block's A (``realizable`` has the proof),
  so each part is mapped back by ``dual_weighted``.

The extremal families arrive as tables over compact masks (bit j-1 = player
j; see :mod:`gamedim.structure`), and ``COVER_MAX`` is checked on the target
table's bit count before any mask is listed, so an oversized game is refused
in the time of its truth table.  No ``Coalition`` is built on the way to the
separation rows; only ``co_realizable`` and ``realizable``, which take them,
convert at the boundary.

Block feasibility is an exact rational LP and is downward closed, so a
minimum cover can be assumed to be a partition.  A block of one target T
needs no LP: the part [1; w_j = 0 on T, 1 elsewhere] loses exactly on the
subsets of T, so it separates T as soon as every fixed mask has a player
outside T, which is checked mask by mask.  Every other block is one LP,
solved cold: the fixed rows, one winning row per fixed coalition and the
quota row, then the block's target rows in target order.  The oracle cache
keys each entry by the block solved: a feasible entry answers every later
subset of its block, an infeasible one every superset.  No pair or
singleton is queried up front; the oracle sees only the blocks that the
partition search tries.

Most incompatible pairs need no LP: they are 2-trades (Taylor & Zwicker,
Proc. AMS 115, 1992).  Targets T1, T2 are traded by two fixed masks M, M2
(possibly equal) with M | M2 inside T1 | T2 and M & M2 inside T1 & T2.
Then every player is in T1 and T2 at least as often as in M and M2, so
w(M) + w(M2) <= w(T1) + w(T2) for every weight vector w >= 0, and no game
[q; w] wins on M and M2 (a sum of at least 2q) and loses on T1 and T2 (at
most 2q - 2).  The pair (M, M2) is its own certificate, checked by those
four mask facts before its edge enters the pair graph; the Farkas witness
on the pair's LP says the same count, and ``_trade_certificate`` writes it
down in closed form on demand.  The search never tries a block holding a
traded pair, so the cache never holds one.

With no traded pair, one part is tried before any LP: the Banzhaf part
(Banzhaf, Rutgers Law Review 19, 1965).  Player j's swing count is the
number of winning S holding j for which S - j loses, and the counts over
their gcd are weights w that represent most weighted games.  The part
[q; w], q one above the heaviest target, loses on every target and is kept
only if every fixed mask reaches q: a complete check on masks, like the row
re-check of an LP's game.  Then it is the one-part partition, and no LP or
search runs.  A traded pair already proves that one part cannot do, so the
trade scan decides whether the part is tried.  S is a swing of j in the game
exactly when (N - S) + j is one in its dual, so both have the same counts,
and the complemented orientation of a codimension reads the game's own
table too.  When the part misses, the search runs: the first block it asks
is a pair, which widens (below) to the full block, so a separable target
set still costs one LP.

A block of two or more targets is widened before its LP: in index order,
each target that no checked trade keeps from the block, or from a target
already added, joins it.  The widened block is solved first and keys its
cache entry, so its witness answers the blocks inside it that the search
asks later; if it is infeasible, the block asked for is solved instead.
Only verified outcomes enter the cache, so every query gets the same answer
as without widening and the search finds the same partition; only the
witness part that answers a block may differ.

One iterative-deepening partition search tries each block count from a
clique bound of the trade graph up.  It places the targets one at a time,
in the first block the oracle accepts or else a new one, and backtracks
when an attempt runs out of blocks; the first-fit greedy partition is thus
the first descent of every attempt it fits in, and no separate greedy pass
runs.  By downward closure every partition into k feasible blocks stays
feasible on each prefix of the targets, so an attempt at k finds one
whenever one exists and a failed attempt proves that none does.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul
from typing import Callable, Iterable, Sequence

from . import lp as _lp
from .core import (
    INTERSECTION,
    UNION,
    WEIGHTED,
    Coalition,
    InvalidGameError,
    SimpleGame,
    SizeLimitError,
    WeightedGame,
    _subset_weights,
    combine,
    complemented,
    set_bits,
    swing_counts,
)
from .structure import dual_weighted, equivalent, extremal_sets

COVER_MAX = 32


# A dataclass, unlike the value types built on ``core.Immutable``: the
# benchmark self-test (bench/test_bench.py) builds a wrong witness with
# ``dataclasses.replace``.
@dataclass(frozen=True)
class DimensionWitness:
    """An exact dimension or codimension value with realising weighted parts."""

    value: int
    parts: tuple[WeightedGame, ...]
    kind: str

    def as_game(self) -> SimpleGame:
        return combine(self.kind, self.parts)


class SeparabilityOracleCache:
    """Block-feasibility oracle keyed by target-subset bitmasks.

    ``solver(mask)`` returns None for an infeasible block, or a pair
    ``(block, witness)`` where ``block`` is a bitmask of targets that the
    witness separates; it must contain ``mask``, or ``query`` raises
    ``CertificateError``.  A feasible entry is keyed by that block, so its
    witness answers every subset of the block, which may be wider than the
    mask asked; a cached infeasible block settles every superset.
    The two lists only grow at the end, so they also answer repeats: a
    repeated query finds the same first match, or its own entry, and gets the
    same witness object.  Under concurrent use two threads may solve the same
    mask; both outcomes are correct, so the duplicate only costs one LP.
    """

    def __init__(self, solver: Callable[[int], tuple[int, WeightedGame] | None]):
        self._solver = solver
        self._feasible: list[tuple[int, WeightedGame]] = []
        self._infeasible: list[int] = []

    def query(self, mask: int) -> WeightedGame | None:
        for cover, witness in self._feasible:
            if mask & ~cover == 0:
                return witness
        for imask in self._infeasible:
            if imask & ~mask == 0:
                return None
        outcome = self._solver(mask)
        if outcome is None:
            self._infeasible.append(mask)
            return None
        cover, witness = outcome
        if mask & ~cover:
            raise _lp.CertificateError("witness does not separate every target of its block")
        self._feasible.append((cover, witness))
        return witness


def _separation_rows(
    n: int, fixed_masks: Sequence[int], target_masks: Sequence[int]
) -> tuple[_lp.Constraint, ...]:
    """Rows of the separation LP for a weighted game [q; w] over w_1..w_n, q.

    The fixed rows come first: w(S) - q >= 0 on each fixed coalition S, so
    the game wins on it, and the quota row q >= 1.  Then w(T) - q <= -1 on
    each target T, so the game loses on it.  Masks are compact.
    """

    def row(mask, relation, rhs):
        coeffs = [mask >> j & 1 for j in range(n)]
        coeffs.append(-1)
        return _lp.Constraint(coeffs, relation, rhs)

    return (
        *(row(m, _lp.GE, 0) for m in fixed_masks),
        _lp.Constraint((0,) * n + (1,), _lp.GE, 1),
        *(row(m, _lp.LE, -1) for m in target_masks),
    )


def _separate(n: int, rows: Sequence[_lp.Constraint]) -> WeightedGame | None:
    """The integer game [q; w] that meets every separation row, or None.

    The LP's assignment is put over one common denominator and divided by
    the gcd of its numerators, and the game is re-checked on every row.
    """
    result = _lp.solve_feasibility(_lp.LinearProgram(n + 1, rows, frozenset(range(n + 1))))
    if not result.feasible:
        return None
    values, _ = _lp.common_denominator(result.assignment)
    shrink = gcd(*values)
    values = [v // shrink for v in values]
    for con in rows:
        value = sum(map(mul, con.coeffs, values))
        if value < con.rhs if con.relation == _lp.GE else value > con.rhs:
            raise _lp.CertificateError("scaled weighted game misses a separation row")
    return WeightedGame(values[n], values[:n])


def _unit_part(n: int, fixed_masks: Sequence[int], target: int) -> WeightedGame | None:
    """The part [1; w_j = 0 on ``target``, 1 elsewhere], checked on every fixed mask.

    It loses exactly on the subsets of ``target``, and it wins on a fixed
    mask exactly when the mask has a player outside ``target``.  None when
    some fixed mask lies inside ``target``: then no weighted game wins on it
    and loses on ``target``.  With no fixed masks it is the canonical
    intersection part of a maximal losing ``target``.
    """
    if any(not m & ~target for m in fixed_masks):
        return None
    return WeightedGame(1, [0 if target >> j & 1 else 1 for j in range(n)])


def _banzhaf_part(
    game: SimpleGame, fixed_masks: Sequence[int], target_masks: Sequence[int]
) -> WeightedGame | None:
    """The part [q; w] with w the game's swing counts over their gcd, or None.

    The quota is one above the heaviest target, so the part loses on every
    target; it is returned only when every fixed mask reaches the quota.  A
    mask's weight is the sum of two lookups, one per half of the players.
    """
    n = game.n
    swings = swing_counts(game.truth_table, n)
    shrink = gcd(*swings)
    weights = [s // shrink for s in swings]
    h = n // 2
    low, high, cut = _subset_weights(weights[:h]), _subset_weights(weights[h:]), (1 << h) - 1

    def weight(mask: int) -> int:
        return low[mask & cut] + high[mask >> h]

    quota = 1 + max(map(weight, target_masks))
    if any(weight(m) < quota for m in fixed_masks):
        return None
    return WeightedGame(quota, weights)


def _coalition_masks(coalitions: Iterable[Coalition], n: int) -> list[int]:
    """Compact masks of API coalitions, each checked to be over ``n`` players."""
    masks = []
    for c in coalitions:
        if c.n != n:
            raise InvalidGameError(f"coalition over {c.n} players, expected {n}")
        masks.append(c.members >> 1)
    return masks


def co_realizable(
    mwc: Sequence[Coalition], targets: Iterable[Coalition]
) -> WeightedGame | None:
    """Weighted game winning on all of ``mwc`` and losing on all of ``targets``.

    ``mwc`` must be the minimal winning antichain of the game under study and
    ``targets`` a subset of its maximal losing coalitions.  Returns an
    integer representation obtained from the exact LP certificate, or None
    when the rational system is infeasible.
    """
    mwc = tuple(mwc)
    if not mwc:
        raise InvalidGameError("need at least one minimal winning coalition")
    n = mwc[0].n
    rows = _separation_rows(n, _coalition_masks(mwc, n), _coalition_masks(targets, n))
    return _separate(n, rows)


def realizable(
    mlc: Sequence[Coalition], targets: Iterable[Coalition]
) -> WeightedGame | None:
    """Weighted game losing on all of ``mlc`` and winning on all of ``targets``.

    The mirror of :func:`co_realizable` for union factors: ``mlc`` is the
    maximal losing antichain, ``targets`` a subset of the minimal winning
    coalitions.  It is the dual, ``dual_weighted(p) = [w(N) - q* + 1; w]``,
    of the game ``p = [q*; w]`` that :func:`co_realizable` finds winning on
    each N - L and losing on each N - A: then w(L) = w(N) - w(N - L) <= q - 1
    and w(A) = w(N) - w(N - A) >= q for the new quota q.  That q is a valid
    quota and the grand coalition wins, so the empty target set still yields
    a weighted game: q* <= w(N - L) <= w(N) on any fixed row gives q >= 1,
    and q* >= 1 from the quota row gives w(N) >= q.
    """
    mlc = tuple(mlc)
    if not mlc:
        raise InvalidGameError("need at least one maximal losing coalition")
    part = co_realizable([c.complement() for c in mlc], [t.complement() for t in targets])
    return None if part is None else dual_weighted(part)


def _greedy_clique(order: Sequence[int], cand: int, adj: Sequence[int]) -> list[int]:
    """First-fit clique over the vertices of ``order`` that are in the mask ``cand``."""
    clique: list[int] = []
    for v in order:
        if cand >> v & 1:
            clique.append(v)
            cand &= adj[v]
            if not cand:
                break
    return clique


def _trade(fixed_masks: Sequence[int], t1: int, t2: int) -> tuple[int, int] | None:
    """The 2-trade (M, M2) that keeps targets ``t1`` and ``t2`` apart, or None.

    M and M2 are fixed masks inside ``t1 | t2`` whose intersection lies in
    ``t1 & t2`` (see the module docstring): the first such M in list order,
    with the first M2 that misses M's players in ``t1 ^ t2``.
    """
    split, outside = t1 ^ t2, ~(t1 | t2)
    inside = [m for m in fixed_masks if not m & outside]
    for m in inside:
        cut = m & split
        for m2 in inside:
            if not m2 & cut:
                return m, m2
    return None


def _check_trade(fixed: frozenset[int], t1: int, t2: int, record: tuple[int, int]) -> None:
    """Raise ``CertificateError`` unless ``record`` is a 2-trade of ``t1`` and ``t2``.

    M and M2 are fixed masks, M | M2 lies in T1 | T2 and M & M2 in T1 & T2,
    so every player is in T1 and T2 at least as often as in M and M2.
    """
    m, m2 = record
    if not (
        m in fixed and m2 in fixed and not (m | m2) & ~(t1 | t2) and not m & m2 & ~(t1 & t2)
    ):
        raise _lp.CertificateError("2-trade record does not keep its targets apart")


def _trade_certificate(
    n: int, fixed_masks: Sequence[int], t1: int, t2: int
) -> _lp.FarkasWitness | None:
    """Farkas form of the 2-trade that keeps targets ``t1`` and ``t2`` apart.

    The witness is on the pair's separation LP: the fixed rows, the quota
    row, then rows ``t1`` and ``t2``.  It puts 1 on rows M, M2, T1 and T2,
    0 on the quota row (two won rows less two lost ones), and on the sign
    row w_j >= 0 the count [j in T1] + [j in T2] - [j in M] - [j in M2].
    None when there is no trade.
    """
    record = _trade(fixed_masks, t1, t2)
    if record is None:
        return None
    m, m2 = record
    rows = [0] * (len(fixed_masks) + 3)
    rows[fixed_masks.index(m)] += 1
    rows[fixed_masks.index(m2)] += 1
    rows[-2] = rows[-1] = 1
    counts = [(t1 >> j & 1) + (t2 >> j & 1) - (m >> j & 1) - (m2 >> j & 1) for j in range(n)]
    return _lp.FarkasWitness(tuple(rows), tuple((j, u) for j, u in enumerate(counts) if u))


def _minimum_partition(count: int, cache: SeparabilityOracleCache, adj: list[int]) -> list[int]:
    """Minimum-cardinality partition of target indices into feasible blocks.

    ``adj`` holds, as neighbour bitmasks, the pairs that a checked 2-trade
    keeps apart; no other pair is queried up front, so an incompatible pair
    that is not traded is found only when a block holding it fails.  Each
    attempt at a block count ``limit`` places the targets in ``order`` into
    an existing block the oracle accepts, or into a new block while fewer
    than ``limit`` exist.  Each block keeps the union of its members'
    neighbourhoods, so the targets that fit no current block are one AND
    per block, and the attempt backtracks when they contain a clique too
    large for the blocks still allowed.  The placements live on an explicit
    stack, so the depth is bounded by memory, not by the recursion limit.
    The attempts run from the clique bound up, so the first that succeeds is
    a minimum.
    """
    full = (1 << count) - 1
    by_degree = sorted(range(count), key=lambda v: (-adj[v].bit_count(), v))
    clique = _greedy_clique(by_degree, full, adj)
    in_clique = set(clique)
    order = clique + [v for v in by_degree if v not in in_clique]
    unplaced = [0] * (count + 1)
    for pos in range(count - 1, -1, -1):
        unplaced[pos] = unplaced[pos + 1] | 1 << order[pos]

    def attempt(limit: int) -> list[int] | None:
        # Per block, its targets and the union of their neighbourhoods.
        blocks: list[tuple[int, int]] = []
        # Per placed position, its block index and that block before it.
        placed: list[tuple[int, tuple[int, int] | None]] = []
        pos, nxt = 0, 0  # nxt: the first block to try for order[pos]
        while True:
            if nxt == 0:
                if pos == count:
                    return [bm for bm, _ in blocks]
                # Every unplaced target must still have a compatible home.
                stuck = unplaced[pos]
                for _, nb in blocks:
                    stuck &= nb
                if stuck and len(blocks) + len(_greedy_clique(order[pos:], stuck, adj)) > limit:
                    nxt = limit + 1  # no block is left to try: backtrack
            v = order[pos]
            vbit = 1 << v
            while nxt < len(blocks):
                bm = blocks[nxt][0]
                if not adj[v] & bm and cache.query(bm | vbit) is not None:
                    break
                nxt += 1
            if nxt < len(blocks):
                placed.append((nxt, blocks[nxt]))
                bm, nb = blocks[nxt]
                blocks[nxt] = (bm | vbit, nb | adj[v])
            elif nxt == len(blocks) < limit:
                placed.append((nxt, None))
                blocks.append((vbit, adj[v]))
            elif placed:
                # Take the last placement back and try its next block.
                pos -= 1
                nxt, before = placed.pop()
                if before is None:
                    blocks.pop()
                else:
                    blocks[nxt] = before
                nxt += 1
                continue
            else:
                return None
            pos, nxt = pos + 1, 0

    limit = max(1, len(clique))
    while (found := attempt(limit)) is None:
        limit += 1
    return found


def _witnessed_partition(
    game: SimpleGame, fixed_table: int, target_table: int, kind: str
) -> DimensionWitness:
    """Minimum partition of the targets of ``target_table`` against ``fixed_table``.

    The cap is checked on the table's bit count, before any mask is listed.
    A codimension passes complemented tables; their masks are listed
    descending, so that both lists keep the order of the game's own
    ascending coalitions.
    """
    count = target_table.bit_count()
    if count > COVER_MAX:
        raise SizeLimitError(f"{count} separation targets exceed the solver cap of {COVER_MAX}")
    order = -1 if kind == UNION else 1
    fixed_masks, target_masks = set_bits(fixed_table)[::order], set_bits(target_table)[::order]
    n = game.n
    rows = _separation_rows(n, fixed_masks, target_masks)
    fixed, targets = rows[: len(fixed_masks) + 1], rows[len(fixed_masks) + 1 :]

    def widened(mask: int) -> int:
        """``mask`` plus, in index order, each target that no trade keeps from it."""
        near = 0
        for i in set_bits(mask):
            near |= adj[i]
        for i in range(count):
            if not (mask | near) >> i & 1:
                mask |= 1 << i
                near |= adj[i]
        return mask

    def solver(mask: int) -> tuple[int, WeightedGame] | None:
        """The block solved for ``mask`` and its part, or None if none separates.

        One target is answered by its unit part.  A wider block tries its
        widened block first, then the block itself, each one LP.
        """
        if not mask & (mask - 1):
            part = _unit_part(n, fixed_masks, target_masks[mask.bit_length() - 1])
            return None if part is None else (mask, part)
        wide = widened(mask)
        for block in (wide, mask) if wide != mask else (mask,):
            part = _separate(n, fixed + tuple(targets[i] for i in set_bits(block)))
            if part is not None:
                return block, part
        return None

    fixed_set = frozenset(fixed_masks)
    adj = [0] * count
    for i in range(count):
        for j in range(i + 1, count):
            t1, t2 = target_masks[i], target_masks[j]
            record = _trade(fixed_masks, t1, t2)
            if record is not None:
                _check_trade(fixed_set, t1, t2, record)
                adj[i] |= 1 << j
                adj[j] |= 1 << i

    part = None if any(adj) else _banzhaf_part(game, fixed_masks, target_masks)
    if part is not None:
        parts = (part,)
    else:
        cache = SeparabilityOracleCache(solver)
        parts = tuple(cache.query(bm) for bm in _minimum_partition(count, cache, adj))
        if None in parts:
            raise RuntimeError("internal error: a block of the found partition is infeasible")
    if kind == UNION:
        parts = tuple(map(dual_weighted, parts))
    witness = DimensionWitness(len(parts), parts, kind)
    if not equivalent(witness.as_game(), game):
        raise RuntimeError("internal error: witness parts do not recombine to the game")
    return witness


def dimension(game: SimpleGame) -> DimensionWitness:
    """Least k with the game an intersection of k weighted games, plus parts."""
    if game.form == WEIGHTED:
        return DimensionWitness(1, game.parts, INTERSECTION)
    sets = extremal_sets(game)
    return _witnessed_partition(game, sets.winning, sets.losing, INTERSECTION)


def codimension(game: SimpleGame) -> DimensionWitness:
    """Least k with the game a union of k weighted games, plus parts.

    A part [q; w] loses on every maximal losing L and wins on a minimal
    winning A exactly when its dual [w(N) - q + 1; w] wins on N - L and loses
    on N - A (see :func:`realizable`).  So the dimension oracle runs on the
    complemented tables of the game's own extremal sets, and each part found
    is mapped back by ``dual_weighted``; no dual game is built.
    """
    if game.form == WEIGHTED:
        return DimensionWitness(1, game.parts, UNION)
    sets = extremal_sets(game)
    n = game.n
    return _witnessed_partition(
        game, complemented(sets.losing, n), complemented(sets.winning, n), UNION
    )


def is_weighted(game: SimpleGame) -> WeightedGame | None:
    """An integer weighted representation of the game, or None if none exists.

    The Banzhaf part (see the module docstring) is tried first on the minimal
    winning and maximal losing masks; it is a representation exactly when
    every minimal winning mask reaches its quota.  When it misses, the
    separation LP over both families decides.
    """
    if game.form == WEIGHTED:
        return game.parts[0]
    sets = extremal_sets(game)
    n = game.n
    winning, losing = set_bits(sets.winning), set_bits(sets.losing)
    part = _banzhaf_part(game, winning, losing)
    return part if part is not None else _separate(n, _separation_rows(n, winning, losing))


def canonical_intersection(game: SimpleGame) -> list[WeightedGame]:
    """One quota-1 part per maximal losing coalition (zero weights inside it)."""
    return [_unit_part(game.n, (), m) for m in set_bits(extremal_sets(game).losing)]


def canonical_union(game: SimpleGame) -> list[WeightedGame]:
    """One unanimity part per minimal winning coalition A.

    It is the dual of the canonical intersection part of N - A, as in
    :func:`codimension`.
    """
    n = game.n
    full = (1 << n) - 1
    return [
        dual_weighted(_unit_part(n, (), full ^ m)) for m in set_bits(extremal_sets(game).winning)
    ]


def convert(game: SimpleGame, to: str, mode: str = "canonical") -> list[WeightedGame]:
    """Intersection or union representation, canonical (antichain-sized) or minimal."""
    if to not in (INTERSECTION, UNION):
        raise InvalidGameError(f"conversion target must be intersection or union, got {to!r}")
    if mode == "canonical":
        return canonical_intersection(game) if to == INTERSECTION else canonical_union(game)
    if mode == "minimal":
        witness = dimension(game) if to == INTERSECTION else codimension(game)
        return list(witness.parts)
    raise InvalidGameError(f"conversion mode must be canonical or minimal, got {mode!r}")
