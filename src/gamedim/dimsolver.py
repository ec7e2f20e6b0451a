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
convert at the boundary.  The search's state (the pair graph and the oracle
cache) is built in ``_search``, and only there; each block LP builds its
own rows from masks in ``_separate``.

Block feasibility is an exact rational LP and is downward closed, so a
minimum cover can be assumed to be a partition.  Each block first tries
its block part (below), and only when that misses is it one LP, solved
cold: the fixed rows, one winning row per fixed coalition and the quota
row, then the block's target rows in target order.  A block of one target
never needs the LP, since its part misses only when no game separates it.
The oracle cache is a memo over blocks, keyed by the block asked: a
feasible entry answers every later subset of its block, an infeasible one
every superset.  No pair or singleton is queried up front; the oracle sees
only the blocks that the partition search asks.

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
traded pair, so the cache never holds one.  ``is_weighted`` answers "no"
with the same record: when its Banzhaf part (below) misses, the maximal
losing T* of greatest Banzhaf weight is paired with each other maximal
losing coalition in order, and the first checked trade settles it; only a
T* with no trade leaves the answer to the LP.

Each query climbs one ladder, cheapest certificate first: a weighted-form
game is its own part; then the cap; then the Banzhaf part of the whole
target set; and only when that misses, the search with its trades, rows
and LPs.  Every rung below the cap is one rule, the block part.  A block B
of targets defines its own game G_B, which wins on every coalition inside
no target of B: the largest game that loses on all of B.  Its part takes
G_B's swing counts (Banzhaf, Rutgers Law Review 19, 1965) as weights over
their gcd: player j's count is the number of winning S holding j for
which S - j loses.  With the number of winning coalitions they are the
Chow parameters of G_B, which determine a threshold function (Chow 1961),
and as weights they represent most weighted games, though not all.  The
part [q; w], q one above the heaviest target of B, loses on all of B and
is kept only if every fixed mask reaches q: a complete check on masks.
Every part is such a threshold part, weights over their gcd and a quota
one above the heaviest target: an LP's part takes the LP's weights in
place of the swing counts (``_separate``).  A kept part proves its block
feasible, so every block gets the answer its LP would give.  A traded pair
proves that no one part separates it, so the part misses on it by that
check alone.

``_block_part`` counts the swings on 2^|D| coalitions, D the players in
some but not all targets of B; a block of one target has D empty, and its
part is the unit part [1; w_j = 0 on T, 1 elsewhere], checked with no
table.  The whole target set's game is the game itself (dimension) or its
dual (codimension).  S is a swing of j in a game exactly when (N - S) + j
is one in its dual, so both have the game's own swing counts.  The top
rung reads them from ``ExtremalSets.swings``, counted in the same pass over
the game's table that reads its extremal families: a separable game is its
one-part partition, and no trade, row or LP is built.  When that part
misses, the search runs: the first block it asks is a pair, which widens
(below) to the full block, so a separable target set still costs at most
one LP.  Each block LP builds its own rows.

The search asks whether a block of two or more targets fits by asking the
cache for its widened block first: in index order, each target that no
checked trade keeps from the block, or from a target already added, joins
it.  A feasible widened block keys its own entry, so its witness answers
the blocks inside it that the search asks later; only if it is infeasible
is the block itself asked, and the failed widened block stays in the cache
as an infeasible entry like any other.  Only verified outcomes enter the
cache, so every question gets the same answer as without widening or block
parts and the search finds the same partition; only the witness part that
answers a block may differ.

One iterative-deepening partition search tries each block count from a
clique bound of the trade graph up.  It places the targets one at a time,
in the first block the oracle accepts or else a new one, and backtracks
when an attempt runs out of blocks; the first-fit greedy partition is thus
the first descent of every attempt it fits in, and no separate greedy pass
runs.  By downward closure every partition into k feasible blocks stays
feasible on each prefix of the targets, so an attempt at k finds one
whenever one exists and a failed attempt proves that none does.

An answer is checked on its partition and its masks; no part table is built.
Every part was checked on masks when it was made: a threshold part wins on
every fixed mask and loses on every target of the block it was checked on
(the unit part too), and the cache hands a part only to a subset of that
block.  So two facts are checked.  The blocks are disjoint and cover every
target.  The superset closure of the minimal winning masks is the game's
table, and the subset closure of the maximal losing masks is the set of its
losing coalitions (a union's masks are complemented back first); one pass
per player builds both.  Then
every winning coalition holds a fixed mask, on which every part wins, and
every losing one lies in a target, on which the part of its block loses,
so by monotonicity the parts intersect to the game.
The mirror argument holds for a union's parts mapped back by
``dual_weighted``: each loses on every maximal losing L, and each minimal
winning A wins in the part of its block.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Callable, Iterable, Sequence

from .core import (
    INTERSECTION,
    UNION,
    WEIGHTED,
    CertificateError,
    Coalition,
    InvalidGameError,
    SimpleGame,
    SizeLimitError,
    WeightedGame,
    _subset_weights,
    closures,
    combine,
    set_bits,
    superset_closure,
    swing_counts,
)
from .structure import dual_weighted, extremal_sets

# Unused here: bench/tracer.py patches ``dimsolver.equivalent`` to time it.
from .structure import equivalent  # noqa: F401

# ``gamedim.lp`` (with ``fractions``) is imported inside the functions that
# lay out or solve an LP, so a process whose games need no LP never loads
# it.  Not ``from . import lp``: that package lookup would load every
# submodule.

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
    """Block-feasibility memo keyed by target-subset bitmasks.

    ``solver(mask)`` returns a part that separates exactly the block
    ``mask``, or None when the block is infeasible, and each outcome is kept
    under the mask asked.  A feasible entry's witness answers every subset of
    its block; an infeasible entry settles every superset.  So a widened
    block that fails is kept like any other infeasible block.  The two lists
    only grow at the end, so they also answer repeats: a repeated query finds
    the same first match, or its own entry, and gets the same witness object.
    Under concurrent use two threads may solve the same mask; both outcomes
    are correct, so the duplicate only costs one LP.
    """

    def __init__(self, solver: Callable[[int], WeightedGame | None]):
        self._solver = solver
        self._feasible: list[tuple[int, WeightedGame]] = []
        self._infeasible: list[int] = []

    def query(self, mask: int) -> WeightedGame | None:
        for block, witness in self._feasible:
            if mask & ~block == 0:
                return witness
        for imask in self._infeasible:
            if imask & ~mask == 0:
                return None
        witness = self._solver(mask)
        if witness is None:
            self._infeasible.append(mask)
        else:
            self._feasible.append((mask, witness))
        return witness


def _separation_rows(
    n: int, fixed_masks: Sequence[int], target_masks: Sequence[int]
) -> tuple[gamedim.lp.Constraint, ...]:
    """Rows a.x >= b of the separation LP for a weighted game [q; w] over w_1..w_n, q.

    The fixed rows come first: w(S) - q >= 0 on each fixed coalition S, so
    the game wins on it, and the quota row q >= 1.  Then q - w(T) >= 1 on
    each target T, so the game loses on it.  Masks are compact.
    """
    import gamedim.lp as lp

    def row(mask, sign, rhs):
        return lp.Constraint([sign * (mask >> j & 1) for j in range(n)] + [-sign], rhs)

    return (
        *(row(m, 1, 0) for m in fixed_masks),
        lp.Constraint((0,) * n + (1,), 1),
        *(row(m, -1, 1) for m in target_masks),
    )


def _separate(
    n: int, fixed_masks: Sequence[int], target_masks: Sequence[int]
) -> WeightedGame | None:
    """The integer game [q; w] winning on every fixed mask and losing on every target, or None.

    The LP's rows are the ``_separation_rows`` of the masks, and this is the
    only place that lays them out.  Only its weights are read: put over one
    common denominator, they give the :func:`_threshold_part` of the masks,
    which must exist, since the LP's own quota separates them.
    """
    import gamedim.lp as lp

    rows = _separation_rows(n, fixed_masks, target_masks)
    result = lp.solve_feasibility(lp.LinearProgram(n + 1, rows))
    if not result.feasible:
        return None
    weights, _ = lp.common_denominator(result.assignment[:n])
    part = _threshold_part(weights, fixed_masks, target_masks)
    if part is None:
        raise CertificateError("scaled weighted game misses a separation row")
    return part


def _mask_weight(weights: Sequence[int]) -> Callable[[int], int]:
    """The weight of a compact mask under ``weights``: one lookup per half of the players."""
    h = len(weights) // 2
    low, high, cut = _subset_weights(weights[:h]), _subset_weights(weights[h:]), (1 << h) - 1

    def weight(mask: int) -> int:
        return low[mask & cut] + high[mask >> h]

    return weight


def _threshold_part(
    weights: Sequence[int], fixed_masks: Sequence[int], target_masks: Sequence[int]
) -> WeightedGame | None:
    """The part [q; w] with w = ``weights`` over their gcd, or None.

    The quota is one above the heaviest target, or 1 with no target, so the
    part loses on every target; it is returned only when every fixed mask
    reaches the quota.  All-zero weights give no part.
    """
    shrink = gcd(*weights)
    if not shrink:
        return None
    weights = [w // shrink for w in weights]
    weight = _mask_weight(weights)
    quota = 1 + max(map(weight, target_masks), default=0)
    if any(weight(m) < quota for m in fixed_masks):
        return None
    return WeightedGame(quota, weights)


def _block_part(
    n: int, fixed_masks: Sequence[int], block_masks: Sequence[int]
) -> WeightedGame | None:
    """The Banzhaf part of the block's own game, or None.

    The block's game G_B wins on every coalition inside no target of the
    block: the largest game that loses on all of it.  Let I be the players in
    every target and D those in some but not all.  A coalition loses in G_B
    exactly when it is a subset of I joined to a member of down_D, the
    coalitions of D inside some target, so each swing count of G_B is 2^|I|
    times a count over down_D:

    * a player in I never swings, and weighs 0;
    * a player in no target swings on every losing coalition: |down_D|;
    * a player j in D swings 2 |down_D without j| - |down_D| times, as in
      the dual of G_B on D, the superset closure of the D - T, which has the
      same swing counts and as many coalitions as down_D.

    :func:`_threshold_part` sets the quota and checks the part on every
    fixed mask.  A block of one target T has D empty and is the unit part
    [1; w_j = 0 on T, 1 elsewhere], which loses exactly on the subsets of T:
    it is checked with no table, by a player outside T in every fixed mask.
    """
    inside = union = block_masks[0]
    for t in block_masks:
        inside &= t
        union |= t
    if inside == union:
        for m in fixed_masks:
            if not m & ~inside:
                return None
        return WeightedGame(1, [0 if inside >> j & 1 else 1 for j in range(n)])
    players = set_bits(union ^ inside)
    k = len(players)
    dual = superset_closure(
        [sum(1 << i for i, j in enumerate(players) if ~t >> j & 1) for t in block_masks], k
    )
    weights = [0 if inside >> j & 1 else dual.bit_count() for j in range(n)]
    for j, s in zip(players, swing_counts(dual, k)):
        weights[j] = s
    return _threshold_part(weights, fixed_masks, block_masks)


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
    return _separate(n, _coalition_masks(mwc, n), _coalition_masks(targets, n))


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
    and q* >= 1, one above the heaviest target or 1 with none, gives
    w(N) >= q.
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
        raise CertificateError("2-trade record does not keep its targets apart")


def _trade_certificate(
    n: int, fixed_masks: Sequence[int], t1: int, t2: int
) -> gamedim.lp.FarkasWitness | None:
    """Farkas form of the 2-trade that keeps targets ``t1`` and ``t2`` apart.

    The witness is on the pair's separation LP: the fixed rows, the quota
    row, then rows ``t1`` and ``t2``.  It puts 1 on rows M, M2, T1 and T2,
    0 on the quota row (two won rows less two lost ones), and on the sign
    row w_j >= 0 the count [j in T1] + [j in T2] - [j in M] - [j in M2].
    None when there is no trade.
    """
    import gamedim.lp as lp

    record = _trade(fixed_masks, t1, t2)
    if record is None:
        return None
    m, m2 = record
    rows = [0] * (len(fixed_masks) + 3)
    rows[fixed_masks.index(m)] += 1
    rows[fixed_masks.index(m2)] += 1
    rows[-2] = rows[-1] = 1
    counts = [(t1 >> j & 1) + (t2 >> j & 1) - (m >> j & 1) - (m2 >> j & 1) for j in range(n)]
    return lp.FarkasWitness(tuple(rows), tuple((j, u) for j, u in enumerate(counts) if u))


def _minimum_partition(count: int, fits: Callable[[int], bool], adj: list[int]) -> list[int]:
    """Minimum-cardinality partition of target indices into blocks that ``fits``.

    ``fits(mask)`` says whether one part separates the block ``mask``.
    ``adj`` holds, as neighbour bitmasks, the pairs that a checked 2-trade
    keeps apart; no other pair is queried up front, so an incompatible pair
    that is not traded is found only when a block holding it fails.  Each
    attempt at a block count ``limit`` places the targets in ``order`` into
    an existing block that still fits with it, or into a new block while fewer
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
                if not adj[v] & bm and fits(bm | vbit):
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


def _search(
    n: int, fixed_masks: Sequence[int], target_masks: Sequence[int]
) -> tuple[tuple[WeightedGame, ...], list[int]]:
    """One part per block of a minimum partition of the targets, and the blocks.

    Each block is a mask over target indices, answered by the part at the
    same position.

    The search's state lives here: the pair graph of checked 2-trades and
    the oracle cache over blocks of targets.  It keeps no separation rows:
    each block LP builds its own in ``_separate``.
    """
    count = len(target_masks)
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

    def part_of(block: int) -> WeightedGame | None:
        """The block part of ``block`` if it separates, else the block's LP.

        A block of one target is answered by its block part, the unit part,
        with no LP: that part misses only when no game separates the target.
        """
        targets = [target_masks[i] for i in set_bits(block)]
        part = _block_part(n, fixed_masks, targets)
        if part is not None or len(targets) == 1:
            return part
        return _separate(n, fixed_masks, targets)

    cache = SeparabilityOracleCache(part_of)

    def fits(mask: int) -> bool:
        """Whether one part separates ``mask``: its widened block's, or else its own."""
        return cache.query(widened(mask)) is not None or cache.query(mask) is not None

    blocks = _minimum_partition(count, fits, adj)
    parts = tuple(cache.query(bm) for bm in blocks)
    if None in parts:
        raise RuntimeError("internal error: a block of the found partition is infeasible")
    return parts, blocks


def _witnessed_partition(game: SimpleGame, kind: str) -> DimensionWitness:
    """The dimension (``INTERSECTION``) or codimension (``UNION``) of ``game``.

    The ladder runs cheapest certificate first: a weighted-form game is its
    own part; otherwise the cap is checked on the target table's bit count,
    before any mask is listed, then the Banzhaf part, the block part of the
    whole target set weighted by the swing counts of the extremal sets, is
    tried, and only when it misses does the search run.  A codimension
    complements each mask of the game's own extremal sets, which keeps the
    order of its ascending coalitions, and maps each part back by ``dual_weighted``.  The answer is
    checked on its blocks and on the extremal masks, which the module
    docstring shows is enough; no part table is built.
    """
    if game.form == WEIGHTED:
        return DimensionWitness(1, game.parts, kind)
    sets = extremal_sets(game)
    n = game.n
    flip = (1 << n) - 1 if kind == UNION else 0
    fixed_table, target_table = (sets.losing, sets.winning) if flip else (sets.winning, sets.losing)
    count = target_table.bit_count()
    if count > COVER_MAX:
        raise SizeLimitError(f"{count} separation targets exceed the solver cap of {COVER_MAX}")
    fixed_masks = [flip ^ m for m in set_bits(fixed_table)]
    target_masks = [flip ^ m for m in set_bits(target_table)]
    part = _threshold_part(sets.swings, fixed_masks, target_masks)
    all_targets = (1 << count) - 1
    if part is not None:
        parts, blocks = (part,), [all_targets]
    else:
        parts, blocks = _search(n, fixed_masks, target_masks)
    covered = 0
    for block in blocks:
        covered |= block
    if covered != all_targets or sum(b.bit_count() for b in blocks) != count:
        raise RuntimeError("internal error: the found blocks do not partition the targets")
    # Minimal winning masks close upward to the table, maximal losing ones
    # downward to its complement; a union's masks are flipped back first.
    winners, losers = (target_masks, fixed_masks) if flip else (fixed_masks, target_masks)
    up, down = closures([flip ^ m for m in winners], [flip ^ m for m in losers], n)
    table = game.truth_table
    if up != table or down != table ^ ((1 << (1 << n)) - 1):
        raise RuntimeError("internal error: the extremal masks do not describe the game")
    if kind == UNION:
        parts = tuple(map(dual_weighted, parts))
    return DimensionWitness(len(parts), parts, kind)


def dimension(game: SimpleGame) -> DimensionWitness:
    """Least k with the game an intersection of k weighted games, plus parts."""
    return _witnessed_partition(game, INTERSECTION)


def codimension(game: SimpleGame) -> DimensionWitness:
    """Least k with the game a union of k weighted games, plus parts.

    A part [q; w] loses on every maximal losing L and wins on a minimal
    winning A exactly when its dual [w(N) - q + 1; w] wins on N - L and loses
    on N - A (see :func:`realizable`).  So the dimension oracle runs on the
    complemented masks of the game's own extremal sets, and each part found
    is mapped back by ``dual_weighted``; no dual game is built.
    """
    return _witnessed_partition(game, UNION)


def is_weighted(game: SimpleGame) -> WeightedGame | None:
    """An integer weighted representation of the game, or None if none exists.

    The Banzhaf part (see the module docstring) is tried first on the minimal
    winning and maximal losing masks; it is a representation exactly when
    every minimal winning mask reaches its quota.  When it misses, the
    maximal losing T* of greatest Banzhaf weight, the first in mask order on
    a tie, is paired with each other maximal losing mask in order, and the
    first 2-trade of a pair, checked by ``_check_trade``, proves that no
    weighted game exists.  Only when T* has no trade does the separation LP
    over both families decide.
    """
    if game.form == WEIGHTED:
        return game.parts[0]
    sets = extremal_sets(game)
    winning, losing = set_bits(sets.winning), set_bits(sets.losing)
    # The part's quota is set by the heaviest target, T*, which is picked
    # only when the part misses.
    part = _threshold_part(sets.swings, winning, losing)
    if part is not None:
        return part
    heaviest = max(losing, key=_mask_weight(sets.swings))
    for target in losing:
        if target != heaviest and (record := _trade(winning, heaviest, target)) is not None:
            _check_trade(frozenset(winning), heaviest, target, record)
            return None
    return _separate(game.n, winning, losing)


def canonical_intersection(game: SimpleGame) -> list[WeightedGame]:
    """One quota-1 part per maximal losing coalition (zero weights inside it)."""
    return [_block_part(game.n, (), [m]) for m in set_bits(extremal_sets(game).losing)]


def canonical_union(game: SimpleGame) -> list[WeightedGame]:
    """One unanimity part per minimal winning coalition A.

    It is the dual of the canonical intersection part of N - A, as in
    :func:`codimension`.
    """
    n = game.n
    full = (1 << n) - 1
    return [
        dual_weighted(_block_part(n, (), [full ^ m])) for m in set_bits(extremal_sets(game).winning)
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
