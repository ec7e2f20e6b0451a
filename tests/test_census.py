"""Every game on at most five players: a census of answers, block parts and weighted games.

The checks below run on every game on at most four players; one sweep of
answers, LP certificates and tight part quotas, and the check of
``is_weighted`` against an enumeration of weighted games, run on all 7,579
games on five too.

A game here is a monotone truth table over compact masks with the empty
coalition losing and some coalition winning.  The monotone tables on n
players are f0 | f1 << 2^(n-1) for monotone tables f0 within f1 on n - 1
players: f0 holds the coalitions without player n and f1 those with it.
"""

import itertools
from functools import reduce
from math import gcd

import gamedim as gd
from gamedim import dimsolver
from gamedim.core import extremal_tables, minimal_masks, minimal_table, set_bits, swing_counts
from gamedim.structure import losing_table


def monotone_tables(n):
    """Every monotone table on ``n`` players, the two constant ones included."""
    if n == 0:
        return [0, 1]
    lower = monotone_tables(n - 1)
    half = 1 << n >> 1
    return [f0 | f1 << half for f1 in lower for f0 in lower if not f0 & ~f1]


def games(n):
    constants = (0, (1 << (1 << n)) - 1)
    return [table for table in monotone_tables(n) if table not in constants]


def separation_families(table, n):
    """(fixed masks, target masks) of the dimension and of the codimension."""
    winning, losing = set_bits(minimal_table(table, n)), set_bits(losing_table(table, n))
    yield winning, losing
    full = (1 << n) - 1
    yield sorted(full ^ m for m in losing), sorted(full ^ m for m in winning)


def test_game_counts_are_the_dedekind_numbers_less_the_constants():
    # 3, 6, 20, 168 and 7,581 monotone functions of 1 to 5 variables (OEIS A000372).
    assert [len(games(n)) for n in range(1, 6)] == [1, 4, 18, 166, 7579]


def losing_by_the_dual(table, n):
    """The maximal losing table read off the dual's table by bit reversal.

    Reversing the 2^n bits maps each coalition to its complement; negated,
    that is the dual's table, and the reversed minimal table of the dual is
    the maximal losing table.
    """

    def reverse(t):
        return int(f"{t:0{1 << n}b}"[::-1], 2)

    return reverse(minimal_table(reverse(table) ^ ((1 << (1 << n)) - 1), n))


def test_the_one_pass_extremal_tables_match_the_separate_passes():
    # Every game on at most five players: the minimal winning table, the
    # maximal losing table by way of the dual, and the swing counts.
    checked = 0
    for n in range(1, 6):
        for table in games(n):
            winning, losing = minimal_table(table, n), losing_by_the_dual(table, n)
            assert extremal_tables(table, n) == (winning, losing, swing_counts(table, n))
            checked += 1
    assert checked == 7768


def simple_game(table, n):
    return gd.make_explicit(n, [gd.Coalition(m << 1, n) for m in minimal_masks(table, n)])


def reversed_labels(game):
    """The game with player j renamed n + 1 - j."""
    n = game.n
    return gd.make_explicit(
        n, [gd.Coalition.from_players([n + 1 - j for j in c], n) for c in game.antichain]
    )


def test_every_small_game_answers_consistently_and_with_checked_certificates():
    # Every game on at most four players: the codimension is the dimension
    # of the dual, a game is weighted exactly when its dimension is 1 and
    # exactly when its codimension is, the answers do not depend on the
    # player labels, and every LP solved on the way re-verifies.
    answered = 0
    with gd.record_certificates() as log:
        for n in range(1, 5):
            for table in games(n):
                game = simple_game(table, n)
                dim, codim = gd.dimension(game).value, gd.codimension(game).value
                assert codim == gd.dimension(gd.dual(game)).value
                weighted = gd.is_weighted(game) is not None
                assert (dim == 1) == (codim == 1) == weighted
                mirror = reversed_labels(game)
                assert (gd.dimension(mirror).value, gd.codimension(mirror).value) == (dim, codim)
                assert (gd.is_weighted(mirror) is not None) == weighted
                answered += 1
    assert answered == 189
    # 28 LPs, all feasible.
    assert log
    for lp, result in log:
        gd.verify_certificate(lp, result)


def test_every_block_gets_a_part_only_when_its_lp_is_feasible():
    # Every block of every game in both orientations: a returned part wins
    # on each fixed mask and loses on each block target, summed player by
    # player, and the block's LP is feasible; an infeasible block gets none.
    blocks = feasible = settled = 0
    for n in range(1, 5):
        for table in games(n):
            for fixed, targets in separation_families(table, n):
                for size in range(1, len(targets) + 1):
                    for block in itertools.combinations(range(len(targets)), size):
                        masks = [targets[i] for i in block]
                        part = dimsolver._block_part(n, fixed, masks)
                        lp = dimsolver._separate(n, fixed, masks)
                        blocks += 1
                        if lp is None:
                            assert part is None
                            continue
                        feasible += 1
                        if part is None:
                            continue
                        settled += 1
                        for group, wins in ((fixed, True), (masks, False)):
                            for m in group:
                                weight = sum(w for j, w in enumerate(part.weights) if m >> j & 1)
                                assert (weight >= part.quota) == wins
    # The Banzhaf parts of the blocks' own games settle 2,354 of the 2,518
    # feasible blocks.
    assert (blocks, feasible, settled) == (2614, 2518, 2354)


def coalition_weights(weights):
    """The weight of every coalition under ``weights``, indexed by compact mask."""
    sums = [0]
    for w in weights:
        sums += [s + w for s in sums]
    return sums


def weighted_table(sums, quota):
    """The truth table of a quota over the coalition weights ``sums``."""
    return sum(1 << s for s, w in enumerate(sums) if w >= quota)


def part_table(part):
    """The truth table of one weighted part, rebuilt coalition by coalition."""
    return weighted_table(coalition_weights(part.weights), part.quota)


def threshold_tables(n, most):
    """Tables of every [q; w] on ``n`` players, integer weights 0..``most``, 1 <= q <= w(N)."""
    tables = set()
    for weights in itertools.product(range(most + 1), repeat=n):
        sums = coalition_weights(weights)
        tables.update(weighted_table(sums, quota) for quota in range(1, sum(weights) + 1))
    return tables


def test_is_weighted_agrees_with_an_enumeration_of_every_small_weighted_game():
    # Weights up to 1, 1, 2, 3 and 5 reach every weighted game on 1 to 5
    # players: 3, 6, 20, 150 and 3,287 positive threshold functions (OEIS
    # A000617) less the two constants.  A representation found is checked
    # against the game's table.
    counts = []
    for n, most in zip(range(1, 6), (1, 1, 2, 3, 5)):
        weighted = threshold_tables(n, most)
        for table in games(n):
            part = gd.is_weighted(simple_game(table, n))
            assert (part is not None) == (table in weighted)
            if part is not None:
                assert weighted_table(coalition_weights(part.weights), part.quota) == table
        counts.append(len(weighted))
    assert counts == [1, 4, 18, 148, 3285]


def assert_tight(part, targets):
    """The part is a threshold part: weights with gcd 1, and a target one short of its quota."""
    assert gcd(*part.weights) == 1, part
    sums = coalition_weights(part.weights)
    assert any(sums[t] == part.quota - 1 for t in targets), part


def test_every_five_player_game_has_equal_dimension_and_codimension():
    # On five players the dimension equals the codimension game by game
    # (example1 n=3, on six players, has dimension 3 and codimension 4), a
    # game is weighted exactly when its dimension is 1, and every LP solved
    # on the way re-verifies.  Every part's quota is tight: the dimension
    # parts and the ``is_weighted`` part on the maximal losing masks, and
    # the dual of each codimension part on the complemented minimal winning
    # ones.  Each witness's parts, rebuilt here coalition by coalition,
    # intersect (dimension) or unite (codimension) to the game's table.  The
    # sweep takes a few seconds.
    joint = {}
    parts = 0
    with gd.record_certificates() as log:
        for table in games(5):
            game = simple_game(table, 5)
            dim, codim = gd.dimension(game), gd.codimension(game)
            for witness, fold in ((dim, int.__and__), (codim, int.__or__)):
                assert reduce(fold, map(part_table, witness.parts)) == table
            joint[dim.value, codim.value] = joint.get((dim.value, codim.value), 0) + 1
            weighted = gd.is_weighted(game)
            assert (weighted is not None) == (dim.value == 1)
            (_, losing), (_, winning) = separation_families(table, 5)
            tight = [(p, losing) for p in dim.parts]
            tight += [(gd.dual_weighted(p), winning) for p in codim.parts]
            if weighted is not None:
                tight.append((weighted, losing))
            for part, targets in tight:
                assert_tight(part, targets)
            parts += len(tight)
    assert joint == {(1, 1): 3285, (2, 2): 4270, (3, 3): 24}
    # 11,897 dimension parts, as many codimension parts and 3,285 representations.
    assert parts == 27079
    # 3,104 LPs, 127 of them infeasible.
    assert any(not result.feasible for _, result in log)
    for lp, result in log:
        gd.verify_certificate(lp, result)
