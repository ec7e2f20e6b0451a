"""Core model: coalitions, weighted games, simple games in all four forms."""

import copy
import pickle
import random
from functools import reduce
from operator import and_

import pytest

import gamedim as gd
from gamedim.core import (
    _bit_clears,
    closures,
    first_nested_pair,
    minimal_table,
    superset_closure,
    swing_counts,
)
from conftest import (
    all_coalitions,
    eval_by_hand,
    fresh_eval,
    games_agree_by_hand,
    winning_masks_by_hand,
)


def players(iterable, n):
    return gd.Coalition.from_players(iterable, n)


def table_bits(table):
    """Set bits of a truth table, i.e. the winning compact masks, by hand."""
    return {s for s in range(table.bit_length()) if table >> s & 1}


class TestCoalition:
    def test_from_players_roundtrip(self):
        c = players([1, 3], 4)
        assert c.players == (1, 3)
        assert c.size == 2
        assert 1 in c and 3 in c and 2 not in c and 5 not in c
        assert c.members == 0b1010

    def test_bitstring_roundtrip(self):
        c = players([1, 4], 5)
        assert c.bitstring() == "10010"
        assert gd.Coalition.from_bitstring("10010") == c

    def test_bitstring_is_one_character_per_player(self):
        rng = random.Random(5)
        for n in range(1, 25):
            for members in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
                c = gd.Coalition(members << 1, n)
                assert c.bitstring() == "".join("1" if j in c else "0" for j in range(1, n + 1))

    def test_complement(self):
        c = players([1, 2], 4)
        assert c.complement() == players([3, 4], 4)
        assert gd.Coalition.empty(3).complement() == gd.Coalition.grand(3)

    def test_issubset(self):
        assert players([1], 3).issubset(players([1, 3], 3))
        assert not players([2], 3).issubset(players([1, 3], 3))

    def test_rejects_bit_zero(self):
        with pytest.raises(gd.InvalidGameError):
            gd.Coalition(0b11, 3)

    def test_rejects_out_of_range_members(self):
        with pytest.raises(gd.InvalidGameError):
            gd.Coalition(0b10000, 3)
        with pytest.raises(gd.InvalidGameError):
            players([4], 3)

    def test_rejects_bad_player_count(self):
        with pytest.raises(gd.InvalidGameError):
            gd.Coalition(0, 0)
        with pytest.raises(gd.SizeLimitError):
            gd.Coalition(0, gd.N_MAX + 1)
        with pytest.raises(gd.SizeLimitError):
            gd.make_weighted(1, [1] * (gd.N_MAX + 1))
        with pytest.raises(gd.SizeLimitError):
            gd.SimpleGame(gd.N_MAX + 1, gd.WEIGHTED)

    def test_union(self):
        assert players([1], 3).union(players([1, 3], 3)) == players([1, 3], 3)
        with pytest.raises(gd.InvalidGameError, match="player counts differ: 3 vs 4"):
            players([1], 3).union(players([1], 4))

    def test_iteration_yields_the_players_ascending(self):
        assert list(players([4, 1, 3], 5)) == [1, 3, 4]
        assert list(gd.Coalition.empty(3)) == []

    def test_bitstring_validation(self):
        with pytest.raises(gd.InvalidGameError):
            gd.Coalition.from_bitstring("10x")
        with pytest.raises(gd.InvalidGameError):
            gd.Coalition.from_bitstring("10", 3)


class TestWeightedGame:
    def test_majority(self):
        wg = gd.make_weighted(2, [1, 1, 1])
        assert wg.quota == 2 and wg.weights == (1, 1, 1) and wg.n == 3
        assert wg.wins(players([1, 2], 3))
        assert not wg.wins(players([3], 3))

    def test_zero_quota_rejected(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_weighted(0, [1, 1])

    def test_ssp_part_is_valid(self):
        # First component of the d=2 reduction game for (b=3, a=(1,2,3)).
        wg = gd.make_weighted(10, [3, 6, 9, 1, 1, 0, 0])
        assert gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2)).parts[0] == wg

    def test_negative_weight_rejected(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_weighted(1, [1, -1])

    def test_grand_coalition_must_win(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_weighted(4, [1, 1, 1])

    def test_weight_player_count_mismatch(self):
        wg = gd.make_weighted(1, [1, 1])
        with pytest.raises(gd.InvalidGameError):
            wg.weight(players([1], 3))

    def test_weights_beyond_machine_integers(self):
        w = 2**62
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2 * w, [w, w, 1]))
        assert game.is_winning(players([1, 2], 3))
        assert not game.is_winning(players([1, 3], 3))
        assert gd.minimal_winning(game) == (players([1, 2], 3),)


class TestMakeExplicit:
    def test_upward_closure_of_dictator(self):
        game = gd.make_explicit(2, [players([1], 2)])
        assert winning_masks_by_hand(game) == {0b10, 0b110}

    def test_arbitrary_winning_discards_supersets(self):
        game = gd.make_explicit(
            2, [players([1], 2), players([1, 2], 2)], gd.ARBITRARY_WINNING
        )
        assert game.antichain == (players([1], 2),)

    def test_pair_transversals_match_example1(self):
        pairs = [players(p, 4) for p in ([1, 3], [1, 4], [2, 3], [2, 4])]
        game = gd.make_explicit(4, pairs)
        for c in all_coalitions(4):
            hits_both = (c.members & 0b00110) and (c.members & 0b11000)
            assert game.is_winning(c) == bool(hits_both)

    def test_minimal_given_rejects_nested(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_explicit(3, [players([1], 3), players([1, 2], 3)])

    def test_rejects_empty_coalition(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_explicit(2, [gd.Coalition.empty(2)])

    def test_rejects_empty_list_and_bad_mode(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_explicit(2, [])
        with pytest.raises(gd.InvalidGameError):
            gd.make_explicit(2, [players([1], 2)], "upwards")

    def test_rejects_player_count_mismatch(self):
        with pytest.raises(gd.InvalidGameError):
            gd.make_explicit(3, [players([1], 2)])

    def test_arbitrary_winning_builds_its_table_once(self, monkeypatch):
        # The closure of the list becomes the game's table, and validation
        # still runs the minimality pass on that very table.
        base = gd.gen_random_monotone(8, 9, 9)
        closures, checked = [], []
        closure, minimal = gd.core.superset_closure, gd.core.minimal_masks

        def counting_closure(masks, n):
            closures.append(closure(masks, n))
            return closures[-1]

        def recording_minimal(table, n):
            checked.append(table)
            return minimal(table, n)

        monkeypatch.setattr(gd.core, "superset_closure", counting_closure)
        monkeypatch.setattr(gd.core, "minimal_masks", recording_minimal)
        game = gd.make_explicit(8, list(base.antichain) * 2, gd.ARBITRARY_WINNING)
        assert len(closures) == 1
        assert checked[-1] is game.truth_table is closures[0]
        assert game.antichain == base.antichain
        wins = {m >> 1 for m in winning_masks_by_hand(base)}
        assert table_bits(game.truth_table) == wins

    @pytest.mark.parametrize(
        "n, m, seed", [(4, 3, 7), (6, 5, 8), (8, 9, 9), (10, 14, 10), (12, 20, 11)]
    )
    def test_arbitrary_winning_keeps_brute_force_minimal_set(self, n, m, seed):
        # Pad a random antichain with duplicates and random supersets, in a
        # scrambled order; the result must be the minimal elements by hand.
        base = gd.gen_random_monotone(n, m, seed)
        stream = gd.splitmix64(seed)
        full = gd.Coalition.grand(n).members
        padded = list(base.antichain)
        for c in base.antichain:
            padded.append(c)
            padded.append(gd.Coalition(c.members | (next(stream) << 1) & full, n))
        padded.append(gd.Coalition.grand(n))
        padded.sort(key=lambda _: next(stream))
        masks = {c.members for c in padded}
        expected = sorted(x for x in masks if not any(o != x and o & ~x == 0 for o in masks))
        game = gd.make_explicit(n, padded, gd.ARBITRARY_WINNING)
        assert [c.members for c in game.antichain] == expected
        assert game.antichain == base.antichain


class TestIsWinning:
    def test_example1_paper_rule(self):
        game = gd.gen_example1(2)
        assert game.is_winning(players([1, 3], 4))
        assert not game.is_winning(players([1, 2], 4))

    def test_empty_always_loses_grand_always_wins(self, small_corpus):
        for game in small_corpus:
            assert not game.is_winning(gd.Coalition.empty(game.n))
            assert game.is_winning(gd.Coalition.grand(game.n))

    def test_player_count_mismatch(self):
        game = gd.gen_example1(2)
        with pytest.raises(gd.InvalidGameError):
            game.is_winning(players([1], 3))

    def test_matches_hand_evaluation(self, small_corpus):
        for game in small_corpus:
            for c in all_coalitions(game.n):
                assert game.is_winning(c) == eval_by_hand(game, c)

    def test_full_width_weighted_game_builds_no_table(self):
        # A 24-player table is 2 MiB; one query must not build or copy it.
        game = gd.SimpleGame.from_weighted(gd.make_weighted(13, [1] * gd.N_MAX))
        stream = gd.splitmix64(13)
        for _ in range(200):
            c = gd.Coalition((next(stream) & (1 << gd.N_MAX) - 1) << 1, gd.N_MAX)
            assert game.is_winning(c) == (c.size >= 13)
        assert "truth_table" not in vars(game)


class TestCombine:
    def test_example1_intersection(self):
        game = gd.combine(
            gd.INTERSECTION,
            [gd.make_weighted(1, [1, 1, 0, 0]), gd.make_weighted(1, [0, 0, 1, 1])],
        )
        assert games_agree_by_hand(game, gd.gen_example1(2))

    def test_union_gives_example1_dual(self):
        union = gd.combine(
            gd.UNION,
            [gd.make_weighted(2, [1, 1, 0, 0]), gd.make_weighted(2, [0, 0, 1, 1])],
        )
        assert games_agree_by_hand(union, gd.dual(gd.gen_example1(2)))

    def test_single_part_intersection_is_identity(self):
        wg = gd.make_weighted(2, [1, 1, 1])
        single = gd.combine(gd.INTERSECTION, [wg])
        assert single.form == gd.INTERSECTION
        assert games_agree_by_hand(single, gd.SimpleGame.from_weighted(wg))

    def test_truth_table_folds_one_part_at_a_time(self):
        # 512 part tables of 2^16 bits held at once would peak above 4 MiB.
        import tracemalloc

        n = 16
        parts = [
            gd.make_weighted(8 + k % 8, [1 + (j * k) % 5 for j in range(n)]) for k in range(512)
        ]
        game = gd.combine(gd.INTERSECTION, parts)
        tracemalloc.start()
        try:
            table = game.truth_table
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        expected = reduce(and_, [gd.SimpleGame.from_weighted(p).truth_table for p in parts])
        assert table == expected

    def test_rejects_empty_and_mismatched_parts(self):
        with pytest.raises(gd.InvalidGameError):
            gd.combine(gd.INTERSECTION, [])
        with pytest.raises(gd.InvalidGameError):
            gd.combine(gd.UNION, [gd.make_weighted(1, [1]), gd.make_weighted(1, [1, 1])])
        with pytest.raises(gd.InvalidGameError):
            gd.combine("xor", [gd.make_weighted(1, [1])])


class TestWeightedTable:
    @pytest.mark.parametrize("n", [1, 2, 7, 12])
    def test_matches_hand_evaluation(self, n):
        # Weights 2, 0, 1, ... put many coalitions exactly on each quota; the
        # scaled and random copies exceed 2^62 per player.
        stream = gd.splitmix64(100 + n)
        small = [(j + 2) % 3 for j in range(n)]
        scaled = [w * (2**64 + 1) for w in small]
        generic = [2**62 + next(stream) for _ in range(n)]
        for weights in (small, scaled, generic):
            total = sum(weights)
            tie = sum(weights[n // 2 :])
            for quota in {1, tie, total // 2, total // 2 + 1, total} - {0}:
                game = gd.SimpleGame.from_weighted(gd.make_weighted(quota, weights))
                wins = {s << 1 for s in table_bits(game.truth_table)}
                assert wins == winning_masks_by_hand(game), (quota, weights)

    def test_full_width_agrees_with_wins(self):
        # Distinct 40-bit weights give about 2^24 distinct partial sums.
        stream = gd.splitmix64(24)
        weights = [next(stream) >> 24 for _ in range(gd.N_MAX)]
        assert len(set(weights)) == gd.N_MAX
        part = gd.make_weighted(sum(weights) // 2 + 1, weights)
        table = gd.SimpleGame.from_weighted(part).truth_table
        # Bytes give each sampled bit in O(1); shifting the int copies 2 MiB.
        data = table.to_bytes(2 ** (gd.N_MAX - 3), "little")
        for _ in range(2000):
            s = next(stream) & (1 << gd.N_MAX) - 1
            assert bool(data[s >> 3] >> (s & 7) & 1) == part.wins(gd.Coalition(s << 1, gd.N_MAX))


class TestGameInvariants:
    def test_monotone_exhaustive(self, small_corpus):
        # All subset pairs S <= T via submask enumeration (3^n pairs).
        for game in small_corpus:
            table = game.truth_table
            for t in range(1 << game.n):
                if table >> t & 1:
                    continue
                s = t
                while True:  # T loses, so every subset must lose
                    assert not table >> s & 1
                    if s == 0:
                        break
                    s = (s - 1) & t

    def test_form_agreement_with_truth_table(self, small_corpus):
        for game in small_corpus:
            table = game.truth_table
            wins = [gd.Coalition(m << 1, game.n) for m in sorted(table_bits(table))]
            rebuilt = gd.make_explicit(game.n, wins, gd.ARBITRARY_WINNING)
            assert gd.equivalent(rebuilt, game)

    def test_explicit_antichain_minimality(self, small_corpus):
        for game in small_corpus:
            if game.form != gd.EXPLICIT:
                continue
            for c in game.antichain:
                for j in c.players:
                    smaller = gd.Coalition(c.members ^ (1 << j), game.n)
                    assert not game.is_winning(smaller)

    def test_explicit_truth_table_is_upward_closure(self, random_corpus):
        for game in random_corpus:
            closure = {m >> 1 for m in winning_masks_by_hand(game)}
            assert table_bits(game.truth_table) == closure

    def test_truth_table_is_cached_and_frozen(self):
        game = gd.gen_example1(2)
        table = game.truth_table
        assert game.truth_table is table
        assert type(table) is int  # ints are immutable

    def test_truth_table_concurrent_population(self):
        from concurrent.futures import ThreadPoolExecutor

        game = gd.gen_example1(5)
        with ThreadPoolExecutor(max_workers=8) as pool:
            tables = list(pool.map(lambda _: game.truth_table, range(16)))
        assert all(t == tables[0] for t in tables)

    def test_monotone_randomized_pairs_above_exhaustive_range(self):
        stream = gd.splitmix64(31)
        n = 16
        weights = [next(stream) % 9 for _ in range(n)]
        weights[0] += 1
        game = gd.SimpleGame.from_weighted(gd.make_weighted(1 + sum(weights) // 2, weights))
        full = gd.Coalition.grand(n).members
        for _ in range(2000):
            t_mask = (next(stream) << 1) & full
            s_mask = t_mask & ((next(stream) << 1) & full)
            s, t = gd.Coalition(s_mask, n), gd.Coalition(t_mask, n)
            assert not game.is_winning(s) or game.is_winning(t)

    def test_full_width_enumeration(self):
        # The N_MAX oracle: 2^24 coalitions through the one-int table.
        game = gd.SimpleGame.from_weighted(gd.make_weighted(gd.N_MAX, [1] * gd.N_MAX))
        assert gd.minimal_winning(game) == (gd.Coalition.grand(gd.N_MAX),)
        losing = gd.maximal_losing(game)
        assert len(losing) == gd.N_MAX
        assert all(c.size == gd.N_MAX - 1 for c in losing)


class TestSimpleGameValidation:
    def test_direct_construction_checks_antichain(self):
        nested = (players([1], 3), players([1, 2], 3))
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(3, gd.EXPLICIT, antichain=nested)

    def test_duplicate_coalitions_rejected(self):
        dup = (players([1], 3), players([1], 3))
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(3, gd.EXPLICIT, antichain=dup)

    def test_form_mismatches_rejected(self):
        part = gd.make_weighted(1, [1, 1])
        with pytest.raises(gd.InvalidGameError, match="explicit form takes no weighted parts"):
            gd.SimpleGame(2, gd.EXPLICIT, antichain=(players([1], 2),), parts=(part,))
        with pytest.raises(gd.InvalidGameError, match="union form takes no explicit coalitions"):
            gd.SimpleGame(2, gd.UNION, antichain=(players([1], 2),), parts=(part,))
        with pytest.raises(gd.InvalidGameError, match="intersection form needs at least one part"):
            gd.SimpleGame(2, gd.INTERSECTION)

    def test_empty_explicit_antichain_rejected(self):
        with pytest.raises(gd.InvalidGameError, match="needs at least one winning coalition"):
            gd.SimpleGame(2, gd.EXPLICIT)

    def test_coalition_over_the_wrong_player_count_rejected(self):
        with pytest.raises(gd.InvalidGameError, match="coalition over 2 players, game has 3"):
            gd.SimpleGame(3, gd.EXPLICIT, antichain=(players([1], 2),))

    def test_weighted_form_takes_one_part(self):
        parts = (gd.make_weighted(1, [1, 1]), gd.make_weighted(2, [1, 1]))
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(2, gd.WEIGHTED, parts=parts)

    def test_unknown_form_rejected(self):
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(2, "majority", parts=(gd.make_weighted(1, [1, 1]),))

    def test_part_player_count_must_match(self):
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(3, gd.INTERSECTION, parts=(gd.make_weighted(1, [1, 1]),))

    def test_members_of_the_wrong_type_rejected(self):
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(2, gd.UNION, parts=((1, (1, 1)),))
        with pytest.raises(gd.InvalidGameError):
            gd.SimpleGame(2, gd.EXPLICIT, antichain=(0b110,))
        with pytest.raises(gd.InvalidGameError):
            gd.combine(gd.INTERSECTION, [[1, [1, 1]]])
        with pytest.raises(gd.InvalidGameError):
            gd.make_explicit(2, [0b110])


class TestFirstNestedPair:
    @staticmethod
    def by_pairs(masks):
        for j, b in enumerate(masks):
            for i, a in enumerate(masks[:j]):
                if a & ~b == 0 or b & ~a == 0:
                    return i, j
        return None

    def test_matches_a_pair_scan(self):
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 8)
            # Distinct masks of one size form an antichain; a duplicate, a
            # subset or a superset of one of them is then put anywhere.
            size = rng.randint(0, n)
            layer = [m for m in range(1 << n) if m.bit_count() == size]
            masks = rng.sample(layer, rng.randint(1, len(layer)))
            for _ in range(rng.randint(0, 3)):
                m = rng.choice(masks)
                kin = rng.choice([m, m & rng.getrandbits(n), m | rng.getrandbits(n)])
                masks.insert(rng.randint(0, len(masks)), kin)
            assert first_nested_pair(masks, n) == self.by_pairs(masks)
        assert first_nested_pair([], 3) is None


def to_table(masks):
    return sum(1 << s for s in set(masks))


class TestTablePasses:
    """The per-player passes against their definitions, coalition by coalition."""

    def test_each_pattern_holds_the_masks_without_its_bit(self):
        for n in range(1, 11):
            got = list(_bit_clears(n))
            assert [j for j, _ in got] == list(reversed(range(n)))
            for j, pattern in got:
                assert pattern == to_table(s for s in range(1 << n) if not s >> j & 1)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_passes_match_brute_force(self, n):
        rng = random.Random(100 + n)
        for _ in range(40):
            masks = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
            table = superset_closure(masks, n)
            winning = {s for s in range(1 << n) if any(m & ~s == 0 for m in masks)}
            assert table == to_table(winning)
            others = [rng.getrandbits(n) for _ in range(rng.randint(1, 6))]
            below = {s for s in range(1 << n) if any(s & ~m == 0 for m in others)}
            assert closures(masks, others, n) == (table, to_table(below))
            minimal = {s for s in winning if not any(t != s and t & ~s == 0 for t in winning)}
            assert minimal_table(table, n) == to_table(minimal)
            swings = [
                sum(1 for s in winning if s >> j & 1 and s ^ 1 << j not in winning)
                for j in range(n)
            ]
            assert swing_counts(table, n) == swings

    def test_a_pass_keeps_no_memory(self):
        # A kept pattern alone would be one 128 KiB table at n = 20.  The
        # weighted form builds its table with no per-player pass.
        code = (
            "import tracemalloc\n"
            "from gamedim.core import SimpleGame, make_weighted, minimal_table, swing_counts\n"
            "n = 20\n"
            "table = SimpleGame.from_weighted(make_weighted(10, [1] * n)).truth_table\n"
            "tracemalloc.start()\n"
            "base = tracemalloc.get_traced_memory()[0]\n"
            "minimal_table(table, n)\n"
            "swing_counts(table, n)\n"
            "kept, peak = (m - base for m in tracemalloc.get_traced_memory())"
        )
        kept, peak = fresh_eval(code, "(kept, peak)")
        assert kept < 4096
        assert peak < 8 * 2**17

    def test_the_one_pass_kernel_holds_five_tables_at_most(self):
        # Five 2^20-bit ints take about 0.67 MiB in 30-bit digits; the
        # input table is built before tracing starts.
        code = (
            "import tracemalloc\n"
            "from gamedim.core import SimpleGame, extremal_tables, make_weighted\n"
            "n = 20\n"
            "table = SimpleGame.from_weighted(make_weighted(10, [1] * n)).truth_table\n"
            "tracemalloc.start()\n"
            "base = tracemalloc.get_traced_memory()[0]\n"
            "extremal_tables(table, n)\n"
            "kept, peak = (m - base for m in tracemalloc.get_traced_memory())"
        )
        kept, peak = fresh_eval(code, "(kept, peak)")
        assert kept < 4096
        assert peak < 6 * 2**17


# One instance of each public value type, built by keyword and leaving any
# defaulted field out, with the frozen-dataclass repr it must keep;
# Coalition and WeightedGame have reprs of their own.
VALUE_TYPES = [
    (lambda: gd.Coalition(members=0b110, n=3), "Coalition({1, 2}, n=3)"),
    (lambda: gd.WeightedGame(quota=2, weights=(1, 1, 1)), "[2; 1, 1, 1]"),
    (
        lambda: gd.SimpleGame(n=2, form=gd.UNION, parts=(gd.WeightedGame(1, (1, 1)),)),
        "SimpleGame(n=2, form='union', antichain=(), parts=([1; 1, 1],))",
    ),
    (
        lambda: gd.ExtremalSets(n=2, winning=0b1010, losing=0b0001),
        "ExtremalSets(n=2, winning=10, losing=1)",
    ),
    (lambda: gd.SSPInstance(b=2, a=(5, 7), d=2), "SSPInstance(b=2, a=(5, 7), d=2)"),
    (lambda: gd.Constraint(coeffs=(1, -2), rhs=1), "Constraint(coeffs=(1, -2), rhs=1)"),
    (
        lambda: gd.LinearProgram(num_vars=1, constraints=(gd.Constraint((-1,), -3),)),
        "LinearProgram(num_vars=1, constraints=(Constraint(coeffs=(-1,), rhs=-3),))",
    ),
    (
        lambda: gd.FarkasWitness(row_multipliers=(1,), nonneg_multipliers=()),
        "FarkasWitness(row_multipliers=(1,), nonneg_multipliers=())",
    ),
    (
        lambda: gd.FeasibilityResult(farkas=gd.FarkasWitness((1,), ())),
        "FeasibilityResult(assignment=None, "
        "farkas=FarkasWitness(row_multipliers=(1,), nonneg_multipliers=()))",
    ),
]


@pytest.mark.parametrize(
    "build, text", VALUE_TYPES, ids=[text.partition("(")[0] for _, text in VALUE_TYPES]
)
class TestValueTypes:
    def test_fields_are_frozen(self, build, text):
        value = build()
        name = next(iter(vars(value)))
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1

    def test_equal_fields_compare_and_hash_equal(self, build, text):
        first, second = build(), build()
        assert first is not second
        assert first == second and not first != second
        assert hash(first) == hash(second)

    def test_other_types_compare_unequal(self, build, text):
        value = build()
        others = [b() for b, _ in VALUE_TYPES if b is not build]
        assert all(value != other and other != value for other in others)
        assert value != tuple(vars(value).values())

    def test_copies_and_pickles_are_equal(self, build, text):
        value = build()
        for twin in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value)
            assert twin == value and hash(twin) == hash(value)

    def test_repr(self, build, text):
        assert repr(build()) == text


def test_copy_keeps_a_built_truth_table():
    game = gd.gen_example1(2)
    table = game.truth_table
    fresh = copy.copy(game)
    assert vars(fresh)["truth_table"] == table
    vars(fresh).pop("truth_table")
    assert "truth_table" in vars(game) and fresh.truth_table == table
