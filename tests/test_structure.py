"""Extremal coalition enumeration, duals, and equivalence."""

import gamedim as gd
from conftest import (
    all_coalitions,
    games_agree_by_hand,
    naive_maximal_losing,
    naive_minimal_winning,
)


def players(iterable, n):
    return gd.Coalition.from_players(iterable, n)


def masks(coalitions):
    return {c.members for c in coalitions}


class TestMinimalWinning:
    def test_example1_pairs(self):
        got = masks(gd.minimal_winning(gd.gen_example1(2)))
        expected = {players(p, 4).members for p in ([1, 3], [1, 4], [2, 3], [2, 4])}
        assert got == expected

    def test_majority_pairs(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        assert masks(gd.minimal_winning(game)) == {
            players(p, 3).members for p in ([1, 2], [1, 3], [2, 3])
        }

    def test_unanimity(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(4, [1, 1, 1, 1]))
        assert gd.minimal_winning(game) == (gd.Coalition.grand(4),)

    def test_matches_naive_enumeration(self, small_corpus):
        for game in small_corpus:
            assert masks(gd.minimal_winning(game)) == naive_minimal_winning(game)


class TestMaximalLosing:
    def test_example1_pair_blocks(self):
        got = masks(gd.maximal_losing(gd.gen_example1(2)))
        assert got == {players([1, 2], 4).members, players([3, 4], 4).members}

    def test_majority_singletons(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        assert masks(gd.maximal_losing(game)) == {
            players([j], 3).members for j in (1, 2, 3)
        }

    def test_only_empty_loses(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(1, [1, 1]))
        assert gd.maximal_losing(game) == (gd.Coalition.empty(2),)

    def test_matches_naive_enumeration(self, small_corpus):
        for game in small_corpus:
            assert masks(gd.maximal_losing(game)) == naive_maximal_losing(game)


class TestExtremalSets:
    def test_combines_both_antichains(self):
        game = gd.gen_example1(2)
        sets = gd.extremal_sets(game)
        assert sets.minimal_winning == gd.minimal_winning(game)
        assert sets.maximal_losing == gd.maximal_losing(game)
        assert sets.winning.bit_count() == len(sets.minimal_winning)
        assert sets.losing.bit_count() == len(sets.maximal_losing)

    def test_a_hand_built_instance_counts_the_same_swings(self, acceptance_corpus):
        # extremal_sets fills the swings in from its one pass; a hand-built
        # instance counts them on first access from the closure of winning.
        for game in acceptance_corpus:
            sets = gd.extremal_sets(game)
            assert "swings" in vars(sets)
            by_hand = gd.ExtremalSets(game.n, sets.winning, sets.losing)
            assert "swings" not in vars(by_hand)
            assert by_hand == sets and repr(by_hand) == repr(sets)
            assert by_hand.swings == sets.swings
            assert len(sets.swings) == game.n

    def test_outputs_are_antichains(self, small_corpus):
        for game in small_corpus:
            sets = gd.extremal_sets(game)
            for family in (sets.minimal_winning, sets.maximal_losing):
                for a in family:
                    for b in family:
                        assert a == b or not a.issubset(b)


class TestDual:
    def test_self_dual_majority(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        assert gd.equivalent(gd.dual(game), game)

    def test_example1_dual_is_pair_unanimity_union(self):
        for n in (1, 2, 3):
            expected = gd.gen_unanimity_composition(
                [players([2 * i + 1, 2 * i + 2], 2 * n) for i in range(n)]
            )
            assert gd.equivalent(gd.dual(gd.gen_example1(n)), expected)

    def test_involution(self, small_corpus):
        for game in small_corpus:
            assert gd.equivalent(gd.dual(gd.dual(game)), game)

    def test_weighted_dual_formula_exhaustive(self, small_corpus):
        for game in small_corpus:
            if game.form != gd.WEIGHTED:
                continue
            part = game.parts[0]
            dual_game = gd.dual(game)
            for c in all_coalitions(game.n):
                expect = part.weight(c.complement()) <= part.quota - 1
                assert dual_game.is_winning(c) == expect

    def test_complement_bijection(self, small_corpus):
        # S is minimal winning in the dual iff its complement is maximal losing.
        for game in small_corpus:
            dual_mwc = masks(gd.minimal_winning(gd.dual(game)))
            complements = {
                c.complement().members for c in gd.maximal_losing(game)
            }
            assert dual_mwc == complements

    def test_de_morgan_forms(self):
        game = gd.gen_example1(3)
        dual_game = gd.dual(game)
        assert game.form == gd.INTERSECTION and dual_game.form == gd.UNION
        for c in all_coalitions(game.n):
            assert dual_game.is_winning(c) != game.is_winning(c.complement())
        assert gd.dual(dual_game).form == gd.INTERSECTION

    def test_dual_of_explicit_is_explicit(self):
        game = gd.make_explicit(
            3, [players([1, 2], 3), players([1, 3], 3)]
        )
        dual_game = gd.dual(game)
        assert dual_game.form == gd.EXPLICIT
        assert games_agree_by_hand(
            dual_game,
            gd.make_explicit(3, [players([1], 3), players([2, 3], 3)]),
        )


class TestEquivalent:
    def test_quota_changes_the_game(self):
        g1 = gd.SimpleGame.from_weighted(gd.make_weighted(1, [1, 1]))
        g2 = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1]))
        assert not gd.equivalent(g1, g2)

    def test_scaled_majority(self):
        g1 = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        g2 = gd.SimpleGame.from_weighted(gd.make_weighted(3, [2, 2, 2]))
        assert games_agree_by_hand(g1, g2)
        assert gd.equivalent(g1, g2)

    def test_different_player_counts(self):
        g1 = gd.SimpleGame.from_weighted(gd.make_weighted(1, [1]))
        g2 = gd.SimpleGame.from_weighted(gd.make_weighted(1, [1, 0]))
        assert not gd.equivalent(g1, g2)

    def test_cross_form(self, small_corpus):
        for game in small_corpus:
            explicit = gd.make_explicit(
                game.n, list(gd.minimal_winning(game)), gd.MINIMAL_GIVEN
            )
            assert gd.equivalent(explicit, game)


class TestSelfDual:
    def test_majority_is_self_dual(self):
        assert gd.is_self_dual(gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1])))

    def test_example1_is_not(self):
        # {1,2} loses and its complement {3,4} loses too.
        assert not gd.is_self_dual(gd.gen_example1(2))

    def test_dictator_with_null_player(self):
        assert gd.is_self_dual(gd.SimpleGame.from_weighted(gd.make_weighted(1, [1, 0])))
