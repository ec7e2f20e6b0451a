"""Instance generators: pair-cover games, Subset Sum reductions, random corpora."""

import tracemalloc

import pytest

import gamedim as gd
from conftest import all_coalitions, eval_by_hand, games_agree_by_hand


def players(iterable, n):
    return gd.Coalition.from_players(iterable, n)


class TestGenExample1:
    def test_displayed_representation_n2(self):
        game = gd.gen_example1(2)
        assert game.form == gd.INTERSECTION
        assert game.parts == (
            gd.make_weighted(1, [1, 1, 0, 0]),
            gd.make_weighted(1, [0, 0, 1, 1]),
        )

    def test_single_pair_is_weighted(self):
        game = gd.gen_example1(1)
        assert game.parts == (gd.make_weighted(1, [1, 1]),)
        assert gd.dimension(game).value == 1

    def test_membership_rule(self):
        for n in (1, 2, 3):
            game = gd.gen_example1(n)
            for c in all_coalitions(2 * n):
                hits_every_pair = all(
                    2 * i + 1 in c or 2 * i + 2 in c for i in range(n)
                )
                assert game.is_winning(c) == hits_every_pair

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_extremal_counts(self, n):
        sets = gd.extremal_sets(gd.gen_example1(n))
        assert len(sets.minimal_winning) == 2**n
        assert len(sets.maximal_losing) == n

    def test_size_limit(self):
        with pytest.raises(gd.SizeLimitError):
            gd.gen_example1(gd.N_MAX // 2 + 1)
        with pytest.raises(gd.InvalidGameError):
            gd.gen_example1(0)


class TestSSPInstance:
    def test_yes_and_no_detection(self):
        assert gd.SSPInstance(3, (1, 2, 3), 2).is_yes_instance()
        assert not gd.SSPInstance(2, (5, 7), 2).is_yes_instance()

    def test_validation(self):
        with pytest.raises(gd.InvalidGameError):
            gd.SSPInstance(0, (1,), 2)
        with pytest.raises(gd.InvalidGameError):
            gd.SSPInstance(1, (), 2)
        with pytest.raises(gd.InvalidGameError):
            gd.SSPInstance(1, (1, 0), 2)
        with pytest.raises(gd.InvalidGameError):
            gd.SSPInstance(1, (1,), 1)


class TestGenSSP:
    def test_displayed_representation(self):
        game = gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2))
        assert game.parts == (
            gd.make_weighted(10, [3, 6, 9, 1, 1, 0, 0]),
            gd.make_weighted(10, [3, 6, 9, 0, 0, 1, 1]),
        )

    def test_no_instance_collapses_to_weighted(self):
        game = gd.gen_ssp(gd.SSPInstance(2, (5, 7), 2))
        reference = gd.SimpleGame.from_weighted(gd.make_weighted(3, [5, 7, 0, 0, 0, 0]))
        assert games_agree_by_hand(game, reference)

    @pytest.mark.parametrize(
        "instance",
        [gd.SSPInstance(3, (1, 2, 3), 2), gd.SSPInstance(2, (5, 7), 2)],
    )
    def test_membership_trichotomy(self, instance):
        # X over the numbers, Y over the gadget: above-target sums win, below-
        # target sums lose, exact sums defer to the pair-cover game on Y.
        game = gd.gen_ssp(instance)
        n = len(instance.a)
        gadget = gd.gen_example1(instance.d)
        for c in all_coalitions(n + 2 * instance.d):
            total = sum(instance.a[j - 1] for j in c.players if j <= n)
            y_mask = (c.members >> n) & gd.Coalition.grand(2 * instance.d).members
            y_wins = gadget.is_winning(gd.Coalition(y_mask, 2 * instance.d))
            if total > instance.b:
                assert game.is_winning(c)
            elif total < instance.b:
                assert not game.is_winning(c)
            else:
                assert game.is_winning(c) == y_wins

    def test_size_limit(self):
        with pytest.raises(gd.SizeLimitError):
            gd.gen_ssp(gd.SSPInstance(1, tuple([1] * 20), 3))


class TestGenUnanimityComposition:
    def test_two_pair_blocks_give_example1_dual(self):
        game = gd.gen_unanimity_composition(
            [players([1, 2], 4), players([3, 4], 4)]
        )
        assert game.parts == (
            gd.make_weighted(2, [1, 1, 0, 0]),
            gd.make_weighted(2, [0, 0, 1, 1]),
        )
        assert gd.equivalent(game, gd.dual(gd.gen_example1(2)))

    def test_single_block_is_weighted(self):
        game = gd.gen_unanimity_composition([players([1, 2, 3], 3)])
        assert gd.dimension(game).value == 1

    def test_three_pair_blocks_have_dimension_four(self):
        game = gd.gen_unanimity_composition(
            [players([1, 2], 6), players([3, 4], 6), players([5, 6], 6)]
        )
        assert gd.dimension(game).value == 4

    def test_null_players_allowed(self):
        game = gd.gen_unanimity_composition([players([1, 2], 3)])
        assert not game.is_winning(players([3], 3))

    def test_validation(self):
        with pytest.raises(gd.InvalidGameError):
            gd.gen_unanimity_composition([])
        with pytest.raises(gd.InvalidGameError):
            gd.gen_unanimity_composition([players([1, 2], 3), players([2, 3], 3)])
        with pytest.raises(gd.InvalidGameError):
            gd.gen_unanimity_composition([gd.Coalition.empty(3)])
        with pytest.raises(gd.InvalidGameError):
            gd.gen_unanimity_composition([players([1], 3), players([2], 4)])


class TestSplitmix64:
    def test_reference_vectors(self):
        # First outputs of the published splitmix64 stream for seed 0.
        stream = gd.splitmix64(0)
        assert [next(stream) for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_seed_wraps_to_64_bits(self):
        assert next(gd.splitmix64(1 << 64)) == next(gd.splitmix64(0))


class TestGenRandomMonotone:
    def test_deterministic(self):
        assert gd.gen_random_monotone(4, 3, 7) == gd.gen_random_monotone(4, 3, 7)
        assert gd.gen_random_monotone(4, 3, 7) != gd.gen_random_monotone(4, 3, 8)

    def test_single_draw_is_weighted(self):
        for seed in range(5):
            game = gd.gen_random_monotone(3, 1, seed)
            assert len(game.antichain) == 1
            assert gd.dimension(game).value == 1

    def test_lemma1_bounds_hold(self):
        game = gd.gen_random_monotone(4, 3, 0)
        sets = gd.extremal_sets(game)
        assert gd.dimension(game).value <= len(sets.maximal_losing)
        assert gd.codimension(game).value <= len(sets.minimal_winning)

    def test_single_player_degenerates_to_dictator(self):
        game = gd.gen_random_monotone(1, 3, 9)
        assert game.antichain == (gd.Coalition.grand(1),)

    def test_draws_are_proper_coalitions(self):
        for seed in range(10):
            game = gd.gen_random_monotone(5, 6, seed)
            assert not game.is_winning(gd.Coalition.empty(5))
            assert game.is_winning(gd.Coalition.grand(5))
            for c in game.antichain:
                assert 0 < c.members < gd.Coalition.grand(5).members

    def test_many_draws_keep_only_the_distinct_ones(self):
        # One Coalition per draw peaked at about 33 MiB here.
        tracemalloc.start()
        try:
            game = gd.gen_random_monotone(12, 200_000, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert len(game.antichain) == 12

    def test_draws_stop_once_every_coalition_is_drawn(self):
        # 10^12 draws would not finish; on 12 players every nonempty proper
        # coalition has been drawn after some tens of thousands.
        game = gd.gen_random_monotone(12, 10**12, 1)
        assert sorted(c.members for c in game.antichain) == [1 << j for j in range(1, 13)]

    def test_the_game_is_the_closure_of_every_draw(self):
        for seed in range(20):
            stream = gd.splitmix64(seed)
            draws = [gd.Coalition((1 + next(stream) % 62) << 1, 6) for _ in range(40)]
            expected = gd.make_explicit(6, draws, gd.ARBITRARY_WINNING)
            assert gd.gen_random_monotone(6, 40, seed) == expected

    def test_validation(self):
        with pytest.raises(gd.InvalidGameError):
            gd.gen_random_monotone(0, 1, 0)
        with pytest.raises(gd.SizeLimitError):
            gd.gen_random_monotone(13, 1, 0)
        with pytest.raises(gd.InvalidGameError):
            gd.gen_random_monotone(3, 0, 0)


class TestGeneratedGamesAreValid:
    def test_monotone_and_proper(self, random_corpus):
        for game in random_corpus[:10]:
            table = game.truth_table
            assert not table & 1 and table >> ((1 << game.n) - 1) & 1
            for c in all_coalitions(game.n):
                assert game.is_winning(c) == eval_by_hand(game, c)
