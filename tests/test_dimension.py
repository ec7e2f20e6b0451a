"""Dimension/codimension solver, separation oracles, canonical conversions."""

import itertools
import sys
from math import gcd

import pytest

import gamedim as gd
from conftest import (
    all_coalitions,
    all_partitions,
    exhaustive_codimension,
    exhaustive_dimension,
    games_agree_by_hand,
    winning_masks_by_hand,
)
from gamedim import dimsolver
from gamedim.core import swing_counts
from gamedim.dimsolver import _check_trade, _trade, _trade_certificate
from gamedim.generators import splitmix64


def players(iterable, n):
    return gd.Coalition.from_players(iterable, n)


@pytest.fixture(scope="module")
def example1_2():
    game = gd.gen_example1(2)
    sets = gd.extremal_sets(game)
    return game, sets.minimal_winning, sets.maximal_losing


class TestCoRealizable:
    def test_single_target_feasible(self, example1_2):
        _, mwc, mlc = example1_2
        target = players([1, 2], 4)
        part = gd.co_realizable(mwc, [target])
        assert part is not None
        for c in mwc:
            assert part.weight(c) >= part.quota
        assert part.weight(target) <= part.quota - 1

    def test_both_pair_blocks_infeasible(self, example1_2):
        # Forcing both maximal losing pairs on one factor is the dimension-2 core.
        _, mwc, mlc = example1_2
        assert gd.co_realizable(mwc, mlc) is None

    def test_empty_target_set(self, example1_2):
        _, mwc, _ = example1_2
        part = gd.co_realizable(mwc, [])
        assert part is not None
        for c in mwc:
            assert part.weight(c) >= part.quota

    def test_rejects_empty_winning_family(self):
        with pytest.raises(gd.InvalidGameError):
            gd.co_realizable([], [])

    def test_memory_grows_linearly_with_the_rows(self):
        # The union of two disjoint 4-of-7 majorities on 14 players is not
        # weighted: its LP has 1,296 rows over 15 variables.  A tableau with a
        # column per row would hold about 1,296^2 entries (14.5 MiB traced); the
        # Farkas alternative's tableau has 17 rows of 1,312 entries.
        import tracemalloc

        ones, zeros = (1,) * 7, (0,) * 7
        game = gd.combine(
            gd.UNION, [gd.make_weighted(4, ones + zeros), gd.make_weighted(4, zeros + ones)]
        )
        sets = gd.extremal_sets(game)
        mwc, mlc = sets.minimal_winning, sets.maximal_losing
        tracemalloc.start()
        try:
            with gd.record_certificates() as log:
                part = gd.co_realizable(mwc, mlc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert part is None and len(log) == 1
        lp, result = log[0]
        assert len(lp.constraints) == 1296 and not result.feasible
        gd.verify_certificate(lp, result)
        assert peak < 4 * 2**20, peak


class TestRealizable:
    def test_single_winning_target(self, example1_2):
        _, _, mlc = example1_2
        target = players([1, 3], 4)
        part = gd.realizable(mlc, [target])
        assert part is not None
        assert part.weight(target) >= part.quota
        for c in mlc:
            assert part.weight(c) <= part.quota - 1

    def test_all_four_transversals_infeasible(self, example1_2):
        _, mwc, mlc = example1_2
        assert gd.realizable(mlc, mwc) is None

    def test_empty_target_set_still_valid_game(self, example1_2):
        _, _, mlc = example1_2
        part = gd.realizable(mlc, [])
        assert part is not None
        for c in mlc:
            assert part.weight(c) <= part.quota - 1

    def test_rejects_empty_losing_family(self):
        with pytest.raises(gd.InvalidGameError):
            gd.realizable([], [])

    def test_rejects_target_over_other_player_count(self, example1_2):
        _, _, mlc = example1_2
        with pytest.raises(gd.InvalidGameError):
            gd.realizable(mlc, [players([1, 2], 5)])

    def test_oracle_monotonicity(self):
        # Feasibility of a target set carries over to all of its subsets.
        big = gd.gen_example1(3)
        sets = gd.extremal_sets(big)
        stream = splitmix64(5)
        win_targets = list(sets.minimal_winning)
        lose_targets = list(sets.maximal_losing)
        for _ in range(12):
            picked = [t for t in win_targets if next(stream) % 3 == 0]
            if gd.realizable(sets.maximal_losing, picked) is not None:
                subset = [t for t in picked if next(stream) % 2 == 0]
                assert gd.realizable(sets.maximal_losing, subset) is not None
            blocks = [t for t in lose_targets if next(stream) % 2 == 0]
            if gd.co_realizable(sets.minimal_winning, blocks) is not None:
                subset = [t for t in blocks if next(stream) % 2 == 0]
                assert gd.co_realizable(sets.minimal_winning, subset) is not None


class TestDimension:
    def test_example1_n3(self):
        witness = gd.dimension(gd.gen_example1(3))
        assert witness.value == 3
        assert witness.kind == gd.INTERSECTION and len(witness.parts) == 3

    def test_weighted_game_is_its_own_witness(self):
        wg = gd.make_weighted(3, [2, 1, 1, 1])
        witness = gd.dimension(gd.SimpleGame.from_weighted(wg))
        assert witness.value == 1 and witness.parts == (wg,)

    def test_ssp_yes_instance(self):
        game = gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2))
        assert gd.dimension(game).value == 2

    def test_witness_recombines(self, small_corpus):
        for game in small_corpus:
            witness = gd.dimension(game)
            assert games_agree_by_hand(witness.as_game(), game)

    def test_matches_exhaustive_partition_search(self, small_corpus):
        for game in small_corpus:
            if len(gd.maximal_losing(game)) <= 6:
                assert gd.dimension(game).value == exhaustive_dimension(game)

    def test_size_limit_refusal(self):
        # Intersection form, so the weighted-form shortcut does not apply.
        game = gd.combine(gd.INTERSECTION, [gd.make_weighted(6, [1] * 10)])
        with pytest.raises(gd.SizeLimitError):
            gd.dimension(game)


class TestCodimension:
    def test_example1_n3(self):
        witness = gd.codimension(gd.gen_example1(3))
        assert witness.value == 4
        assert witness.kind == gd.UNION and len(witness.parts) == 4

    def test_weighted_game(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        assert gd.codimension(game).value == 1

    def test_ssp_no_instance(self):
        game = gd.gen_ssp(gd.SSPInstance(2, (5, 7), 2))
        assert gd.codimension(game).value == 1

    def test_witness_recombines(self, small_corpus):
        for game in small_corpus:
            witness = gd.codimension(game)
            assert games_agree_by_hand(witness.as_game(), game)

    def test_matches_exhaustive_partition_search(self, small_corpus):
        for game in small_corpus:
            if len(gd.minimal_winning(game)) <= 6:
                assert gd.codimension(game).value == exhaustive_codimension(game)

    def test_equals_dimension_of_dual(self, small_corpus):
        for game in small_corpus:
            assert gd.codimension(game).value == gd.dimension(gd.dual(game)).value

    def test_size_limit_refusal(self):
        game = gd.combine(gd.INTERSECTION, [gd.make_weighted(6, [1] * 10)])
        with pytest.raises(gd.SizeLimitError):
            gd.codimension(game)


class TestNoCoalitionsInside:
    def test_solvers_and_refusals_build_no_coalition(self, small_corpus, monkeypatch):
        # Extremal families stay tables on the solve and canonical-form
        # paths; Coalition objects are built only by the public views, and
        # an oversized game is refused before any of its 350k extremal
        # coalitions is listed.
        built = []
        init = gd.Coalition.__init__

        def counting(self, members, n):
            built.append(members)
            init(self, members, n)

        monkeypatch.setattr(gd.Coalition, "__init__", counting)
        for game in small_corpus:
            gd.dimension(game)
            gd.codimension(game)
            gd.is_weighted(game)
            gd.canonical_intersection(game)
            gd.canonical_union(game)
        big = gd.combine(
            gd.INTERSECTION, [gd.make_weighted(10, [1] * 20), gd.make_weighted(1, [1] * 20)]
        )
        for solve in (gd.dimension, gd.codimension):
            with pytest.raises(gd.SizeLimitError):
                solve(big)
        assert built == []
        assert gd.extremal_sets(gd.gen_example1(2)).minimal_winning and built


class TestSolverAgreement:
    def test_ssp_yes_instance_codimensions_are_certified(self):
        # The proven values 2^(d-1) (see the docstring of acceptance criterion
        # 3); each witness is re-checked against the game by hand below.
        for d, expected in ((2, 2), (3, 4)):
            game = gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), d))
            witness = gd.codimension(game)
            assert witness.value == expected
            assert games_agree_by_hand(witness.as_game(), game)

    @pytest.mark.parametrize(
        "spec, expected, max_lps",
        [
            ((7, 3, 1016), 2, 33),
            ((6, 3, 1021), 2, 68),
            ((7, 6, 1004), 3, 50),
            ((8, 5, 1023), 3, 50),
        ],
        ids=["7-3-1016", "6-3-1021", "7-6-1004", "8-5-1023"],
    )
    def test_partition_search_matches_exhaustive_enumeration(self, spec, expected, max_lps):
        # On these games first-fit placement needs more blocks than the clique
        # bound, so the search must backtrack before it proves the value.
        # ``max_lps`` is the LP count of the earlier two-pass search (a greedy
        # pass, then deepening); one search must not run more.
        game = gd.gen_random_monotone(*spec)
        with gd.record_certificates() as log:
            value = gd.dimension(game).value
        assert len(log) <= max_lps
        assert value == exhaustive_dimension(game) == expected
        assert gd.codimension(gd.dual(game)).value == value

    def test_partition_search_on_nineteen_targets(self):
        # 19 maximal losing coalitions, and first-fit placement needs more
        # blocks than the clique bound.  The earlier two-pass search solved
        # 217 LPs here, and the swing-weighted block part 4; the Banzhaf part
        # of each block's own game leaves 3.
        game = gd.gen_random_monotone(9, 7, 5040)
        with gd.record_certificates() as log:
            witness = gd.dimension(game)
        assert len(log) <= 3
        assert witness.value == 3
        assert games_agree_by_hand(witness.as_game(), game)

    def test_partition_search_backtracks_on_32_targets(self, monkeypatch):
        # 32 maximal losing coalitions, the solver's cap, and a greedy trade
        # clique of 7: the attempt at 7 blocks fails after 122 block
        # queries, and the search ends at 8 after 1,714.  8 is the search's
        # own value, since brute force is out of reach at 32 targets.  The
        # check goes through the dual's complemented masks instead: the
        # codimension of the dual runs on the same fixed and target masks
        # in another order, where the greedy clique holds 8 pairwise traded
        # targets, each trade checked, so no 7 parts can separate them.
        searches = []
        minimum_partition = dimsolver._minimum_partition

        def spy(count, fits, adj):
            calls = []

            def counted(mask):
                calls.append(mask)
                return fits(mask)

            by_degree = sorted(range(count), key=lambda v: (-adj[v].bit_count(), v))
            clique = dimsolver._greedy_clique(by_degree, (1 << count) - 1, adj)
            blocks = minimum_partition(count, counted, adj)
            searches.append((count, len(clique), len(calls), len(blocks)))
            return blocks

        monkeypatch.setattr(dimsolver, "_minimum_partition", spy)
        game = gd.gen_random_monotone(11, 12, 9113)
        with gd.record_certificates() as log:
            witness = gd.dimension(game)
        assert len(log) <= 11
        assert witness.value == 8
        assert games_agree_by_hand(witness.as_game(), game)
        count, clique, calls, blocks = searches.pop()
        assert count == dimsolver.COVER_MAX == 32
        assert clique == 7 and calls <= 1714 and blocks == 8

        dual = gd.dual(game)
        with gd.record_certificates() as log:
            witness = gd.codimension(dual)
        assert len(log) <= 11
        assert witness.value == 8
        assert games_agree_by_hand(witness.as_game(), dual)
        assert searches.pop()[:2] == (32, 8)
        assert gd.codimension(game).value == 7

    @pytest.mark.parametrize("n", [2, 3, 4, 5], ids=lambda n: f"example1-{n}")
    def test_example1_codimension_solves_no_lp(self, n):
        # Every incompatible pair is a 2-trade, so first-fit placement meets
        # the clique bound, and each block of a pair is answered by its block
        # part: the Banzhaf part of the pair's own game.
        game = gd.gen_example1(n)
        with gd.record_certificates() as log:
            witness = gd.codimension(game)
        assert log == []
        assert witness.value == 2 ** (n - 1)
        assert games_agree_by_hand(witness.as_game(), game)

    def test_ssp_yes_instance_codimension_lp_count(self):
        # 10 LPs before widened blocks, 5 since.
        game = gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 3))
        with gd.record_certificates() as log:
            witness = gd.codimension(game)
        assert witness.value == 4
        assert len(log) <= 5

    def test_search_alone_rules_out_a_block_count_above_the_trade_clique(self):
        # No three targets are pairwise traded, so the clique bound is 2 and
        # only the search's own block queries can prove that 2 blocks fail.
        game = gd.gen_random_monotone(7, 6, 1004)
        edges = {(t1, t2) for t1, t2, _ in traded_pairs(game, False)}
        edges |= {(t2, t1) for t1, t2 in edges}
        targets = list(gd.maximal_losing(game))
        assert edges and not any(
            (a, b) in edges and (b, c) in edges and (a, c) in edges
            for i, a in enumerate(targets)
            for j, b in enumerate(targets[i + 1 :], i + 1)
            for c in targets[j + 1 :]
        )
        with gd.record_certificates() as log:
            value = gd.dimension(game).value
        assert len(log) <= 7
        assert value == exhaustive_dimension(game) == 3

    def test_infeasible_block_in_the_found_partition_is_an_internal_error(self, monkeypatch):
        # The search places a target alone without a query, so a one-target
        # block is first asked for its part after the search; a refusal there
        # must not reach ``combine`` as a missing part.
        block_part = dimsolver._block_part

        def refuse_one(n, fixed_masks, block_masks):
            return None if len(block_masks) == 1 else block_part(n, fixed_masks, block_masks)

        monkeypatch.setattr(dimsolver, "_block_part", refuse_one)
        with pytest.raises(RuntimeError, match="internal error"):
            gd.dimension(gd.gen_example1(2))

    @pytest.mark.parametrize(
        "damage",
        [lambda blocks: blocks[:-1], lambda blocks: blocks + blocks[:1]],
        ids=["target-dropped", "target-repeated"],
    )
    def test_found_blocks_that_do_not_partition_the_targets_are_an_internal_error(
        self, monkeypatch, damage
    ):
        # Every pair of example1 n=2's targets is traded, so each block holds
        # one target: dropping the last block drops a target, and repeating
        # the first puts a target in two blocks.
        minimum_partition = dimsolver._minimum_partition
        monkeypatch.setattr(
            dimsolver, "_minimum_partition", lambda *args: damage(minimum_partition(*args))
        )
        with pytest.raises(RuntimeError, match="internal error: the found blocks"):
            gd.dimension(gd.gen_example1(2))

    @pytest.mark.parametrize("solve", [gd.dimension, gd.codimension])
    @pytest.mark.parametrize("side", ["winning", "losing"])
    def test_extremal_sets_missing_an_extremal_mask_are_an_internal_error(
        self, monkeypatch, solve, side
    ):
        # A missing minimal winning mask fails the upward closure, a missing
        # maximal losing one the downward closure.
        extremal_sets = dimsolver.extremal_sets

        def drop_lowest(game):
            sets = extremal_sets(game)
            winning, losing = sets.winning, sets.losing
            if side == "winning":
                winning &= winning - 1
            else:
                losing &= losing - 1
            return gd.ExtremalSets(sets.n, winning, losing)

        monkeypatch.setattr(dimsolver, "extremal_sets", drop_lowest)
        with pytest.raises(RuntimeError, match="internal error: the extremal masks"):
            solve(gd.gen_example1(2))

    def test_answers_build_no_part_table(self, monkeypatch, acceptance_corpus):
        # The answer is checked on its partition and the extremal masks, so
        # once the input's own table is built no weighted part's table is.
        for game in acceptance_corpus:
            game.truth_table

        def refuse(part):
            raise AssertionError(f"part table built for {part}")

        monkeypatch.setattr(gd.core, "_weighted_table", refuse)
        for game in acceptance_corpus:
            assert gd.dimension(game).value >= 1
            assert gd.codimension(game).value >= 1

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_example1_dimension_solves_no_lp(self, n):
        # Every pair of maximal losing coalitions is traded, so each target is
        # a block of its own and is answered by its canonical part.
        game = gd.gen_example1(n)
        with gd.record_certificates() as log:
            witness = gd.dimension(game)
        assert log == []
        assert witness.value == n
        canonical = gd.canonical_intersection(game)
        assert len(witness.parts) == len(canonical) and set(witness.parts) == set(canonical)

    def test_search_places_a_thousand_pairwise_traded_targets(self):
        # A complete trade graph puts every target in a block of its own, one
        # placement per level of the search, and asks the oracle nothing.
        count = 1000
        full = (1 << count) - 1
        adj = [full ^ 1 << v for v in range(count)]

        def fits(mask):
            raise AssertionError(f"asked about block {mask:#x}")

        blocks = dimsolver._minimum_partition(count, fits, adj)
        assert len(blocks) == count
        assert sorted(blocks) == [1 << v for v in range(count)]

    @pytest.mark.parametrize("traded", [False, True], ids=["always-fits", "path"])
    def test_search_depth_is_not_bounded_by_the_recursion_limit(self, traded):
        # One search level per target, three times the recursion limit of
        # them: an oracle that always fits gives one block, and a path graph,
        # where target i is traded with i + 1, gives its two colour classes.
        count = 3 * sys.getrecursionlimit()
        adj = [0] * count
        if traded:
            for v in range(count - 1):
                adj[v] |= 1 << v + 1
                adj[v + 1] |= 1 << v
        blocks = dimsolver._minimum_partition(count, lambda mask: True, adj)
        evens = sum(1 << v for v in range(0, count, 2))
        full = (1 << count) - 1
        assert sorted(blocks) == (sorted([evens, full ^ evens]) if traded else [full])

    def test_search_matches_brute_force_on_stub_oracles(self):
        # Random trade graphs plus hidden infeasible triples that no pair of
        # the triple explains: the search must find a least partition into
        # blocks holding neither, and backtracking must restore every block.
        stream = splitmix64(99)
        backtracked = queries = 0
        for _ in range(60):
            count = 5 + next(stream) % 4
            adj = [0] * count
            for i in range(count):
                for j in range(i + 1, count):
                    if next(stream) % 5 < 2:
                        adj[i] |= 1 << j
                        adj[j] |= 1 << i
            bad = [
                m
                for m in (sum(1 << (next(stream) % count) for _ in range(3)) for _ in range(3))
                if m.bit_count() == 3 and not any(adj[v] & m for v in range(count) if m >> v & 1)
            ]

            def ok(block):
                return not any(adj[v] & block for v in range(count) if block >> v & 1) and not any(
                    b & ~block == 0 for b in bad
                )

            def fits(mask):
                nonlocal queries
                queries += 1
                return ok(mask)

            blocks = dimsolver._minimum_partition(count, fits, adj)
            assert sum(blocks) == (1 << count) - 1 and all(map(ok, blocks))
            least = min(
                len(p)
                for p in all_partitions(list(range(count)))
                if all(ok(sum(1 << v for v in block)) for block in p)
            )
            assert len(blocks) == least
            clique = len(dimsolver._greedy_clique(range(count), (1 << count) - 1, adj))
            backtracked += least > max(1, clique)
        assert backtracked > 5
        # Pruning on the targets that fit no block keeps the search to 242
        # queries here; it takes 245 without.
        assert queries <= 242

    def test_infeasible_widened_block_falls_back_to_the_asked_block(self, monkeypatch):
        # A widened block that fails, its part and then its LP, is followed by
        # the block the search asked for, which lies strictly inside it.
        tried = []
        block_part = dimsolver._block_part

        def spy(n, fixed_masks, block_masks):
            part = block_part(n, fixed_masks, block_masks)
            tried.append((frozenset(block_masks), part))
            return part

        monkeypatch.setattr(dimsolver, "_block_part", spy)
        game = gd.gen_random_monotone(6, 3, 1021)
        with gd.record_certificates() as log:
            value = gd.dimension(game).value
        assert value == exhaustive_dimension(game) == 2
        # The rows of rhs 1 are the quota row, then the target rows
        # q - w(T) >= 1.
        failed = {
            frozenset(
                sum(-c << j for j, c in enumerate(row.coeffs[:-1]))
                for row in [r for r in lp.constraints if r.rhs == 1][1:]
            )
            for lp, result in log
            if not result.feasible
        }
        assert any(
            wide in failed and part is None and asked < wide
            for (wide, part), (asked, _) in zip(tried, tried[1:])
        )
        for lp, result in log:
            gd.verify_certificate(lp, result)

    @pytest.mark.parametrize(
        "solve, game, expected, max_lps",
        [
            (gd.codimension, gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 3)), 4, 5),
            (gd.dimension, gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 3)), 3, 3),
            (gd.dimension, gd.gen_random_monotone(7, 6, 1004), 3, 3),
        ],
        ids=["codim-ssp-yes-3", "dim-ssp-yes-3", "dim-random-7-6-1004"],
    )
    def test_widened_blocks_answer_later_queries(self, solve, game, expected, max_lps):
        # Each block LP takes in every target that no trade keeps from it, so
        # one witness answers blocks the search has not asked for yet.  The
        # unwidened search solved 10, 5 and 6 LPs here.
        with gd.record_certificates() as log:
            witness = solve(game)
        assert witness.value == expected
        assert games_agree_by_hand(witness.as_game(), game)
        assert len(log) <= max_lps

    def test_no_call_solves_the_same_block_twice(self, random_sweep):
        # A widened block that fails is kept as an infeasible block, so no
        # call solves its rows again.  Before, the sweep's calls solved 132
        # LPs, 63 of them infeasible, and 26 repeated a row set of their call.
        solved = infeasible = 0
        for game in random_sweep:
            for solve in (gd.dimension, gd.codimension):
                with gd.record_certificates() as log:
                    solve(game)
                row_sets = [
                    tuple((tuple(row.coeffs), row.rhs) for row in lp.constraints)
                    for lp, _ in log
                ]
                assert len(set(row_sets)) == len(row_sets)
                solved += len(log)
                infeasible += sum(not result.feasible for _, result in log)
        assert solved <= 107 and infeasible <= 38

    def test_self_dual_games_have_equal_dimensions(self, small_corpus):
        for game in small_corpus:
            if gd.is_self_dual(game):
                assert gd.dimension(game).value == gd.codimension(game).value


def separation_coalitions(game, codim):
    """The fixed coalitions and the targets of one call, in the solver's order."""
    sets = gd.extremal_sets(game)
    if codim:
        return (
            [c.complement() for c in sets.maximal_losing],
            [c.complement() for c in sets.minimal_winning],
        )
    return list(sets.minimal_winning), list(sets.maximal_losing)


def fixed_separation_rows(game, codim):
    """The rows every oracle LP of one call shares, built from the definitions:
    w(S) - q >= 0 on each minimal winning S (dimension) or on the complement
    N - L of each maximal losing L (codimension, whose parts are the duals of
    the games these LPs find), then q >= 1."""
    n = game.n
    wins, _ = separation_coalitions(game, codim)
    rows = [
        gd.Constraint(tuple(int(j in c) for j in range(1, n + 1)) + (-1,), 0)
        for c in wins
    ]
    rows.append(gd.Constraint((0,) * n + (1,), 1))
    return tuple(rows)


def target_separation_row(n, target):
    """The row q - w(T) >= 1 on which a block LP loses target T."""
    return gd.Constraint(tuple(-int(j in target) for j in range(1, n + 1)) + (1,), 1)


class TestSharedFixedRows:
    @pytest.mark.parametrize(
        "solve, game, codim, expected",
        [
            (gd.dimension, gd.gen_random_monotone(7, 6, 1004), False, 3),
            (gd.codimension, gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2)), True, 2),
            (gd.dimension, gd.gen_random_monotone(9, 7, 5040), False, 3),
            (gd.codimension, gd.dual(gd.gen_random_monotone(7, 5, 1043)), True, 2),
        ],
        ids=["dim-random-7-6-1004", "codim-ssp-yes-2", "dim-random-9-7-5040",
             "codim-dual-random-7-5-1043"],
    )
    def test_every_oracle_lp_begins_with_the_fixed_rows(self, solve, game, codim, expected):
        # The rows after the fixed ones are the block's target rows, in the
        # solver's target order.
        fixed = fixed_separation_rows(game, codim)
        _, targets = separation_coalitions(game, codim)
        target_rows = [target_separation_row(game.n, t) for t in targets]
        with gd.record_certificates() as log:
            witness = solve(game)
        assert witness.value == expected
        assert games_agree_by_hand(witness.as_game(), game)
        assert log
        for lp, result in log:
            assert lp.constraints[: len(fixed)] == fixed
            block = lp.constraints[len(fixed) :]
            assert block
            assert block == tuple(row for row in target_rows if row in block)
            gd.verify_certificate(lp, result)


def traded_pairs(game, codim):
    """(t1, t2, witness) for every target pair that the 2-trade test keeps apart."""
    fixed, targets = separation_coalitions(game, codim)
    fixed_masks = [c.members >> 1 for c in fixed]
    for i, t1 in enumerate(targets):
        for t2 in targets[i + 1 :]:
            witness = _trade_certificate(game.n, fixed_masks, t1.members >> 1, t2.members >> 1)
            if witness is not None:
                yield t1, t2, witness


def trade_records(game, codim):
    """(fixed masks, t1, t2, record) for every target pair that a 2-trade keeps apart."""
    fixed, targets = separation_coalitions(game, codim)
    fixed_masks = [c.members >> 1 for c in fixed]
    for i, t1 in enumerate(targets):
        for t2 in targets[i + 1 :]:
            record = _trade(fixed_masks, t1.members >> 1, t2.members >> 1)
            if record is not None:
                yield fixed_masks, t1, t2, record


def pair_program(game, codim, t1, t2):
    """The separation LP of one target pair: the fixed rows, then q - w(T) >= 1."""
    rows = list(fixed_separation_rows(game, codim))
    rows += [target_separation_row(game.n, t) for t in (t1, t2)]
    return gd.LinearProgram(game.n + 1, rows)


class TestTradeCertificates:
    @pytest.mark.parametrize(
        "game, codim",
        [
            (gd.gen_example1(2), False),
            (gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 2)), True),
        ],
        ids=["dim-example1-2", "codim-ssp-yes-2"],
    )
    def test_certificate_verifies_and_each_changed_multiplier_fails(self, game, codim):
        t1, t2, witness = next(traded_pairs(game, codim))
        program = pair_program(game, codim, t1, t2)
        gd.verify_certificate(program, gd.FeasibilityResult(farkas=witness))
        rows, signs = witness.row_multipliers, witness.nonneg_multipliers
        changed = [
            gd.FarkasWitness(rows[:k] + (y + 1,) + rows[k + 1 :], signs)
            for k, y in enumerate(rows)
        ]
        changed += [
            gd.FarkasWitness(rows, signs[:k] + (u + 1,) + signs[k + 1 :])
            for k, u in enumerate(signs)
        ]
        for bad in changed:
            with pytest.raises(gd.CertificateError):
                gd.verify_certificate(program, gd.FeasibilityResult(farkas=bad))

    @pytest.mark.parametrize("codim", [False, True], ids=["dim", "codim"])
    def test_every_traded_pair_is_infeasible(self, small_corpus, codim):
        flagged = 0
        for game in small_corpus:
            fixed, _ = separation_coalitions(game, codim)
            for t1, t2, _ in traded_pairs(game, codim):
                assert gd.co_realizable(fixed, [t1, t2]) is None
                flagged += 1
        assert flagged > 0

    def test_random_corpus_solves_no_infeasible_pair_lp(self, random_corpus):
        # Every incompatible pair of this corpus is a 2-trade, so its edge
        # needs no LP; an infeasible LP here always has three or more targets.
        for game in random_corpus:
            sets = gd.extremal_sets(game)
            for solve, fixed_rows in (
                (gd.dimension, len(sets.minimal_winning) + 1),
                (gd.codimension, len(sets.maximal_losing) + 1),
            ):
                with gd.record_certificates() as log:
                    solve(game)
                for lp, result in log:
                    assert result.feasible or len(lp.constraints) - fixed_rows != 2

    @pytest.mark.parametrize("solve", [gd.dimension, gd.codimension], ids=["dim", "codim"])
    def test_weighted_game_in_explicit_form_solves_only_the_full_block(self, solve):
        # A weighted game has no 2-trade, so the full block is asked first,
        # and its one feasible LP settles the value.
        majority = gd.SimpleGame.from_weighted(gd.make_weighted(4, [3, 2, 1, 1, 1]))
        game = gd.make_explicit(5, list(gd.minimal_winning(majority)))
        sets = gd.extremal_sets(game)
        with gd.record_certificates() as log:
            witness = solve(game)
        assert witness.value == 1
        [(lp, result)] = log
        assert result.feasible
        assert len(lp.constraints) == len(sets.minimal_winning) + 1 + len(sets.maximal_losing)


class TestUnitPart:
    # A block of one target is the unit part [1; w_j = 0 on T, 1 elsewhere].
    def test_part_loses_exactly_inside_its_target(self):
        game = gd.gen_random_monotone(6, 3, 12)
        sets = gd.extremal_sets(game)
        fixed = [c.members >> 1 for c in sets.minimal_winning]
        for target in sets.maximal_losing:
            part = dimsolver._block_part(game.n, fixed, [target.members >> 1])
            assert part.quota == 1
            for c in all_coalitions(game.n):
                assert part.wins(c) == (c.members & ~target.members != 0)

    def test_fixed_mask_inside_the_target_has_no_part(self):
        assert dimsolver._block_part(3, [0b011, 0b100], [0b011]) is None
        assert dimsolver._block_part(3, [0b011, 0b100], [0b110]) is None
        assert dimsolver._block_part(3, [0b011, 0b101], [0b110]) == gd.make_weighted(1, [1, 0, 0])

    @pytest.mark.parametrize("codim", [False, True], ids=["dim", "codim"])
    def test_every_one_target_block_is_the_unit_part_and_builds_no_table(
        self, acceptance_corpus, codim, monkeypatch
    ):
        # The one-target block's own game loses exactly inside T, and its
        # part is checked on the fixed masks with no closure table.
        def refuse(*args):
            raise AssertionError("a one-target block built a table")

        monkeypatch.setattr(dimsolver, "superset_closure", refuse)
        checked = 0
        for game in acceptance_corpus:
            fixed, targets = separation_coalitions(game, codim)
            fixed_masks = [c.members >> 1 for c in fixed]
            for target in targets:
                t = target.members >> 1
                unit = [0 if t >> j & 1 else 1 for j in range(game.n)]
                assert dimsolver._block_part(game.n, fixed_masks, [t]) == gd.make_weighted(1, unit)
                checked += 1
        assert checked > 150


class TestTradeRecords:
    @pytest.mark.parametrize("codim", [False, True], ids=["dim", "codim"])
    def test_every_record_passes_the_mask_check(self, acceptance_corpus, codim):
        records = 0
        for game in acceptance_corpus:
            for fixed_masks, t1, t2, record in trade_records(game, codim):
                _check_trade(frozenset(fixed_masks), t1.members >> 1, t2.members >> 1, record)
                records += 1
        assert records > 0

    @pytest.mark.parametrize("codim", [False, True], ids=["dim", "codim"])
    def test_every_farkas_form_verifies(self, acceptance_corpus, codim):
        for game in acceptance_corpus:
            for fixed_masks, t1, t2, _ in trade_records(game, codim):
                witness = _trade_certificate(game.n, fixed_masks, t1.members >> 1, t2.members >> 1)
                gd.verify_certificate(
                    pair_program(game, codim, t1, t2),
                    gd.FeasibilityResult(farkas=witness),
                )

    def test_broken_records_are_refused(self):
        # A codim pair of example1 n=3 whose targets leave a player out, so
        # some fixed mask (a pair of players) is not inside their union.
        full = 0b111111
        fixed_masks, t1, t2, record = next(
            r for r in trade_records(gd.gen_example1(3), True)
            if (r[1].members | r[2].members) >> 1 != full
        )
        fixed, m1, m2 = frozenset(fixed_masks), t1.members >> 1, t2.members >> 1
        union, common = m1 | m2, m1 & m2
        _check_trade(fixed, m1, m2, record)
        m, m2_ = record
        leaving = next(f for f in fixed_masks if f & ~union and not m & f & ~common)
        overlapping = next(f for f in fixed_masks if not f & ~union and m & f & ~common)
        broken = [
            (m & (m - 1), m2_),  # M is not a fixed mask
            (m, m2_ & (m2_ - 1)),  # M2 is not a fixed mask
            (m, leaving),  # M | M2 is not inside T1 | T2
            (m, overlapping),  # M & M2 is not inside T1 & T2
        ]
        for a, b in broken:
            facts = [a in fixed, b in fixed, not (a | b) & ~union, not a & b & ~common]
            assert facts.count(False) == 1
            with pytest.raises(gd.CertificateError):
                _check_trade(fixed, m1, m2, (a, b))

    @pytest.mark.parametrize("codim", [False, True], ids=["dim", "codim"])
    def test_a_record_is_found_exactly_when_one_exists(self, acceptance_corpus, codim):
        traded = untraded = 0
        for game in acceptance_corpus:
            fixed, targets = separation_coalitions(game, codim)
            fixed_masks = [c.members >> 1 for c in fixed]
            target_masks = [t.members >> 1 for t in targets]
            for i, t1 in enumerate(target_masks):
                for t2 in target_masks[i + 1 :]:
                    exists = any(
                        not (a | b) & ~(t1 | t2) and not a & b & ~(t1 & t2)
                        for a in fixed_masks
                        for b in fixed_masks
                    )
                    assert (_trade(fixed_masks, t1, t2) is not None) == exists
                    traded += exists
                    untraded += not exists
        assert traded and untraded


class TestIsWeighted:
    def test_rederives_majority_from_explicit_form(self):
        majority = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        explicit = gd.make_explicit(3, list(gd.minimal_winning(majority)))
        part = gd.is_weighted(explicit)
        assert part is not None
        assert gd.equivalent(gd.SimpleGame.from_weighted(part), majority)

    def test_weighted_form_returns_its_part_without_an_lp(self):
        part = gd.make_weighted(5, [1] * 10)
        with gd.record_certificates() as log:
            assert gd.is_weighted(gd.SimpleGame.from_weighted(part)) is part
        assert log == []

    def test_example1_is_not_weighted(self):
        assert gd.is_weighted(gd.gen_example1(2)) is None

    def test_ssp_no_instance_collapses(self):
        game = gd.gen_ssp(gd.SSPInstance(2, (5, 7), 2))
        part = gd.is_weighted(game)
        assert part is not None
        reference = gd.SimpleGame.from_weighted(gd.make_weighted(3, [5, 7, 0, 0, 0, 0]))
        assert gd.equivalent(gd.SimpleGame.from_weighted(part), reference)

    def test_present_iff_dimension_one(self, small_corpus):
        for game in small_corpus:
            assert (gd.is_weighted(game) is not None) == (gd.dimension(game).value == 1)

    def test_sixteen_player_two_part_majority_needs_no_lp(self):
        # The 8-of-16 majority as an intersection: its extremal families
        # give a separation LP of 24,310 rows, but its swing counts are
        # equal, so the part [8; 1, ..., 1] is read off them and checked.
        ones = [1] * 16
        game = gd.combine(gd.INTERSECTION, [gd.make_weighted(8, ones), gd.make_weighted(1, ones)])
        with gd.record_certificates() as log:
            part = gd.is_weighted(game)
        assert part == gd.make_weighted(8, ones)
        assert log == []

    def test_a_trade_through_the_heaviest_target_answers_no_without_an_lp(
        self, acceptance_corpus, random_sweep, monkeypatch
    ):
        # T* is the maximal losing coalition of greatest swing weight, the
        # first by mask on a tie.  When some other maximal losing coalition
        # is traded with it, found here by trying every pair of minimal
        # winning masks, the answer is None from one checked record.
        accepted = []
        check_trade = dimsolver._check_trade

        def spy(fixed, t1, t2, record):
            check_trade(fixed, t1, t2, record)
            accepted.append((t1, record))

        monkeypatch.setattr(dimsolver, "_check_trade", spy)
        traded = untraded = 0
        for game in acceptance_corpus + random_sweep:
            sets = gd.extremal_sets(game)
            wins = [c.members >> 1 for c in sets.minimal_winning]
            losses = [c.members >> 1 for c in sets.maximal_losing]
            swings = swing_counts(game.truth_table, game.n)
            weight = [sum(s for j, s in enumerate(swings) if m >> j & 1) for m in losses]
            heaviest = losses[weight.index(max(weight))]
            has_trade = any(
                not (a | b) & ~(heaviest | t) and not a & b & ~(heaviest & t)
                for t in losses
                if t != heaviest
                for a in wins
                for b in wins
            )
            value = gd.dimension(game).value
            accepted.clear()
            with gd.record_certificates() as log:
                part = gd.is_weighted(game)
            assert (part is None) == (value != 1)
            if part is None and has_trade:
                assert log == []
                [(t1, _)] = accepted
                assert t1 == heaviest
                traded += 1
            else:
                assert accepted == []
                if part is None:
                    assert log
                    untraded += 1
        assert traded > 100 and untraded >= 1


def majority(k, n):
    """The k-of-n majority in explicit form, listed by its minimal winning coalitions."""
    return gd.make_explicit(
        n, [players(c, n) for c in itertools.combinations(range(1, n + 1), k)]
    )


class TestBanzhafPart:
    def test_weighted_games_solve_no_lp(self, acceptance_corpus):
        # 35 of the corpus's 36 weighted games are answered by their swing
        # counts.  The other is weighted by [11; 1, 7, 1, 4, 0, 1, 4], while
        # its counts over their gcd, (1, 23, 1, 9, 0, 1, 9), give the minimal
        # winning {1, 3, 4, 6, 7} weight 21 and the maximal losing
        # {1, 2, 3, 5, 6} weight 26; it costs one LP a call.
        missed = gd.gen_random_monotone(7, 5, 1028)
        weighted = [g for g in acceptance_corpus if gd.is_weighted(g) is not None]
        assert len(weighted) == 36 and missed in weighted
        for game in weighted:
            lps = int(game == missed)
            for solve in (gd.dimension, gd.codimension):
                with gd.record_certificates() as log:
                    witness = solve(game)
                assert len(log) == lps and witness.value == 1
                assert gd.equivalent(witness.as_game(), game)
            with gd.record_certificates() as log:
                part = gd.is_weighted(game)
            assert len(log) == lps
            assert gd.equivalent(gd.SimpleGame.from_weighted(part), game)

    def test_explicit_six_of_eleven_majority_needs_no_lp(self):
        # Its 462 maximal losing coalitions exceed the cap of dim and codim,
        # so only is_weighted is asked.
        game = majority(6, 11)
        with gd.record_certificates() as log:
            part = gd.is_weighted(game)
        assert log == [] and part == gd.make_weighted(6, [1] * 11)

    def test_a_missed_part_falls_back_to_one_lp(self):
        # Weighted by [3; 1, 1, 1, 2], but the swing counts (2, 2, 2, 6)
        # give w = (1, 1, 1, 3), under which {1, 2, 3} weighs 3 and the
        # maximal losing {4} weighs 3 too.
        game = gd.gen_random_monotone(4, 7, 1039)
        sets = gd.extremal_sets(game)
        assert swing_counts(game.truth_table, 4) == [2, 2, 2, 6]
        fixed = [c.members >> 1 for c in sets.minimal_winning]
        targets = [c.members >> 1 for c in sets.maximal_losing]
        assert dimsolver._threshold_part([2, 2, 2, 6], fixed, targets) is None
        reference = gd.SimpleGame.from_weighted(gd.make_weighted(3, [1, 1, 1, 2]))
        assert gd.equivalent(game, reference)
        for solve in (gd.dimension, gd.codimension, gd.is_weighted):
            with gd.record_certificates() as log:
                solve(game)
            [(lp, result)] = log
            assert result.feasible
            gd.verify_certificate(lp, result)

    def test_a_fixed_mask_below_the_quota_refuses_the_part(self):
        game = majority(2, 3)
        wins, losses = [0b011, 0b101, 0b110], [0b001, 0b010, 0b100]
        swings = swing_counts(game.truth_table, 3)
        assert dimsolver._threshold_part(swings, wins, losses) == gd.make_weighted(2, [1, 1, 1])
        assert dimsolver._threshold_part(swings, wins + [0b001], losses) is None

    def test_every_game_has_the_swing_counts_of_its_dual(self, acceptance_corpus):
        for game in acceptance_corpus:
            swings = swing_counts(game.truth_table, game.n)
            assert swings == swing_counts(gd.dual(game).truth_table, game.n)

    def test_swing_counts_match_a_count_by_hand(self, small_corpus):
        for game in small_corpus:
            wins = winning_masks_by_hand(game)
            expected = [
                sum(1 for m in wins if m >> j & 1 and m ^ 1 << j not in wins)
                for j in range(1, game.n + 1)
            ]
            assert swing_counts(game.truth_table, game.n) == expected

    def test_an_answered_game_builds_no_trade_or_row(self, acceptance_corpus, monkeypatch):
        missed = gd.gen_random_monotone(7, 5, 1028)
        answered = [g for g in acceptance_corpus if gd.is_weighted(g) is not None and g != missed]
        assert len(answered) == 35

        def refuse(*args):
            raise AssertionError("trade or separation row built after the part answered")

        monkeypatch.setattr(dimsolver, "_trade", refuse)
        monkeypatch.setattr(dimsolver, "_separation_rows", refuse)
        for game in answered:
            for solve in (gd.dimension, gd.codimension):
                witness = solve(game)
                assert witness.value == 1
                assert gd.equivalent(witness.as_game(), game)

    def test_a_traded_pair_misses_the_part_then_searches(self, monkeypatch):
        # Example1 n=3 has traded pairs in both orientations, so no one part
        # passes the part's fixed-mask check, and the search answers.
        game = gd.gen_example1(3)
        swings = swing_counts(game.truth_table, game.n)
        for codim in (False, True):
            fixed, targets = separation_coalitions(game, codim)
            fixed_masks = [c.members >> 1 for c in fixed]
            target_masks = [t.members >> 1 for t in targets]
            assert dimsolver._threshold_part(swings, fixed_masks, target_masks) is None
        searches = []
        search = dimsolver._search

        def spy(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(dimsolver, "_search", spy)
        assert gd.dimension(game).value == 3
        assert gd.codimension(game).value == 4
        assert len(searches) == 2


class TestBlockPart:
    def test_every_part_separates_its_block_and_no_infeasible_block_gets_one(
        self, acceptance_corpus, monkeypatch
    ):
        # Each block part the search tries is checked by summing its weights
        # player by player on every fixed mask and block target, and each
        # block is also solved by its own LP: an infeasible one gets no part.
        calls = []
        block_part = dimsolver._block_part

        def spy(n, fixed_masks, block_masks):
            part = block_part(n, fixed_masks, block_masks)
            calls.append((n, list(fixed_masks), list(block_masks), part))
            return part

        monkeypatch.setattr(dimsolver, "_block_part", spy)
        for game in acceptance_corpus:
            gd.dimension(game)
            gd.codimension(game)
            gd.codimension(gd.dual(game))
        returned = infeasible = 0
        for n, fixed, block, part in calls:
            feasible = dimsolver._separate(n, fixed, block)
            infeasible += feasible is None
            if part is None:
                continue
            returned += len(block) > 1
            assert feasible is not None
            assert part.n == n
            for masks, wins in ((fixed, True), (block, False)):
                for m in masks:
                    weight = sum(w for j, w in enumerate(part.weights) if m >> j & 1)
                    assert (weight >= part.quota) == wins
        # Wider blocks get 89 parts here; swing-weighted block parts gave 60.
        assert returned >= 85 and infeasible > 0

    def test_weights_are_the_swing_counts_of_the_blocks_own_game(self):
        # Targets {2, 4} and {2, 3}: the block's game loses on their six
        # subsets, I = {2}, D = {3, 4} and down_D = {}, {3}, {4}.  Player 1,
        # in no target, swings on all 6; player 2 never; players 3 and 4 on 2
        # each ({3, 4} and {2, 3, 4} win).  Over 2^|I| that is w = (3, 0, 1, 1),
        # both targets weigh 1, and the fixed masks {1, 2} and {3, 4} reach
        # the quota 2.  The targets {2, 4} and {1, 3} are traded by the fixed
        # masks: every player weighs 3, and {1, 2} falls below the quota.
        fixed = [0b0011, 0b1100]
        part = dimsolver._block_part(4, fixed, [0b1010, 0b0110])
        assert part == gd.make_weighted(2, [3, 0, 1, 1])
        assert dimsolver._block_part(4, fixed, [0b1010, 0b0101]) is None
        assert dimsolver._block_part(4, (), [0b1010, 0b0101]) == gd.make_weighted(3, [1] * 4)

    @pytest.mark.parametrize("codim", [False, True], ids=["dim", "codim"])
    def test_the_full_target_set_gives_the_banzhaf_part(self, acceptance_corpus, codim):
        # The game of every target is the game itself (dimension) or its dual
        # (codimension), whose swing counts are the game's.
        for game in acceptance_corpus:
            fixed, targets = separation_coalitions(game, codim)
            fixed_masks = [c.members >> 1 for c in fixed]
            target_masks = [t.members >> 1 for t in targets]
            swings = swing_counts(game.truth_table, game.n)
            for masks in ((), fixed_masks):
                banzhaf = dimsolver._threshold_part(swings, masks, target_masks)
                assert dimsolver._block_part(game.n, masks, target_masks) == banzhaf

    def test_a_block_spanning_twenty_four_players(self):
        # T1 = players 1-12, T2 = 13-24 and T3 = 1-6 and 13-18: no player is
        # in all three, so D holds all 24.  By inclusion and exclusion down_D
        # has 3 * 4096 - 1 - 64 - 64 + 1 = 12,160 members, and a player of T3
        # swings 4,032 times, any other 8,064: w = 1 on T3, 2 elsewhere.
        t1, t2 = (1 << 12) - 1, ((1 << 12) - 1) << 12
        t3 = 0b111111 | 0b111111 << 12
        weights = [1] * 6 + [2] * 6 + [1] * 6 + [2] * 6
        fixed = [t1 | 1 << 18, t2 | 1 << 6]  # weights 20
        part = dimsolver._block_part(24, fixed, [t1, t2, t3])
        assert part == gd.make_weighted(19, weights)
        below = 0b111111 << 6 | 0b111 << 18  # weighs 18
        assert dimsolver._block_part(24, fixed + [below], [t1, t2, t3]) is None

    def test_lp_total_over_the_acceptance_corpus(self, acceptance_corpus):
        # dimension, codimension, codimension of the dual and is_weighted on
        # all 55 games solve 28 LPs.  They solved 136 before block parts and
        # the 2-trade of is_weighted, and 57 with swing-weighted block parts.
        with gd.record_certificates() as log:
            for game in acceptance_corpus:
                gd.dimension(game)
                gd.codimension(game)
                gd.codimension(gd.dual(game))
                gd.is_weighted(game)
        assert len(log) <= 28


class TestSeparate:
    # The LP is stubbed to return a chosen assignment, so the mask check of
    # its weights' threshold part is what accepts or refuses it.  The fixed
    # mask is {1, 2}; the target, when there is one, is {1}.
    @pytest.fixture
    def solved(self, monkeypatch):
        """Make every LP return ``assignment`` over ``denominator``; the LPs it gets are listed."""

        def solve(assignment, denominator=1):
            lps = []

            def stub(lp):
                lps.append(lp)
                return gd.FeasibilityResult(tuple(assignment), denominator=denominator)

            monkeypatch.setattr(gd.lp, "solve_feasibility", stub)
            return lps

        return solve

    def test_a_game_that_meets_every_mask_is_returned_scaled(self, solved):
        lps = solved([1, 1, 2], 2)  # (1/2, 1/2, 1)
        assert dimsolver._separate(2, [0b11], [0b01]) == gd.make_weighted(2, [1, 1])
        assert [lp.constraints for lp in lps] == [dimsolver._separation_rows(2, [0b11], [0b01])]

    @pytest.mark.parametrize(
        "assignment, targets, part",
        [
            ([1, 1, 1], [0b01], gd.make_weighted(2, [1, 1])),  # [1; 1, 1] lets {1} win
            ([1, 1, 0], [], gd.make_weighted(1, [1, 1])),  # quota 0 lets the empty coalition win
        ],
        ids=["wins-on-a-target", "quota-zero"],
    )
    def test_the_lp_quota_is_not_read(self, solved, assignment, targets, part):
        # Weights that separate give their threshold part, whatever the
        # LP's quota: one above the heaviest target, or 1 with none.
        solved(assignment)
        assert dimsolver._separate(2, [0b11], targets) == part

    @pytest.mark.parametrize(
        "assignment, denominator, targets",
        [
            ([1, 0, 2], 2, [0b01]),  # (1/2, 0, 1), so [2; 1, 0]: {1, 2} weighs 1
            ([0, 0, 1], 1, [0b01]),  # no weight: {1, 2} weighs 0
        ],
        ids=["misses-a-fixed-mask", "all-zero-weights"],
    )
    def test_a_scaled_game_that_misses_a_mask_is_refused(
        self, solved, assignment, denominator, targets
    ):
        solved(assignment, denominator)
        with pytest.raises(gd.CertificateError, match="misses a separation row"):
            dimsolver._separate(2, [0b11], targets)


class TestPrimitiveSeparationGames:
    # Every game read off a separation LP is a threshold part: its weights
    # over their gcd, and a quota one above its heaviest target.  A union
    # part is the dual of such a game, and the dual itself may have a common
    # factor, so codimension is checked on the duals of its parts.
    def test_every_separation_game_is_primitive(self, acceptance_corpus):
        for game in acceptance_corpus:
            sets = gd.extremal_sets(game)
            mwc = sets.minimal_winning
            found = [gd.is_weighted(game), gd.co_realizable(mwc, ())]
            found += [gd.co_realizable(mwc, [t]) for t in sets.maximal_losing]
            found += gd.dimension(game).parts
            found += map(gd.dual_weighted, gd.codimension(game).parts)
            for part in found:
                assert part is None or gcd(part.quota, *part.weights) == 1, (game, part)


class TestCanonicalForms:
    def test_intersection_example1(self):
        parts = gd.canonical_intersection(gd.gen_example1(2))
        assert parts == [
            gd.make_weighted(1, [0, 0, 1, 1]),
            gd.make_weighted(1, [1, 1, 0, 0]),
        ]

    def test_intersection_of_near_empty_game(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(1, [1, 1]))
        assert gd.canonical_intersection(game) == [gd.make_weighted(1, [1, 1])]

    def test_intersection_majority(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        parts = gd.canonical_intersection(game)
        assert parts == [
            gd.make_weighted(1, [0, 1, 1]),
            gd.make_weighted(1, [1, 0, 1]),
            gd.make_weighted(1, [1, 1, 0]),
        ]
        assert games_agree_by_hand(gd.combine(gd.INTERSECTION, parts), game)

    def test_union_example1(self):
        parts = gd.canonical_union(gd.gen_example1(2))
        assert set(parts) == {
            gd.make_weighted(2, [1, 0, 1, 0]),
            gd.make_weighted(2, [1, 0, 0, 1]),
            gd.make_weighted(2, [0, 1, 1, 0]),
            gd.make_weighted(2, [0, 1, 0, 1]),
        }

    def test_union_of_unanimity_is_itself(self):
        wg = gd.make_weighted(4, [1, 1, 1, 1])
        assert gd.canonical_union(gd.SimpleGame.from_weighted(wg)) == [wg]

    def test_union_majority(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        parts = gd.canonical_union(game)
        assert len(parts) == 3
        assert games_agree_by_hand(gd.combine(gd.UNION, parts), game)

    def test_both_recombine_on_corpus(self, small_corpus):
        for game in small_corpus:
            inter = gd.combine(gd.INTERSECTION, gd.canonical_intersection(game))
            union = gd.combine(gd.UNION, gd.canonical_union(game))
            assert gd.equivalent(inter, game)
            assert gd.equivalent(union, game)

    def test_lemma1_bounds(self, small_corpus):
        for game in small_corpus:
            sets = gd.extremal_sets(game)
            assert gd.dimension(game).value <= len(sets.maximal_losing)
            assert gd.codimension(game).value <= len(sets.minimal_winning)


class TestConvert:
    def test_minimal_union_of_example1_n3(self):
        parts = gd.convert(gd.gen_example1(3), gd.UNION, "minimal")
        assert len(parts) == 4

    def test_single_weighted_game(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        assert len(gd.convert(game, gd.INTERSECTION, "minimal")) == 1

    def test_canonical_delegates(self):
        game = gd.gen_example1(2)
        assert gd.convert(game, gd.INTERSECTION, "canonical") == gd.canonical_intersection(game)
        assert gd.convert(game, gd.UNION, "canonical") == gd.canonical_union(game)

    def test_validation(self):
        game = gd.gen_example1(2)
        with pytest.raises(gd.InvalidGameError):
            gd.convert(game, "complement")
        with pytest.raises(gd.InvalidGameError):
            gd.convert(game, gd.UNION, "approximate")


class TestOracleCache:
    @staticmethod
    def _dimension_cache(game):
        """A cache over the game's dimension targets, and the masks its solver was asked."""
        sets = gd.extremal_sets(game)
        targets = list(sets.maximal_losing)
        calls = []

        def solver(mask):
            calls.append(mask)
            chosen = [targets[i] for i in range(len(targets)) if mask >> i & 1]
            return gd.co_realizable(sets.minimal_winning, chosen)

        return gd.SeparabilityOracleCache(solver), calls

    def test_witness_reuse_and_downward_closure(self):
        cache, calls = self._dimension_cache(gd.gen_example1(2))
        first = cache.query(0b01)
        assert first is not None
        assert cache.query(0b01) is first  # its own feasible entry
        assert cache.query(0b11) is None
        assert cache.query(0b11) is None  # its own infeasible entry
        assert calls == [0b01, 0b11]

    def test_subset_of_feasible_mask_reuses_its_witness(self):
        # Of the seven maximal losing targets, {0, 2} is separable.
        cache, calls = self._dimension_cache(gd.gen_random_monotone(7, 3, 1016))
        witness = cache.query(0b101)
        assert witness is not None
        assert cache.query(0b001) is witness
        assert cache.query(0b100) is witness
        assert calls == [0b101]

    def test_superset_of_infeasible_mask_is_infeasible(self):
        # Of the seven maximal losing targets, {1, 2} is not separable.
        cache, calls = self._dimension_cache(gd.gen_random_monotone(7, 3, 1016))
        assert cache.query(0b110) is None
        assert cache.query(0b111) is None
        assert cache.query(0b1110) is None
        assert calls == [0b110]
