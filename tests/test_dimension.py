"""Dimension/codimension solver, separation oracles, canonical conversions."""

import itertools
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
        # blocks than the clique bound.  217 LPs is the earlier two-pass count.
        game = gd.gen_random_monotone(9, 7, 5040)
        with gd.record_certificates() as log:
            witness = gd.dimension(game)
        assert len(log) <= 217
        assert witness.value == 3
        assert games_agree_by_hand(witness.as_game(), game)

    @pytest.mark.parametrize(
        "game, expected, lps",
        [(gd.gen_example1(4), 8, 8), (gd.gen_example1(5), 16, 16)],
        ids=["example1-4", "example1-5"],
    )
    def test_example1_codimension_solves_one_lp_per_part(self, game, expected, lps):
        # Every incompatible pair is a 2-trade, so no pair is queried up front
        # and first-fit placement meets the clique bound with one LP a part.
        with gd.record_certificates() as log:
            witness = gd.codimension(game)
        assert witness.value == expected
        assert len(log) == lps

    def test_ssp_yes_instance_codimension_lp_count(self):
        game = gd.gen_ssp(gd.SSPInstance(3, (1, 2, 3), 3))
        with gd.record_certificates() as log:
            witness = gd.codimension(game)
        assert witness.value == 4
        assert len(log) <= 10

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
        monkeypatch.setattr(dimsolver, "_unit_part", lambda n, fixed_masks, target: None)
        with pytest.raises(RuntimeError, match="internal error"):
            gd.dimension(gd.gen_example1(2))

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

        class NoOracle:
            def query(self, mask):
                raise AssertionError(f"queried block {mask:#x}")

        blocks = dimsolver._minimum_partition(count, NoOracle(), adj)
        assert len(blocks) == count
        assert sorted(blocks) == [1 << v for v in range(count)]

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

            class StubOracle:
                def query(self, mask):
                    nonlocal queries
                    queries += 1
                    return mask if ok(mask) else None

            blocks = dimsolver._minimum_partition(count, StubOracle(), adj)
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

    def test_infeasible_widened_block_falls_back_to_the_asked_block(self):
        # A widened block that fails is followed by the LP of the block the
        # search asked for, which lies strictly inside it.
        game = gd.gen_random_monotone(6, 3, 1021)
        with gd.record_certificates() as log:
            value = gd.dimension(game).value
        assert value == exhaustive_dimension(game) == 2
        assert any(
            not result.feasible and set(asked.constraints) < set(wide.constraints)
            for (wide, result), (asked, _) in zip(log, log[1:])
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
        gd.Constraint(tuple(int(j in c) for j in range(1, n + 1)) + (-1,), gd.GE, 0)
        for c in wins
    ]
    rows.append(gd.Constraint((0,) * n + (1,), gd.GE, 1))
    return tuple(rows)


def target_separation_row(n, target):
    """The row w(T) - q <= -1 on which a block LP loses target T."""
    return gd.Constraint(tuple(int(j in target) for j in range(1, n + 1)) + (-1,), gd.LE, -1)


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
    """The separation LP of one target pair: the fixed rows, then w(T) - q <= -1."""
    rows = list(fixed_separation_rows(game, codim))
    rows += [target_separation_row(game.n, t) for t in (t1, t2)]
    return gd.LinearProgram(game.n + 1, rows, range(game.n + 1))


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
        gd.verify_certificate(program, gd.FeasibilityResult("infeasible", farkas=witness))
        rows, signs = witness.row_multipliers, witness.nonneg_multipliers
        changed = [
            gd.FarkasWitness(rows[:k] + (y + 1,) + rows[k + 1 :], signs)
            for k, y in enumerate(rows)
        ]
        changed += [
            gd.FarkasWitness(rows, signs[:k] + ((j, u - 1),) + signs[k + 1 :])
            for k, (j, u) in enumerate(signs)
        ]
        for bad in changed:
            with pytest.raises(gd.CertificateError):
                gd.verify_certificate(program, gd.FeasibilityResult("infeasible", farkas=bad))

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
    def test_part_loses_exactly_inside_its_target(self):
        game = gd.gen_random_monotone(6, 3, 12)
        sets = gd.extremal_sets(game)
        fixed = [c.members >> 1 for c in sets.minimal_winning]
        for target in sets.maximal_losing:
            part = dimsolver._unit_part(game.n, fixed, target.members >> 1)
            assert part.quota == 1
            for c in all_coalitions(game.n):
                assert part.wins(c) == (c.members & ~target.members != 0)

    def test_fixed_mask_inside_the_target_has_no_part(self):
        assert dimsolver._unit_part(3, [0b011, 0b100], 0b011) is None
        assert dimsolver._unit_part(3, [0b011, 0b100], 0b110) is None
        assert dimsolver._unit_part(3, [0b011, 0b101], 0b110) == gd.make_weighted(1, [1, 0, 0])


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
                    gd.FeasibilityResult("infeasible", farkas=witness),
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
        assert dimsolver._banzhaf_part(game, fixed, targets) is None
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
        assert dimsolver._banzhaf_part(game, wins, losses) == gd.make_weighted(2, [1, 1, 1])
        assert dimsolver._banzhaf_part(game, wins + [0b001], losses) is None

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

    def test_a_traded_pair_skips_the_part(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Banzhaf part built for a game with a traded pair")

        monkeypatch.setattr(dimsolver, "_banzhaf_part", refuse)
        game = gd.gen_example1(3)
        assert gd.dimension(game).value == 3
        assert gd.codimension(game).value == 4


class TestPrimitiveSeparationGames:
    # Every game read off a separation LP is divided by the gcd of its
    # quota and weights.  A union part is the dual of such a game, and the
    # dual itself may have a common factor, so codimension is checked on
    # the duals of its parts.
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
            part = gd.co_realizable(sets.minimal_winning, chosen)
            if part is None:
                return None
            cover = sum(1 << i for i, t in enumerate(targets) if not part.wins(t))
            return cover, part

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

    def test_witness_answers_every_block_inside_its_cover(self):
        # Of the four maximal losing targets, the witness found for {0, 1}
        # also loses on target 2, so it answers {1, 2} without another LP.
        game = gd.gen_random_monotone(4, 4, 1003)
        targets = list(gd.extremal_sets(game).maximal_losing)
        assert len(targets) == 4
        cache, calls = self._dimension_cache(game)
        witness = cache.query(0b0011)
        assert witness is not None
        cover = sum(1 << i for i, t in enumerate(targets) if not witness.wins(t))
        assert cover & 0b0011 == 0b0011 and cover != 0b0011
        assert cache.query(0b0110) is witness
        assert calls == [0b0011]

    def test_cover_missing_the_block_is_refused(self):
        cache = gd.SeparabilityOracleCache(lambda mask: (0b01, gd.make_weighted(1, [1])))
        with pytest.raises(gd.CertificateError):
            cache.query(0b11)
