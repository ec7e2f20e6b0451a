"""The simplegame text format: canonical serialisation, parsing, error codes."""

import pytest

import gamedim as gd


def players(iterable, n):
    return gd.Coalition.from_players(iterable, n)


class TestSerialize:
    def test_example1_file(self):
        text = gd.serialize_game(gd.gen_example1(2))
        assert text == (
            "simplegame 1\n"
            "players 4\n"
            "form intersection\n"
            "wmg 1 : 1 1 0 0\n"
            "wmg 1 : 0 0 1 1\n"
        )

    def test_explicit_canonical_order(self):
        majority = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        explicit = gd.make_explicit(3, list(gd.minimal_winning(majority)))
        text = gd.serialize_game(explicit)
        assert text == (
            "simplegame 1\n"
            "players 3\n"
            "form explicit\n"
            "win 110\n"
            "win 101\n"
            "win 011\n"
        )

    def test_weighted_file(self):
        game = gd.SimpleGame.from_weighted(gd.make_weighted(2, [1, 1, 1]))
        assert gd.serialize_game(game) == (
            "simplegame 1\nplayers 3\nform weighted\nwmg 2 : 1 1 1\n"
        )


class TestParse:
    def test_weighted(self):
        game = gd.parse_game("simplegame 1\nplayers 3\nform weighted\nwmg 2 : 1 1 1\n")
        assert game.form == gd.WEIGHTED
        assert game.parts == (gd.make_weighted(2, [1, 1, 1]),)

    def test_example1_intersection(self):
        text = (
            "simplegame 1\nplayers 4\nform intersection\n"
            "wmg 1 : 1 1 0 0\nwmg 1 : 0 0 1 1\n"
        )
        assert gd.equivalent(gd.parse_game(text), gd.gen_example1(2))

    def test_explicit(self):
        text = "simplegame 1\nplayers 3\nform explicit\nwin 110\nwin 011\n"
        game = gd.parse_game(text)
        assert game.antichain == (players([1, 2], 3), players([2, 3], 3))

    def test_blank_lines_and_padding_tolerated(self):
        text = "simplegame 1\n\n  players 2  \nform weighted\n\nwmg 1 : 1 1\n\n"
        assert gd.parse_game(text).n == 2

    def test_roundtrip_corpus(self, small_corpus):
        for game in small_corpus:
            again = gd.parse_game(gd.serialize_game(game))
            assert gd.equivalent(again, game)
            assert gd.serialize_game(again) == gd.serialize_game(game)

    def test_roundtrip_large_explicit_majority(self):
        # 3,003 minimal winning coalitions of the 8-of-14 majority.
        majority = gd.SimpleGame.from_weighted(gd.make_weighted(8, [1] * 14))
        game = gd.make_explicit(14, gd.minimal_winning(majority))
        assert len(game.antichain) == 3003
        assert gd.parse_game(gd.serialize_game(game)) == game
        assert gd.equivalent(gd.dual(gd.dual(game)), game)
        assert gd.equivalent(gd.dual(game), gd.dual(majority))


def parse_error(text):
    with pytest.raises(gd.GameParseError) as info:
        gd.parse_game(text)
    return info.value


class TestParseErrors:
    def test_bad_header(self):
        err = parse_error("simplegame 2\nplayers 2\nform weighted\nwmg 1 : 1 1\n")
        assert err.code == "bad-header" and err.line == 1

    def test_truncated_file(self):
        err = parse_error("simplegame 1\nplayers 2\n")
        assert err.code == "bad-header" and err.line == 3

    def test_bad_players(self):
        # Only ASCII digits count: "²" passes str.isdigit and "٣" is int 3.
        # A game needs at least one player.
        for count in ("two", "\u00b2", "\u0663", "0"):
            err = parse_error(f"simplegame 1\nplayers {count}\nform weighted\nwmg 1 : 1\n")
            assert err.code == "bad-players" and err.line == 2

    def test_player_limit(self):
        err = parse_error(
            f"simplegame 1\nplayers {gd.N_MAX + 1}\nform weighted\nwmg 1 : 1\n"
        )
        assert err.code == "player-limit" and err.line == 2

    def test_bad_form(self):
        err = parse_error("simplegame 1\nplayers 2\nform majority\nwmg 1 : 1 1\n")
        assert err.code == "bad-form" and err.line == 3

    def test_empty_body(self):
        err = parse_error("simplegame 1\nplayers 2\nform weighted\n")
        assert err.code == "empty-body"

    def test_bad_line_in_explicit_body(self):
        err = parse_error("simplegame 1\nplayers 2\nform explicit\nwmg 1 : 1 1\n")
        assert err.code == "bad-line" and err.line == 4

    def test_bitstring_length(self):
        err = parse_error("simplegame 1\nplayers 4\nform explicit\nwin 110\n")
        assert err.code == "bitstring-length" and err.line == 4

    def test_bad_bitstring(self):
        err = parse_error("simplegame 1\nplayers 3\nform explicit\nwin 1x0\n")
        assert err.code == "bad-bitstring" and err.line == 4

    def test_empty_coalition(self):
        err = parse_error("simplegame 1\nplayers 3\nform explicit\nwin 000\n")
        assert err.code == "empty-coalition" and err.line == 4

    def test_not_antichain_names_second_line(self):
        err = parse_error(
            "simplegame 1\nplayers 4\nform explicit\nwin 1100\nwin 1110\n"
        )
        assert err.code == "not-antichain" and err.line == 5

    def test_not_antichain_superset_first(self):
        err = parse_error(
            "simplegame 1\nplayers 4\nform explicit\nwin 1110\nwin 1100\n"
        )
        assert err.code == "not-antichain" and err.line == 5
        assert str(err) == "line 5: not-antichain: coalition 1100 is nested with 1110"

    def test_not_antichain_names_first_nested_pair(self):
        err = parse_error(
            "simplegame 1\nplayers 4\nform explicit\n"
            "win 1000\nwin 0110\nwin 0011\nwin 0111\nwin 1100\n"
        )
        assert err.line == 7
        assert str(err) == "line 7: not-antichain: coalition 0111 is nested with 0110"

    def test_repeated_win_line_reported_at_second(self):
        err = parse_error(
            "simplegame 1\nplayers 3\nform explicit\n"
            "win 110\nwin 011\n\nwin 110\nwin 101\n"
        )
        assert err.code == "not-antichain" and err.line == 7
        assert str(err) == "line 7: not-antichain: coalition 110 is nested with 110"

    def test_bad_wmg_syntax(self):
        err = parse_error("simplegame 1\nplayers 2\nform weighted\nwmg 1 1 1\n")
        assert err.code == "bad-wmg" and err.line == 4

    def test_wmg_numbers_are_ascii_decimal(self):
        # int() would read the quota "٣" as 3, "1_0" as 10 and "２" as 2.
        for line in ("wmg ٣ : 1 1", "wmg 1 : 1_0 1", "wmg 1 : 1 ２"):
            err = parse_error(f"simplegame 1\nplayers 2\nform weighted\n{line}\n")
            assert err.code == "bad-wmg" and err.line == 4
        game = gd.parse_game("simplegame 1\nplayers 2\nform weighted\nwmg +2 : 02 1\n")
        assert game.parts == (gd.make_weighted(2, [2, 1]),)
        err = parse_error("simplegame 1\nplayers 2\nform weighted\nwmg 1 : -1 2\n")
        assert err.code == "invalid-wmg" and err.line == 4

    def test_bad_wmg_width(self):
        err = parse_error("simplegame 1\nplayers 3\nform weighted\nwmg 1 : 1 1\n")
        assert err.code == "bad-wmg" and err.line == 4

    def test_invalid_wmg_quota(self):
        err = parse_error("simplegame 1\nplayers 2\nform weighted\nwmg 0 : 1 1\n")
        assert err.code == "invalid-wmg" and err.line == 4

    def test_wrong_part_count_for_weighted(self):
        err = parse_error(
            "simplegame 1\nplayers 2\nform weighted\nwmg 1 : 1 1\nwmg 2 : 1 1\n"
        )
        assert err.code == "wrong-part-count" and err.line == 5
