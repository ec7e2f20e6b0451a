"""Command-line driver: reports, JSON mode, pipes, exit codes, lazy imports."""

import contextlib
import io
import json
import os
import sys

import pytest

import gamedim as gd
from gamedim import cli
from gamedim.cli import run
from conftest import fresh_eval, fresh_python


def call(argv, stdin_text=""):
    stdin, stdout, stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    code = run(argv, stdin=stdin, stdout=stdout, stderr=stderr)
    return code, stdout.getvalue(), stderr.getvalue()


def gen(argv):
    code, out, err = call(argv)
    assert code == 0, err
    return out


class TestGen:
    def test_example1_file(self):
        out = gen(["gen", "example1", "--n", "2"])
        assert out == gd.serialize_game(gd.gen_example1(2))

    def test_ssp_file(self):
        out = gen(["gen", "ssp", "--b", "3", "--a", "1,2,3", "--d", "2"])
        assert "wmg 10 : 3 6 9 1 1 0 0" in out

    def test_unanimity_blocks(self):
        out = gen(["gen", "unanimity", "--blocks", "1100,0011"])
        game = gd.parse_game(out)
        assert gd.equivalent(game, gd.dual(gd.gen_example1(2)))

    def test_random_deterministic(self):
        first = gen(["gen", "random", "--n", "5", "--m", "4", "--seed", "3"])
        second = gen(["gen", "random", "--n", "5", "--m", "4", "--seed", "3"])
        assert first == second and first.startswith("simplegame 1\n")

    def test_json_game_document(self):
        out = gen(["gen", "example1", "--n", "2", "--json"])
        doc = json.loads(out)
        assert doc == {
            "players": 4,
            "form": "intersection",
            "parts": [
                {"quota": 1, "weights": [1, 1, 0, 0]},
                {"quota": 1, "weights": [0, 0, 1, 1]},
            ],
        }

    def test_random_json_win_matches_text_win_lines(self):
        text = gen(["gen", "random", "--n", "7", "--m", "5", "--seed", "11"])
        doc = json.loads(gen(["gen", "random", "--n", "7", "--m", "5", "--seed", "11", "--json"]))
        win_lines = [line.split()[1] for line in text.splitlines() if line.startswith("win ")]
        assert doc["form"] == "explicit" and len(win_lines) > 1
        assert doc["win"] == win_lines

    def test_unanimity_blocks_with_no_bitstring_is_exit_one(self):
        code, out, err = call(["gen", "unanimity", "--blocks", ","])
        assert code == 1 and out == "" and "at least one bitstring" in err

    def test_output_file(self, tmp_path):
        target = tmp_path / "game.sg"
        code, out, _ = call(["gen", "example1", "--n", "2", "-o", str(target)])
        assert code == 0 and out == ""
        assert target.read_text() == gd.serialize_game(gd.gen_example1(2))


class TestAnalysisPipes:
    def test_gen_dim_pipe(self):
        game_text = gen(["gen", "example1", "--n", "3"])
        code, out, _ = call(["dim"], stdin_text=game_text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "dimension 3"
        assert len(lines) == 4 and all(l.startswith("wmg ") for l in lines[1:])

    def test_dim_witness_reparses_to_equivalent_game(self):
        game = gd.gen_example1(3)
        code, out, _ = call(["dim"], stdin_text=gd.serialize_game(game))
        assert code == 0
        body = out.splitlines()[1:]
        text = "simplegame 1\nplayers 6\nform intersection\n" + "\n".join(body) + "\n"
        assert gd.equivalent(gd.parse_game(text), game)

    def test_gen_ssp_weighted_pipe(self):
        game_text = gen(["gen", "ssp", "--b", "2", "--a", "5,7", "--d", "2"])
        code, out, _ = call(["weighted"], stdin_text=game_text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "weighted"
        tokens = lines[1].split()
        quota, weights = int(tokens[1]), [int(t) for t in tokens[3:]]
        reported = gd.SimpleGame.from_weighted(gd.make_weighted(quota, weights))
        reference = gd.SimpleGame.from_weighted(gd.make_weighted(3, [5, 7, 0, 0, 0, 0]))
        assert gd.equivalent(reported, reference)

    def test_not_weighted_report(self):
        code, out, _ = call(["weighted"], stdin_text=gd.serialize_game(gd.gen_example1(2)))
        assert code == 0 and out == "not weighted\n"

    def test_codim_report(self):
        code, out, _ = call(["codim"], stdin_text=gd.serialize_game(gd.gen_example1(2)))
        assert code == 0 and out.splitlines()[0] == "codimension 2"

    def test_mwc_report(self):
        code, out, _ = call(["mwc"], stdin_text=gd.serialize_game(gd.gen_example1(2)))
        assert code == 0
        assert out.splitlines() == [
            "minimal-winning 4",
            "win 1010",
            "win 0110",
            "win 1001",
            "win 0101",
        ]

    def test_mlc_report(self):
        code, out, _ = call(["mlc"], stdin_text=gd.serialize_game(gd.gen_example1(2)))
        assert code == 0
        assert out.splitlines() == ["maximal-losing 2", "win 1100", "win 0011"]

    def test_dual_pipe_is_involution(self):
        original = gd.serialize_game(gd.gen_example1(2))
        _, once, _ = call(["dual"], stdin_text=original)
        _, twice, _ = call(["dual"], stdin_text=once)
        assert gd.equivalent(gd.parse_game(twice), gd.gen_example1(2))

    def test_convert_minimal_union(self):
        game_text = gen(["gen", "example1", "--n", "3"])
        code, out, _ = call(
            ["convert", "--to", "union", "--mode", "minimal"], stdin_text=game_text
        )
        assert code == 0
        converted = gd.parse_game(out)
        assert converted.form == gd.UNION and len(converted.parts) == 4
        assert gd.equivalent(converted, gd.gen_example1(3))

    def test_convert_canonical_intersection(self):
        game_text = gen(["gen", "example1", "--n", "2"])
        code, out, _ = call(
            ["convert", "--to", "intersection", "--mode", "canonical"],
            stdin_text=game_text,
        )
        assert code == 0
        assert gd.equivalent(gd.parse_game(out), gd.gen_example1(2))

    def test_convert_canonical_union_lists_one_unanimity_part_per_winning_pair(self):
        game_text = gen(["gen", "example1", "--n", "2"])
        code, out, _ = call(
            ["convert", "--to", "union", "--mode", "canonical"], stdin_text=game_text
        )
        assert code == 0
        assert out == (
            "simplegame 1\nplayers 4\nform union\n"
            "wmg 2 : 1 0 1 0\nwmg 2 : 0 1 1 0\nwmg 2 : 1 0 0 1\nwmg 2 : 0 1 0 1\n"
        )


class TestEquiv:
    def test_same_file_twice(self, tmp_path):
        path = tmp_path / "g.sg"
        path.write_text(gd.serialize_game(gd.gen_example1(2)))
        code, out, _ = call(["equiv", str(path), str(path)])
        assert code == 0 and out == "equivalent\n"

    def test_different_games_still_exit_zero(self, tmp_path):
        p1 = tmp_path / "a.sg"
        p2 = tmp_path / "b.sg"
        p1.write_text(gd.serialize_game(gd.gen_example1(2)))
        p2.write_text(gd.serialize_game(gd.dual(gd.gen_example1(2))))
        code, out, _ = call(["equiv", str(p1), str(p2)])
        assert code == 0 and out == "different\n"

    def test_second_game_from_stdin(self, tmp_path):
        path = tmp_path / "g.sg"
        path.write_text(gd.serialize_game(gd.gen_example1(2)))
        code, out, _ = call(
            ["equiv", str(path)], stdin_text=gd.serialize_game(gd.gen_example1(2))
        )
        assert code == 0 and out == "equivalent\n"

    @pytest.mark.parametrize("argv", [["equiv", "-"], ["equiv", "-", "-"]])
    def test_both_games_from_stdin_is_refused(self, argv):
        code, out, err = call(argv, stdin_text=gd.serialize_game(gd.gen_example1(2)))
        assert code == 1 and out == ""
        assert "standard input" in err and "bad-header" not in err

    def test_json(self, tmp_path):
        path = tmp_path / "g.sg"
        path.write_text(gd.serialize_game(gd.gen_example1(2)))
        code, out, _ = call(["equiv", str(path), str(path), "--json"])
        assert code == 0 and json.loads(out) == {"equivalent": True}


class TestJsonAgreement:
    def test_dim_value_matches_plain_report(self):
        text = gd.serialize_game(gd.gen_example1(3))
        _, plain, _ = call(["dim"], stdin_text=text)
        _, as_json, _ = call(["dim", "--json"], stdin_text=text)
        doc = json.loads(as_json)
        assert doc["value"] == int(plain.splitlines()[0].split()[1])
        assert doc["kind"] == "intersection"
        parts = [gd.make_weighted(p["quota"], p["weights"]) for p in doc["parts"]]
        rebuilt = gd.combine(gd.INTERSECTION, parts)
        assert gd.equivalent(rebuilt, gd.gen_example1(3))

    def test_mwc_json(self):
        text = gd.serialize_game(gd.gen_example1(2))
        _, plain, _ = call(["mwc"], stdin_text=text)
        _, as_json, _ = call(["mwc", "--json"], stdin_text=text)
        doc = json.loads(as_json)
        assert doc["mwc"] == [l.split()[1] for l in plain.splitlines()[1:]]

    def test_mwc_and_mlc_list_the_views_without_building_them(self, small_corpus, monkeypatch):
        # The reports are read straight off the extremal tables, in the
        # order of the public views and with their bitstrings: the only
        # coalitions built are those that parsing an explicit game builds.
        cases = []
        for game in small_corpus:
            text = gd.serialize_game(game)
            for cmd, label, coalitions in (
                ("mwc", "minimal-winning", gd.minimal_winning(game)),
                ("mlc", "maximal-losing", gd.maximal_losing(game)),
            ):
                bits = [c.bitstring() for c in coalitions]
                lines = [f"{label} {len(bits)}"] + [f"win {b}" for b in bits]
                cases.append(([cmd], text, "\n".join(lines) + "\n"))
                cases.append(([cmd, "--json"], text, json.dumps({cmd: bits}) + "\n"))
        built = []
        init = gd.Coalition.__init__

        def counting(self, members, n):
            built.append(members)
            init(self, members, n)

        monkeypatch.setattr(gd.Coalition, "__init__", counting)
        for argv, text, expected in cases:
            gd.parse_game(text)
            parsed = len(built)
            assert call(argv, stdin_text=text) == (0, expected, "")
            assert len(built) == 2 * parsed
            built.clear()

    @pytest.mark.parametrize("cmd", ["mwc", "mlc"])
    def test_reports_in_many_pieces_are_the_one_string_reports(self, small_corpus, cmd, monkeypatch):
        # One byte of table per piece: many pieces per report, zero bytes skipped.
        import gamedim.cli

        chunks = gd.core.set_bit_chunks
        monkeypatch.setattr(gamedim.cli, "set_bit_chunks", lambda x: chunks(x, 1))
        label, listed = {
            "mwc": ("minimal-winning", gd.minimal_winning),
            "mlc": ("maximal-losing", gd.maximal_losing),
        }[cmd]
        for game in small_corpus:
            text = gd.serialize_game(game)
            bits = [c.bitstring() for c in listed(game)]
            plain = "".join([f"{label} {len(bits)}\n"] + [f"win {b}\n" for b in bits])
            assert call([cmd], stdin_text=text) == (0, plain, "")
            assert call([cmd, "--json"], stdin_text=text) == (0, json.dumps({cmd: bits}) + "\n", "")

    def test_a_report_holds_one_piece_at_a_time(self):
        # The 18-player two-part majority has 48,620 minimal winning
        # coalitions, 1.1 MB of report; one string would hold all of it.
        code = (
            "import tracemalloc\n"
            "from gamedim.cli import _report_coalitions\n"
            "from gamedim.core import INTERSECTION, combine, make_weighted, minimal_table\n"
            "n = 18\n"
            "game = combine(INTERSECTION, [make_weighted(9, [1] * n), make_weighted(1, [1] * n)])\n"
            "table = minimal_table(game.truth_table, n)\n"
            "sizes = {}\n"
            "tracemalloc.start()\n"
            "for as_json in (False, True):\n"
            "    pieces = _report_coalitions('minimal-winning', 'mwc', table, n, as_json)\n"
            "    sizes[as_json] = sum(map(len, pieces))\n"
            "peak = tracemalloc.get_traced_memory()[1]"
        )
        sizes, peak = fresh_eval(code, "(sizes, peak)")
        assert sizes == {False: 22 + 48620 * 23, True: 12 + 48620 * 22 - 2}
        assert peak < 2**19

    def test_weighted_json(self):
        text = gd.serialize_game(gd.gen_example1(2))
        _, out, _ = call(["weighted", "--json"], stdin_text=text)
        assert json.loads(out) == {"weighted": False, "parts": []}

    def test_weighted_json_positive(self):
        text = gd.serialize_game(gd.gen_example1(1))
        _, out, _ = call(["weighted", "--json"], stdin_text=text)
        doc = json.loads(out)
        assert doc["weighted"] and len(doc["parts"]) == 1
        part = gd.make_weighted(doc["parts"][0]["quota"], doc["parts"][0]["weights"])
        assert gd.equivalent(
            gd.SimpleGame.from_weighted(part), gd.gen_example1(1)
        )


class TestExitCodes:
    def test_parse_error_is_exit_one(self):
        for text, error in (
            ("not a game file\n", "bad-header"),
            ("simplegame 1\nplayers \u00b2\nform weighted\n", "bad-players"),
        ):
            code, out, err = call(["dim"], stdin_text=text)
            assert code == 1 and out == "" and error in err
            assert "Traceback" not in err

    def test_validation_error_is_exit_one(self):
        code, _, err = call(
            ["dim"], stdin_text="simplegame 1\nplayers 2\nform weighted\nwmg 9 : 1 1\n"
        )
        assert code == 1 and "invalid-wmg" in err

    def test_size_limit_is_exit_two(self):
        big_majority = gd.combine(gd.INTERSECTION, [gd.make_weighted(6, [1] * 10)])
        # 210, 252 and 210 separation targets against the cap of 32.
        for argv in (
            ["codim"],
            ["convert", "--to", "intersection", "--mode", "minimal"],
            ["convert", "--to", "union", "--mode", "minimal"],
        ):
            code, _, err = call(argv, stdin_text=gd.serialize_game(big_majority))
            assert code == 2 and "size limit" in err
        too_many_players = "simplegame 1\nplayers 25\nform weighted\nwmg 1 : " + "1 " * 25 + "\n"
        code, _, err = call(["dim"], stdin_text=too_many_players)
        assert code == 2 and "size limit" in err and "player-limit" in err

    def test_gen_size_limit_is_exit_two(self):
        for argv in (
            ["gen", "example1", "--n", "13"],
            ["gen", "random", "--n", "13", "--m", "1"],
            ["gen", "unanimity", "--blocks", "1" * 25],
        ):
            code, _, err = call(argv)
            assert code == 2 and "size limit" in err

    def test_missing_file_is_exit_one(self):
        code, _, err = call(["dim", "/nonexistent/game.sg"])
        assert code == 1 and err

    def test_undecodable_file_is_exit_one(self, tmp_path):
        path = tmp_path / "game.sg"
        path.write_bytes(b"\xff")
        code, out, err = call(["dim", str(path)])
        assert code == 1 and out == ""
        assert err.startswith("gamedim: ") and "utf-8" in err

    def test_undecodable_file_is_named(self, tmp_path):
        good, bad = tmp_path / "good.sg", tmp_path / "bad.sg"
        good.write_text(gd.serialize_game(gd.gen_example1(2)), encoding="utf-8")
        bad.write_bytes(b"\xff")
        for argv in (["equiv", str(good), str(bad)], ["equiv", str(bad), str(good)]):
            code, out, err = call(argv)
            assert code == 1 and out == ""
            assert err.startswith(f"gamedim: {bad}: 'utf-8' codec can't decode")
            assert "good.sg" not in err

    def test_usage_error_is_exit_one_on_given_stderr(self):
        code, out, err = call(["gen", "example1", "--n", "x"])
        assert code == 1 and out == ""
        assert err.startswith("usage: gamedim gen example1")
        assert "invalid int value: 'x'" in err

    def test_integer_options_take_ascii_decimal_only(self):
        # int() reads all of these, but wmg lines in game files reject them.
        for argv in (
            ["gen", "example1", "--n", "\uff13"],
            ["gen", "ssp", "--b", "1_0", "--a", "5,7", "--d", "2"],
            ["gen", "ssp", "--b", "2", "--a", "\u0663,4", "--d", "2"],
            ["gen", "random", "--n", "4", "--m", "3", "--seed", "\uff17"],
        ):
            code, out, err = call(argv)
            assert code == 1 and out == ""
            assert err and "Traceback" not in err

    def test_missing_command_is_exit_one(self):
        code, _, err = call([])
        assert code == 1 and "usage: gamedim" in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            call(["gen", "-h"])
        assert info.value.code == 0
        assert "example1" in capsys.readouterr().out


def cli_text(argv):
    """Exit code, stdout and stderr of ``run(argv)``; help exits through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv, stdin=io.StringIO(""))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


# Exit code, stdout and stderr of run() for command lines whose text argparse
# writes, captured from the whole-tree parser on CPython 3.11 with COLUMNS=80.
GOLDEN_CLI_TEXT = [
    (
        [],
        1,
        "",
        (
            "usage: gamedim [-h] {mwc,mlc,dual,weighted,dim,codim,convert,equiv,gen} ...\n"
            "gamedim: error: the following arguments are required: command\n"
        ),
    ),
    (
        ["-h"],
        0,
        (
            "usage: gamedim [-h] {mwc,mlc,dual,weighted,dim,codim,convert,equiv,gen} ...\n"
            "\n"
            "Exact analysis of simple games: extremal coalitions, duals, weightedness,\n"
            "dimension, and codimension.\n"
            "\n"
            "positional arguments:\n"
            "  {mwc,mlc,dual,weighted,dim,codim,convert,equiv,gen}\n"
            "    mwc                 list the minimal winning coalitions\n"
            "    mlc                 list the maximal losing coalitions\n"
            "    dual                emit the dual game\n"
            "    weighted            decide weightedness and report a representation\n"
            "    dim                 exact dimension with witness intersection parts\n"
            "    codim               exact codimension with witness union parts\n"
            "    convert             re-represent as intersection or union of parts\n"
            "    equiv               decide whether two games are equivalent\n"
            "    gen                 generate a certified instance family member\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        ["dim", "-h"],
        0,
        (
            "usage: gamedim dim [-h] [-o OUTPUT] [--json] [game]\n"
            "\n"
            "positional arguments:\n"
            "  game                  game file (default: standard input)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  -o OUTPUT, --output OUTPUT\n"
            "                        write the report to a file\n"
            "  --json                machine-readable report\n"
        ),
        "",
    ),
    (
        ["gen", "-h"],
        0,
        (
            "usage: gamedim gen [-h] {example1,ssp,unanimity,random} ...\n"
            "\n"
            "positional arguments:\n"
            "  {example1,ssp,unanimity,random}\n"
            "    example1            pair-cover game: dimension n, codimension 2^(n-1)\n"
            "    ssp                 Subset Sum reduction game over n + 2d players\n"
            "    unanimity           union of unanimity games on disjoint blocks\n"
            "    random              seeded random monotone game (explicit form)\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
        ),
        "",
    ),
    (
        ["gen", "example1", "-h"],
        0,
        (
            "usage: gamedim gen example1 [-h] [-o OUTPUT] [--json] --n N\n"
            "\n"
            "options:\n"
            "  -h, --help            show this help message and exit\n"
            "  -o OUTPUT, --output OUTPUT\n"
            "                        write the game to a file\n"
            "  --json\n"
            "  --n N                 number of player pairs\n"
        ),
        "",
    ),
    (
        ["bogus"],
        1,
        "",
        (
            "usage: gamedim [-h] {mwc,mlc,dual,weighted,dim,codim,convert,equiv,gen} ...\n"
            "gamedim: error: argument command: invalid choice: 'bogus' (choose from 'mwc', "
            "'mlc', 'dual', 'weighted', 'dim', 'codim', 'convert', 'equiv', 'gen')\n"
        ),
    ),
    (
        ["dim", "--bogus"],
        1,
        "",
        (
            "usage: gamedim [-h] {mwc,mlc,dual,weighted,dim,codim,convert,equiv,gen} ...\n"
            "gamedim: error: unrecognized arguments: --bogus\n"
        ),
    ),
    (
        ["dim", "a", "b"],
        1,
        "",
        (
            "usage: gamedim [-h] {mwc,mlc,dual,weighted,dim,codim,convert,equiv,gen} ...\n"
            "gamedim: error: unrecognized arguments: b\n"
        ),
    ),
    (
        ["gen", "example1"],
        1,
        "",
        (
            "usage: gamedim gen example1 [-h] [-o OUTPUT] [--json] --n N\n"
            "gamedim gen example1: error: the following arguments are required: --n\n"
        ),
    ),
    (
        ["convert"],
        1,
        "",
        (
            "usage: gamedim convert [-h] [-o OUTPUT] [--json] --to {intersection,union}\n"
            "                       [--mode {canonical,minimal}]\n"
            "                       [game]\n"
            "gamedim convert: error: the following arguments are required: --to\n"
        ),
    ),
    (
        ["gen", "random", "--n", "x", "--m", "1"],
        1,
        "",
        (
            "usage: gamedim gen random [-h] [-o OUTPUT] [--json] --n N --m M [--seed SEED]\n"
            "gamedim gen random: error: argument --n: invalid int value: 'x'\n"
        ),
    ),
]
GOLDEN_IDS = [" ".join(case[0]) or "no-arguments" for case in GOLDEN_CLI_TEXT]


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11),
    reason="argparse lays out help and words errors differently in other versions",
)
@pytest.mark.parametrize("argv, code, out, err", GOLDEN_CLI_TEXT, ids=GOLDEN_IDS)
def test_help_and_error_text_is_unchanged(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert cli_text(argv) == (code, out, err)


@pytest.mark.parametrize("argv", [case[0] for case in GOLDEN_CLI_TEXT], ids=GOLDEN_IDS)
def test_help_and_error_text_is_the_whole_parser_trees(monkeypatch, argv):
    # A parser built for one subcommand prints what the whole tree prints;
    # the whole tree is the one built for a command line naming no subcommand.
    monkeypatch.setenv("COLUMNS", "80")
    text = cli_text(argv)
    build = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda _argv: build([]))
    assert text == cli_text(argv)


def readme_pipelines():
    """The README's shell pipelines, each with the ``# `` lines that follow it."""
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
    with open(readme, encoding="utf-8") as f:
        blocks = f.read().split("```sh\n")[1:]
    block = next(b.split("```")[0] for b in blocks if "gamedim gen" in b)
    pipelines = []
    for line in block.splitlines():
        if line.startswith("gamedim "):
            pipelines.append((line, []))
        elif line.startswith("# "):
            pipelines[-1][1].append(line[2:])
    return [(line, expected) for line, expected in pipelines if " | " in line]


@pytest.mark.parametrize(
    "line, expected",
    [pytest.param(line, expected, id=line.split(" | ")[-1]) for line, expected in readme_pipelines()],
)
def test_readme_cli_example(line, expected):
    out = ""
    for command in line.split(" | "):
        argv = command.split()
        assert argv[0] == "gamedim"
        code, out, err = call(argv[1:], stdin_text=out)
        assert code == 0, err
    if "--json" in line:
        doc, shown = json.loads(out), json.loads(expected[0].replace("[...]", "[]"))
        assert (doc["value"], doc["kind"]) == (shown["value"], shown["kind"])
        assert len(doc["parts"]) == shown["value"]
    else:
        assert out == "".join(e + "\n" for e in expected)


def test_readme_cli_examples_are_found():
    commands = [line.split(" | ")[-1] for line, _ in readme_pipelines()]
    assert commands == ["gamedim dim", "gamedim weighted", "gamedim codim --json"]


def test_python_dash_m_runs_the_cli():
    proc = fresh_python("-m", "gamedim", "gen", "example1", "--n", "2")
    assert proc.returncode == 0, proc.stderr
    assert gd.equivalent(gd.parse_game(proc.stdout), gd.gen_example1(2))


def modules_loaded_by(code, stdin_text=None):
    """The modules ``code`` loads in a new interpreter; site hooks' are not counted."""
    before = "import sys; before = set(sys.modules)"
    return set(fresh_eval(f"{before}\n{code}", "sorted(set(sys.modules) - before)", stdin_text))


# A bare import loads no submodule; the first exported-name lookup loads them all.
IMPORT_EVERYTHING = "import gamedim, gamedim.cli; gamedim.dimension"


def test_import_loads_only_the_standard_library():
    loaded = modules_loaded_by(IMPORT_EVERYTHING)
    assert {"gamedim.dimsolver", "gamedim.lp", "gamedim.structure"} <= loaded
    assert {m.partition(".")[0] for m in loaded} - sys.stdlib_module_names == {"gamedim"}


def test_import_leaves_json_unloaded():
    # Only --json reports need json; every CLI process pays for an import.
    loaded = modules_loaded_by(IMPORT_EVERYTHING)
    assert "gamedim.dimsolver" in loaded
    assert sorted(m for m in loaded if m.partition(".")[0] == "json") == []


SOLVER = {"gamedim.dimsolver", "gamedim.lp", "dataclasses", "fractions"}
STRUCTURE_ONLY = ({"gamedim.structure"}, {"gamedim.dimsolver", "dataclasses"})
# Example1 n=2 is answered by closed-form parts: the LP code stays unloaded.
NO_LP = ({"gamedim.dimsolver"}, {"gamedim.lp", "fractions"})


def subcommand_case(argv, loads, leaves, game=gd.gen_example1(2), prints="", id=None):
    return pytest.param(argv, game, loads, leaves, prints, id=id or argv[0])


SUBCOMMAND_LOADS = [
    subcommand_case(["gen", "example1", "--n", "2"], set(), SOLVER | {"gamedim.structure"}),
    subcommand_case(["dual"], *STRUCTURE_ONLY),
    subcommand_case(["mwc"], *STRUCTURE_ONLY),
    subcommand_case(["mlc"], *STRUCTURE_ONLY),
    subcommand_case(["equiv", "{game}"], *STRUCTURE_ONLY),
    subcommand_case(["dim"], *NO_LP),
    subcommand_case(["codim"], *NO_LP),
    subcommand_case(["weighted"], *NO_LP),
    subcommand_case(["convert", "--to", "union"], *NO_LP),
    # The Banzhaf part of this game misses, so its answer is read off an LP,
    # whose certificate holds integers: no ``fractions``.
    subcommand_case(
        ["weighted"],
        {"gamedim.dimsolver", "gamedim.lp"},
        {"fractions"},
        game=gd.gen_random_monotone(7, 5, 1028),
        prints="weighted\nwmg 11 : 1 7 1 4 0 1 4\n",
        id="weighted-lp",
    ),
]


@pytest.mark.parametrize("argv, game, loads, leaves, prints", SUBCOMMAND_LOADS)
def test_each_subcommand_loads_only_what_it_runs(tmp_path, argv, game, loads, leaves, prints):
    text = gd.serialize_game(game)
    path = tmp_path / "game.txt"
    path.write_text(text, encoding="utf-8")
    argv = [arg.format(game=path) for arg in argv]
    loaded = modules_loaded_by(
        "import io\n"
        "from gamedim.cli import run\n"
        "out = io.StringIO()\n"
        f"assert run({argv!r}, stdout=out) == 0 and out.getvalue()\n"
        f"assert {prints!r} in out.getvalue(), out.getvalue()",
        stdin_text=text,
    )
    assert loads <= loaded
    assert not leaves & loaded


SUBMODULES = ("core", "dimsolver", "gamefile", "generators", "lp", "structure")


class TestLazyNamespace:
    def test_bare_import_loads_no_submodule(self):
        # Probing an attribute the package lacks loads nothing either.
        loaded = modules_loaded_by("import gamedim; hasattr(gamedim, '__wrapped__')")
        assert sorted(m for m in loaded if m.startswith("gamedim")) == ["gamedim"]

    def test_exports_are_the_defining_modules_objects(self):
        assert gd.dimension is gd.dimsolver.dimension
        assert gd.rational is gd.lp.rational and gd.N_MAX is gd.core.N_MAX
        assert len(set(gd.__all__)) == len(gd.__all__)
        for name in gd.__all__:
            owners = [vars(getattr(gd, m)) for m in SUBMODULES if name in vars(getattr(gd, m))]
            assert owners, name
            assert all(owner[name] is getattr(gd, name) for owner in owners), name

    def test_submodules_resolve_after_a_bare_import(self):
        expr = f"[getattr(gamedim, m) is sys.modules['gamedim.' + m] for m in {SUBMODULES!r}]"
        assert fresh_eval("import gamedim, sys", expr) == [True] * len(SUBMODULES)

    @pytest.mark.parametrize(
        "lookup",
        [
            "gamedim.splitmix64",
            "gamedim.lp",
            "from gamedim import dimension",
            "import gamedim.dimsolver; gamedim.dimension",
        ],
    )
    def test_one_lookup_binds_every_exported_name(self, lookup):
        # A tracer that patches vars(gamedim) needs every name bound.
        code = f"import gamedim\n{lookup}"
        assert fresh_eval(code, "set(gamedim.__all__) - set(vars(gamedim))") == set()

    def test_star_import_binds_every_name(self):
        code = "from gamedim import *\nimport gamedim"
        assert fresh_eval(code, "set(gamedim.__all__) - set(globals())") == set()

    def test_dir_lists_exports_and_submodules(self):
        assert set(gd.__all__) | set(SUBMODULES) <= set(dir(gd))

    def test_unknown_name_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            gd.no_such_name
        with pytest.raises(ImportError):
            from gamedim import no_such_name  # noqa: F401

    def test_the_solver_loads_no_file_or_generator_module(self):
        # Nor the LP code: that loads on the first LP.
        loaded = modules_loaded_by("import gamedim.dimsolver")
        assert {"gamedim.gamefile", "gamedim.generators", "gamedim.lp"}.isdisjoint(loaded)

    def test_a_submodule_import_looks_up_no_name_in_vain(self):
        # dimsolver imports lp while dimsolver itself is still importing; a
        # package lookup made on the way must not fail.
        code = (
            "import gamedim\n"
            "inner, failed = gamedim.__getattr__, []\n"
            "def spy(name):\n"
            "    try:\n"
            "        return inner(name)\n"
            "    except AttributeError:\n"
            "        failed.append(name)\n"
            "        raise\n"
            "gamedim.__getattr__ = spy\n"
            "import gamedim.dimsolver"
        )
        assert fresh_eval(code, "failed") == []


def test_python_dash_m_writes_a_json_report():
    text = gd.serialize_game(gd.gen_example1(2))
    proc = fresh_python("-m", "gamedim", "codim", "--json", stdin_text=text)
    assert proc.returncode == 0, proc.stderr
    assert '"value": 2' in proc.stdout
    doc = json.loads(proc.stdout)
    assert doc["kind"] == gd.UNION and len(doc["parts"]) == 2
