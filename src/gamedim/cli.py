"""Command-line front end: analysis, conversion, generation, equivalence.

Games travel as ``simplegame`` text files; every analysis subcommand reads
a game from its positional file argument or from standard input, so the
subcommands compose in pipes::

    gamedim gen example1 --n 3 | gamedim dim
    gamedim gen ssp --b 2 --a 5,7 --d 2 | gamedim weighted

Exit codes: 0 reported an answer, 1 usage, parse or validation failure, 2
size-limit refusal.  ``--json`` switches the report to one JSON object with
stable keys (``value``, ``kind``, ``parts``, ``mwc``, ``mlc``,
``equivalent``, ``weighted``, ``players``, ``form``, ``win``).

Each process loads and builds only what its command line runs, since every
process in a pipe pays for its own start-up.  ``gen`` imports neither
``structure`` nor the solver (``dimsolver``, and with it ``dataclasses``);
``mwc``, ``mlc``, ``dual`` and ``equiv`` import ``structure``;
``weighted``, ``dim``, ``codim`` and ``convert`` import ``dimsolver``.  The
solver import comes before the game is read from standard input, so in
``gen ... | gamedim dim`` it overlaps the producer's run.  The LP code
(``lp``) loads on the first LP, after the read, and a game answered by
closed-form parts and trades never loads it.  No command loads
``fractions``: certificates hold integers over one denominator.
``_build_parser`` builds the top parser and only the subcommand that the
command line names, or every subcommand when it names none.  A ``dim``
process on example1 n=3 (no LP) took a median 82.5 ms where it took
89.4 ms with ``lp`` imported up front and the whole parser tree built, and
a ``gen example1 --n 3`` process 64.7 ms against 65.0 ms (25 alternating
rounds, shared 2-core host, no bytecode cache).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator

# Module-level, unlike the solver imports in _run_command: bench/tracer.py
# times calls by patching parse_game, serialize_game and the gen_* functions
# in this module's namespace.
from .core import (
    EXPLICIT,
    INTERSECTION,
    UNION,
    Coalition,
    InvalidGameError,
    SimpleGame,
    SizeLimitError,
    WeightedGame,
    minimal_table,
    set_bit_chunks,
)
from .gamefile import GameParseError, decimal_integer, parse_game, serialize_game, wmg_line
from .generators import (
    SSPInstance,
    gen_example1,
    gen_random_monotone,
    gen_ssp,
    gen_unanimity_composition,
)


def _part_json(part: WeightedGame) -> dict:
    return {"quota": part.quota, "weights": list(part.weights)}


def _game_json(game: SimpleGame) -> dict:
    doc: dict = {"players": game.n, "form": game.form}
    if game.form == EXPLICIT:
        doc["win"] = [c.bitstring() for c in game.antichain]
    else:
        doc["parts"] = [_part_json(p) for p in game.parts]
    return doc


def _json_line(doc) -> str:
    """``doc`` as one line of JSON."""
    # Imported on first use: only --json reports need it, and at module level
    # it cost every CLI process about 2 ms.
    import json

    return json.dumps(doc) + "\n"


def _game_text(game: SimpleGame, as_json: bool) -> str:
    """The game as one JSON line or as a ``simplegame`` file."""
    return _json_line(_game_json(game)) if as_json else serialize_game(game)


def _load_game(path: str | None, stdin) -> SimpleGame:
    if path is None or path == "-":
        return parse_game(stdin.read())
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise OSError(f"{path}: {exc}") from exc
    return parse_game(text)


def _emit(text: str | Iterable[str], output: str | None, stdout) -> None:
    """Write the report ``text``: one string, or its pieces in order."""
    pieces = (text,) if isinstance(text, str) else text
    if output is None:
        stdout.writelines(pieces)
    else:
        with open(output, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)


def _parse_int_list(raw: str, what: str) -> list[int]:
    try:
        return [decimal_integer(tok.strip()) for tok in raw.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidGameError(f"{what} must be a comma-separated integer list, got {raw!r}")


def _int_option(raw: str) -> int:
    """An integer option value: ASCII decimal digits only, as in ``wmg`` lines."""
    try:
        return decimal_integer(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}") from None


class _UsageError(Exception):
    """A command line that argparse rejected, with its usage message."""


class _ArgumentParser(argparse.ArgumentParser):
    # argparse would print to sys.stderr and exit 2, the size-limit code.
    def error(self, message):
        raise _UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def _arg(*flags, **options):
    """One ``add_argument`` call as data: its flags and its keyword options.

    The option ``commands`` makes it a subcommand level instead: its flag is
    the level's ``dest`` and its value the level's command table.
    """
    return flags, options


_GAME_ARGS = (
    _arg("game", nargs="?", help="game file (default: standard input)"),
    _arg("-o", "--output", help="write the report to a file"),
    _arg("--json", action="store_true", help="machine-readable report"),
)

_GEN_ARGS = (
    _arg("-o", "--output", help="write the game to a file"),
    _arg("--json", action="store_true"),
)

# Command tables: name -> (help, arguments), in listing order.
_GEN_FAMILIES = {
    "example1": (
        "pair-cover game: dimension n, codimension 2^(n-1)",
        (*_GEN_ARGS, _arg("--n", type=_int_option, required=True, help="number of player pairs")),
    ),
    "ssp": (
        "Subset Sum reduction game over n + 2d players",
        (
            *_GEN_ARGS,
            _arg("--b", type=_int_option, required=True, help="subset-sum target"),
            _arg("--a", required=True, help="comma-separated positive integers"),
            _arg("--d", type=_int_option, required=True, help="number of gadget pairs"),
        ),
    ),
    "unanimity": (
        "union of unanimity games on disjoint blocks",
        (
            *_GEN_ARGS,
            _arg("--blocks", required=True, help="comma-separated bitstrings, one per block"),
        ),
    ),
    "random": (
        "seeded random monotone game (explicit form)",
        (
            *_GEN_ARGS,
            _arg("--n", type=_int_option, required=True, help="player count (1..12)"),
            _arg("--m", type=_int_option, required=True, help="seed coalition count"),
            _arg("--seed", type=_int_option, default=0, help="stream seed"),
        ),
    ),
}

_COMMANDS = {
    "mwc": ("list the minimal winning coalitions", _GAME_ARGS),
    "mlc": ("list the maximal losing coalitions", _GAME_ARGS),
    "dual": ("emit the dual game", _GAME_ARGS),
    "weighted": ("decide weightedness and report a representation", _GAME_ARGS),
    "dim": ("exact dimension with witness intersection parts", _GAME_ARGS),
    "codim": ("exact codimension with witness union parts", _GAME_ARGS),
    "convert": (
        "re-represent as intersection or union of parts",
        (
            *_GAME_ARGS,
            _arg("--to", required=True, choices=[INTERSECTION, UNION]),
            _arg("--mode", default="canonical", choices=["canonical", "minimal"]),
        ),
    ),
    "equiv": (
        "decide whether two games are equivalent",
        (
            _arg("game1", help="first game file"),
            _arg("game2", nargs="?", help="second game file (default: standard input)"),
            _arg("-o", "--output", help="write the report to a file"),
            _arg("--json", action="store_true"),
        ),
    ),
    "gen": (
        "generate a certified instance family member",
        (_arg("family", commands=_GEN_FAMILIES),),
    ),
}


def _add_arguments(parser: argparse.ArgumentParser, arguments, argv: list[str]) -> None:
    """Add ``arguments`` to ``parser``, where ``argv`` is what it will parse.

    A subcommand level builds only the command that the first of ``argv``
    names, from the rest of ``argv``: a process runs one command, and each
    parser it does not build is start-up it does not pay.  When the first of
    ``argv`` names none of them (no argument, ``-h``, a typo), the level
    builds them all, for its help listing and its invalid-choice error.  A
    level of one command keeps every name in its usage line, so each help
    and error text is the one the whole tree prints.
    """
    for flags, options in arguments:
        if "commands" not in options:
            parser.add_argument(*flags, **options)
            continue
        table = options["commands"]
        if argv and argv[0] in table:
            names, metavar = argv[:1], "{" + ",".join(table) + "}"
        else:
            names, metavar = list(table), None
        sub = parser.add_subparsers(dest=flags[0], required=True, metavar=metavar)
        for name in names:
            help_text, command_arguments = table[name]
            _add_arguments(sub.add_parser(name, help=help_text), command_arguments, argv[1:])


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for ``argv``, with only the subcommands that ``argv`` names."""
    parser = _ArgumentParser(
        prog="gamedim",
        description="Exact analysis of simple games: extremal coalitions, duals, "
        "weightedness, dimension, and codimension.",
    )
    _add_arguments(parser, (_arg("command", commands=_COMMANDS),), argv)
    return parser


def _report_coalitions(
    label: str, key: str, table: int, n: int, as_json: bool
) -> Iterator[str]:
    """The coalitions of a table over compact masks, one bitstring each.

    The report comes in pieces, one per piece of :func:`set_bit_chunks`,
    so neither the whole text nor the list of every mask is held at once.
    The JSON pieces join to ``json.dumps({key: bitstrings})``, since a
    bitstring needs no escape.
    """

    def bitstrings(masks):
        return (f"{m:0{n}b}"[::-1] for m in masks)

    if as_json:
        yield f'{{"{key}": ['
        sep = ""
        for masks in set_bit_chunks(table):
            if masks:
                yield sep + ", ".join(f'"{b}"' for b in bitstrings(masks))
                sep = ", "
        yield "]}\n"
    else:
        yield f"{label} {table.bit_count()}\n"
        for masks in set_bit_chunks(table):
            yield "".join(f"win {b}\n" for b in bitstrings(masks))


def _report_witness(label: str, witness, as_json: bool) -> str:
    if as_json:
        doc = {
            "value": witness.value,
            "kind": witness.kind,
            "parts": [_part_json(p) for p in witness.parts],
        }
        return _json_line(doc)
    lines = [f"{label} {witness.value}"]
    lines.extend(wmg_line(p) for p in witness.parts)
    return "\n".join(lines) + "\n"


def _run_command(args, stdin, stdout) -> int:
    command = args.command

    if command == "gen":
        if args.family == "example1":
            game = gen_example1(args.n)
        elif args.family == "ssp":
            game = gen_ssp(SSPInstance(args.b, tuple(_parse_int_list(args.a, "--a")), args.d))
        elif args.family == "unanimity":
            bitstrings = [tok for tok in args.blocks.split(",") if tok]
            if not bitstrings:
                raise InvalidGameError("--blocks needs at least one bitstring")
            n = len(bitstrings[0])
            blocks = [Coalition.from_bitstring(bits, n) for bits in bitstrings]
            game = gen_unanimity_composition(blocks)
        else:
            game = gen_random_monotone(args.n, args.m, args.seed)
        _emit(_game_text(game, args.json), args.output, stdout)
        return 0

    # Only the modules this command runs, imported before the game is read
    # (see the module docstring).  A package lookup such as ``from . import
    # structure`` would load every submodule.
    if command in ("dual", "equiv", "mlc", "mwc"):
        from .structure import dual, equivalent, losing_table
    else:
        from .dimsolver import codimension, convert, dimension, is_weighted

    if command == "equiv":
        if args.game1 == "-" and args.game2 in (None, "-"):
            raise InvalidGameError(
                "equiv can read only one game from standard input; give the other as a file"
            )
        first = _load_game(args.game1, stdin)
        second = _load_game(args.game2, stdin)
        same = equivalent(first, second)
        if args.json:
            text = _json_line({"equivalent": same})
        else:
            text = ("equivalent" if same else "different") + "\n"
        _emit(text, args.output, stdout)
        return 0

    game = _load_game(args.game, stdin)

    if command == "mwc":
        table = minimal_table(game.truth_table, game.n)
        text = _report_coalitions("minimal-winning", "mwc", table, game.n, args.json)
    elif command == "mlc":
        table = losing_table(game.truth_table, game.n)
        text = _report_coalitions("maximal-losing", "mlc", table, game.n, args.json)
    elif command == "dual":
        text = _game_text(dual(game), args.json)
    elif command == "weighted":
        part = is_weighted(game)
        if args.json:
            doc = {"weighted": part is not None, "parts": [] if part is None else [_part_json(part)]}
            text = _json_line(doc)
        elif part is None:
            text = "not weighted\n"
        else:
            text = f"weighted\n{wmg_line(part)}\n"
    elif command == "dim":
        text = _report_witness("dimension", dimension(game), args.json)
    elif command == "codim":
        text = _report_witness("codimension", codimension(game), args.json)
    elif command == "convert":
        parts = convert(game, args.to, args.mode)
        text = _game_text(SimpleGame(game.n, args.to, parts=tuple(parts)), args.json)
    else:  # pragma: no cover - argparse restricts the choices
        raise InvalidGameError(f"unknown command {command!r}")

    _emit(text, args.output, stdout)
    return 0


def run(argv=None, stdin=None, stdout=None, stderr=None) -> int:
    """Parse arguments and run one subcommand; returns the exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    stderr = stderr if stderr is not None else sys.stderr
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _run_command(_build_parser(argv).parse_args(argv), stdin, stdout)
    except _UsageError as exc:
        print(exc, file=stderr)
        return 1
    except GameParseError as exc:
        if exc.code == "player-limit":
            print(f"gamedim: size limit: {exc}", file=stderr)
            return 2
        print(f"gamedim: {exc}", file=stderr)
        return 1
    except SizeLimitError as exc:
        print(f"gamedim: size limit: {exc}", file=stderr)
        return 2
    except InvalidGameError as exc:
        print(f"gamedim: invalid input: {exc}", file=stderr)
        return 1
    except (OSError, UnicodeDecodeError) as exc:
        print(f"gamedim: {exc}", file=stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
