"""The ``simplegame`` text format, version 1.

Layout::

    simplegame 1
    players <n>
    form <explicit|weighted|intersection|union>
    win <bitstring>            (explicit body, one line per minimal coalition)
    wmg <q> : <w1> ... <wn>    (weighted/intersection/union body, one per part)

Bitstrings are read left to right starting at player 1.  Serialisation is
canonical: explicit coalitions ascending by mask (player 1 in the lowest
position), parts in stored order.  Parse errors carry a stable error code and
the 1-based line number of the offending line; the version-1 codes are:

    bad-header, bad-players, player-limit, bad-form, empty-body, bad-line,
    wrong-part-count, bitstring-length, bad-bitstring, empty-coalition,
    not-antichain, bad-wmg, invalid-wmg

``not-antichain`` is reported at the later line of the first pair of ``win``
lines that are equal or nested, taking pairs in the order of that later line.
"""

from __future__ import annotations

from .core import (
    EXPLICIT,
    FORMS,
    MINIMAL_GIVEN,
    N_MAX,
    WEIGHTED,
    Coalition,
    InvalidGameError,
    SimpleGame,
    WeightedGame,
    first_nested_pair,
    make_explicit,
)

FORMAT_NAME = "simplegame"
FORMAT_VERSION = 1


class GameParseError(ValueError):
    """A game file failed to parse; carries an error code and line number."""

    def __init__(self, code: str, line: int, message: str):
        super().__init__(f"line {line}: {code}: {message}")
        self.code = code
        self.line = line


def serialize_game(game: SimpleGame) -> str:
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"players {game.n}",
        f"form {game.form}",
    ]
    if game.form == EXPLICIT:
        lines.extend(f"win {c.bitstring()}" for c in game.antichain)
    else:
        lines.extend(wmg_line(p) for p in game.parts)
    return "\n".join(lines) + "\n"


def wmg_line(part: WeightedGame) -> str:
    """The ``wmg <q> : <w1> ... <wn>`` line of one weighted part."""
    return f"wmg {part.quota} : {' '.join(map(str, part.weights))}"


def decimal_integer(token: str) -> int:
    """``int(token)`` for an optionally signed run of ASCII digits only.

    int() alone also reads "٣" and "２" as digits, "1_0" as 10 and " 1" as 1.
    """
    digits = token[1:] if token[:1] in ("+", "-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {token!r}")
    return int(token)


def _numbered_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if stripped:
            out.append((lineno, stripped))
    return out


def _parse_wmg_line(lineno: int, line: str, n: int) -> WeightedGame:
    tokens = line.split()
    if len(tokens) < 3 or tokens[0] != "wmg" or tokens[2] != ":":
        raise GameParseError("bad-wmg", lineno, "expected 'wmg <quota> : <weights>'")
    try:
        quota, *weights = map(decimal_integer, [tokens[1], *tokens[3:]])
    except ValueError:
        raise GameParseError("bad-wmg", lineno, "quota and weights must be integers") from None
    if len(weights) != n:
        raise GameParseError(
            "bad-wmg", lineno, f"expected {n} weights, got {len(weights)}"
        )
    try:
        return WeightedGame(quota, weights)
    except InvalidGameError as exc:
        raise GameParseError("invalid-wmg", lineno, str(exc))


def parse_game(text: str) -> SimpleGame:
    """Parse and validate a version-1 game file."""
    lines = _numbered_lines(text)
    if len(lines) < 3:
        line = lines[-1][0] + 1 if lines else 1
        raise GameParseError("bad-header", line, "file ends before the game body")

    lineno, header = lines[0]
    if header.split() != [FORMAT_NAME, str(FORMAT_VERSION)]:
        raise GameParseError(
            "bad-header", lineno, f"expected '{FORMAT_NAME} {FORMAT_VERSION}'"
        )

    lineno, players_line = lines[1]
    tokens = players_line.split()
    # isdigit alone admits "²" (which int() rejects) and "٣" (which it reads as 3).
    count = tokens[1] if len(tokens) == 2 and tokens[0] == "players" else ""
    if not (count.isascii() and count.isdigit()):
        raise GameParseError("bad-players", lineno, "expected 'players <n>'")
    n = int(count)
    if n < 1:
        raise GameParseError("bad-players", lineno, "need at least one player")
    if n > N_MAX:
        raise GameParseError("player-limit", lineno, f"{n} players exceed the cap of {N_MAX}")

    lineno, form_line = lines[2]
    tokens = form_line.split()
    if len(tokens) != 2 or tokens[0] != "form" or tokens[1] not in FORMS:
        raise GameParseError(
            "bad-form", lineno, "expected 'form <explicit|weighted|intersection|union>'"
        )
    form = tokens[1]

    body = lines[3:]
    if not body:
        raise GameParseError("empty-body", lineno + 1, f"{form} form needs a body")

    if form == EXPLICIT:
        coalitions: list[Coalition] = []
        for lineno, line in body:
            tokens = line.split()
            if len(tokens) != 2 or tokens[0] != "win":
                raise GameParseError("bad-line", lineno, "expected 'win <bitstring>'")
            bits = tokens[1]
            if len(bits) != n:
                raise GameParseError(
                    "bitstring-length", lineno, f"expected {n} characters, got {len(bits)}"
                )
            if set(bits) - {"0", "1"}:
                raise GameParseError("bad-bitstring", lineno, "bitstring may contain only 0 and 1")
            coalition = Coalition.from_bitstring(bits, n)
            if coalition.members == 0:
                raise GameParseError("empty-coalition", lineno, "the empty coalition cannot win")
            coalitions.append(coalition)
        try:
            return make_explicit(n, coalitions, MINIMAL_GIVEN)
        except InvalidGameError:
            # Every line passed its own checks, so only nesting can fail.
            i, j = first_nested_pair([c.members >> 1 for c in coalitions], n)
            raise GameParseError(
                "not-antichain",
                body[j][0],
                f"coalition {coalitions[j].bitstring()} is nested with "
                f"{coalitions[i].bitstring()}",
            ) from None

    parts = [_parse_wmg_line(lineno, line, n) for lineno, line in body]
    if form == WEIGHTED:
        if len(parts) != 1:
            raise GameParseError(
                "wrong-part-count", body[1][0], "weighted form takes exactly one wmg line"
            )
        return SimpleGame.from_weighted(parts[0])
    return SimpleGame(n, form, parts=tuple(parts))
