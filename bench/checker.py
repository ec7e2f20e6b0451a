"""Answer checks that do not use the layers that produced the answers.

Games are evaluated here by brute force over every coalition, straight from
their definitions: no truth tables, extremal-set routines, ``equivalent`` or
LP code from gamedim.  A table is a list of booleans indexed by compact
mask, where bit j-1 stands for player j.  Every check returns None when the
answer is right and a one-line reason when it is not.
"""

from __future__ import annotations


def weight_table(weights):
    """Coalition weights indexed by compact mask."""
    table = [0]
    for w in weights:
        table += [t + w for t in table]
    return table


def part_table(quota, weights):
    return [w >= quota for w in weight_table(weights)]


def combined_table(parts, kind):
    """Win table of an intersection or union of (quota, weights) parts."""
    tables = [part_table(q, w) for q, w in parts]
    join = all if kind == "intersection" else any
    return [join(column) for column in zip(*tables)]


def closure_table(masks, n):
    """Win table of the upward closure of the given compact masks."""
    return [any(m & ~s == 0 for m in masks) for s in range(1 << n)]


def dual_table(table):
    """S wins in the dual iff the complement of S loses."""
    full = len(table) - 1
    return [not table[full ^ s] for s in range(len(table))]


def example1_table(pairs):
    """Win iff every pair {2i-1, 2i} has a member."""
    return [all(s >> (2 * i) & 3 for i in range(pairs)) for s in range(1 << 2 * pairs)]


def ssp_table(b, a, d):
    """The subset-sum reduction game, evaluated from its definition."""
    parts = []
    for j in range(d):
        gadget = [0] * (2 * d)
        gadget[2 * j] = gadget[2 * j + 1] = 1
        parts.append((3 * b + 1, [3 * v for v in a] + gadget))
    return combined_table(parts, "intersection")


def game_parts(parts):
    return [(p.quota, list(p.weights)) for p in parts]


def check_witness(witness, table, value=None):
    """A dimension or codimension witness: its value, its part count, and
    that its parts recombine to the expected win table."""
    if value is not None and witness.value != value:
        return f"value {witness.value}, expected {value}"
    if witness.value != len(witness.parts):
        return f"value {witness.value} but {len(witness.parts)} parts"
    if combined_table(game_parts(witness.parts), witness.kind) != table:
        return "witness parts do not recombine to the game"
    return None


def check_weighted(part, table):
    """An is_weighted answer: None exactly when no part matches the table."""
    if table is None:
        return None if part is None else f"claims weighted as {part!r}"
    if part is None:
        return "claims not weighted"
    if part_table(part.quota, part.weights) != table:
        return f"part {part!r} does not represent the game"
    return None


def check_subsets(coalitions, n, size, count):
    """An antichain that must be all ``count`` size-``size`` subsets of n
    players, in strictly ascending mask order."""
    if len(coalitions) != count:
        return f"{len(coalitions)} coalitions, expected {count}"
    previous = -1
    for c in coalitions:
        if c.n != n or c.members.bit_count() != size or c.members <= previous:
            return f"unexpected coalition {c!r}"
        previous = c.members
    return None


def parse_report(text):
    """(header tokens, parts) from a CLI report of the form
    ``<label> [value]`` followed by ``wmg q : w1 .. wn`` lines."""
    lines = text.splitlines()
    parts = []
    for line in lines[1:]:
        head, _, weights = line.partition(":")
        tokens = head.split()
        if len(tokens) != 2 or tokens[0] != "wmg":
            raise ValueError(f"unexpected report line {line!r}")
        parts.append((int(tokens[1]), [int(w) for w in weights.split()]))
    return lines[0].split() if lines else [], parts
