"""Host speed probes, to scale measured times to one reference speed.

A shared host runs the same Python code at different speeds from one second
to the next and from one minute to the next (the same ``is_weighted`` call
has taken 2.4 to 4.3 s, with CPU time moving with wall time).  So the
benchmark runs a short, fixed probe between queries, and scales each
measured interval by the probe's time on a reference host, ``REFERENCE_S``,
over the median of the probes around it.  The probe is the benchmark's own
code and imports nothing from gamedim, so a change to gamedim moves a scaled
time exactly as much as it moves the raw one; only the host's speed drops
out.

Probing takes a fixed share of the run: before a query, one block of
``BLOCK`` probes is run for every ``EVERY`` seconds since the last block, up
to ``MAX_BLOCKS``.  A long query is thus surrounded by many probes, and its
scale is the median of the probes within one query length of it.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds of work per probe block, probes in one block, and the most blocks
# run at once after a long query.
EVERY = 0.25
BLOCK = 2
MAX_BLOCKS = 16
# An interval is scaled by the probes within max(its length, WINDOW_S) of
# it, or by the NEAREST closest probes when there are fewer in that window.
WINDOW_S = 1.0
NEAREST = 8
# Median probe time on the reference host (2 shared cores, CPython 3.11 and
# fractions.Fraction); scaled times read as seconds on that host.
REFERENCE_S = 3.5e-3

_ROWS = [[Fraction(i * j + 1, i + j + 1) for j in range(12)] for i in range(12)]


def probe_work():
    """Four Gauss-Jordan pivots on a 12 x 12 rational matrix, the exact row
    operations a simplex step makes, then a few thousand small tuples,
    strings and dict entries made and dropped, as the search and the
    coalition sets do; always on the same input."""
    rows = [row[:] for row in _ROWS]
    for k in range(4):
        inverse = 1 / rows[k][k]
        pivot = rows[k] = [x * inverse for x in rows[k]]
        for i, row in enumerate(rows):
            if i != k:
                factor = row[k]
                rows[i] = [a - factor * b for a, b in zip(row, pivot)]
    items = [(i, str(i)) for i in range(6000)]
    index = {item[1]: item for item in items}
    return rows, len(index)


class HostSpeed:
    """Probe times with their start times, and the scale they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.seconds: list[float] = []
        self._last = float("-inf")

    def probe(self, blocks=1):
        """``blocks`` blocks of probes.  The cyclic garbage collector is held
        off meanwhile, so that a probe's time does not depend on how many
        objects the program keeps alive."""
        clock = time.perf_counter
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(blocks * BLOCK):
                start = clock()
                probe_work()
                self.starts.append(start)
                self.seconds.append(clock() - start)
        finally:
            if enabled:
                gc.enable()
        self._last = clock()

    def tick(self):
        """One block for every ``EVERY`` seconds since the last block."""
        blocks = int(min((time.perf_counter() - self._last) / EVERY, MAX_BLOCKS))
        if blocks:
            self.probe(blocks)

    def scale(self, start, end):
        """``REFERENCE_S`` over the median of the probes around the interval
        [start, end]."""
        margin = max(end - start, WINDOW_S)
        distance = [max(start - t, t - end, 0.0) for t in self.starts]
        near = [s for s, d in zip(self.seconds, distance) if d <= margin]
        if len(near) < NEAREST:
            order = sorted(range(len(distance)), key=distance.__getitem__)
            near = [self.seconds[i] for i in order[:NEAREST]]
        return REFERENCE_S / statistics.median(near)

    def median_s(self):
        return statistics.median(self.seconds)
