"""Order statistics shared by the end-to-end and per-layer metrics."""

from __future__ import annotations

# Percentiles considered for a tail; the reported one is the highest that
# still leaves at least MIN_ABOVE samples above it.
LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_ABOVE = 10


def percentile(samples, p):
    """Linear-interpolation percentile of a nonempty sample list."""
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * p / 100
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(samples):
    """(percentile, value) at the highest ladder rung with enough samples
    above it, or at the median when there are too few for any rung."""
    p = LADDER[0]
    for rung in LADDER:
        if len(samples) * (100 - rung) / 100 >= MIN_ABOVE:
            p = rung
    return p, percentile(samples, p)
