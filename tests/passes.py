"""A clock-free cost measure of the packed series: its full-width passes.

Each step of cyclocert.series.TruncatedSeries is a few shifts and adds of
the whole packed integer; the number of them is fixed by the step's
arguments and the truncation T alone:

- multiplying by 1 - x**d is one pass;
- dividing by it is one doubling per s = d, 2d, 4d, ... below T;
- multiplying by 1 + x**d + ... + x**((q-1)*d) is floor(log2 q) +
  popcount(q) - 1 passes, for q cut to the floor((T-1)/d) + 1 terms
  below x**T;

and d >= T is no pass at all.  counting_passes wraps the steps and sums
those counts over a build, so a lost optimization shows as a larger total
with no timing involved.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from cyclocert.series import TruncatedSeries


def one_minus_power_passes(truncation: int, d: int, sign: int) -> int:
    if d >= truncation:
        return 0
    if sign == 1:
        return 1
    passes, s = 1, d
    while 2 * s < truncation:
        passes, s = passes + 1, 2 * s
    return passes


def geometric_sum_passes(truncation: int, d: int, q: int) -> int:
    q = min(q, (truncation - 1) // d + 1)
    return q.bit_length() - 1 + bin(q).count("1") - 1


@contextmanager
def counting_passes(monkeypatch):
    """Yield a Counter that sums, while the block runs, the passes of every
    step of every TruncatedSeries, under "passes", and the steps taken,
    under the step's name."""
    totals = Counter()
    for name, cost in (
        ("apply_one_minus_power", one_minus_power_passes),
        ("apply_geometric_sum", geometric_sum_passes),
    ):
        step = getattr(TruncatedSeries, name, None)
        if step is None:
            continue

        def counted(series, d, arg, step=step, cost=cost, name=name):
            totals["passes"] += cost(series.truncation, d, arg)
            totals[name] += 1
            return step(series, d, arg)

        monkeypatch.setattr(TruncatedSeries, name, counted)
    yield totals
