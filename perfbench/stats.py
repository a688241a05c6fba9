"""Summary statistics shared by the workloads.

Tail percentiles follow the ten-beyond rule: a percentile is reported
only when at least ten samples lie beyond it, so ``p90`` needs 100
samples and ``p99`` needs 1000.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of a sample too small to support it."""


def supports(count: int, q: float) -> bool:
    """True when ``count`` samples leave ten beyond percentile ``q``."""
    return count * (100.0 - q) / 100.0 >= MIN_BEYOND


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive
    method; the median for ``q`` = 50). Percentiles above the median
    obey the ten-beyond rule and raise :class:`TooFewSamples` when the
    sample cannot support them.
    """
    values = sorted(samples)
    count = len(values)
    if not count:
        raise TooFewSamples("no samples")
    if q > 50 and not supports(count, q):
        raise TooFewSamples(
            f"p{q:g} needs {math.ceil(MIN_BEYOND * 100 / (100 - q))} "
            f"samples, have {count}")
    if q == 50 or count == 1:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[
        round(q) - 1]


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(value) for value in values) / len(values))


def drift(ops) -> float:
    """How much slower ops end a run than they start it.

    ``ops`` is a list of ``(input_class, latency)`` in completion order.
    Each latency is first divided by the mean latency of its class, so
    which inputs happen to come first or last does not read as drift; a
    store that grows slower with every op does. The result is the
    median of the last tenth of ops over that of the first tenth, read
    off a least-squares line through the medians of all ten tenths, so
    the one number rests on every op rather than on two tenths alone.
    """
    by_class: dict = {}
    for key, latency in ops:
        by_class.setdefault(key, []).append(latency)
    means = {key: statistics.fmean(values)
             for key, values in by_class.items()}
    normalized = [latency / means[key] for key, latency in ops]
    count = len(normalized)
    if count < 10:
        raise TooFewSamples(f"drift needs 10 ops, have {count}")
    tenths = [statistics.median(normalized[index * count // 10:
                                           (index + 1) * count // 10])
              for index in range(10)]
    slope = (sum((index - 4.5) * value for index, value in enumerate(tenths))
             / sum((index - 4.5) ** 2 for index in range(10)))
    mean = statistics.fmean(tenths)
    return (mean + 4.5 * slope) / (mean - 4.5 * slope)

