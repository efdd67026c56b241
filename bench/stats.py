"""Order statistics shared by the runner and the comparator.

Quartiles are Python's ``statistics.quantiles(values, n=4)`` (the
default "exclusive" method), the definition the acceptance rule for this
benchmark uses, so a spread printed here is the spread that is judged.
"""

from __future__ import annotations

import statistics


def median(values: list[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def summary(values: list[float], unit: str) -> dict:
    """The reported form of one metric: median, quartiles, sample count
    and the samples themselves (the comparator pairs them up)."""
    q1, q3 = quartiles(values)
    return {
        "unit": unit,
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": [float(v) for v in values],
    }
