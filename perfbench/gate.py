"""Correctness gate, computed from raw per-sample residuals.

The gate reads only the per-sample values a suite produced, never the
report's own pass flag or maximum: a report passes only if it holds the
planned number of samples and every one of them is finite and within the
tolerance.  A NaN anywhere, or a missing sample, fails it.
"""

from __future__ import annotations

import math


def failed_checks(values, count: int, tol: float) -> int:
    """Number of the ``count`` planned checks that fail.

    A wrong number of values fails every planned check; otherwise each
    value that is not finite or exceeds ``tol`` fails one.
    """
    values = list(values)
    if len(values) != count:
        return count
    return sum(1 for v in values if not (math.isfinite(v) and v <= tol))


def worst_index(values) -> int | None:
    """Index of the worst value: the first non-finite one, else the largest."""
    values = list(values)
    if not values:
        return None
    for i, v in enumerate(values):
        if not math.isfinite(v):
            return i
    return max(range(len(values)), key=values.__getitem__)
