"""Sample statistics shared by the runner, the child and ``compare``."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def iqr_frac(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (the driver's spread measure); 0 below two samples."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else 0.0


def summary(values: Sequence[float]) -> dict[str, float]:
    """What a results file keeps per metric beside its value."""
    return {"n": len(values), "iqr_frac": iqr_frac(values)}
