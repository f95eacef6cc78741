"""Small timing helpers shared by the throughput workloads."""

from __future__ import annotations

import time
from typing import Any, Callable, Iterable


def time_callable(fn: Callable[[], Any], repeats: int = 3) -> float:
    """Best-of-N wall-clock seconds for one call of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean (empty input raises)."""
    items = list(values)
    return sum(items) / len(items)
