"""Parameter sweep driver used by the ablation benchmarks."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Sequence


@dataclass(frozen=True)
class SweepPoint:
    """One sweep result: the parameter values plus measured outputs."""

    params: Dict[str, Any]
    outputs: Dict[str, Any]


def run_sweep(
    param_grid: Dict[str, Sequence[Any]],
    measure: Callable[..., Dict[str, Any]],
) -> List[SweepPoint]:
    """Run ``measure(**params)`` over the cartesian parameter grid.

    ``measure`` returns a dict of named outputs; the sweep preserves
    grid order (first parameter varies slowest).
    """
    names = list(param_grid)
    points: List[SweepPoint] = []

    def recurse(index: int, chosen: Dict[str, Any]) -> None:
        if index == len(names):
            outputs = measure(**chosen)
            points.append(SweepPoint(params=dict(chosen), outputs=outputs))
            return
        name = names[index]
        for value in param_grid[name]:
            chosen[name] = value
            recurse(index + 1, chosen)
        del chosen[name]

    recurse(0, {})
    return points


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
