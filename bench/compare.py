"""Compare two result files metric by metric against the bounds.

    python3 bench/compare.py old.json new.json

Prints one row per (workload, metric): the old value (the base), the
new value, new/old, and -- for end-to-end metrics -- whether the new
value is worse than the old by more than the bound ``BENCHMARK.json``
fixes for it.  Exits non-zero when any row is over its bound or a run
in ``new.json`` failed an output check.  The files are what
``bench/run.py --out`` wrote, or the sets ``bench/selfcheck.py`` leaves
in ``bench/out/``; a file holding several runs is reduced to per-metric
medians first.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

from catalog import END_TO_END, PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
Key = Tuple[str, str, str]  # workload, "end_to_end" | "per_layer", metric


def bounds() -> Dict[str, float]:
    """Regression bound per end-to-end metric, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}


def load(path: str) -> Tuple[Dict[Key, List[float]], int]:
    """Every value of every metric in ``path``, and its failed count."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    runs = data["runs"] if "runs" in data else [data["results"]]
    values: Dict[Key, List[float]] = {}
    failed = 0
    for run in runs:
        for workload, kinds in run.items():
            for kind, result in kinds.items():
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    values.setdefault((workload, kind, name), []).append(
                        metric["value"]
                    )
    return values, failed


def worse_by(old: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``old``, as a share of ``old``."""
    if old == 0:
        return 0.0 if new == 0 else float("inf")
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def compare(
    old: Dict[Key, List[float]], new: Dict[Key, List[float]]
) -> int:
    """Print the table; return how many rows are over their bound."""
    limit = bounds()
    over = 0
    print(
        f"{'workload':<14} {'metric':<42} {'old (base)':>14} "
        f"{'new':>14} {'new/old':>8}  verdict"
    )
    for key in sorted(set(old) & set(new)):
        workload, kind, name = key
        base = statistics.median(old[key])
        value = statistics.median(new[key])
        ratio = value / base if base else float("nan")
        verdict = ""
        if kind == "end_to_end":
            worse = worse_by(base, value, END_TO_END[name][1])
            if worse > limit[name]:
                over += 1
                verdict = f"OVER BOUND ({worse:+.1%} > {limit[name]:.0%})"
            else:
                verdict = f"within {limit[name]:.0%}"
        elif name in PER_LAYER and base == 0 and value == 0:
            continue  # layer not on this workload's path
        print(
            f"{workload:<14} {name:<42} {base:>14.6g} {value:>14.6g} "
            f"{ratio:>8.3f}  {verdict}"
        )
    return over


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, _ = load(argv[0])
    new, failed = load(argv[1])
    over = compare(old, new)
    if failed:
        print(f"{failed} operations failed an output check in {argv[1]}")
    print(f"{over} end-to-end rows over their bound")
    return 1 if over or failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
