"""A/A check: does the benchmark agree with itself on the same code?

    python3 bench/selfcheck.py [--runs N] [--seconds S] [--trace]
                               [--workload NAME ...]

Runs the suite twice (set A, then set B), each set ``--runs`` times
with seeds 1..N, every run in a fresh process.  Exits non-zero if, for
any workload, an end-to-end metric's median differs between the sets
by more than the bound ``BENCHMARK.json`` gives it, if (with four or
more runs) the distance between a set's quartiles exceeds that bound,
or if any run failed an output check.  With ``--trace`` the traced runs
are repeated too: the fabric's message counts must repeat exactly and
``serve.core.flush_self_us_per_pkt`` must not be negative.  The sets
are left in ``bench/out/selfcheck-{A,B}.json`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

import compare
from catalog import END_TO_END, WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
EXACT = (
    "fabric.runner.rounds_per_kpkt",
    "fabric.runner.msgs_per_pkt",
    "fabric.runner.null_msg_ratio",
)


def run_set(
    label: str, args: argparse.Namespace
) -> List[Dict[str, Dict[str, object]]]:
    """One set: every workload once per seed, each in its own process."""
    runs = []
    scratch = OUT / "selfcheck-run.json"
    for seed in range(1, args.runs + 1):
        run: Dict[str, Dict[str, object]] = {}
        for workload in args.workload:
            for trace in (0, 1) if args.trace else (0,):
                print(
                    f"set {label} seed {seed} {workload} trace {trace}",
                    flush=True,
                )
                done = subprocess.run(
                    [
                        sys.executable, str(HERE / "run.py"),
                        "--workload", workload, "--seed", str(seed),
                        "--seconds", str(args.seconds),
                        "--trace", str(trace), "--out", str(scratch),
                    ],
                    stdout=subprocess.DEVNULL,
                )
                if done.returncode not in (0, 1):  # 1 = a check failed
                    raise SystemExit(
                        f"run.py exited with {done.returncode}"
                    )
                with open(scratch, encoding="utf-8") as handle:
                    run.setdefault(workload, {}).update(
                        json.load(handle)["results"][workload]
                    )
        runs.append(run)
    scratch.unlink()
    path = OUT / f"selfcheck-{label}.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"runs": runs}, handle, indent=1, sort_keys=True)
    return runs


def spreads(label: str, path: Path, limit: Dict[str, float]) -> int:
    """Print each end-to-end metric's quartile spread; count the wide."""
    values, _ = compare.load(str(path))
    wide = 0
    for (workload, kind, name), series in sorted(values.items()):
        if kind != "end_to_end" or len(series) < 4:
            continue
        first, _, third = statistics.quantiles(series, n=4)
        spread = (third - first) / statistics.median(series)
        flag = ""
        if spread > limit[name]:
            wide += 1
            flag = "  WIDER THAN BOUND"
        elif spread > limit[name] / 3:
            flag = "  (above a third of the bound)"
        print(
            f"set {label} {workload:<14} {name:<16} "
            f"spread {spread:6.2%} of bound {limit[name]:.0%}{flag}"
        )
    return wide


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument(
        "--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS)
    )
    args = parser.parse_args()
    OUT.mkdir(exist_ok=True)
    first = run_set("A", args)
    second = run_set("B", args)

    limit = compare.bounds()
    problems = 0
    for label in "AB":
        problems += spreads(label, OUT / f"selfcheck-{label}.json", limit)
    old, failed_a = compare.load(str(OUT / "selfcheck-A.json"))
    new, failed_b = compare.load(str(OUT / "selfcheck-B.json"))
    # A/A: a difference either way is disagreement, so compare both ways.
    problems += compare.compare(old, new)
    for key in old:
        if key[1] == "end_to_end" and compare.worse_by(
            statistics.median(new[key]),
            statistics.median(old[key]),
            END_TO_END[key[2]][1],
        ) > limit[key[2]]:
            print(f"{key[0]} {key[2]}: set A worse than set B beyond bound")
            problems += 1
    if failed_a or failed_b:
        print(f"{failed_a + failed_b} operations failed an output check")
        problems += 1
    if args.trace:
        for run_a, run_b in zip(first, second):
            for workload in run_a:
                rows_a = run_a[workload]["per_layer"]["metrics"]
                rows_b = run_b[workload]["per_layer"]["metrics"]
                for name in EXACT:
                    if rows_a[name]["value"] != rows_b[name]["value"]:
                        print(f"{workload} {name} did not repeat exactly")
                        problems += 1
                for rows in (rows_a, rows_b):
                    name = "serve.core.flush_self_us_per_pkt"
                    if rows[name]["value"] < 0:
                        print(f"{workload} {name} is negative")
                        problems += 1
    print(f"selfcheck: {problems} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
