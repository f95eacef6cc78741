"""One command for the daemon, the engine and the fabric.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--setups N] [--out FILE]

Generates each workload's inputs from the seed, drives the unmodified
program through its public entry points, checks the outputs, and
prints every metric by name with its unit.  ``--trace 0`` measures the
end-to-end metrics with tracing off; ``--trace 1`` is a separate run
that records spans around the benchmark's own calls into each layer
(written to ``bench/out/trace-<workload>.jsonl``) and prints the
per-layer metrics.  Without ``--trace`` both runs are made; without
``--workload`` every workload runs.  The last line of standard output
is the result as one JSON object; the exit code is non-zero when an
output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from multiprocessing import resource_tracker
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "repro").is_dir():
    raise SystemExit(
        f"bench/run.py: no program to measure: {ROOT / 'src' / 'repro'} "
        "is missing (run from a full checkout)"
    )
sys.path.insert(0, str(ROOT / "src"))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def machine_header() -> Dict[str, object]:
    """Where these numbers were taken."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_sha": sha,
    }


def run_workload(
    workload: str, seed: int, seconds: float, trace: bool, setups: int
) -> Dict[str, object]:
    """One run of one workload, in the contract's result shape."""
    from repro.telemetry.export import write_trace_jsonl

    from layers import SpanTree

    tree = SpanTree() if trace else None
    if workload in ("serve-fwd", "serve-ndn"):
        import wl_serve

        raw = wl_serve.run(workload[6:], seed, seconds, setups, tree)
    elif workload == "engine-fig2":
        import wl_engine

        raw = wl_engine.run(seed, seconds, setups, tree)
    else:
        import wl_fabric

        raw = wl_fabric.run(seed, seconds, setups, tree)

    names = PER_LAYER if trace else END_TO_END
    measured = raw["metrics"]
    unnamed = set(measured) - set(names)
    if unnamed:
        raise KeyError(f"{workload} measured unnamed metrics {unnamed}")
    if tree is not None:
        # A layer off this workload's path spends no time: 0.
        measured = {name: measured.get(name, 0.0) for name in names}
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        write_trace_jsonl(
            tree.tracer.spans, str(out_dir / f"trace-{workload}.jsonl")
        )
    failed = min(raw["attempted"], sum(raw["checks"].values()))
    return {
        "correct": failed == 0,
        "attempted": raw["attempted"],
        "failed": failed,
        "checks": raw["checks"],
        "metrics": {
            name: {"value": measured[name], "unit": names[name][0]}
            for name in names
        },
    }


def print_table(workload: str, trace: bool, result: Dict[str, object]) -> None:
    kind = "per-layer (traced run)" if trace else "end-to-end"
    print(f"\n== {workload}: {kind} ==")
    for name, metric in result["metrics"].items():
        print(f"  {name:<44} {metric['value']:>16.6g} {metric['unit']}")
    share = result["failed"] / result["attempted"]
    print(
        f"  {'failed_frac':<44} {share:>16.6g} ratio"
        f"   ({result['failed']} of {result['attempted']})"
    )
    for check, count in result["checks"].items():
        if count:
            print(f"  CHECK FAILED {check}: {count}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--setups", type=int, default=5,
        help="times set-up is repeated; setup_s is their median",
    )
    parser.add_argument("--out", help="also write the results here as JSON")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.setups < 1:
        parser.error("--seconds must be > 0 and --setups >= 1")

    header = machine_header()
    print("# " + json.dumps(header, sort_keys=True))
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    traces = [bool(args.trace)] if args.trace is not None else [False, True]
    results: Dict[str, Dict[str, object]] = {}
    for workload in workloads:
        for trace in traces:
            result = run_workload(
                workload, args.seed, args.seconds, trace, args.setups
            )
            print_table(workload, trace, result)
            results.setdefault(workload, {})[
                "per_layer" if trace else "end_to_end"
            ] = result
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {"header": header, "seed": args.seed,
                 "seconds": args.seconds, "results": results},
                handle, indent=1, sort_keys=True,
            )
    everything = [r for runs in results.values() for r in runs.values()]
    if len(everything) == 1:
        last = {
            key: everything[0][key]
            for key in ("correct", "attempted", "failed", "metrics")
        }
    else:
        last = {
            "correct": all(r["correct"] for r in everything),
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": {},
        }
    # multiprocessing's resource tracker (started for the engine's
    # shared memory and the fabric's spawned workers) only exits once
    # this process is gone; stop it so nothing we started outlives us.
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    print(json.dumps(last), flush=True)
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
