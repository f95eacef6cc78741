"""Child-process host for the daemon under test.

Runs an unmodified :class:`~repro.serve.daemon.ServingDaemon` with the
default :class:`~repro.serve.config.ServeConfig` (only the two ports
differ), serves until SIGINT, then prints the final conservation
ledger as one JSON line -- the parent reads it as the program's own
account of what it did.
"""

from __future__ import annotations

import argparse
import asyncio
import functools
import json


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--metrics-port", type=int, required=True)
    parser.add_argument("--state", choices=("dip32", "ndn"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    from repro.serve import ServeConfig, ServeCore
    from repro.serve.daemon import ServingDaemon
    from repro.workloads.throughput import dip32_state_factory

    config = ServeConfig(port=args.port, metrics_port=args.metrics_port)
    state_factory = None  # the daemon's default bounded NDN content node
    if args.state == "dip32":
        state_factory = functools.partial(
            dip32_state_factory, 1024, args.seed
        )
    core = ServeCore(config, state_factory=state_factory)
    summary = asyncio.run(ServingDaemon(config, core).serve())
    print(json.dumps(summary, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
