"""Import cost of the modules the benchmark processes load.

The serving daemon imports :func:`dip32_state_factory` from
``repro.workloads.throughput``, and the engine benchmark imports the
reference interpreter from ``repro.conformance``, so anything either
loads at import time is resident in those processes.  numpy belongs to
the columnar kernel alone, the paper experiments (``repro paper``) are
imported lazily, and the conformance matrix imports its serve and
fabric hosts only when one of their cells runs.  Every spawned fabric
worker imports ``repro.fabric``; networkx belongs to topology queries
and the internet generator, which no worker runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def assert_import_skips(module, *absent):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    checks = "".join(
        f"assert {name!r} not in sys.modules, {name!r}; " for name in absent
    )
    result = subprocess.run(
        [sys.executable, "-c", f"import {module}, sys; {checks}"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr


def test_import_does_not_load_numpy():
    assert_import_skips(
        "repro.workloads.throughput", "numpy", "repro.workloads.paper"
    )


def test_conformance_import_stays_light():
    assert_import_skips(
        "repro.conformance", "numpy", "repro.serve", "repro.fabric"
    )


def test_fabric_import_skips_networkx():
    assert_import_skips("repro.fabric", "networkx")
