"""Import cost of the DIP-32 throughput workload.

The serving daemon imports :func:`dip32_state_factory` from this
module, so anything the module loads at import time is resident in
every daemon process.  numpy belongs to the columnar kernel alone, and
the paper experiments (``repro paper``) are imported lazily.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def test_import_does_not_load_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.workloads.throughput, sys; "
            "assert 'numpy' not in sys.modules; "
            "assert 'repro.workloads.paper' not in sys.modules",
        ],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
