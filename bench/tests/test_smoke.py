"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python -m pytest bench/tests -q

Every workload, end to end and traced, at one second per run: the
result schema holds, every metric ``BENCHMARK.json`` names is printed
with its unit, and no output check fails.  A second test corrupts a
reply on purpose and expects the harness to say so.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

from catalog import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_names_what_the_harness_prints():
    declared = spec()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["paths"] == ["bench"]
    for section, catalog in (
        ("end_to_end", END_TO_END), ("per_layer", PER_LAYER)
    ):
        assert {
            m["name"]: (m["unit"], m["better"]) for m in declared[section]
        } == catalog
    assert all(0 < m["bound"] <= 0.25 for m in declared["end_to_end"])
    assert "setup_s" in END_TO_END


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_runs_clean(workload, trace):
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace),
            "--setups", "1",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0  # failed_frac == 0
    catalog = PER_LAYER if trace else END_TO_END
    assert set(result["metrics"]) == set(catalog)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == catalog[name][0]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name


def test_a_wrong_reply_is_counted_as_failed():
    import wl_serve
    from loadgen import LoadGenerator

    wires = wl_serve.make_wires("fwd", 3)
    gen = LoadGenerator(("127.0.0.1", 9), wires, 3)  # never sends
    gen.close()
    gen.sent = gen.received = len(wires)
    gen.replies = dict(wl_serve.expected_replies(wires, gen.sent, 3))
    ledger = {
        "decisions": {"forward": gen.sent}, "unaccounted": 0,
        "offered": gen.sent,
    }
    assert not any(wl_serve.check_outputs("fwd", 3, gen, ledger).values())

    reply, count = next(iter(gen.replies.items()))
    del gen.replies[reply]
    wrong = reply[:2] + b"\xff\xfe" + reply[4:]  # a port no route uses
    gen.replies[wrong] = count
    checks = wl_serve.check_outputs("fwd", 3, gen, ledger)
    assert checks["wrong_verdict"] == count
