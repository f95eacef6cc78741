"""The ``repro conformance`` subcommand: replay, fuzz, record, report."""

import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.conformance import Scenario, load_corpus, save_corpus
from repro.conformance.corpus import REGRESSION_GROUP, Vector

CORPUS = str(Path(__file__).parent / "corpus")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_corpus_replay_is_clean():
    code, text = run_cli(
        "conformance", "--corpus", CORPUS, "--executors", "process,dataplane"
    )
    assert code == 0
    assert "corpus replay" in text
    assert "OK" in text and "DIVERGENCE" not in text


def test_fuzz_writes_a_json_report(tmp_path):
    report_path = tmp_path / "report.json"
    code, text = run_cli(
        "conformance",
        "--fuzz", "16",
        "--seed", "3",
        "--scenarios", "ip",
        "--executors", "process",
        "--json", str(report_path),
    )
    assert code == 0
    assert "fuzz (seed 3)" in text
    data = json.loads(report_path.read_text())
    assert data["ok"] is True
    assert data["packets"] == 16
    assert data["executors"] == ["process"]
    assert f"report written to {report_path}" in text


def test_record_regenerates_but_preserves_regressions(tmp_path):
    target = tmp_path / "corpus"
    keeper = Vector(
        name="kept-regression",
        scenario="ip",
        wires=[Scenario("ip").wires(1, stream="cli-keep")[0].hex()],
        group=REGRESSION_GROUP,
    )
    save_corpus([keeper], target)
    code, text = run_cli(
        "conformance", "--record", str(target), "--executors", "process"
    )
    assert code == 0
    assert "recorded" in text
    names = {vector.name for vector in load_corpus(target)}
    assert "kept-regression" in names  # never regenerated away
    assert "ip-traffic-0" in names  # golden set rebuilt


def test_empty_corpus_directory_is_an_error(tmp_path):
    code, text = run_cli("conformance", "--corpus", str(tmp_path))
    assert code == 2
    assert "no vectors" in text


def test_nothing_to_do_without_corpus_or_fuzz(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, text = run_cli("conformance")
    assert code == 2
    assert "nothing to do" in text


def test_unknown_executor_is_a_usage_error():
    code, text = run_cli(
        "conformance", "--corpus", CORPUS, "--executors", "warp-drive"
    )
    assert code == 2
    assert "unknown executors" in text
    # A negative count is refused by the parser, not run as "no work".
    with pytest.raises(SystemExit) as caught:
        run_cli("conformance", "--fuzz", "-3")
    assert caught.value.code == 2
