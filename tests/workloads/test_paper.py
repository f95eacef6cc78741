"""``repro paper``: the declared experiments, their artifacts and verdicts.

Every deterministic experiment must regenerate the committed
``results/<ID>.txt`` byte for byte; the wall-clock ones are exercised
through the CLI only with their ``run`` stubbed, so tier-1 never times
anything.
"""

import dataclasses
import io
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.workloads import paper

RESULTS = Path(__file__).resolve().parents[2] / "results"

DETERMINISTIC = [e for e in paper.EXPERIMENTS.values() if e.deterministic]


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


def test_twelve_experiments_thirteen_tables():
    assert len(paper.EXPERIMENTS) == 12
    assert sum(len(e.tables) for e in paper.EXPERIMENTS.values()) == 13
    assert {e.id for e in DETERMINISTIC} == {
        "FIG2-CYCLES", "TAB2", "ABL-PAR", "ABL-NF", "ABL-DPS", "ABL-EPIC",
    }


@pytest.mark.parametrize("experiment", DETERMINISTIC, ids=lambda e: e.id)
def test_deterministic_experiment_matches_committed_result(experiment):
    tables = experiment.run()
    assert experiment.check(*tables) == []
    for stem, (title, headers), rows in zip(
        experiment.stems(), experiment.tables, tables
    ):
        committed = (RESULTS / f"{stem}.txt").read_text(encoding="utf-8")
        assert paper.render(title, headers, rows) == committed


def test_committed_results_are_exactly_the_deterministic_tables():
    stems = {stem for e in DETERMINISTIC for stem in e.stems()}
    assert {p.stem for p in RESULTS.glob("*.txt")} == stems


def test_out_writes_tables_and_json(tmp_path):
    code, text = run_cli("paper", "TAB2", "ABL-EPIC", "--out", str(tmp_path))
    assert code == 0
    assert text.startswith("host: ")
    assert "TAB2: HOLDS" in text and "ABL-EPIC: HOLDS" in text
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "ABL-EPIC-FORGERY.txt", "ABL-EPIC.txt", "TAB2.txt", "paper.json",
    ]
    record = json.loads((tmp_path / "paper.json").read_text())
    assert set(record["host"]) == {"platform", "python", "cpu_count"}
    assert record["repeats"] == paper.REPEATS
    tab2 = record["experiments"]["TAB2"]
    assert tab2["holds"] and tab2["failures"] == []
    assert tab2["tables"][0]["rows"][0] == ["IPv6 forwarding", 40, 40, "OK"]


def test_sabotaged_shape_fails_with_exit_1(monkeypatch):
    experiment = paper.EXPERIMENTS["ABL-PAR"]

    def broken():
        (rows,) = experiment.run()
        rows[1][2] = rows[1][1] // 2  # the dependent OPT chain "compresses"
        return (rows,)

    monkeypatch.setitem(
        paper.EXPERIMENTS, "ABL-PAR",
        dataclasses.replace(experiment, run=broken),
    )
    code, text = run_cli("paper", "ABL-PAR")
    assert code == 1
    assert "ABL-PAR: FAILS: OPT chain: parallel == sequential" in text


def test_wall_clock_cells_render_median_and_iqr(monkeypatch):
    experiment = paper.EXPERIMENTS["ABL-FIB"]
    rows = [[routes, paper.Timing(10.0 * (i + 1), 0.5)]
            for i, routes in enumerate(paper.ROUTE_COUNTS)]
    monkeypatch.setitem(
        paper.EXPERIMENTS, "ABL-FIB",
        dataclasses.replace(experiment, run=lambda: (rows,)),
    )
    code, text = run_cli("paper", "ABL-FIB")
    assert code == 0
    assert "10.0 ±0.5" in text and "ABL-FIB: HOLDS" in text


def test_timed_reports_median_and_iqr():
    timing = paper.timed(lambda: sum(range(100)), 1e6)
    assert timing.median > 0 and timing.iqr >= 0


def test_unknown_id_exits_2():
    code, text = run_cli("paper", "NOPE")
    assert code == 2
    assert "NOPE" in text and "FIG2" in text


def test_retired_subcommands_are_unknown():
    for command in ("table2", "fig2"):
        with pytest.raises(SystemExit) as exc:
            main([command], out=io.StringIO())
        assert exc.value.code == 2
