"""``repro paper``: the declared experiments, their artifacts and verdicts.

Every deterministic experiment must regenerate the committed
``results/<ID>.txt`` byte for byte; the wall-clock ones are exercised
through the CLI only with their ``run`` stubbed, so tier-1 never times
anything.  Each deterministic experiment runs once per session
(:func:`tables_of`); the sabotage test edits a copy of its rows.
"""

import copy
import dataclasses
import functools
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


@functools.lru_cache(maxsize=None)
def tables_of(experiment_id):
    return paper.EXPERIMENTS[experiment_id].run()


def test_fifteen_experiments_seventeen_tables():
    assert len(paper.EXPERIMENTS) == 15
    assert sum(len(e.tables) for e in paper.EXPERIMENTS.values()) == 17
    assert {e.id for e in DETERMINISTIC} == {
        "FIG2-CYCLES", "TAB2", "ABL-PAR", "ABL-NF", "ABL-DPS", "ABL-EPIC",
        "ADOPT", "ATTACK", "FABRIC",
    }


@pytest.mark.parametrize("experiment", DETERMINISTIC, ids=lambda e: e.id)
def test_deterministic_experiment_matches_committed_result(experiment):
    tables = tables_of(experiment.id)
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


def halve_opt_parallel(rows):
    rows[1][2] = rows[1][1] // 2  # the dependent OPT chain "compresses"


def drop_top_delivery(rows):
    rows[-2][4] = rows[-3][4] / 2  # 80% adoption delivers less than 65%


def starve_mitigated_serve(engine, serve):
    row = next(row for row in serve if row[0] == 0.5)
    row[3] = row[2] - 1  # the gate costs legit goodput under flood


SABOTAGE = (
    ("ABL-PAR", halve_opt_parallel, "OPT chain: parallel == sequential"),
    ("ADOPT", drop_top_delivery, "delivery non-decreasing in adoption"),
    ("ATTACK", starve_mitigated_serve,
     "serve: mitigated > unmitigated at 0.5"),
)


def test_sabotaged_shape_fails_with_exit_1(monkeypatch):
    for experiment_id, sabotage, claim in SABOTAGE:
        experiment = paper.EXPERIMENTS[experiment_id]

        def broken(experiment_id=experiment_id, sabotage=sabotage):
            tables = copy.deepcopy(tables_of(experiment_id))
            sabotage(*tables)
            return tables

        monkeypatch.setitem(
            paper.EXPERIMENTS, experiment_id,
            dataclasses.replace(experiment, run=broken),
        )
        code, text = run_cli("paper", experiment_id)
        assert code == 1, experiment_id
        assert f"{experiment_id}: FAILS: {claim}" in text


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
    for argv in (["table2"], ["fig2"], ["attack"], ["topology", "--sweep"]):
        with pytest.raises(SystemExit) as exc:
            main(argv, out=io.StringIO())
        assert exc.value.code == 2
