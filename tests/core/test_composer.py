"""Tests for the FN composition linter."""

import pytest

from repro.core.composer import Diagnostic, Severity, lint_program
from repro.core.fn import FieldOperation, OperationKey
from repro.core.header import DipHeader
from repro.crypto.keys import RouterKey
from repro.protocols.opt import negotiate_session
from repro.realize.derived import build_ndn_opt_interest
from repro.realize.ip import build_ipv4_header
from repro.realize.ndn import build_interest_header
from repro.realize.opt import build_opt_packet
from repro.realize.xia import build_xia_packet


def codes(header):
    return [d.code for d in lint_program(header)]


@pytest.fixture
def session():
    return negotiate_session(
        "s", "d", [RouterKey("lint-r")], RouterKey("d"), nonce=b"ln"
    )


class TestCleanPrograms:
    def test_all_realizations_lint_clean(self, session):
        from repro.protocols.xia import DagAddress, Xid

        clean_headers = [
            build_ipv4_header(1, 2),
            build_interest_header("/a"),
            build_opt_packet(session, b"p").header,
            build_ndn_opt_interest("/a", session, b"p").header,
            build_xia_packet(DagAddress.direct(Xid.for_content(b"x"))).header,
        ]
        for header in clean_headers:
            assert codes(header) == [], lint_program(header)


class TestErrors:
    def test_range_violation(self):
        header = DipHeader(
            fns=(FieldOperation(0, 64, OperationKey.MATCH_32),),
            locations=bytes(4),
        )
        diagnostics = lint_program(header)
        assert any(d.code == "E-RANGE" for d in diagnostics)

    def test_verify_without_host_tag(self):
        header = DipHeader(
            fns=(FieldOperation(0, 544, OperationKey.VERIFY, tag=False),),
            locations=bytes(68),
        )
        assert "E-TAG" in codes(header)

    def test_mac_before_parm(self):
        header = DipHeader(
            fns=(
                FieldOperation(0, 416, OperationKey.MAC),
                FieldOperation(128, 128, OperationKey.PARM),
            ),
            locations=bytes(68),
        )
        assert "E-ORDER" in codes(header)

    def test_intent_before_dag(self):
        header = DipHeader(
            fns=(FieldOperation(0, 64, OperationKey.INTENT),),
            locations=bytes(8),
        )
        assert "E-ORDER" in codes(header)

    def test_wrong_fixed_length(self):
        header = DipHeader(
            fns=(FieldOperation(0, 16, OperationKey.MATCH_32),),
            locations=bytes(2),
        )
        assert "E-LEN" in codes(header)

    @pytest.mark.parametrize("bits, flagged", [(8, True), (16, False)])
    def test_dag_field_must_hold_the_xia_prefix(self, bits, flagged):
        header = DipHeader(
            fns=(FieldOperation(0, bits, OperationKey.DAG),),
            locations=bytes(2),
        )
        assert ("E-LEN" in codes(header)) is flagged


class TestWarnings:
    def test_unknown_key_is_warning_only(self):
        header = DipHeader(
            fns=(FieldOperation(0, 8, 99),), locations=bytes(1)
        )
        diagnostics = lint_program(header)
        assert [d.code for d in diagnostics] == ["W-KEY"]

    def test_poisoning_combination_flagged(self):
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, OperationKey.FIB),
                FieldOperation(0, 32, OperationKey.PIT),
            ),
            locations=bytes(4),
        )
        assert "W-POISON" in codes(header)

    def test_distinct_fields_not_flagged(self):
        header = DipHeader(
            fns=(
                FieldOperation(0, 32, OperationKey.FIB),
                FieldOperation(32, 32, OperationKey.PIT),
            ),
            locations=bytes(8),
        )
        assert "W-POISON" not in codes(header)

    def test_stage_budget_warning(self):
        fns = tuple(
            FieldOperation(i * 32, 32, OperationKey.TELEMETRY)
            for i in range(13)
        )
        header = DipHeader(fns=fns, locations=bytes(13 * 4))
        assert "W-STAGES" in codes(header)
        at_budget = DipHeader(fns=fns[:12], locations=bytes(12 * 4))
        assert "W-STAGES" not in codes(at_budget)


class TestInfo:
    def test_futile_parallel_flag(self, session):
        packet = build_opt_packet(session, b"p", parallel=True)
        assert "I-PAR" in codes(packet.header)

    def test_useful_parallel_flag_silent(self):
        from repro.realize.extensions import with_telemetry

        header = with_telemetry(build_ipv4_header(1, 2))
        import dataclasses

        header = dataclasses.replace(header, parallel=True)
        assert "I-PAR" not in codes(header)


class TestOrdering:
    def test_errors_sort_first(self):
        header = DipHeader(
            fns=(
                FieldOperation(0, 8, 99),                      # W-KEY
                FieldOperation(0, 64, OperationKey.MATCH_32),  # E-RANGE+E-LEN
            ),
            locations=bytes(1),
        )
        diagnostics = lint_program(header)
        assert diagnostics[0].severity is Severity.ERROR

    def test_str_rendering(self):
        diagnostic = Diagnostic(Severity.ERROR, "E-RANGE", "boom", 2)
        assert str(diagnostic) == "error: E-RANGE (FN[2]): boom"
