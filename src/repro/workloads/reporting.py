"""Text tables and per-run artifacts for the paper benchmarks and the CLI.

:class:`Reporter` renders aligned text tables (the paper's Figure 2 /
Table 2 shapes) and, when ``REPRO_REPORT_DIR`` is set, leaves a
``.txt`` + ``.json`` artifact of each table behind; it never merges
into an existing file.  :func:`emit_payload` is the CLI's ``--json``
twin policy.  Telemetry files (Prometheus text, JSONL traces) are written
by :mod:`repro.telemetry.export` directly.

The module-level helpers (``format_table``, ``print_table``,
``write_report_json``) are thin wrappers over a default
:class:`Reporter`.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Callable, List, Optional, Sequence, TextIO


def emit_payload(
    json_flag,
    payload: Callable[[], Any],
    render: Optional[Callable[[], None]] = None,
    out: Optional[TextIO] = None,
    sort_keys: bool = False,
) -> Optional[str]:
    """The one ``--json`` twin policy every CLI subcommand routes through.

    Every subcommand has a human text rendering and a machine JSON
    payload; ``json_flag`` is the subcommand's ``--json`` argument and
    selects between them:

    - falsy -> call ``render()`` (text only);
    - ``True`` -> dump ``payload()`` as indented JSON to ``out``,
      *instead of* the text (the ``--json`` boolean-flag form);
    - a path string -> call ``render()``, then write ``payload()`` to
      that file (the ``--json PATH`` artifact form); the path is
      returned so the caller can mention it.

    ``payload`` is a zero-arg callable so text-only runs never build
    the JSON document.
    """
    out = out if out is not None else sys.stdout
    if isinstance(json_flag, str) and json_flag:
        if render is not None:
            render()
        with open(json_flag, "w", encoding="utf-8") as handle:
            json.dump(payload(), handle, indent=2, sort_keys=sort_keys)
            handle.write("\n")
        return json_flag
    if json_flag:
        out.write(
            json.dumps(payload(), indent=2, sort_keys=sort_keys) + "\n"
        )
        return None
    if render is not None:
        render()
    return None


class Reporter:
    """Renders text tables and their per-run artifacts.

    Parameters
    ----------
    out:
        Optional stream tables are written to; ``None`` uses ``print``
        (the historic behaviour of ``print_table``).
    report_dir:
        Directory for per-run ``.txt``/``.json`` artifacts.  Falls back
        to the ``REPRO_REPORT_DIR`` environment variable, read at call
        time so benchmarks can set it after import.
    """

    def __init__(
        self,
        out: Optional[TextIO] = None,
        report_dir: Optional[str] = None,
    ) -> None:
        self.out = out
        self._report_dir = report_dir

    @property
    def report_dir(self) -> Optional[str]:
        return self._report_dir or os.environ.get("REPRO_REPORT_DIR")

    # ------------------------------------------------------------------
    # text tables
    # ------------------------------------------------------------------
    @staticmethod
    def format_table(
        headers: Sequence[str], rows: Sequence[Sequence[object]]
    ) -> str:
        """Render an aligned text table."""
        str_rows: List[List[str]] = [
            [str(cell) for cell in row] for row in rows
        ]
        widths = [len(h) for h in headers]
        for row in str_rows:
            for i, cell in enumerate(row):
                widths[i] = max(widths[i], len(cell))
        lines = []
        header_line = "  ".join(
            h.ljust(widths[i]) for i, h in enumerate(headers)
        )
        lines.append(header_line)
        lines.append("  ".join("-" * w for w in widths))
        for row in str_rows:
            lines.append(
                "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
            )
        return "\n".join(lines)

    @staticmethod
    def slug(title: str) -> str:
        """The filename stem a titled report is written under."""
        return re.sub(r"[^a-z0-9]+", "-", title.lower()).strip("-")[:60]

    def _emit(self, text: str) -> None:
        if self.out is not None:
            self.out.write(text + "\n")
        else:
            print(text)

    def table(
        self,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
    ) -> None:
        """Print a titled table; leave artifacts when configured.

        When a report directory is configured (constructor argument or
        ``REPRO_REPORT_DIR``), the table is additionally written to
        ``<dir>/<slug-of-title>.txt`` and a machine-readable ``.json``
        twin so benchmark runs leave paper-style artifacts behind.
        """
        rendered = f"== {title} ==\n" + self.format_table(headers, rows)
        self._emit("\n" + rendered)
        report_dir = self.report_dir
        if report_dir:
            os.makedirs(report_dir, exist_ok=True)
            path = os.path.join(report_dir, f"{self.slug(title)}.txt")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(rendered + "\n")
            self.write_json(title, headers, rows, report_dir)

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------
    def write_json(
        self,
        title: str,
        headers: Sequence[str],
        rows: Sequence[Sequence[object]],
        report_dir: Optional[str] = None,
    ) -> Optional[str]:
        """Write a table as ``<dir>/<slug>.json``; returns the path.

        The JSON twin of the ``.txt`` artifact: ``{title, headers,
        rows}`` with cells stringified the same way the text table
        renders them, so downstream tooling can diff benchmark
        trajectories without parsing aligned text.  No-op (returns
        None) when no report directory is configured.
        """
        report_dir = report_dir or self.report_dir
        if not report_dir:
            return None
        os.makedirs(report_dir, exist_ok=True)
        path = os.path.join(report_dir, f"{self.slug(title)}.json")
        payload = {
            "title": title,
            "headers": list(headers),
            "rows": [[str(cell) for cell in row] for row in rows],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        return path

    # ------------------------------------------------------------------
    # telemetry tables
    # ------------------------------------------------------------------
    def stats_table(self, title: str, snapshot) -> None:
        """Pretty-print a metrics snapshot as a (metric, type, value)
        table -- the human half of ``repro stats``."""
        from repro.telemetry.export import snapshot_rows

        self.table(title, ["metric", "type", "value"], snapshot_rows(snapshot))


_DEFAULT = Reporter()

# ----------------------------------------------------------------------
# legacy module-level API (thin wrappers over the default Reporter)
# ----------------------------------------------------------------------


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned text table."""
    return Reporter.format_table(headers, rows)


def write_report_json(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    report_dir: Optional[str] = None,
) -> Optional[str]:
    """See :meth:`Reporter.write_json`."""
    return _DEFAULT.write_json(title, headers, rows, report_dir)


def print_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> None:
    """See :meth:`Reporter.table`."""
    _DEFAULT.table(title, headers, rows)
