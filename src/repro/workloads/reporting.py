"""Text tables and the ``--json`` twin policy for the CLI.

:func:`format_table` renders aligned text tables; :func:`emit_payload`
is the CLI's ``--json`` twin policy.  The paper's tables and their
artifacts come from :mod:`repro.workloads.paper` (``repro paper``).
Telemetry files (Prometheus text, JSONL traces) are written by
:mod:`repro.telemetry.export` directly.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, List, Optional, Sequence, TextIO


def emit_payload(
    json_flag,
    payload: Callable[[], Any],
    render: Callable[[], None],
    out: Optional[TextIO] = None,
    sort_keys: bool = False,
) -> None:
    """The one ``--json [PATH]`` twin policy every CLI subcommand routes through.

    Every subcommand has a human text rendering and a machine JSON
    payload; ``json_flag`` is the subcommand's ``--json`` argument and
    selects between them:

    - falsy -> call ``render()`` (text only);
    - ``True`` (bare ``--json``) -> dump ``payload()`` as indented JSON
      to ``out``, *instead of* the text;
    - a path string (``--json PATH``) -> call ``render()``, then write
      ``payload()`` to that file and say so on ``out``.

    ``payload`` is a zero-arg callable so text-only runs never build
    the JSON document.
    """
    out = out if out is not None else sys.stdout
    if json_flag is True:
        out.write(json.dumps(payload(), indent=2, sort_keys=sort_keys) + "\n")
        return
    render()
    if json_flag:
        with open(json_flag, "w", encoding="utf-8") as handle:
            json.dump(payload(), handle, indent=2, sort_keys=sort_keys)
            handle.write("\n")
        out.write(f"  report written to {json_flag}\n")


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]]
) -> str:
    """Render an aligned text table."""
    str_rows: List[List[str]] = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in str_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
