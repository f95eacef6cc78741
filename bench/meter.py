"""Outside-in meters: CPU and memory from /proc, percentiles, ports.

Everything here observes a process from outside (``/proc/<pid>``), so
the system under test needs no instrumentation to be measured.
"""

from __future__ import annotations

import os
import socket
import threading
from typing import Dict, Iterable, List

from repro.telemetry.metrics import nearest_rank

_TICK = os.sysconf("SC_CLK_TCK")


def _stat_fields(pid: object) -> List[bytes]:
    """``/proc/<pid>/stat`` from field 3 (state) on: the command name
    in field 2 may contain spaces, so fields resume after its ")"."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        return handle.read().rsplit(b")", 1)[1].split()


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds ``pid`` has used (``/proc/<pid>/stat``)."""
    fields = _stat_fields(pid)
    return (int(fields[11]) + int(fields[12])) / _TICK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of ``pid`` in MiB (0.0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0.0


def child_pids(parent: int) -> List[int]:
    """Live direct children of ``parent``, found by scanning /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if int(_stat_fields(entry)[1]) == parent:
                found.append(int(entry))
        except (FileNotFoundError, ProcessLookupError):
            continue
    return found


class ChildRssSampler:
    """Remembers each child's ``VmHWM`` while children come and go.

    The fabric spawns its workers inside ``run()`` and joins them
    before it returns, so their memory can only be read while the call
    is in flight: a thread polls /proc and keeps the largest reading
    per pid.  ``VmHWM`` is itself a high-water mark, so a reading can
    only miss what a worker allocated in its last polling interval.
    """

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.peaks: Dict[int, float] = {}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll, daemon=True)

    def _poll(self) -> None:
        me = os.getpid()
        while not self._stop.wait(self.interval):
            for pid in child_pids(me):
                peak = peak_rss_mib(pid)
                if peak > self.peaks.get(pid, 0.0):
                    self.peaks[pid] = peak

    def __enter__(self) -> "ChildRssSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def total_mib(self) -> float:
        return sum(self.peaks.values())


def percentile(values: Iterable[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values``.

    A percentile is only reported when at least ten samples lie beyond
    it; with fewer, the highest percentile the sample supports is used
    instead (down to the median), so a short run never reports a tail
    it did not sample.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    supported = max(0.5, 1.0 - 10.0 / len(ordered))
    return nearest_rank(ordered, min(fraction, supported))


def free_port(kind: int) -> int:
    """An ephemeral port the kernel just handed out on loopback."""
    with socket.socket(socket.AF_INET, kind) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]
