"""Shared-memory shard IPC: fixed-slot rings under the control pipes.

The process backend historically pickled every batch (list of packet
``bytes``) through a ``multiprocessing.Pipe`` in both directions --
per-packet pickle framing plus two kernel copies per direction, which
is why four shards lost to one single-process batch loop.  This module
replaces the *bulk* of that traffic with ``multiprocessing.shared_memory``
ring buffers while keeping the pipes for the tiny control messages
(seq/ack, indices, lengths, counters), so the supervisor protocol --
heartbeats, respawns, reconfig -- is unchanged.

Layout: per shard one :class:`ShardChannel` holding two segments
(request and reply), each divided into ``slots`` fixed-size frames.  A
batch with sequence number ``seq`` uses frame ``seq % slots`` in both
directions; the process transport's ``window`` bounds the per-shard
in-flight batches to ``slots``, so a frame is never rewritten before
its reply has been consumed.  Payloads are concatenated into one blob per batch (the
per-packet lengths ride on the pipe), so a frame write/read is a single
``memoryview`` copy.  A blob larger than ``slot_size`` falls back to
inline pipe payloads for that batch -- correctness never depends on the
frame size.

Ownership: the parent creates both segments *before* forking and is the
only process that ever unlinks them (in
:meth:`~repro.engine.transport.ProcessTransport.close`).  Children
inherit the mappings through fork and just read/write; they never attach by name and never touch the resource
tracker, so a child dying hard (``os._exit`` crash injection) can leak
nothing -- the parent's unlink covers every exit path.  Segment names
carry the ``repro-`` prefix so tests can assert ``/dev/shm`` is clean.
"""

from __future__ import annotations

import multiprocessing
import os
import secrets
from typing import List, Optional

try:
    from multiprocessing import shared_memory as _shared_memory
except ImportError:  # pragma: no cover - no shm on this platform
    _shared_memory = None

SHM_PREFIX = "repro-"

DEFAULT_SLOTS = 4
DEFAULT_SLOT_SIZE = 1 << 20


def shm_available() -> bool:
    """True when shared-memory channels can be used at all.

    Requires the ``shared_memory`` module *and* fork semantics: under
    fork the child inherits the parent's mappings, so it never attaches
    by name and never registers with the resource tracker (a child-side
    unregister under the shared fork tracker would race the parent's
    own unlink bookkeeping).
    """
    if _shared_memory is None or not hasattr(os, "fork"):
        return False
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX
        return False
    return True


def _create_segment(size: int):
    """Create one named segment, retrying on (stale) name collisions."""
    for _ in range(16):
        name = SHM_PREFIX + secrets.token_hex(8)
        try:
            return _shared_memory.SharedMemory(
                create=True, size=size, name=name
            )
        except FileExistsError:  # pragma: no cover - stale leak collision
            continue
    raise OSError("could not allocate a shared-memory segment name")


class ShardChannel:
    """One shard's pair of fixed-slot shared-memory rings.

    ``write_*`` returns False when the blob does not fit a frame (the
    caller then ships it inline over the pipe); ``read_*`` returns a
    private ``bytes`` copy so the frame can be reused immediately.
    """

    __slots__ = ("slots", "slot_size", "request", "reply")

    def __init__(
        self,
        slots: int = DEFAULT_SLOTS,
        slot_size: int = DEFAULT_SLOT_SIZE,
    ) -> None:
        if _shared_memory is None:  # pragma: no cover - guarded by caller
            raise OSError("multiprocessing.shared_memory unavailable")
        self.slots = slots
        self.slot_size = slot_size
        self.request = _create_segment(slots * slot_size)
        self.reply = _create_segment(slots * slot_size)

    # -- frame I/O ---------------------------------------------------
    def _write(self, segment, slot: int, blob: bytes) -> bool:
        if len(blob) > self.slot_size:
            return False
        base = slot * self.slot_size
        segment.buf[base : base + len(blob)] = blob
        return True

    def _read(self, segment, slot: int, length: int) -> bytes:
        base = slot * self.slot_size
        return bytes(segment.buf[base : base + length])

    def write_request(self, slot: int, blob: bytes) -> bool:
        return self._write(self.request, slot, blob)

    def read_request(self, slot: int, length: int) -> bytes:
        return self._read(self.request, slot, length)

    def write_reply(self, slot: int, blob: bytes) -> bool:
        return self._write(self.reply, slot, blob)

    def read_reply(self, slot: int, length: int) -> bytes:
        return self._read(self.reply, slot, length)

    # -- lifecycle ---------------------------------------------------
    def close(self) -> None:
        """Drop this process's mappings (parent and child alike)."""
        for segment in (self.request, self.reply):
            try:
                segment.close()
            except (OSError, BufferError):  # pragma: no cover
                pass

    def unlink(self) -> None:
        """Destroy the segments.  Parent only; idempotent."""
        for segment in (self.request, self.reply):
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


def split_blob(blob: bytes, lengths: List[int]) -> List[bytes]:
    """Cut one concatenated frame back into per-packet payloads."""
    out: List[bytes] = []
    offset = 0
    for length in lengths:
        end = offset + length
        out.append(blob[offset:end])
        offset = end
    return out


def leaked_segments() -> List[str]:
    """Names of ``repro-`` shared-memory segments still on ``/dev/shm``.

    Test helper for the zero-leak assertions; returns an empty list on
    platforms without a ``/dev/shm`` to inspect.
    """
    try:
        return sorted(
            name
            for name in os.listdir("/dev/shm")
            if name.startswith(SHM_PREFIX)
        )
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []


def make_channels(
    num_shards: int,
    slots: int = DEFAULT_SLOTS,
    slot_size: int = DEFAULT_SLOT_SIZE,
) -> Optional[List[ShardChannel]]:
    """Channels for every shard, or None when shm cannot be used.

    All-or-nothing: a failure mid-allocation unlinks what was built so
    a half-provisioned engine never mixes transports unpredictably.
    """
    if not shm_available():
        return None
    channels: List[ShardChannel] = []
    try:
        for _ in range(num_shards):
            channels.append(ShardChannel(slots, slot_size))
    except OSError:  # pragma: no cover - /dev/shm exhausted
        for channel in channels:
            channel.unlink()
            channel.close()
        return None
    return channels
