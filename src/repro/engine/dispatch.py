"""RSS-style flow dispatch: hash for affinity only where state needs it.

Hardware NICs steer packets to receive queues by hashing the L3/L4
tuple (receive-side scaling).  DIP has no fixed tuple -- the header
*is* the program -- so the FN definitions are parsed (once per
distinct program, cached) into a plan, and each program falls in one
of three classes:

- **flow-hashed**: the program has router-FN fields in
  ``FLOW_DISPATCH_KEYS`` (addresses, names, DAG intents), and the flow
  key is the hash of those fields' *contents*.  Hashing the field
  values rather than the program keeps packets that interact through
  field-keyed router state on one shard even when their programs
  differ: an NDN interest (F_FIB over the name) and its data packet
  (F_PIT over the same name) meet the same PIT because both hash the
  name bytes.
- **program-hashed**: no flow fields, but a router FN touches mutable
  node state (or is unknown): the program bytes are the flow key.
- **spread**: no flow fields, and every router FN is in
  ``STATE_FREE_KEYS`` (every OPT packet).  No outcome depends on which
  shard ran the packets before it, so ``shards_of`` deals them out by
  position in the run; ``key_of`` (the mitigation gate's bucket key)
  stays the program hash.

The hash is :func:`zlib.crc32` -- like a NIC's Toeplitz hash it is a
fast non-cryptographic mix, and unlike the builtin ``hash()`` it is
not salted per process, which would scatter a flow across shards
between runs (and between the dispatcher and worker processes of the
multiprocessing backend).
"""

from __future__ import annotations

from zlib import crc32
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.fn import FN_ENCODED_SIZE, OperationKey
from repro.core.header import BASIC_HEADER_SIZE, MAX_LOC_LEN
from repro.core.packet import DipPacket
from repro.core.program import PROGRAM_CACHE_BOUND

# Router FNs whose target field identifies the flow (addresses, names,
# DAG intents).  Fields of other FNs -- MACs, telemetry slots, marks --
# are per-packet mutable and would split one flow across shards.
FLOW_DISPATCH_KEYS = frozenset(
    {
        OperationKey.MATCH_32,
        OperationKey.MATCH_128,
        OperationKey.SOURCE,
        OperationKey.FIB,
        OperationKey.PIT,
        OperationKey.DAG,
        OperationKey.INTENT,
    }
)

# Router FNs whose ``execute`` only reads node state or fills a memo
# cache (``RouterKey``'s dynamic-key LRU), so any shard gives the same
# answer.  The rest keep affinity: F_FIB and F_PIT (PIT/CS), F_tel and
# F_tel_array (append to ``state.telemetry``), F_cong (a live
# ``CongestionMonitor``), F_police, F_dps and any unknown key.
STATE_FREE_KEYS = frozenset(
    {
        OperationKey.MATCH_32,
        OperationKey.MATCH_128,
        OperationKey.SOURCE,
        OperationKey.PARM,
        OperationKey.MAC,
        OperationKey.MARK,
        OperationKey.VERIFY,
        OperationKey.DAG,
        OperationKey.INTENT,
        OperationKey.PASS,
        OperationKey.EPIC,
        OperationKey.EPIC_VERIFY,
        OperationKey.KEYSETUP,
    }
)

# A dispatch plan is one program's recipe: a ``slice`` of the
# locations (one byte-aligned field, the common case), a tuple of
# field entries (slices, or ``(bit_loc, bit_len)`` for unaligned
# fields) hashed in order, ``()`` to hash the program bytes, or
# ``_SPREAD``.
_Entry = Union[slice, Tuple[int, int]]
_Plan = Union[slice, Tuple[_Entry, ...], str]
_SPREAD = "spread"


def _build_plan(defs: bytes) -> _Plan:
    """The dispatch plan of one program's FN definitions.

    Adjacent byte-aligned fields merge into one slice (the same bytes,
    so the same hash) and a field named twice is hashed once.
    """
    entries: List[_Entry] = []
    state_free = True
    for base in range(0, len(defs) - len(defs) % FN_ENCODED_SIZE, FN_ENCODED_SIZE):
        key_field = int.from_bytes(defs[base + 4 : base + 6], "big")
        if key_field & 0x8000:  # host-tagged: routers do not read it
            continue
        key = key_field & 0x7FFF
        state_free = state_free and key in STATE_FREE_KEYS
        if key not in FLOW_DISPATCH_KEYS:
            continue
        field_loc = int.from_bytes(defs[base : base + 2], "big")
        field_len = int.from_bytes(defs[base + 2 : base + 4], "big")
        entry: _Entry
        if (field_loc | field_len) & 7:
            entry = (field_loc, field_len)
        else:
            entry = slice(field_loc >> 3, (field_loc + field_len) >> 3)
            last = entries[-1] if entries else None
            if last.__class__ is slice and last.stop == entry.start:
                entries[-1] = slice(last.start, entry.stop)
                continue
        if entry not in entries:
            entries.append(entry)
    if len(entries) == 1 and entries[0].__class__ is slice:
        return entries[0]
    if entries:
        return tuple(entries)
    return _SPREAD if state_free else ()


def _field_bytes(locations: bytes, entry: _Entry) -> bytes:
    if entry.__class__ is slice:
        return locations[entry]
    bit_loc, bit_len = entry
    total_bits = len(locations) * 8
    end = bit_loc + bit_len
    if bit_loc >= total_bits or bit_len == 0:
        value = 0
    else:
        # Bits past the region hash as zero so truncated packets still
        # dispatch deterministically (the worker reports the error).
        avail = min(end, total_bits)
        whole = int.from_bytes(locations, "big")
        value = (whole >> (total_bits - avail)) & ((1 << (avail - bit_loc)) - 1)
        value <<= end - avail
    return value.to_bytes((bit_len + 7) // 8, "big")


class FlowDispatcher:
    """Steer packets to shards by flow hash, or spread them.

    Parameters
    ----------
    num_shards:
        Number of worker shards; ``shards_of`` returns values in
        ``range(num_shards)``.

    The per-program extraction plan is cached (keyed by the program
    bytes), so dispatching costs one dict hit plus one CRC call per
    packet on the steady state.  The cache starts over at
    ``PROGRAM_CACHE_BOUND`` plans, like a ``ProgramCache``: every
    offered packet is keyed, refused ones included, so a stream of
    ever-new programs must not grow it without bound.
    """

    def __init__(self, num_shards: int) -> None:
        if num_shards <= 0:
            raise ValueError("num_shards must be positive")
        self.num_shards = num_shards
        self._plans: Dict[bytes, _Plan] = {}

    def _key_ints(
        self,
        packets: Sequence[Union[DipPacket, bytes, bytearray]],
        spread: bool = False,
    ) -> List[int]:
        """Flow hashes for a whole batch (the engine's hot path).

        With ``spread``, a packet of a spread-class program keys on
        its position in ``packets`` instead.  One loop with interpreter
        overhead (method dispatch, attribute and global lookups)
        hoisted out; ``key_of`` is the single-packet view over the
        same logic.
        """
        plans = self._plans
        crc = crc32
        header_size = BASIC_HEADER_SIZE
        fn_size = FN_ENCODED_SIZE
        loc_mask = MAX_LOC_LEN
        keys: List[int] = []
        append = keys.append
        for packet in packets:
            if isinstance(packet, (bytes, bytearray)):
                # Split off the FN definitions and locations, tolerant
                # of truncation: dispatch never raises on a malformed
                # packet (the worker's decoder reports it).
                data = bytes(packet)
                if len(data) < header_size:
                    defs, locations = data, b""
                else:
                    defs_end = header_size + fn_size * data[2]
                    defs = data[header_size:defs_end]
                    loc_len = (data[4] << 8 | data[5]) >> 1 & loc_mask
                    locations = data[defs_end : defs_end + loc_len]
            else:
                defs = b"".join(fn.encode() for fn in packet.header.fns)
                locations = packet.header.locations
            plan = plans.get(defs)
            if plan is None:
                if len(plans) >= PROGRAM_CACHE_BOUND:
                    plans.clear()
                plan = plans[defs] = _build_plan(defs)
            if plan.__class__ is slice:
                append(crc(locations[plan]))
            elif plan is _SPREAD:
                append(len(keys) if spread else crc(defs))
            elif not plan:
                append(crc(defs))
            else:
                # crc32 chained over the parts is crc32 of their join.
                key = 0
                for entry in plan:
                    key = crc(_field_bytes(locations, entry), key)
                append(key)
        return keys

    def shards_of(
        self, packets: Sequence[Union[DipPacket, bytes, bytearray]]
    ) -> List[int]:
        """Shard assignments for a whole batch, in packet order."""
        num_shards = self.num_shards
        if num_shards == 1:
            return [0] * len(packets)  # nothing to steer: no hash at all
        return [
            key % num_shards for key in self._key_ints(packets, spread=True)
        ]

    def key_of(self, packet: Union[DipPacket, bytes, bytearray]) -> bytes:
        """The packet's 4-byte flow key (equal for equal flows)."""
        return self._key_ints((packet,))[0].to_bytes(4, "big")
