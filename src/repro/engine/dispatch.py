"""RSS-style flow dispatch: hash a packet's flow identity to a shard.

Hardware NICs steer packets to receive queues by hashing the L3/L4
tuple (receive-side scaling).  DIP has no fixed tuple -- the header
*is* the program -- so the FN definitions are parsed (once per
distinct program, cached) to find the forwarding-relevant router-FN
fields, and the flow key is the hash of those fields' *contents*
(addresses, names, DAG intents).  Hashing the field values rather than
the program keeps packets that interact through field-keyed router
state on one shard even when their programs differ: an NDN interest
(F_FIB over the name) and its data packet (F_PIT over the same name)
must meet the same PIT, and they do because both hash the name bytes.
Programs with no dispatch-relevant fields fall back to hashing the
program bytes themselves: each such program is one flow, so all of its
traffic lands on one shard, deterministically but without spreading
(every OPT packet of a given FN program shares a shard).

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

# A dispatch plan is the field extraction recipe for one program:
# (start_byte, end_byte) for byte-aligned fields (the common case),
# (-1, bit_loc, bit_len) markers for unaligned ones.
_Plan = Tuple[Tuple[int, ...], ...]


def _build_plan(defs: bytes) -> _Plan:
    """Extraction recipe for the dispatch-relevant fields of a program."""
    plan: List[Tuple[int, ...]] = []
    for base in range(0, len(defs) - len(defs) % FN_ENCODED_SIZE, FN_ENCODED_SIZE):
        key_field = int.from_bytes(defs[base + 4 : base + 6], "big")
        if key_field & 0x8000:  # host-tagged: routers do not read it
            continue
        if (key_field & 0x7FFF) not in FLOW_DISPATCH_KEYS:
            continue
        field_loc = int.from_bytes(defs[base : base + 2], "big")
        field_len = int.from_bytes(defs[base + 2 : base + 4], "big")
        if not (field_loc | field_len) & 7:
            plan.append((field_loc >> 3, (field_loc + field_len) >> 3))
        else:
            plan.append((-1, field_loc, field_len))
    return tuple(plan)


def _field_bytes(locations: bytes, entry: Tuple[int, ...]) -> bytes:
    if entry[0] >= 0:
        return locations[entry[0] : entry[1]]
    _, bit_loc, bit_len = entry
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
    """Steer packets to shards by flow hash.

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
        self, packets: Sequence[Union[DipPacket, bytes, bytearray]]
    ) -> List[int]:
        """Flow hashes for a whole batch (the engine's hot path).

        One loop with interpreter overhead (method dispatch, attribute
        and global lookups) hoisted out; ``key_of`` is the
        single-packet view over the same logic.
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
                plan = _build_plan(defs)
                if len(plan) == 1 and plan[0][0] >= 0:
                    # One byte-aligned field (the common case, e.g. a
                    # lone F_MATCH over the destination): cache the
                    # slice bounds flat so the steady state is
                    # slice + hash, no loop.
                    plan = plan[0]
                if len(plans) >= PROGRAM_CACHE_BOUND:
                    plans.clear()
                plans[defs] = plan
            if not plan:
                # No forwarding-relevant fields: the program is the flow.
                append(crc(defs))
            elif plan[0].__class__ is int:
                append(crc(locations[plan[0] : plan[1]]))
            else:
                parts = [_field_bytes(locations, entry) for entry in plan]
                append(crc(b"".join(parts)))
        return keys

    def shards_of(
        self, packets: Sequence[Union[DipPacket, bytes, bytearray]]
    ) -> List[int]:
        """Shard assignments for a whole batch, in packet order."""
        num_shards = self.num_shards
        if num_shards == 1:
            return [0] * len(packets)  # nothing to steer: no hash at all
        return [key % num_shards for key in self._key_ints(packets)]

    def key_of(self, packet: Union[DipPacket, bytes, bytearray]) -> bytes:
        """The packet's 4-byte flow key (equal for equal flows)."""
        return self._key_ints((packet,))[0].to_bytes(4, "big")
