"""The DIP parse graph (Section 4.1).

PISA parsers are state machines: each state extracts fields into the
PHV and selects the next state from an extracted value.  This is the
"dynamic packet header parsing" capability the paper leans on (Section
2.1).  Hardware has no loops, so the DIP graph is the basic-header
state followed by the FN-triple state unrolled a fixed number of
times, and ``fn_num`` selects how many of the unrolled states fire --
exactly the Section 4.1 compromise.  P4 likewise compiles the parser
from the program instead of keeping a general state machine beside it.
"""

from __future__ import annotations

from typing import Optional

from repro.dataplane.phv import PacketHeaderVector

# (PHV field, bit width) pairs each state extracts, in wire order.
_BASIC = (("next_header", 16), ("fn_num", 8), ("hop_limit", 8), ("packet_param", 16))
_FN = (("fn_loc", 16), ("fn_len", 16), ("fn_key", 16))


class Parser:
    """The DIP parse graph unrolled ``max_fns`` times.

    State 0 extracts the basic header; state ``i + 1`` extracts FN
    triple ``i`` into ``fn_loc``/``fn_len``/``fn_key``, suffixed
    ``[i]`` after the first triple, and fires only while
    ``fn_num > i``.  Triples beyond the unroll are never extracted.
    """

    def __init__(self, max_fns: int) -> None:
        self.states = (_BASIC,) + tuple(
            tuple((name + (f"[{slot}]" if slot else ""), width) for name, width in _FN)
            for slot in range(max_fns)
        )

    def parse(self, packet: bytes) -> Optional[PacketHeaderVector]:
        """The PHV of ``packet``, or None when a state runs past its end.

        Every field is byte-aligned, so each extraction is a byte slice.
        """
        phv = PacketHeaderVector()
        offset = 0
        for index, extracts in enumerate(self.states):
            if index and phv.get("fn_num") < index:
                break
            for name, width in extracts:
                end = offset + width // 8
                if end > len(packet):
                    return None
                phv.allocate(name, width, int.from_bytes(packet[offset:end], "big"))
                offset = end
        return phv
