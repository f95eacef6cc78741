"""Packet Header Vector (PHV).

In PISA hardware the parser deposits header fields into a fixed budget
of PHV containers that the match-action stages then read.  We model the
PHV as named containers under a running bit budget; the DIP parse
graph allocates one per extracted field, reading each value from
exactly its container's width.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.errors import DataplaneError


@dataclass
class PacketHeaderVector:
    """The parsed representation a pipeline operates on.

    Parameters
    ----------
    bit_budget:
        Total PHV bits available (Tofino-like budget); allocating past
        it raises :class:`DataplaneError`.
    """

    bit_budget: int = 4096
    _values: Dict[str, int] = field(default_factory=dict)
    # Running total of allocated widths: the budget check is O(1).
    _used_bits: int = 0

    def allocate(self, name: str, width: int, value: int) -> None:
        """Create a container; parsing allocates one per extracted field."""
        if name in self._values:
            raise DataplaneError(f"PHV field {name!r} already allocated")
        used = self._used_bits + width
        if used > self.bit_budget:
            raise DataplaneError(
                f"PHV budget exhausted: {self._used_bits} + {width} > {self.bit_budget}"
            )
        self._values[name] = value
        self._used_bits = used

    def get(self, name: str) -> int:
        """Read a container's value."""
        try:
            return self._values[name]
        except KeyError:
            raise DataplaneError(f"PHV field {name!r} not allocated") from None
