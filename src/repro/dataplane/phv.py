"""Packet Header Vector (PHV).

In PISA hardware the parser deposits header fields into a fixed budget
of PHV containers that the match-action stages then read and write.  We
model the PHV as named bit-width-checked fields plus the standard
intrinsic metadata (ingress port, egress spec, drop flag).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Tuple

from repro.errors import DataplaneError


def _check_fits(value: int, width: int) -> None:
    if not 0 <= value < (1 << width):
        raise DataplaneError(
            f"value {value:#x} does not fit in a {width}-bit container"
        )


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
    ingress_port: int = 0
    egress_spec: int = -1
    drop: bool = False
    # The containers: name -> bit width, and name -> value.
    _widths: Dict[str, int] = field(default_factory=dict)
    _values: Dict[str, int] = field(default_factory=dict)
    # Running total of allocated widths: the budget check is O(1), not
    # a re-sum of every container per allocation.
    _used_bits: int = 0

    def allocate(self, name: str, width: int, value: int = 0) -> None:
        """Create a container; parsing allocates one per extracted field."""
        if name in self._widths:
            raise DataplaneError(f"PHV field {name!r} already allocated")
        used = self._used_bits
        if used + width > self.bit_budget:
            raise DataplaneError(
                f"PHV budget exhausted: {used} + {width} > {self.bit_budget}"
            )
        _check_fits(value, width)
        self._widths[name] = width
        self._values[name] = value
        self._used_bits = used + width

    def has(self, name: str) -> bool:
        """True when the field was parsed/allocated."""
        return name in self._values

    def get(self, name: str) -> int:
        """Read a container's value."""
        try:
            return self._values[name]
        except KeyError:
            raise DataplaneError(f"PHV field {name!r} not allocated") from None

    def set(self, name: str, value: int) -> None:
        """Write a container's value (width-checked)."""
        _check_fits(value, self.width(name))
        self._values[name] = value

    def width(self, name: str) -> int:
        """A container's bit width."""
        try:
            return self._widths[name]
        except KeyError:
            raise DataplaneError(f"PHV field {name!r} not allocated") from None

    def fields(self) -> Iterator[Tuple[str, int, int]]:
        """Yield ``(name, width, value)`` for every container."""
        values = self._values
        for name, width in self._widths.items():
            yield name, width, values[name]

    @property
    def used_bits(self) -> int:
        """Total bits currently allocated."""
        return self._used_bits
