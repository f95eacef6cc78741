"""Protocol realization using DIP (Section 3 of the paper).

Each module builds the DIP headers that realize one L3 protocol as a
composition of FNs:

- :mod:`repro.realize.ip` -- canonical IPv4/IPv6 forwarding;
- :mod:`repro.realize.ndn` -- NDN interest/data forwarding;
- :mod:`repro.realize.opt` -- OPT source and path validation;
- :mod:`repro.realize.derived` -- NDN+OPT, the derived secure content
  delivery protocol;
- :mod:`repro.realize.xia` -- XIA DAG forwarding;
- :mod:`repro.realize.extensions` -- telemetry / passport add-ons.
"""

from repro.realize.derived import (
    build_ndn_opt_data,
    build_ndn_opt_interest,
)
from repro.realize.ip import build_ipv4_packet, build_ipv6_packet
from repro.realize.ndn import build_data_packet, build_interest_packet
from repro.realize.opt import build_opt_packet
from repro.realize.xia import build_xia_packet

__all__ = [
    "build_ipv4_packet",
    "build_ipv6_packet",
    "build_interest_packet",
    "build_data_packet",
    "build_opt_packet",
    "build_ndn_opt_interest",
    "build_ndn_opt_data",
    "build_xia_packet",
]
