"""Benchmark workload generation and reporting."""

from repro.workloads.generators import (
    ProtocolWorkload,
    make_dip_ipv4_workload,
    make_dip_ipv6_workload,
    make_native_ipv4_workload,
    make_native_ipv6_workload,
    make_ndn_interest_workload,
    make_ndn_opt_workload,
    make_opt_workload,
    make_xia_workload,
)
from repro.workloads.reporting import format_table

__all__ = [
    "ProtocolWorkload",
    "make_native_ipv4_workload",
    "make_native_ipv6_workload",
    "make_dip_ipv4_workload",
    "make_dip_ipv6_workload",
    "make_ndn_interest_workload",
    "make_opt_workload",
    "make_ndn_opt_workload",
    "make_xia_workload",
    "format_table",
]
