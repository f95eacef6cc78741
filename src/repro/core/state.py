"""Per-node protocol state that FN operations act on.

A DIP node pre-installs operation modules (Section 4.1: "we pre-write
the required operation modules on the data plane"); those modules need
backing state -- FIBs, a PIT, key material, routing tables.
:class:`NodeState` bundles it for one node, and is deliberately a plain
container: each operation module documents which slots it uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.core.limits import ProcessingLimits
from repro.crypto.keys import RouterKey
from repro.protocols.ip.fib import LpmTable
from repro.protocols.ndn.cs import ContentStore
from repro.protocols.ndn.fib import NameFib
from repro.protocols.ndn.pit import Pit
from repro.protocols.xia.routing import XiaRouteTable


@dataclass
class TelemetryRecord:
    """One in-band telemetry observation (the F_tel extension)."""

    node_id: str
    ingress_port: int
    timestamp: float
    note: str = ""


@dataclass
class NodeState:
    """All state one DIP node exposes to its operation modules.

    Parameters
    ----------
    node_id:
        Stable identifier (also seeds the router's local secret).
    mac_backend:
        ``"2em"`` (the paper's choice) or ``"aes"`` for F_MAC.
    """

    node_id: str = "node"
    mac_backend: str = "2em"
    # Static egress used when no FN fixes a forwarding decision (models
    # the paper's single-hop testbed port configuration; OPT alone
    # carries no forwarding FN and rides the underlying path).
    default_port: Optional[int] = None

    # -- address forwarding (F_32_match / F_128_match) ------------------
    fib_v4: LpmTable = field(default_factory=lambda: LpmTable(32))
    fib_v6: LpmTable = field(default_factory=lambda: LpmTable(128))
    local_v4: Set[int] = field(default_factory=set)
    local_v6: Set[int] = field(default_factory=set)

    # -- content forwarding (F_FIB / F_PIT) ------------------------------
    # The prototype mode does LPM over 32-bit name digests (Section 4.1).
    name_fib_digest: LpmTable = field(default_factory=lambda: LpmTable(32))
    name_fib: NameFib = field(default_factory=NameFib)
    pit: Pit = field(default_factory=Pit)
    content_store: ContentStore = field(default_factory=lambda: ContentStore(0))
    local_digests: Set[int] = field(default_factory=set)

    # -- OPT (F_parm / F_MAC / F_mark / F_ver) ---------------------------
    router_key: RouterKey = field(default=None)  # type: ignore[assignment]
    # The router's OPV slot per session (installed at session setup).
    opt_positions: Dict[bytes, int] = field(default_factory=dict)
    # Ingress port -> upstream neighbour id (previous validator label).
    neighbor_labels: Dict[int, str] = field(default_factory=dict)
    # Host side: full session objects for verification.
    opt_sessions: Dict[bytes, object] = field(default_factory=dict)

    # -- XIA (F_DAG / F_intent) ------------------------------------------
    xia_table: XiaRouteTable = field(default_factory=XiaRouteTable)

    # -- security / extensions -------------------------------------------
    # F_pass: labels this AS accepts, label -> verification key.
    passport_keys: Dict[bytes, bytes] = field(default_factory=dict)
    passport_enabled: bool = False
    telemetry: List[TelemetryRecord] = field(default_factory=list)

    # -- NetFence-style congestion policing (F_cong / F_police) -----------
    # Congestion level this router currently reports; None means the
    # marking module is not deployed here.
    local_congestion: Optional[object] = None
    # AIMD policer; set only at access routers.
    policer: Optional[object] = None
    # Domain-shared key protecting congestion tags (provisioned by the
    # operator; defaults derive from the node id domain in __post_init__).
    netfence_domain_key: bytes = b""

    # -- dynamic packet state (F_dps) --------------------------------------
    # CSFQ core module; set only at participating core routers.
    csfq: Optional[object] = None

    # -- resource protection (Section 2.4) --------------------------------
    limits: ProcessingLimits = field(default_factory=ProcessingLimits)

    # -- cache invalidation ----------------------------------------------
    # Bumped (via bump_generation) whenever decision-relevant state that
    # carries no generation counter of its own changes -- the locality
    # sets, a swapped-in FIB, a new default port.  The flow decision
    # cache folds this into its invalidation token together with the
    # FIB/registry generations; the convenience installers below bump it
    # automatically, direct slot mutation should call bump_generation().
    generation: int = 0

    def __post_init__(self) -> None:
        if self.router_key is None:
            self.router_key = RouterKey(self.node_id)
        if self.mac_backend not in ("2em", "aes"):
            raise ValueError(f"unknown MAC backend {self.mac_backend!r}")
        if not self.netfence_domain_key:
            from repro.crypto.keys import secret_from_seed

            self.netfence_domain_key = secret_from_seed("netfence-domain")

    # ------------------------------------------------------------------
    # convenience installers
    # ------------------------------------------------------------------
    def bump_generation(self) -> None:
        """Invalidate flow-decision caches after a direct state mutation."""
        self.generation += 1

    def add_local_v4(self, address: int) -> None:
        """Declare an IPv4 address as locally owned (delivery target)."""
        self.local_v4.add(address)
        self.generation += 1

    def add_local_v6(self, address: int) -> None:
        """Declare an IPv6 address as locally owned."""
        self.local_v6.add(address)
        self.generation += 1

    def neighbor_label(self, port: int) -> Optional[str]:
        """Upstream neighbour id for an ingress port, when known."""
        return self.neighbor_labels.get(port)
