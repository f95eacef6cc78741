"""Software PISA-style programmable dataplane (Tofino substitute).

The paper's prototype runs on a Barefoot Tofino switch; this package is
the software stand-in (see DESIGN.md, substitutions):

- :mod:`repro.dataplane.phv` -- packet header vector containers;
- :mod:`repro.dataplane.parser` -- programmable parser (parse graph);
- :mod:`repro.dataplane.dip_pipeline` -- the one executor: the unrolled
  DIP parse, then one stage per router FN of the program it lowers
  through :class:`repro.core.program.ProgramCache`, within the
  ``MAX_STAGES`` budget and with a second pass for AES-backed MACs
  (Section 4.1);
- :mod:`repro.dataplane.costs` -- the deterministic cycle cost model
  behind the Figure 2 reproduction.

A live node is reprogrammed with
:class:`repro.core.registry.RegistryMutation`, the same mechanism the
engine and the serving daemon use.
"""

from repro.dataplane.costs import CycleCostModel
from repro.dataplane.dip_pipeline import DipPipeline, PipelineResult
from repro.dataplane.phv import PacketHeaderVector

__all__ = [
    "CycleCostModel",
    "DipPipeline",
    "PacketHeaderVector",
    "PipelineResult",
]
