"""Every ``src/`` definition has a reader outside the tests.

A definition (a top-level function or class, or a method of a top-level
class) is read when its name appears as a name or an attribute in
``src/``, ``examples/`` or ``bench/`` (not ``bench/tests``) outside its
own body.  Imports, ``__all__`` strings, docstrings and comments are not
names, so they do not count.  The scan is a heuristic: a common name can
hide a dead definition, and a name the runtime calls for us has no
reader.  ``ALLOWED`` names each survivor with its reason.
"""

import ast
from collections import Counter
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_ITEM_9 = "ROADMAP item 9: a native oracle per composition reads it or deletes it"
_HOOK = "invalidation hook the invalidation properties drive"
ALLOWED = {
    "repro.serve.client._ClientProtocol.connection_made": "asyncio callback",
    "repro.serve.client._ClientProtocol.datagram_received": "asyncio callback",
    "repro.fabric.pcap.read_pcap": "reads back what `repro fabric --pcap-out` writes",
    "repro.telemetry.export.read_trace_jsonl": "reads back the JSONL traces bench writes",
    "repro.core.state.NodeState.bump_generation": _HOOK,
    "repro.core.state.NodeState.add_local_v4": _HOOK,
    "repro.core.state.NodeState.add_local_v6": _HOOK,
    "repro.core.processor.RouterProcessor.invalidate_program_cache": _HOOK,
    "repro.protocols.ndn.forwarder.NdnForwarder": _ITEM_9,
    "repro.protocols.ndn.forwarder.NdnForwarder.on_interest": _ITEM_9,
    "repro.protocols.ndn.forwarder.NdnForwarder.on_data": _ITEM_9,
    "repro.protocols.ndn.forwarder.serve_interest": _ITEM_9,
    "repro.protocols.xia.router.XiaRouter": _ITEM_9,
    "repro.protocols.opt.router.process_hop_at_router": _ITEM_9,
    "repro.protocols.ip.router.IpRouter.next_hop_v4": _ITEM_9,
    "repro.protocols.ip.router.IpRouter.next_hop_v6": _ITEM_9,
    "repro.realize.opt.build_routed_opt_packet": _ITEM_9,
    "repro.realize.epic.build_routed_epic_packet": _ITEM_9,
}


def _reads(node):
    """Every name and attribute read under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def _definitions(module, tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{node.name}", node
        if isinstance(node, ast.ClassDef):
            for child in node.body:
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{module}.{node.name}.{child.name}", child


@lru_cache(maxsize=None)
def unread_definitions():
    """Qualified names of the ``src/`` definitions nothing outside tests reads."""
    reads = Counter()
    definitions = []
    for top in ("src", "examples", "bench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts[1:]:
                continue
            tree = ast.parse(path.read_text())
            reads.update(_reads(tree))
            if top == "src":
                module = ".".join(path.relative_to(ROOT / top).with_suffix("").parts)
                definitions += _definitions(module, tree)
    return tuple(
        qualname.removesuffix(".__init__")
        for qualname, node in definitions
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and reads[node.name] == sum(1 for name in _reads(node) if name == node.name)
    )


def test_every_src_definition_has_a_non_test_reader():
    assert sorted(set(unread_definitions()) - set(ALLOWED)) == []


def test_every_allowlist_entry_is_still_unread():
    assert sorted(set(ALLOWED) - set(unread_definitions())) == []
