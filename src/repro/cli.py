"""Command-line interface: packet dissection and the paper's experiments.

Usage::

    python -m repro decode 00010240...        # dissect a DIP packet
    python -m repro lint 00010240...          # lint its FN composition
    python -m repro paper [ID ...] [--out DIR]  # Figure 2, Table 2, ablations
    python -m repro keys                      # known operation keys
    python -m repro engine --metrics-out m.prom --trace-out t.jsonl
    python -m repro stats [--json]            # telemetry snapshot
    python -m repro conformance [--fuzz N]    # reference vs every executor
    python -m repro serve --max-packets N     # the serving daemon
    python -m repro topology [--describe]     # generated multi-AS internet
    python -m repro fabric --processes 2 --compare   # co-simulation spine

Each subcommand is one :class:`Command` row in :data:`COMMANDS`; ``main``
builds the parser from the rows and dispatches by table lookup.  A row
backed by a config dataclass (``engine``/``stats`` -> ``EngineConfig``,
``serve`` -> ``ServeConfig``, ``topology`` -> ``NetworkSpec``,
``fabric`` -> ``GoldenSpec``) gets one flag per exposed field, typed and
defaulted from the row's default instance, and its runner receives
``args.config``.  A :class:`~repro.errors.ReproError` from any runner
prints ``error: ...`` and exits 2.

``decode`` accepts hex (with or without spaces); it prints the basic
header, every FN triple, a locations hexdump, and -- when the FN keys
identify an embedded protocol header (OPT, EPIC, XIA) -- a decoded view
of that too.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, dataclass, field, replace
from importlib import import_module
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple
from typing import get_args, get_type_hints

from repro.core.fn import OperationKey
from repro.core.packet import DipPacket
from repro.errors import ReproError
from repro.util.bytesutil import hexdump


def _key_name(key: int) -> str:
    try:
        return OperationKey(key).name
    except ValueError:
        return f"key-{key}"


def _wire(hex_words: List[str]) -> bytes:
    """Packet bytes from hex words (spaces and colons allowed)."""
    return bytes.fromhex("".join(hex_words).replace(" ", "").replace(":", ""))


def _decode_embedded(packet: DipPacket, out) -> None:
    from repro.protocols.epic.header import EpicHeader
    from repro.protocols.opt.header import OptHeader
    from repro.protocols.xia.router import XiaHeader

    fns = packet.header.fns
    keys = {fn.key for fn in fns}
    locations = packet.header.locations
    try:
        # OPT and EPIC headers start at their key's first field.
        for key, decoder, name, label, attr in (
            (OperationKey.MAC, OptHeader, "OPT", "ts", "timestamp"),
            (OperationKey.EPIC, EpicHeader, "EPIC", "ctr", "counter"),
        ):
            if key in keys:
                base = min(fn.field_loc for fn in fns if fn.key == key)
                header = decoder.decode(locations[base // 8 :])
                out.write(
                    f"  embedded {name} header: session "
                    f"{header.session_id.hex()[:16]}.., "
                    f"{label} {getattr(header, attr)}, "
                    f"{header.hop_count} hop(s)\n"
                )
        if OperationKey.DAG in keys:
            header = XiaHeader.decode(locations)
            out.write(
                f"  embedded XIA header: {len(header.dag.nodes)} DAG "
                f"node(s), intent {header.dag.intent}, "
                f"pointer {header.last_visited}\n"
            )
    except ReproError as exc:
        out.write(f"  (embedded header did not decode: {exc})\n")


def cmd_decode(args, out) -> int:
    try:
        raw = _wire(args.hex)
    except ValueError:
        out.write("error: input is not valid hex\n")
        return 2
    try:
        packet = DipPacket.decode(raw)
    except ReproError as exc:
        out.write(f"error: not a DIP packet: {exc}\n")
        return 1
    header = packet.header
    out.write(
        f"DIP packet: {packet.size} bytes total, "
        f"{header.header_length}-byte header, "
        f"{len(packet.payload)}-byte payload\n"
    )
    out.write(
        f"  basic header: next-header {header.next_header:#06x}, "
        f"FN num {header.fn_num}, hop limit {header.hop_limit}, "
        f"parallel {'yes' if header.parallel else 'no'}, "
        f"locations {header.loc_len} B\n"
    )
    for index, fn in enumerate(header.fns):
        role = "host" if fn.tag else "router"
        out.write(
            f"  FN[{index}]: {_key_name(fn.key)} ({role}) "
            f"loc {fn.field_loc} len {fn.field_len}\n"
        )
    if header.locations:
        out.write("  FN locations:\n")
        for line in hexdump(header.locations).splitlines():
            out.write(f"    {line}\n")
    _decode_embedded(packet, out)
    return 0


def cmd_lint(args, out) -> int:
    """Lint a packet's FN program; exit 1 on errors, 0 otherwise."""
    from repro.core.composer import Severity, lint_program

    try:
        packet = DipPacket.decode(_wire(args.hex))
    except (ValueError, ReproError) as exc:
        out.write(f"error: not a DIP packet: {exc}\n")
        return 2
    diagnostics = lint_program(packet.header)
    if not diagnostics:
        out.write("clean: no findings\n")
        return 0
    for diagnostic in diagnostics:
        out.write(f"{diagnostic}\n")
    has_errors = any(d.severity is Severity.ERROR for d in diagnostics)
    return 1 if has_errors else 0


def cmd_paper(args, out) -> int:
    """``repro paper``: every paper table as a self-checking experiment."""
    from repro.workloads.paper import EXPERIMENTS, reproduce

    unknown = sorted(set(args.ids) - set(EXPERIMENTS))
    if unknown:
        out.write(
            f"paper: unknown experiments: {unknown} "
            f"(known: {list(EXPERIMENTS)})\n"
        )
        return 2
    ids = args.ids or list(EXPERIMENTS)
    return 0 if reproduce(ids, out, out_dir=args.out) else 1


def cmd_keys(args, out) -> int:
    from repro.core.registry import default_registry

    registry = default_registry()
    for key in sorted(registry.supported_keys()):
        operation = registry.get(key)
        out.write(f"  {key:>3}  {operation.name}\n")
    return 0


def _build_engine(args, telemetry: bool):
    """Shared engine construction for ``engine`` and ``stats``.

    Returns ``(engine, packets)``; a bad fault plan raises ReproError.
    """
    from repro.engine import ForwardingEngine
    from repro.resilience import FaultPlan
    from repro.workloads.throughput import (
        dip32_state_factory,
        make_engine_packets,
        make_zipf_engine_packets,
    )

    fault_plan = None
    if args.fault_plan:
        try:
            with open(args.fault_plan, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ReproError(f"cannot read fault plan: {exc}") from exc
        try:
            fault_plan = FaultPlan.from_json(text)
        except ReproError as exc:
            raise ReproError(f"bad fault plan: {exc}") from exc
    config = replace(args.config, telemetry=telemetry, fault_plan=fault_plan)
    make = make_zipf_engine_packets if args.zipf else make_engine_packets
    packets = make(packet_size=args.packet_size, packet_count=args.packets)
    return ForwardingEngine(dip32_state_factory, config=config), packets


def cmd_engine(args, out) -> int:
    """Run the sharded forwarding engine over a DIP-32 batch."""
    from repro.telemetry.export import write_prometheus, write_trace_jsonl
    from repro.workloads.reporting import emit_payload, format_table

    # Either export flag implies telemetry; the run itself is otherwise
    # identical (tests/engine/test_telemetry_equivalence.py).
    telemetry = bool(args.metrics_out or args.trace_out)
    engine, packets = _build_engine(args, telemetry)
    report = engine.run(packets)
    config = args.config

    def render() -> None:
        out.write(
            f"engine: {report.packets_processed}/{report.packets_offered} "
            f"packets in {report.wall_seconds:.3f}s = "
            f"{report.pkts_per_second:,.0f} pkts/s "
            f"({config.backend}, {config.num_shards} shard(s))\n"
        )
        decisions = ", ".join(
            f"{name} {count}"
            for name, count in sorted(report.decisions.items())
        )
        out.write(f"  decisions: {decisions or 'none'}\n")
        out.write(
            f"  batch latency: p50 {report.batch_latency_p50 * 1e6:.0f}us, "
            f"p99 {report.batch_latency_p99 * 1e6:.0f}us\n"
        )
        if any((report.worker_restarts, report.retries, report.degraded,
                report.faults_injected, report.dead_letter_total)):
            out.write(
                f"  resilience: {report.worker_restarts} restart(s), "
                f"{report.retries} retried batch(es), "
                f"{report.degraded} degraded, "
                f"{report.faults_injected} fault(s) injected, "
                f"{report.dead_letter_total} dead-lettered\n"
            )
        rows = [
            [shard.shard_id, shard.packets, shard.batches,
             f"{shard.utilization * 100:.1f}%", ring.high_watermark,
             ring.dropped]
            for shard, ring in zip(report.shards, report.rings)
        ]
        table = format_table(
            ["shard", "packets", "batches", "util", "ring hwm", "drops"], rows
        )
        for line in table.splitlines():
            out.write(f"  {line}\n")
        if report.flow_cache is not None:
            stats = report.flow_cache
            cache_rows = [
                [name, getattr(stats, name)]
                for name in ("hits", "misses", "bypasses", "evictions",
                             "invalidations", "size", "capacity")
            ]
            out.write("  flow cache:\n")
            cache_table = format_table(["counter", "value"], cache_rows)
            for line in cache_table.splitlines():
                out.write(f"    {line}\n")

    emit_payload(args.json, report.to_dict, render, out=out)
    if args.metrics_out:
        path = write_prometheus(engine.metrics.snapshot(), args.metrics_out)
        out.write(f"  metrics written to {path}\n")
    if args.trace_out:
        path = write_trace_jsonl(engine.tracer.spans, args.trace_out)
        out.write(f"  trace written to {path} ({len(engine.tracer)} spans)\n")
    return 0


def cmd_stats(args, out) -> int:
    """Run the engine with telemetry on and print the unified snapshot."""
    from repro.telemetry.export import snapshot_rows, snapshot_to_json
    from repro.workloads.reporting import emit_payload, format_table

    engine, packets = _build_engine(args, telemetry=True)
    engine.run(packets)
    # The live registry already folds in the run report (engine
    # counters, batch-latency histogram, processor and flow-cache
    # metrics), so its snapshot is the complete view.
    snapshot = engine.metrics.snapshot()

    def render() -> None:
        out.write("\n== engine telemetry ==\n")
        rows = snapshot_rows(snapshot)
        out.write(format_table(["metric", "type", "value"], rows) + "\n")

    emit_payload(args.json, lambda: snapshot_to_json(snapshot), render, out=out)
    return 0


def cmd_conformance(args, out) -> int:
    """Differential conformance: corpus replay and/or seeded fuzzing.

    Exit code 0 means every executor agreed with the reference
    interpreter on every compared packet; 1 means divergences (the
    report, plus shrunk repros, goes to ``--json``).
    """
    from pathlib import Path

    from repro.conformance import (
        DivergenceReport, load_corpus, replay_corpus, run_fuzz, save_corpus,
    )
    from repro.conformance.corpus import REGRESSION_GROUP, build_golden_corpus
    from repro.conformance.executors import executors_by_name
    from repro.dataplane.costs import CycleCostModel
    from repro.workloads.reporting import emit_payload

    cost_model = None if args.no_cost_model else CycleCostModel()
    names = args.executors.split(",") if args.executors else None
    try:
        executors = executors_by_name(names) if names else None
    except ValueError as exc:
        out.write(f"conformance: {exc}\n")
        return 2
    scenarios = args.scenarios.split(",") if args.scenarios else None
    lines: List[str] = []

    if args.record:
        # Regenerate the golden groups; regression vectors (appended
        # when fuzzer finds are fixed) are preserved, never rebuilt.
        vectors = build_golden_corpus(seed=args.seed)
        if Path(args.record).is_dir():
            vectors.extend(
                v for v in load_corpus(args.record) if v.group == REGRESSION_GROUP
            )
        paths = save_corpus(vectors, args.record)
        lines.append(
            f"conformance: recorded {len(vectors)} vectors into "
            f"{len(paths)} files under {args.record}"
        )

    report = DivergenceReport()
    corpus_dir = args.corpus or args.record
    if corpus_dir is None and args.fuzz == 0:
        default_dir = Path("tests/conformance/corpus")
        if default_dir.is_dir():
            corpus_dir = str(default_dir)
        else:
            out.write(
                "conformance: nothing to do (no --corpus, no --fuzz, and "
                "no tests/conformance/corpus here)\n"
            )
            return 2
    if corpus_dir is not None:
        vectors = load_corpus(corpus_dir)
        if not vectors:
            out.write(f"conformance: no vectors under {corpus_dir}\n")
            return 2
        replay = replay_corpus(vectors, executors, cost_model)
        lines.append(f"corpus replay ({len(vectors)} vectors): {replay.summary()}")
        report.merge(replay)
    if args.fuzz > 0:
        fuzz = run_fuzz(
            args.fuzz,
            seed=args.seed,
            scenarios=scenarios,
            executors=names,
            cost_model=cost_model,
            shrink=not args.no_shrink,
            max_seconds=args.max_seconds,
        )
        lines.append(f"fuzz (seed {args.seed}): {fuzz.summary()}")
        report.merge(fuzz)

    def render() -> None:
        for line in lines:
            out.write(line + "\n")
        for divergence in report.divergences[:20]:
            out.write(
                f"  DIVERGENCE {divergence.scenario}/{divergence.executor} "
                f"packet {divergence.index} [{divergence.aspect}]"
                + (f" vector {divergence.vector}" if divergence.vector else "")
                + f"\n    expected: {divergence.expected}"
                f"\n    got:      {divergence.got}\n"
            )
        if len(report.divergences) > 20:
            out.write(
                f"  ... {len(report.divergences) - 20} more divergences\n"
            )
        for repro in report.repros:
            out.write(
                f"  shrunk repro [{repro['scenario']}] "
                f"{','.join(repro['executors'])}: "
                f"{' '.join(repro['wires'])}\n"
            )

    emit_payload(args.json, report.to_dict, render, out=out)
    return 0 if report.ok else 1


def cmd_serve(args, out) -> int:
    """``repro serve``: the long-lived serving daemon (DESIGN.md 3.11)."""
    from repro.serve.daemon import run_daemon

    summary = run_daemon(args.config, json_out=args.json, out=out)
    return 0 if summary["unaccounted"] == 0 else 1


def cmd_topology(args, out) -> int:
    """``repro topology``: internet-scale multi-AS graphs (DESIGN.md 3.13).

    Default mode generates and materializes the graph (nodes, links,
    tunnels, routes, host bootstrap) and prints a summary;
    ``--describe`` prints per-AS detail from the pure plan.  With no
    flags the graph is ``repro paper ADOPT``'s internet at 50% adoption;
    the adoption sweep over it is ``repro paper ADOPT``.
    """
    from repro.netsim.internet import InternetGenerator
    from repro.workloads.reporting import emit_payload, format_table

    generator = InternetGenerator(args.config)

    if args.describe:
        plan = generator.plan()

        def describe_payload():
            return {
                "summary": plan.summary(),
                "ases": plan.describe_rows(),
                "ixps": [
                    {"ix_id": ix.ix_id, "members": list(ix.members)}
                    for ix in plan.ixps
                ],
                "tunnels": [
                    {"spoke": t.spoke, "hub": t.hub, "via": list(t.via)}
                    for t in plan.tunnels
                ],
            }

        def render_describe() -> None:
            columns = ("as_id", "role", "mode", "profile", "degree", "hosts",
                       "prefix")
            rows = [[row[c] for c in columns] for row in plan.describe_rows()]
            table = format_table(["AS", *columns[1:]], rows)
            out.write(table + "\n")
            for ix in plan.ixps:
                out.write(
                    f"{ix.name}: {len(ix.members)} members "
                    f"({', '.join(f'AS{m}' for m in ix.members[:8])}"
                    f"{', ...' if len(ix.members) > 8 else ''})\n"
                )
            for tunnel in plan.tunnels:
                out.write(
                    f"tunnel AS{tunnel.spoke} -> AS{tunnel.hub} via "
                    f"{len(tunnel.via)} legacy AS(es)\n"
                )
            out.write(f"fingerprint: {plan.fingerprint()}\n")

        emit_payload(args.json, describe_payload, render_describe, out=out)
        return 0

    internet = generator.build()
    bootstrapped = internet.bootstrap_hosts()
    summary = internet.summary()
    summary["hosts_bootstrapped"] = bootstrapped

    def render_generate() -> None:
        rows = [[key, summary[key]] for key in summary]
        out.write(format_table(["property", "value"], rows) + "\n")

    emit_payload(args.json, lambda: summary, render_generate, out=out)
    return 0


def cmd_fabric(args, out) -> int:
    """``repro fabric``: virtual-time co-simulation spine (DESIGN.md 3.15).

    Runs the golden multi-AS scenario -- netsim stub islands around an
    engine-backed and a PISA-backed transit -- as fabric components,
    optionally across processes, and (with ``--compare``) checks the
    per-packet delivery records against the monolithic netsim twin.
    Exit code 1 means the twins diverged; the ``--json PATH`` artifact
    then carries the mismatching records for diagnosis.
    """
    import time

    from repro.fabric import golden_fabric, golden_netsim, golden_traffic, write_pcap
    from repro.telemetry.metrics import MetricsRegistry
    from repro.workloads.reporting import emit_payload, format_table

    spec = args.config
    if args.pcap_out:
        frames = ((s.time, s.packet().encode()) for s in golden_traffic(spec))
        written = write_pcap(args.pcap_out, frames)
        out.write(f"traffic written to {args.pcap_out} ({written} packets)\n")

    start = time.perf_counter()
    run = golden_fabric(
        spec, processes=args.processes, registry=MetricsRegistry(),
        scheduler_seed=args.scheduler_seed,
    )
    report = run.run()
    elapsed = time.perf_counter() - start

    payload = report.to_dict()
    payload["spec"] = asdict(spec)
    payload["wall_seconds"] = elapsed

    identical = None
    if args.compare:
        twin = golden_netsim(spec)
        identical = report.records == twin["records"]
        compare = {
            "identical": identical,
            "fabric_fingerprint": report.fingerprint,
            "twin_fingerprint": twin["fingerprint"],
        }
        if not identical:
            mismatches = [
                {"index": i, "fabric": list(ours), "twin": list(theirs)}
                for i, (ours, theirs) in enumerate(
                    zip(report.records, twin["records"])
                )
                if ours != theirs
            ]
            extra = len(report.records) - len(twin["records"])
            compare["record_count_delta"] = extra
            compare["mismatches"] = mismatches[:50]
            compare["mismatch_total"] = len(mismatches)
        payload["compare"] = compare

    def render() -> None:
        out.write(
            f"fabric: {len(report.records)}/{spec.packets} packets "
            f"delivered across {spec.ases} ASes in {elapsed:.2f}s "
            f"({report.processes} process(es), {report.rounds} rounds)\n"
        )
        rows = [
            [name, f"{report.clocks[name]:.4f}"]
            + [int(detail["counters"].get(counter, 0))
               for counter in ("delivered", "forwarded", "tx_errors")]
            for name, detail in sorted(report.components.items())
        ]
        table = format_table(
            ["component", "clock", "delivered", "forwarded", "tx err"], rows
        )
        for line in table.splitlines():
            out.write(f"  {line}\n")
        out.write(
            f"  fingerprint {report.fingerprint[:16]}.., "
            f"clock skew {report.clock_skew:.4f}s\n"
        )
        if identical is not None:
            verdict = "IDENTICAL" if identical else "DIVERGED"
            out.write(f"  vs in-process netsim twin: {verdict}\n")

    emit_payload(args.json, lambda: payload, render, out=out)
    return 1 if identical is False else 0


# ----------------------------------------------------------------------
# the rows
# ----------------------------------------------------------------------
Arg = Tuple[Tuple[str, ...], Dict[str, Any]]


def arg(*flags: str, **kwargs: Any) -> Arg:
    """One extra ``add_argument`` call, declared as data."""
    return flags, kwargs


def count(text: str) -> int:
    """A non-negative integer flag; argparse exits 2 on anything else."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _zero_is_none(parse: Callable[[str], Any]) -> Callable[[str], Any]:
    """An Optional knob that defaults to a value: 0 switches it off."""

    def convert(text: str) -> Any:
        return parse(text) or None

    convert.__name__ = parse.__name__
    return convert


#: Field flags whose name is not ``--`` plus the field name dashed;
#: kept because callers already spell them this way.
FLAG_ALIASES = {"num_shards": "--shards", "ix_count": "--ix"}


def flag_of(name: str) -> str:
    """The command-line flag of config field ``name``."""
    return FLAG_ALIASES.get(name, "--" + name.replace("_", "-"))


def _field_choices() -> Dict[str, Tuple[str, ...]]:
    """The per-field choice table, from the modules that validate them."""
    from repro.engine.engine import (
        BACKENDS, BACKPRESSURE_POLICIES, DEGRADE_POLICIES,
    )
    from repro.protocols.ndn.pit import PIT_EVICTION_POLICIES

    return {
        "backend": BACKENDS,
        "backpressure": BACKPRESSURE_POLICIES,
        "degrade": DEGRADE_POLICIES,
        "pit_eviction": PIT_EVICTION_POLICIES,
    }


@dataclass(frozen=True)
class Command:
    """One subcommand, declared: its flags, its config and its runner.

    ``defaults`` returns the config instance the row builds; every
    field named in ``fields`` (mapped to its help text) becomes a flag
    whose type and default come from that instance, so neither is
    stated here.  ``parse_args`` hands the runner ``args.config`` =
    ``replace(defaults(), **flags)``.  ``json`` is the help of the
    row's ``--json [PATH]``: bare prints JSON instead of the text,
    PATH writes it beside the text (``emit_payload``).
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace, Any], int]
    args: Tuple[Arg, ...] = ()
    json: Optional[str] = None
    defaults: Optional[Callable[[], Any]] = None
    fields: Mapping[str, Optional[str]] = field(default_factory=dict)

    def declare(self, parser: argparse.ArgumentParser) -> None:
        for flags, kwargs in self.args:
            parser.add_argument(*flags, **kwargs)
        if self.defaults is not None:
            self._declare_fields(parser, self.defaults())
        if self.json:
            parser.add_argument(
                "--json", nargs="?", const=True, metavar="PATH", help=self.json
            )

    def _declare_fields(self, parser, default) -> None:
        hints = get_type_hints(type(default))
        choices = _field_choices()
        for name, help_text in self.fields.items():
            kind = hints[name]
            value = getattr(default, name)
            options: Dict[str, Any] = {"dest": name, "default": value}
            inner = [t for t in get_args(kind) if t is not type(None)]
            if kind is bool:
                options["action"] = argparse.BooleanOptionalAction
            elif name in choices:
                options["choices"] = choices[name]
            else:
                parse = inner[0] if inner else kind
                options["type"] = (
                    _zero_is_none(parse) if inner and value is not None
                    else parse
                )
                options["metavar"] = flag_of(name)[2:].replace("-", "_").upper()
            parser.add_argument(flag_of(name), help=help_text, **options)

    def config(self, args: argparse.Namespace) -> Any:
        flags = {name: getattr(args, name) for name in self.fields}
        return replace(self.defaults(), **flags)


_HEX = arg("hex", nargs="+", help="packet bytes in hex")

_ENGINE_FIELDS: Dict[str, Optional[str]] = {
    "num_shards": None, "backend": None, "batch_size": None,
    "backpressure": None,
    "flow_cache": "put a flow-level decision cache in front of every shard",
    "flow_cache_capacity": None,
    "columnar": "run shard workers through the columnar batch specializer "
    "(numpy kernels; falls back to the scalar path when unavailable)",
    "shm": "use shared-memory rings for process-backend shard IPC (falls "
    "back to pipe payloads when unavailable)",
    "degrade": "graceful-degradation policy for limit/state/unsupported "
    "failures (default: surface them as error outcomes)",
    "max_retries": "batch retries after a worker death before dead-lettering",
    "worker_timeout": "seconds without a reply before a worker is declared "
    "dead",
}

_ENGINE_ARGS = (
    arg("--packets", type=count, default=2000),
    arg("--packet-size", type=int, default=128),
    arg("--zipf", action="store_true",
        help="Zipf-skewed flow popularity instead of uniform flows"),
    arg("--fault-plan", metavar="PATH",
        help="JSON FaultPlan of scripted faults to inject"),
)


def _engine_defaults():
    return import_module("repro.engine").EngineConfig()


COMMANDS: Dict[str, Command] = {row.name: row for row in (
    Command("decode", "dissect a DIP packet from hex", cmd_decode, (_HEX,)),
    Command("lint", "lint a DIP packet's FN composition", cmd_lint, (_HEX,)),
    Command(
        "paper",
        "run the paper's experiments and check their shapes (exit 1 if any "
        "FAILS)",
        cmd_paper,
        (
            arg("ids", nargs="*", metavar="ID",
                help="experiment ids (default: all)"),
            arg("--out", metavar="DIR",
                help="write DIR/<ID>.txt per table and DIR/paper.json"),
        ),
    ),
    Command("keys", "list the installed operation keys", cmd_keys),
    Command(
        "engine", "run the sharded forwarding engine on DIP-32", cmd_engine,
        _ENGINE_ARGS + (
            arg("--metrics-out", metavar="PATH", help="write a Prometheus "
                "text-format dump (enables telemetry)"),
            arg("--trace-out", metavar="PATH",
                help="write stage spans as JSONL (enables telemetry)"),
        ),
        json="print the engine report as JSON instead of text",
        defaults=_engine_defaults, fields=_ENGINE_FIELDS,
    ),
    Command(
        "stats",
        "run the engine with telemetry on; print the metrics snapshot",
        cmd_stats, _ENGINE_ARGS,
        json="print the snapshot as JSON instead of a table",
        defaults=_engine_defaults, fields=_ENGINE_FIELDS,
    ),
    Command(
        "serve",
        "run the long-lived asyncio serving daemon (UDP ingress + /metrics "
        "/healthz /reconfig control plane)",
        cmd_serve,
        json="print the final conservation ledger as JSON",
        defaults=lambda: import_module("repro.serve.config").ServeConfig(),
        fields={
            "host": None, "port": None, "metrics_port": None, "shards": None,
            "backend": None,
            "batch_max": "size-based flush trigger (packets per engine batch)",
            "batch_timeout_ms": "time-based flush trigger after the first "
            "pending packet",
            "max_inflight": "admission bound; arrivals past it are shed with "
            "accounting",
            "cs_capacity": "content-store entries per shard (0 disables "
            "caching)",
            "cs_ttl": "content-store entry lifetime in seconds (0 = no TTL)",
            "pit_capacity": "PIT entries per shard (0 = unbounded)",
            "pit_eviction": None,
            "flow_cache": "flow-level decision cache in front of every shard",
            "content_count": None, "seed": None,
            "mitigation": "attack-mitigation gate in front of the ingress "
            "queue (token-bucket rate limiting, F_pass sampling, circuit "
            "breaker)",
            "max_seconds": "stop after this many seconds (default: run until "
            "signalled)",
            "max_packets": "stop after receiving this many datagrams",
        },
    ),
    Command(
        "topology",
        "generate internet-scale multi-AS graphs (generate / --describe)",
        cmd_topology,
        (arg("--describe", action="store_true",
             help="print per-AS detail, IXPs and planned tunnels"),),
        json="print the summary/detail payload as JSON",
        defaults=lambda: import_module("repro.workloads.adoption").SPEC,
        fields={
            "seed": None, "transit": "tier-1 transit ASes",
            "regional": "mid-tier provider ASes",
            "stub": "edge ASes with hosts",
            "ix_count": "internet exchange points",
            "adoption": "DIP adoption fraction", "hosts_per_stub": None,
            "multihome": "providers per stub AS",
        },
    ),
    Command(
        "fabric",
        "run the golden multi-AS scenario over the virtual-time "
        "co-simulation fabric; --compare checks it against the monolithic "
        "netsim twin",
        cmd_fabric,
        (
            arg("--processes", type=int, default=1, help="worker processes "
                "for component placement (1 = in-process)"),
            arg("--scheduler-seed", type=int, default=None,
                help="shuffle component stepping order with this seed "
                "(results must not change; in-process only: exits 2 with "
                "--processes > 1)"),
            arg("--compare", action="store_true", help="also run the "
                "monolithic netsim twin; exit 1 on divergence"),
            arg("--pcap-out", metavar="PATH",
                help="write the generated traffic schedule as a pcap"),
        ),
        json="print the run report as JSON (or write it to PATH)",
        defaults=lambda: import_module("repro.fabric").GoldenSpec(
            packets=1000
        ),
        fields={
            "seed": None, "ases": None, "hosts_per_as": None, "packets": None,
            "spacing": "virtual seconds between injected packets",
            "latency": "inter-component channel latency (the lookahead)",
            "intra_latency": "link delay inside each stub island",
            "cycle_time": "seconds per PISA pipeline cycle (service latency)",
        },
    ),
    Command(
        "conformance",
        "differential conformance: reference interpreter vs every optimized "
        "executor (corpus replay + seeded fuzz)",
        cmd_conformance,
        (
            arg("--fuzz", type=count, default=0, metavar="N", help="fuzz N "
                "packets across the scenario rotation (0 = off)"),
            arg("--seed", type=int, default=0, help="fuzz/corpus seed"),
            arg("--corpus", metavar="DIR", help="replay every vector in this "
                "corpus directory (default: tests/conformance/corpus when "
                "present and not fuzzing)"),
            arg("--record", metavar="DIR", help="regenerate the golden "
                "corpus groups into DIR (regression vectors are preserved), "
                "then replay"),
            arg("--scenarios", metavar="A,B",
                help="comma-separated scenario subset (default: all)"),
            arg("--executors", metavar="A,B", help="comma-separated cell "
                "names, any of the full product (e.g. engine-process/packets;"
                " default: the tier-1 matrix, "
                "repro.conformance.DEFAULT_EXECUTORS)"),
            arg("--max-seconds", type=float, default=None,
                help="fuzz time budget; stops starting new cases past it"),
            arg("--no-cost-model", action="store_true", help="skip the cycle "
                "model (disables cycle-count comparisons)"),
            arg("--no-shrink", action="store_true",
                help="report diverging cases without minimizing them"),
        ),
        json="write the structured DivergenceReport to PATH (bare: print it "
        "as JSON instead of the text)",
    ),
)}


def parse_args(argv: List[str]) -> argparse.Namespace:
    """Parse ``argv`` against the rows; config rows also get ``args.config``."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DIP (HotNets '22) reproduction tools",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS.values():
        subparser = sub.add_parser(command.name, help=command.help)
        # Only the invoked row declares its flags, so one subcommand
        # never imports another's config module (engine, netsim, fabric).
        if argv[:1] == [command.name]:
            command.declare(subparser)
    args = parser.parse_args(argv)
    command = COMMANDS[args.command]
    if command.defaults is not None:
        args.config = command.config(args)
    return args


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """CLI entry point; returns the exit code."""
    out = out if out is not None else sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
        return COMMANDS[args.command].run(args, out)
    except ReproError as exc:
        out.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
