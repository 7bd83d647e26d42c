"""Command-line interface for quick experiments.

The CLI is a thin layer over the declarative scenario API
(:mod:`repro.scenario`): the workload-driving subcommands build a
:class:`~repro.scenario.spec.ScenarioSpec` from their flags and stream it
through a :class:`~repro.scenario.session.Session`, so anything the CLI runs
can also be saved as a spec file (``--save-scenario``) and replayed,
reparameterized or handed to the conformance harness later.

``repro-mis run``
    Execute a serialized scenario file end-to-end (``--scenario spec.json``)
    on any registered engine/network backend and print the cost summary.
    ``--checkpoint-every N --checkpoint-path p.json`` writes a resumable
    JSON checkpoint every N changes (both runners -- protocol sessions
    checkpoint through the simulators' label-keyed snapshots);
    ``--resume-from p.json`` continues one, optionally on a different
    backend via ``--engine`` / ``--network``.

``repro-mis churn``
    Maintain an MIS (or matching / clustering) over a random change sequence
    on a chosen graph family and print the per-change cost summary.

``repro-mis protocol``
    Run one of the distributed protocols (Algorithm 2, the direct protocol or
    the asynchronous engine) on the same kind of workload and print the
    round / broadcast / adjustment metrics per change type.

``repro-mis lowerbound``
    Run the K_{k,k} deletion sequence against the deterministic baseline and
    the randomized algorithm (the paper's Omega(n) separation).

``repro-mis history``
    Check history independence on a random graph by replaying several
    different change histories.

``repro-mis bisect``
    Binary-search a scenario for the first change where two runs diverge --
    either two backends (``--networks a,b`` / ``--engines a,b``) or a
    checkpoint/resume round-trip (``--resume-at N``).  Every probe
    re-executes both runs from the spec.  ``--from-dump`` seeds the search
    from a divergence dump written by the conformance harness (the dump
    embeds the scenario spec).  Exits 1 when a divergence is found and 2 on
    an input error (unreadable spec or dump, batched workload, bad backend
    pair), so the command scripts cleanly.

``repro-mis families``
    List the available graph families.

``repro-mis serve``
    Run the sharded multi-session service daemon (:mod:`repro.service`):
    many concurrent sessions behind a JSON socket API, idle sessions
    evicted to spool checkpoints, SIGTERM drains every shard.

``repro-mis client``
    Talk to a running daemon: create/apply/query/checkpoint/close sessions,
    list them, read aggregate stats, or ask the daemon to shut down.

``repro-mis lint``
    Run the stdlib-``ast`` contract checkers (:mod:`repro.analysis.lint`):
    determinism hazards, checkpoint parity, registry discipline, wire
    protocol consistency.  Exits 1 on findings not
    in the committed ``lint-baseline.json``.

``repro-mis --list-engines`` / ``--list-networks`` / ``--list-sinks`` /
``--list-schedulers``
    Print the live backend, sink and scheduler registries with their
    capability flags.

Run ``repro-mis <command> --help`` for the options of each command.  The CLI
only prints plain-text tables (via :mod:`repro.analysis.reporting`), so its
output can be pasted into notes or issues directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence, Tuple

from repro.analysis.estimators import mean
from repro.analysis.history_independence import (
    max_pairwise_distance,
    mis_distribution_over_histories,
    outputs_identical_across_histories,
    replay_history_mis,
)
from repro.analysis.reporting import format_table
from repro.baselines.recompute import StaticRecomputeDynamicMIS
from repro.core.engine_api import available_engines, create_engine
from repro.distributed.network_api import (
    NETWORK_NAMES,
    available_networks,
    network_protocols,
    resolve_network,
)
from repro.graph.generators import FAMILY_NAMES
from repro.lowerbounds.deterministic import (
    run_deterministic_lower_bound,
    run_randomized_on_lower_bound_instance,
)
from repro.matching.dynamic_matching import DynamicMaximalMatching
from repro.scenario import (
    BackendSpec,
    CheckpointFormatError,
    GraphSpec,
    ScenarioSpec,
    ScenarioSpecError,
    Session,
    WorkloadSpec,
    available_sinks,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario.sinks import get_sink_factory
from repro.workloads.sequences import alternative_histories


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro-mis",
        description="Dynamic distributed MIS reproduction -- quick experiments",
    )
    parser.add_argument(
        "--list-engines",
        action="store_true",
        help="print the registered sequential engine backends with capability flags",
    )
    parser.add_argument(
        "--list-networks",
        action="store_true",
        help="print the registered distributed network backends with their protocols",
    )
    parser.add_argument(
        "--list-sinks",
        action="store_true",
        help="print the registered metric sinks (spec 'sinks' entries)",
    )
    parser.add_argument(
        "--list-schedulers",
        action="store_true",
        help="print the registered async delay schedulers (spec 'scheduler' entries)",
    )
    subparsers = parser.add_subparsers(dest="command", required=False)

    run = subparsers.add_parser(
        "run", help="execute a serialized scenario spec file end-to-end"
    )
    run.add_argument(
        "--scenario",
        metavar="PATH",
        default=None,
        help="scenario spec file (JSON, see the README's 'Scenarios' section); "
        "required unless --resume-from is given",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=0,
        help="write a resumable checkpoint after every N applied changes "
        "(requires --checkpoint-path; works for sequential and protocol scenarios)",
    )
    run.add_argument(
        "--checkpoint-path",
        metavar="PATH",
        default=None,
        help="where to write the checkpoint JSON (atomically overwritten each time)",
    )
    run.add_argument(
        "--resume-from",
        metavar="PATH",
        default=None,
        help="continue a run from a checkpoint written by --checkpoint-path "
        "(--engine/--network switch the backend; the snapshots are label-keyed)",
    )
    run.add_argument(
        "--engine",
        choices=available_engines(),
        default=None,
        help="override the spec's engine backend",
    )
    run.add_argument(
        "--network",
        choices=NETWORK_NAMES,
        default=None,
        help="override the spec's network backend (protocol runner)",
    )
    run.add_argument(
        "--protocol",
        choices=("buffered", "direct", "async-direct"),
        default=None,
        help="override the spec's distributed protocol (protocol runner)",
    )
    run.add_argument(
        "--no-verify",
        action="store_true",
        help="skip the final invariant verification (timing runs)",
    )

    churn = subparsers.add_parser("churn", help="sequential maintainer under random churn")
    _add_workload_arguments(churn)
    churn.add_argument(
        "--structure",
        choices=("mis", "matching", "clustering"),
        default="mis",
        help="which structure to maintain",
    )

    protocol = subparsers.add_parser("protocol", help="distributed protocol under random churn")
    _add_workload_arguments(protocol)
    protocol.add_argument(
        "--protocol",
        choices=("buffered", "direct", "async"),
        default="buffered",
        help="buffered = Algorithm 2, direct = Corollary 6, async = event-driven",
    )
    protocol.add_argument(
        "--network",
        choices=NETWORK_NAMES,
        default="dict",
        help="network state core ('dict' = paper-shaped runtimes, 'fast' = id-interned "
        "arrays; identical metrics and outputs for buffered/direct -- async uses the "
        "global-stream random scheduler, whose delay assignment is core-specific; "
        "any registered backend works)",
    )
    protocol.add_argument(
        "--compare-recompute",
        action="store_true",
        help="also run the Luby-recompute baseline on the same workload",
    )

    lowerbound = subparsers.add_parser("lowerbound", help="K_{k,k} deterministic lower bound")
    lowerbound.add_argument("--side-size", type=int, default=16, help="k, the size of each side")
    lowerbound.add_argument("--seeds", type=int, default=5, help="seeds for the randomized run")
    _add_engine_argument(lowerbound, "drives the randomized maintainer on the K_{k,k} instance")

    history = subparsers.add_parser("history", help="history-independence check")
    _add_workload_arguments(history)
    history.add_argument("--histories", type=int, default=4, help="number of different histories")
    history.add_argument("--samples", type=int, default=30, help="seeds per distribution estimate")

    bisect = subparsers.add_parser(
        "bisect",
        help="binary-search a scenario for the first divergent change",
    )
    bisect.add_argument(
        "--scenario",
        metavar="PATH",
        default=None,
        help="scenario spec file to bisect (JSON); exactly one of --scenario/--from-dump",
    )
    bisect.add_argument(
        "--from-dump",
        dest="from_dump",
        metavar="PATH",
        default=None,
        help="a divergence dump written by the conformance harness; its embedded "
        "scenario spec is bisected and its backend pair is the default --networks",
    )
    bisect.add_argument(
        "--networks",
        metavar="A,B",
        default=None,
        help="reference,candidate network backends (protocol scenarios)",
    )
    bisect.add_argument(
        "--engines",
        metavar="A,B",
        default=None,
        help="reference,candidate engine backends (sequential scenarios)",
    )
    bisect.add_argument(
        "--resume-at",
        dest="resume_at",
        type=int,
        metavar="N",
        default=None,
        help="probe through a checkpoint/resume at change N (JSON round-tripped) "
        "instead of -- or in addition to -- a backend pair",
    )
    bisect.add_argument(
        "--no-json",
        action="store_true",
        help="keep probe checkpoints in memory instead of round-tripping the JSON codec",
    )

    subparsers.add_parser("families", help="list available graph families")

    serve = subparsers.add_parser(
        "serve", help="run the sharded multi-session service daemon"
    )
    serve.add_argument(
        "--spool",
        metavar="DIR",
        required=True,
        help="spool directory for evicted/drained session checkpoints "
        "(point a restarted daemon at the same directory to resume them)",
    )
    serve.add_argument(
        "--bind",
        metavar="ADDR",
        default="tcp:127.0.0.1:0",
        help="listen address, tcp:HOST:PORT or unix:PATH (default %(default)s; "
        "port 0 picks a free port, printed in the 'listening on' line)",
    )
    serve.add_argument(
        "--shards", type=int, default=2, help="worker processes (default %(default)s)"
    )
    serve.add_argument(
        "--max-live",
        dest="max_live",
        type=int,
        default=64,
        metavar="N",
        help="live sessions per shard before LRU eviction to the spool "
        "(default %(default)s)",
    )
    serve.add_argument(
        "--engine",
        choices=available_engines(),
        default=None,
        help="rehydrate evicted sequential sessions on this engine "
        "(default: whichever the checkpoint was taken on)",
    )
    serve.add_argument(
        "--network",
        choices=NETWORK_NAMES,
        default=None,
        help="rehydrate evicted protocol sessions on this network core",
    )

    client = subparsers.add_parser(
        "client", help="talk to a running service daemon"
    )
    client.add_argument(
        "op",
        choices=(
            "ping",
            "create",
            "apply",
            "query",
            "checkpoint",
            "evict",
            "close",
            "list",
            "stats",
            "shutdown",
        ),
        help="the service operation to perform",
    )
    client.add_argument(
        "--connect",
        metavar="ADDR",
        required=True,
        help="daemon address (the 'listening on' line of repro-mis serve)",
    )
    client.add_argument("--session", default=None, help="session id (session-targeted ops)")
    client.add_argument(
        "--scenario",
        metavar="PATH",
        default=None,
        help="scenario spec file for 'create'",
    )
    client.add_argument(
        "--steps", type=int, default=1, metavar="N", help="workload units for 'apply'"
    )
    client.add_argument(
        "--what",
        choices=("status", "mis", "states", "metrics"),
        default="status",
        help="facet for 'query' (default %(default)s)",
    )

    lint = subparsers.add_parser(
        "lint",
        help="run the AST contract checkers (determinism, checkpoint parity, ...)",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files/directories to lint, relative to --root "
        "(default: src/repro benchmarks examples)",
    )
    lint.add_argument(
        "--root",
        metavar="DIR",
        default=".",
        help="project root the paths and baseline resolve against (default: cwd)",
    )
    lint.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="findings format on stdout; all diagnostics go to stderr "
        "(default %(default)s)",
    )
    lint.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="accepted-findings file (default: ROOT/lint-baseline.json if present)",
    )
    lint.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding as new",
    )
    lint.add_argument(
        "--select",
        action="append",
        metavar="CHECK",
        default=None,
        help="run only this checker (repeatable)",
    )
    lint.add_argument(
        "--ignore",
        action="append",
        metavar="CHECK",
        default=None,
        help="skip this checker (repeatable)",
    )
    lint.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write the current findings as the new accepted baseline",
    )
    return parser


def _add_workload_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--family", choices=FAMILY_NAMES, default="erdos_renyi")
    parser.add_argument("--nodes", type=int, default=40, help="number of nodes of the start graph")
    parser.add_argument("--changes", type=int, default=100, help="number of topology changes")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed for graph, workload and algorithm"
    )
    _add_engine_argument(
        parser,
        "drives the maintainer for churn/history, and selects the verification "
        "reference for protocol",
    )
    parser.add_argument(
        "--save-trace",
        metavar="PATH",
        default=None,
        help="write the generated workload (graph + changes) to a JSON trace file",
    )
    parser.add_argument(
        "--load-trace",
        metavar="PATH",
        default=None,
        help="replay a workload previously written with --save-trace instead of generating one",
    )
    parser.add_argument(
        "--save-scenario",
        metavar="PATH",
        default=None,
        help="also write the scenario spec this command builds from its flags "
        "(replayable with 'repro-mis run --scenario PATH')",
    )


def _add_engine_argument(parser: argparse.ArgumentParser, role: str) -> None:
    """Add ``--engine`` with choices sourced live from the backend registry."""
    parser.add_argument(
        "--engine",
        choices=available_engines(),
        default="template",
        help="sequential MIS backend ('template' = paper-shaped reference, 'fast' = "
        f"array-backed, identical outputs; any registered backend works); {role}",
    )


# ----------------------------------------------------------------------
# Spec building (the CLI's flags -> ScenarioSpec translation)
# ----------------------------------------------------------------------
def _workload_parts_from_arguments(arguments) -> Tuple[Optional[GraphSpec], WorkloadSpec]:
    """The (graph, workload) spec parts a churn/protocol/history command describes."""
    if getattr(arguments, "load_trace", None):
        return None, WorkloadSpec(kind="trace", path=arguments.load_trace)
    graph = GraphSpec(family=arguments.family, nodes=arguments.nodes, seed=arguments.seed)
    workload = WorkloadSpec(
        kind="mixed_churn", num_changes=arguments.changes, seed=arguments.seed + 1
    )
    return graph, workload


def _scenario_from_arguments(arguments, backend: BackendSpec, name: str) -> ScenarioSpec:
    graph, workload = _workload_parts_from_arguments(arguments)
    spec = ScenarioSpec(
        name=name,
        seed=arguments.seed + 2,
        graph=graph,
        workload=workload,
        backend=backend,
    )
    if getattr(arguments, "save_scenario", None):
        spec.save(arguments.save_scenario)
        print(f"scenario spec written to {arguments.save_scenario}")
    return spec


def _session_or_exit(spec: ScenarioSpec) -> Session:
    try:
        return Session(spec)
    except ScenarioSpecError as error:
        raise SystemExit(str(error)) from None


def _materialize_or_exit(spec: ScenarioSpec):
    try:
        return spec.materialize()
    except ScenarioSpecError as error:
        raise SystemExit(str(error)) from None


def _maybe_save_trace(arguments, graph, changes) -> None:
    if not getattr(arguments, "save_trace", None):
        return
    from repro.workloads.trace import save_trace

    metadata = None
    if not getattr(arguments, "load_trace", None):
        metadata = {
            "family": arguments.family,
            "nodes": arguments.nodes,
            "seed": arguments.seed,
        }
    save_trace(arguments.save_trace, changes, graph, metadata=metadata)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    arguments = parser.parse_args(argv)
    command = arguments.command
    requested = [flag for flag in _REGISTRY_TABLES if getattr(arguments, flag)]
    if requested:
        if command is not None:
            parser.error(
                "--list-engines / --list-networks / --list-sinks / "
                "--list-schedulers cannot be combined with a command"
            )
        _print_registries(requested)
        return 0
    if command is None:
        parser.error(
            "a command is required (or --list-engines / --list-networks / "
            "--list-sinks / --list-schedulers)"
        )
    if command == "families":
        return _run_families()
    if command == "run":
        return _run_scenario_command(arguments)
    if command == "churn":
        return _run_churn(arguments)
    if command == "protocol":
        return _run_protocol(arguments)
    if command == "lowerbound":
        return _run_lowerbound(arguments)
    if command == "history":
        return _run_history(arguments)
    if command == "bisect":
        return _run_bisect(arguments)
    if command == "serve":
        return _run_serve(arguments)
    if command == "client":
        return _run_client(arguments)
    if command == "lint":
        return _run_lint(arguments)
    raise AssertionError(f"unhandled command {command!r}")  # pragma: no cover


def _run_lint(arguments: argparse.Namespace) -> int:
    # Imported lazily: the lint framework parses the whole tree and is only
    # needed by this one command.
    from pathlib import Path

    from repro.analysis.lint import (
        DEFAULT_PATHS,
        BaselineError,
        UnknownCheckerError,
        run_lint_command,
    )

    try:
        return run_lint_command(
            root=Path(arguments.root),
            paths=tuple(arguments.paths) if arguments.paths else DEFAULT_PATHS,
            output_format=arguments.output_format,
            baseline_path=Path(arguments.baseline) if arguments.baseline else None,
            no_baseline=arguments.no_baseline,
            select=arguments.select,
            ignore=arguments.ignore,
            write_baseline_path=(
                Path(arguments.write_baseline) if arguments.write_baseline else None
            ),
        )
    except (UnknownCheckerError, BaselineError) as error:
        print(f"repro-mis lint: {error}", file=sys.stderr)
        return 2


# ----------------------------------------------------------------------
# Registry introspection
# ----------------------------------------------------------------------
def _engine_rows() -> List[List[str]]:
    rows = []
    for name in available_engines():
        try:
            engine = create_engine(name)
        except Exception as error:  # a broken third-party factory: still list it
            rows.append([name, f"<factory error: {error}>", "-", "-"])
            continue
        cls = type(engine)
        batch = "native" if "apply_batch" in vars(cls) else "inherited"
        snapshot = "custom" if "snapshot" in vars(cls) else "label-level"
        rows.append([name, f"{cls.__module__}.{cls.__name__}", batch, snapshot])
    return rows


def _network_rows() -> List[List[str]]:
    rows = []
    for name in available_networks():
        for protocol in network_protocols(name):
            factory = resolve_network(name, protocol)
            rows.append([name, protocol, getattr(factory, "__name__", repr(factory))])
    return rows


def _sink_rows() -> List[List[str]]:
    rows = []
    for name in available_sinks():
        factory = get_sink_factory(name)
        doc = (factory.__doc__ or "").strip().splitlines()
        rows.append([name, getattr(factory, "__name__", repr(factory)), doc[0] if doc else ""])
    return rows


def _scheduler_rows() -> List[List[str]]:
    from repro.distributed.scheduler import (
        CHANNEL_DETERMINISTIC_SCHEDULERS,
        SCHEDULER_KINDS,
    )

    rows = []
    for kind in sorted(SCHEDULER_KINDS):
        cls, params = SCHEDULER_KINDS[kind]
        rows.append(
            [
                kind,
                cls.__name__,
                ", ".join(params) if params else "-",
                "yes" if kind in CHANNEL_DETERMINISTIC_SCHEDULERS else "no",
            ]
        )
    return rows


#: argparse flag attribute -> (table title, column headers, row builder).
#: All four registries render through the single loop in
#: :func:`_print_registries`; a new registry only adds an entry here.
_REGISTRY_TABLES = {
    "list_engines": (
        "Registered engine backends (repro.core.engine_api)",
        ["engine", "implementation", "batch", "snapshot"],
        _engine_rows,
    ),
    "list_networks": (
        "Registered network backends (repro.distributed.network_api)",
        ["network", "protocol", "factory"],
        _network_rows,
    ),
    "list_sinks": (
        "Registered metric sinks (repro.scenario.sinks)",
        ["sink", "factory", "description"],
        _sink_rows,
    ),
    "list_schedulers": (
        "Registered async delay schedulers (repro.distributed.scheduler)",
        ["scheduler", "implementation", "parameters", "channel-deterministic"],
        _scheduler_rows,
    ),
}


def _print_registries(requested: Sequence[str]) -> None:
    """Render the requested registry tables (``_REGISTRY_TABLES`` keys)."""
    for flag in requested:
        title, headers, rows = _REGISTRY_TABLES[flag]
        print(format_table(headers, rows(), title=title))


# ----------------------------------------------------------------------
# Command implementations
# ----------------------------------------------------------------------
def _run_families() -> int:
    print(format_table(["family"], [[name] for name in FAMILY_NAMES], title="Graph families"))
    return 0


def _run_scenario_command(arguments) -> int:
    from pathlib import Path

    from repro.distributed.state import NetworkStateError

    if arguments.checkpoint_every or arguments.checkpoint_path:
        if not (arguments.checkpoint_every and arguments.checkpoint_path):
            raise SystemExit("--checkpoint-every and --checkpoint-path go together")
        if arguments.checkpoint_every < 1:
            raise SystemExit("--checkpoint-every must be a positive change count")
        # Fail before any change is applied, not at the first write.
        parent = Path(arguments.checkpoint_path).resolve().parent
        if not parent.is_dir():
            raise SystemExit(
                f"--checkpoint-path directory {str(parent)!r} does not exist"
            )
    if bool(arguments.scenario) == bool(arguments.resume_from):
        raise SystemExit("pass exactly one of --scenario or --resume-from")
    try:
        session = _build_run_session(arguments)
    except (CheckpointFormatError, NetworkStateError, ScenarioSpecError, ValueError) as error:
        raise SystemExit(str(error)) from None
    result = _stream_with_checkpoints(session, arguments)
    rows = [
        ["runner", result.runner],
        ["backend", result.backend],
        ["changes applied", result.num_changes],
        ["elapsed seconds", result.elapsed_s],
        ["per-change microseconds", result.per_change_us],
        ["final MIS size", result.final_mis_size],
        ["final node count", result.final_num_nodes],
        ["verified", "yes" if result.verified else "skipped"],
    ]
    for key, value in sorted(result.summary.items()):
        if isinstance(value, dict):
            rows.append([key, value.get("mean", "")])
        else:
            rows.append([key, value])
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"scenario {result.name or arguments.scenario or arguments.resume_from}",
            float_format=".3f",
        )
    )
    return 0


def _build_run_session(arguments) -> Session:
    """Build the ``run`` command's session, fresh or resumed from a file."""
    overrides = {}
    if arguments.engine:
        overrides["engine"] = arguments.engine
    if arguments.network:
        overrides["network"] = arguments.network
    if arguments.protocol:
        overrides["protocol"] = arguments.protocol

    if arguments.resume_from:
        checkpoint = load_checkpoint(arguments.resume_from)
        if checkpoint.runner != "protocol" and (arguments.network or arguments.protocol):
            raise ScenarioSpecError(
                "--network/--protocol only apply to protocol-runner scenarios; "
                f"{arguments.resume_from} declares runner={checkpoint.runner!r}"
            )
        if arguments.protocol:
            raise ScenarioSpecError(
                "--protocol cannot change on resume (snapshots are per-protocol); "
                "only --engine/--network switch the backend"
            )
        session = Session.resume(
            checkpoint, engine=arguments.engine, network=arguments.network
        )
        print(
            f"resuming from {arguments.resume_from} at change {checkpoint.position} "
            f"({session.num_changes - session.position} remaining)"
        )
        return session

    spec = ScenarioSpec.load(arguments.scenario)
    if spec.backend.runner != "protocol" and (arguments.network or arguments.protocol):
        raise ScenarioSpecError(
            "--network/--protocol only apply to protocol-runner scenarios; "
            f"{arguments.scenario} declares runner={spec.backend.runner!r}"
        )
    if overrides:
        spec = spec.with_backend(**overrides)
    return Session(spec)


def _stream_with_checkpoints(session: Session, arguments):
    """Stream the session, writing a checkpoint file every N applied changes."""
    every = arguments.checkpoint_every
    if not every:
        return session.run(verify=not arguments.no_verify)
    last_written = session.position
    while not session.done:
        if session.step() is None:
            break
        if session.position - last_written >= every:
            try:
                save_checkpoint(arguments.checkpoint_path, session.checkpoint())
            except OSError as error:
                raise SystemExit(
                    f"cannot write checkpoint to {arguments.checkpoint_path}: {error}"
                ) from None
            last_written = session.position
            print(
                f"checkpoint written to {arguments.checkpoint_path} "
                f"(position {session.position})"
            )
    return session.run(verify=not arguments.no_verify)


def _run_churn(arguments) -> int:
    backend = BackendSpec(runner="sequential", engine=arguments.engine)
    spec = _scenario_from_arguments(arguments, backend, name=f"churn-{arguments.structure}")

    if arguments.structure == "matching":
        # Only the materialized workload is shared; the matcher maintains
        # its own structure (no MIS session is built).
        graph, changes = _materialize_or_exit(spec)
        matcher = DynamicMaximalMatching(
            seed=arguments.seed + 2, initial_graph=graph, engine=arguments.engine
        )
        adjustments: List[int] = []
        for change in changes:
            reports = matcher.apply(change)
            adjustments.append(sum(report.num_adjustments for report in reports))
        matcher.verify()
        _maybe_save_trace(arguments, graph, changes)
        rows = [
            ["structure", "maximal matching (MIS on L(G))"],
            ["changes applied", len(changes)],
            ["mean adjustments per change", mean(adjustments)],
            ["max adjustments for one change", max(adjustments) if adjustments else 0],
            ["final matching size", matcher.matching_size()],
        ]
    else:
        session = _session_or_exit(spec)
        graph, changes = session.initial_graph, session.changes
        session.run(verify=True)
        _maybe_save_trace(arguments, graph, changes)
        stats = session.maintainer.statistics
        rows = [
            ["structure", f"{arguments.structure} (engine={arguments.engine})"],
            ["changes applied", stats.num_changes],
            ["mean influenced set |S| (Theorem 1: <= 1)", stats.mean_influenced_size()],
            ["mean adjustments per change (<= 1)", stats.mean_adjustments()],
            ["max adjustments for one change", stats.max_adjustments()],
            ["final MIS size", len(session.mis())],
        ]
        if arguments.structure == "clustering":
            rows.append(["clusters (= MIS size)", len(session.mis())])
            rows.append(["cluster assignment of every node", "node -> earliest MIS neighbor"])
    print(
        format_table(
            ["quantity", "value"],
            rows,
            title=f"{arguments.structure} under {len(changes)} changes on "
            f"{arguments.family}(n={graph.num_nodes()})",
            float_format=".3f",
        )
    )
    return 0


def _run_protocol(arguments) -> int:
    protocol = {"buffered": "buffered", "direct": "direct", "async": "async-direct"}[
        arguments.protocol
    ]
    backend = BackendSpec(
        runner="protocol",
        engine=arguments.engine,
        network=arguments.network,
        protocol=protocol,
    )
    spec = _scenario_from_arguments(arguments, backend, name=f"protocol-{arguments.protocol}")
    session = _session_or_exit(spec)
    graph, changes = session.initial_graph, session.changes
    session.run(verify=True)
    _maybe_save_trace(arguments, graph, changes)
    metrics = session.network.metrics
    rows = []
    for kind in metrics.change_kinds():
        rows.append(
            [
                kind,
                metrics.mean("adjustments", kind),
                metrics.mean("rounds", kind),
                metrics.mean("broadcasts", kind),
                metrics.mean("bits", kind),
            ]
        )
    rows.append(
        [
            "ALL",
            metrics.mean("adjustments"),
            metrics.mean("rounds"),
            metrics.mean("broadcasts"),
            metrics.mean("bits"),
        ]
    )
    print(
        format_table(
            ["change type", "mean adjustments", "mean rounds", "mean broadcasts", "mean bits"],
            rows,
            title=f"protocol={arguments.protocol} on {arguments.family}(n={graph.num_nodes()}), "
            f"{len(changes)} changes",
            float_format=".3f",
        )
    )
    if getattr(arguments, "compare_recompute", False):
        baseline = StaticRecomputeDynamicMIS("luby", seed=arguments.seed + 2, initial_graph=graph)
        baseline.apply_sequence(changes)
        print()
        print(
            format_table(
                ["algorithm", "mean rounds", "mean broadcasts"],
                [
                    ["this protocol", metrics.mean("rounds"), metrics.mean("broadcasts")],
                    [
                        "Luby recompute per change",
                        baseline.metrics.mean("rounds"),
                        baseline.metrics.mean("broadcasts"),
                    ],
                ],
                title="Comparison with the static recompute baseline",
                float_format=".2f",
            )
        )
    return 0


def _run_lowerbound(arguments) -> int:
    deterministic = run_deterministic_lower_bound(arguments.side_size)
    randomized = [
        run_randomized_on_lower_bound_instance(
            arguments.side_size, seed=seed, engine=arguments.engine
        )
        for seed in range(arguments.seeds)
    ]
    print(
        format_table(
            [
                "algorithm",
                "worst single-change adjustments",
                "total adjustments",
                "mean per change",
            ],
            [
                [
                    "deterministic greedy",
                    deterministic.max_adjustments,
                    deterministic.total_adjustments,
                    deterministic.mean_adjustments,
                ],
                [
                    f"randomized (mean over {arguments.seeds} seeds)",
                    mean([run.max_adjustments for run in randomized]),
                    mean([run.total_adjustments for run in randomized]),
                    mean([run.mean_adjustments for run in randomized]),
                ],
            ],
            title=f"K_{{{arguments.side_size},{arguments.side_size}}} deletion sequence "
            "(paper, Section 1.1 lower bound)",
            float_format=".3f",
        )
    )
    return 0


def _run_history(arguments) -> int:
    graph_spec = GraphSpec(
        family=arguments.family, nodes=arguments.nodes, seed=arguments.seed
    )
    graph = graph_spec.build()
    histories = alternative_histories(
        graph, num_histories=arguments.histories, seed=arguments.seed + 1
    )

    def runner(history, seed):
        return replay_history_mis(history, seed, engine=arguments.engine)

    identical = all(
        outputs_identical_across_histories(histories, seed, runner=runner) for seed in range(10)
    )
    distributions = mis_distribution_over_histories(
        histories, seeds=range(arguments.samples), runner=runner
    )
    distance = max_pairwise_distance(distributions)
    print(
        format_table(
            ["check", "result"],
            [
                ["histories compared", len(histories)],
                ["identical output per seed across histories", "yes" if identical else "NO"],
                ["max total-variation distance between history distributions", distance],
            ],
            title=f"History independence on {arguments.family}(n={arguments.nodes})",
            float_format=".4f",
        )
    )
    return 0 if identical and distance < 1e-9 else 1


def _parse_backend_pair(value: Optional[str], flag: str) -> Optional[Tuple[str, str]]:
    if value is None:
        return None
    parts = tuple(part.strip() for part in value.split(",") if part.strip())
    if len(parts) != 2:
        raise ValueError(f"{flag} needs exactly two comma-separated backend names, got {value!r}")
    return parts


def _run_bisect(arguments) -> int:
    import json
    from pathlib import Path

    from repro.scenario import bisect_first_divergence

    # Every input error -- spec decoding included -- is a ValueError here
    # (ScenarioSpecError is one), and exits 2; exit 1 means "diverged".
    try:
        if bool(arguments.scenario) == bool(arguments.from_dump):
            raise ValueError("pass exactly one of --scenario or --from-dump")
        networks = _parse_backend_pair(arguments.networks, "--networks")
        engines = _parse_backend_pair(arguments.engines, "--engines")
        if arguments.scenario:
            spec = ScenarioSpec.load(arguments.scenario)
            source = arguments.scenario
        else:
            source = arguments.from_dump
            try:
                document = json.loads(Path(source).read_text(encoding="utf-8"))
            except (OSError, ValueError) as error:
                raise ValueError(f"cannot read divergence dump {source}: {error}") from None
            record = document.get("scenario") if isinstance(document, dict) else None
            if record is None:
                raise ValueError(
                    f"{source} embeds no scenario spec; only dumps written by "
                    "scenario-driven differentials can seed a bisect"
                )
            spec = ScenarioSpec.from_dict(record)
            if networks is None and engines is None and arguments.resume_at is None:
                # A cross-backend dump names its (reference, candidate) pair --
                # reuse it so `repro-mis bisect --from-dump d.json` just works.
                dumped = tuple(document.get("networks") or ())
                if len(dumped) == 2 and dumped[0] != dumped[1]:
                    networks = dumped
        result = bisect_first_divergence(
            spec,
            networks=networks,
            engines=engines,
            resume_at=arguments.resume_at,
            through_json=not arguments.no_json,
        )
    except ValueError as error:
        print(f"repro-mis bisect: {error}", file=sys.stderr)
        return 2
    comparison = []
    if networks is not None:
        comparison.append(f"networks {networks[0]} vs {networks[1]}")
    if engines is not None:
        comparison.append(f"engines {engines[0]} vs {engines[1]}")
    if arguments.resume_at is not None:
        comparison.append(f"resume at change {arguments.resume_at}")
    rows = [
        ["comparison", "; ".join(comparison)],
        ["changes in run", result.num_changes],
        ["probes", ", ".join(str(position) for position in result.probes)],
        ["diverged", "yes" if result.diverged else "no"],
    ]
    if result.diverged:
        rows.append(["first divergent change", result.position])
        rows.append(["change applied there", repr(result.change)])
        rows.append(["detail", result.detail])
    print(format_table(["quantity", "value"], rows, title=f"bisect {source}"))
    return 1 if result.diverged else 0


def _run_serve(arguments) -> int:
    from repro.service import ServiceConfig, run_service
    from repro.service.protocol import WireError

    config = ServiceConfig(
        spool_dir=arguments.spool,
        bind=arguments.bind,
        shards=arguments.shards,
        max_live=arguments.max_live,
        engine=arguments.engine,
        network=arguments.network,
    )
    try:
        return run_service(config)
    except (WireError, ValueError, OSError) as error:
        raise SystemExit(str(error)) from None


def _run_client(arguments) -> int:
    import json

    from repro.service import ServiceClient, ServiceClientError
    from repro.service.protocol import WireError

    op = arguments.op
    if op in ("create", "apply", "query", "checkpoint", "evict", "close"):
        if not arguments.session:
            raise SystemExit(f"'{op}' needs --session")
    try:
        with ServiceClient(arguments.connect) as client:
            if op == "ping":
                result = client.ping()
            elif op == "create":
                if not arguments.scenario:
                    raise SystemExit("'create' needs --scenario (a spec file)")
                spec = ScenarioSpec.load(arguments.scenario)
                result = client.create(arguments.session, spec.to_dict())
            elif op == "apply":
                result = client.apply(arguments.session, steps=arguments.steps)
            elif op == "query":
                result = client.query(arguments.session, arguments.what)
            elif op == "checkpoint":
                result = client.checkpoint(arguments.session)
            elif op == "evict":
                result = client.evict(arguments.session)
            elif op == "close":
                result = client.close_session(arguments.session)
            elif op == "list":
                result = client.list_sessions()
            elif op == "stats":
                result = client.stats()
            else:  # shutdown
                result = client.shutdown()
    except ScenarioSpecError as error:
        raise SystemExit(str(error)) from None
    except ServiceClientError as error:
        raise SystemExit(f"daemon error ({error.kind}): {error}") from None
    except (WireError, ConnectionError, OSError) as error:
        raise SystemExit(f"cannot reach daemon at {arguments.connect}: {error}") from None
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
