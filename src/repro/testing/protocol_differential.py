"""Differential conformance harness for the distributed network backends.

The id-interned network core (:mod:`repro.distributed.fast_network`) is only
allowed to exist because it is *observably identical* to the dict/set
simulators.  :func:`replay_protocol_differential` makes that claim
machine-checked: it drives every requested network backend through the same
seeded change sequence under the same protocol and asserts, after every
single change,

* identical per-change metrics -- rounds, broadcasts, bits, state changes,
  adjustment counts and the adjusted-node *sets* (plus the causal depth for
  the asynchronous protocol),
* identical round-by-round traces (messages delivered, broadcasts in order,
  state changes per round) for the synchronous protocols, and
* identical output maps ``node -> in MIS?``.

Backends are resolved through the network registry
(:mod:`repro.distributed.network_api`), so a third-party core is validated
by passing its registered name in ``networks=(...)`` -- no edits anywhere in
the distributed subsystem.

When the replay diverges, the harness writes a JSON *divergence dump* --
the offending step and change, both backends' metrics, round traces and
output maps, and the exact field that differed -- before raising
:class:`~repro.testing.differential.ConformanceMismatch`.  The dump
directory defaults to the ``REPRO_PROTOCOL_DIFF_DUMP_DIR`` environment
variable (CI points it at an uploaded artifact path) and can be overridden
per call; without either, no file is written.

The asynchronous protocol needs a *channel-deterministic* scheduler (the
delay must be a function of the channel, not of the global message
sequence): the harness builds one
:class:`~repro.distributed.scheduler.AdversarialDelayScheduler` per backend
by default (or the scenario's ``backend.scheduler``, when one is declared).

:func:`replay_resume_differential` extends the same discipline to the
checkpointable-state pair (:mod:`repro.distributed.state`): checkpoint a
run mid-way on one backend, resume it on another, and assert the remaining
run is observably identical to an uninterrupted one -- per-change metrics,
round traces, outputs and the accumulated metric totals.  The
``"random"`` scheduler's RNG stream rides in the snapshot, so
*same-backend* resumes (``networks=("fast", "fast")``) accept it, but it
hands its delays out in neighbor order, which a restored simulator need not
share with the live one: after churn such a resume can diverge.  Cross-backend resumes require a
channel-deterministic scheduler (the two cores enumerate receivers in
different orders, so sequence-dependent delays legitimately diverge).
Failed resumes dump through the same artifact mechanism
(``resume_divergence_*.json``).  The dump embeds the scenario spec, which is
enough to ``repro-mis bisect --from-dump`` the divergence offline: the
bisect re-executes the spec, so no recorded run needs to travel with it.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.rng import normalize_seed
from repro.distributed.network_api import create_network
from repro.distributed.scheduler import (
    CHANNEL_DETERMINISTIC_SCHEDULERS,
    DelayScheduler,
    create_scheduler,
)
from repro.graph.dynamic_graph import DynamicGraph
from repro.testing.differential import ConformanceMismatch, resolve_scenario_inputs
from repro.workloads.changes import TopologyChange

#: Per-change metric fields every backend must agree on, protocol by protocol.
PROTOCOL_METRIC_FIELDS = (
    "change_kind",
    "rounds",
    "broadcasts",
    "bits",
    "adjustments",
    "state_changes",
)
ASYNC_METRIC_FIELDS = PROTOCOL_METRIC_FIELDS + ("async_causal_depth",)

#: Environment variable pointing divergence dumps at a directory (used by CI
#: to upload them as failure artifacts).
DUMP_DIR_ENV = "REPRO_PROTOCOL_DIFF_DUMP_DIR"

_SYNC_PROTOCOLS = ("buffered", "direct")


@dataclass
class ProtocolDifferentialResult:
    """Summary of one successful protocol differential replay."""

    protocol: str
    networks: Tuple[str, ...]
    num_changes: int
    total_broadcasts: int
    total_rounds: int
    max_rounds: int
    final_mis_size: int
    final_num_nodes: int


def replay_protocol_differential(
    initial_graph: Optional[DynamicGraph] = None,
    changes: Optional[Sequence[TopologyChange]] = None,
    seed: Optional[int] = None,
    protocol: Optional[str] = None,
    networks: Tuple[str, ...] = ("dict", "fast"),
    compare_round_traces: bool = True,
    reference_engine: Optional[str] = None,
    verify_every: int = 10,
    scheduler_factory: Optional[Callable[[str], DelayScheduler]] = None,
    dump_dir: Optional[Path] = None,
    scenario=None,
) -> ProtocolDifferentialResult:
    """Replay ``changes`` through every network backend; assert equality.

    Each backend gets its own simulator built from the same ``seed`` and a
    copy of ``initial_graph``, so their random orders ``pi`` coincide.
    Raises :class:`ConformanceMismatch` at the first divergence (after
    writing a divergence dump, see the module docstring); returns a
    :class:`ProtocolDifferentialResult` when all backends agree everywhere.

    Parameters
    ----------
    scenario:
        A :class:`repro.scenario.spec.ScenarioSpec` replacing the explicit
        ``initial_graph``/``changes``/``seed`` *and* ``protocol`` /
        ``reference_engine`` (taken from the spec's backend part; passing
        any of them alongside ``scenario`` raises): the conformance run
        replays the exact scenario on every requested network backend --
        "same scenario, two backends" by construction.
    protocol:
        ``"buffered"`` (the default), ``"direct"`` or ``"async-direct"``.
    networks:
        Registered backend names; the first is the reference.
    compare_round_traces:
        Also assert the round-by-round observability traces (synchronous
        protocols only; the asynchronous protocol has no round structure).
    reference_engine:
        Engine backend computing the expected MIS in the periodic
        ``verify()`` calls.
    verify_every:
        Verify every backend against the sequential reference each
        that-many steps (0 disables; the final state is always verified).
    scheduler_factory:
        For the asynchronous protocol: builds one delay scheduler per
        backend name.  Must be channel-deterministic; defaults to the
        scenario's ``backend.scheduler`` (when given), then to
        ``AdversarialDelayScheduler(seed)``.
    dump_dir:
        Where to write divergence dumps; defaults to the
        ``REPRO_PROTOCOL_DIFF_DUMP_DIR`` environment variable.
    """
    if len(networks) < 2:
        raise ValueError("need at least two network backends to compare")
    initial_graph, changes, seed = resolve_scenario_inputs(
        initial_graph, changes, seed, scenario
    )
    if scenario is not None:
        if protocol is not None or reference_engine is not None:
            raise ValueError(
                "pass either scenario= or explicit protocol/reference_engine, not both"
            )
        protocol = scenario.backend.protocol
        reference_engine = scenario.backend.engine
    protocol = protocol or "buffered"
    reference_engine = reference_engine or "fast"
    changes = list(changes or ())
    seed = normalize_seed(seed)
    is_async = protocol not in _SYNC_PROTOCOLS
    trace_enabled = compare_round_traces and not is_async

    if is_async and scenario is not None:
        _check_scenario_scheduler(scenario, required=False)
    simulators = []
    for name in networks:
        kwargs = {"seed": seed, "initial_graph": initial_graph}
        if is_async:
            if scheduler_factory is not None:
                kwargs["scheduler"] = scheduler_factory(name)
            elif scenario is not None and scenario.backend.scheduler is not None:
                # The spec's scheduler field pins the delay adversary down;
                # one fresh instance per backend (schedulers may cache).
                kwargs["scheduler"] = scenario.backend.build_scheduler()
            else:
                kwargs["scheduler"] = create_scheduler("adversarial", seed=seed)
        simulator = create_network(protocol, network=name, **kwargs)
        if trace_enabled:
            simulator.enable_round_logging(True)
        simulators.append(simulator)

    reference = simulators[0]
    metric_fields = ASYNC_METRIC_FIELDS if is_async else PROTOCOL_METRIC_FIELDS

    last_records: List = [None] * len(simulators)

    def mismatch(step: int, change, detail: str) -> ConformanceMismatch:
        _write_divergence_dump(
            dump_dir,
            protocol,
            networks,
            seed,
            step,
            change,
            detail,
            simulators,
            last_records,
            trace_enabled,
            scenario=scenario,
        )
        return ConformanceMismatch(step, change, detail)

    baseline_states = reference.states()
    for name, simulator in zip(networks[1:], simulators[1:]):
        if simulator.states() != baseline_states:
            raise mismatch(-1, None, f"initial states differ between {networks[0]} and {name}")

    for step, change in enumerate(changes):
        last_records = [simulator.apply(change) for simulator in simulators]
        head = last_records[0]
        expected_states = reference.states()
        expected_trace = _trace_tuples(reference) if trace_enabled else None
        for name, simulator, record in zip(networks[1:], simulators[1:], last_records[1:]):
            for field in metric_fields:
                lhs, rhs = getattr(head, field), getattr(record, field)
                if lhs != rhs:
                    raise mismatch(
                        step, change, f"{field}: {networks[0]}={lhs!r} vs {name}={rhs!r}"
                    )
            if head.adjusted_nodes != record.adjusted_nodes:
                raise mismatch(
                    step,
                    change,
                    f"adjusted nodes: "
                    f"{networks[0]}={sorted(head.adjusted_nodes, key=repr)} "
                    f"vs {name}={sorted(record.adjusted_nodes, key=repr)}",
                )
            if trace_enabled:
                actual_trace = _trace_tuples(simulator)
                if actual_trace != expected_trace:
                    raise mismatch(
                        step,
                        change,
                        f"round trace ({networks[0]} vs {name}): "
                        f"{expected_trace!r} vs {actual_trace!r}",
                    )
            actual_states = simulator.states()
            if actual_states != expected_states:
                diff = {
                    node: (expected_states.get(node), actual_states.get(node))
                    for node in set(expected_states) | set(actual_states)
                    if expected_states.get(node) != actual_states.get(node)
                }
                raise mismatch(
                    step, change, f"states ({networks[0]} vs {name}): {diff}"
                )
        if verify_every and (step + 1) % verify_every == 0:
            _verify_all(networks, simulators, reference_engine)

    _verify_all(networks, simulators, reference_engine)
    return ProtocolDifferentialResult(
        protocol=protocol,
        networks=tuple(networks),
        num_changes=len(changes),
        # The reference's totals cover exactly this replay's changes.
        total_broadcasts=reference.metrics.totals.total("broadcasts"),
        total_rounds=reference.metrics.totals.total("rounds"),
        max_rounds=reference.metrics.totals.maximum("rounds"),
        final_mis_size=len(reference.mis()),
        final_num_nodes=reference.graph.num_nodes(),
    )


def _check_scenario_scheduler(scenario, required: bool) -> None:
    """Enforce the harnesses' channel-determinism precondition on async specs.

    A scheduler whose delays depend on the global message sequence (the
    ``"random"`` kind) legitimately diverges *across backends*: the two
    cores enumerate a broadcast's receivers in different orders, so the same
    RNG stream hands out different delays.  Feeding one to a cross-backend
    differential would therefore report false protocol divergence.
    ``required`` additionally rejects *absent* schedulers (they default to
    the random kind).  Same-backend resume differentials skip this check
    entirely: the scheduler's RNG stream rides in the snapshot, so resume
    is exact for every kind.
    """
    declared = scenario.backend.scheduler
    if declared is None:
        if required:
            raise ValueError(
                "async resume differentials need the scenario to declare a "
                "channel-deterministic backend.scheduler (kind 'adversarial' "
                "or 'fixed'); without one the resumed session falls back to "
                "the random scheduler and legitimately diverges"
            )
        return
    if declared.get("kind") not in CHANNEL_DETERMINISTIC_SCHEDULERS:
        raise ValueError(
            f"scenario scheduler kind {declared.get('kind')!r} is not "
            f"channel-deterministic ({CHANNEL_DETERMINISTIC_SCHEDULERS}); the "
            "differential harnesses would report false divergence under it"
        )


@dataclass
class ResumeDifferentialResult:
    """Summary of one successful checkpoint/resume differential replay."""

    protocol: str
    networks: Tuple[str, ...]
    positions: Tuple[int, ...]
    num_changes: int
    final_mis_size: int


def replay_resume_differential(
    scenario,
    positions: Sequence[int],
    networks: Tuple[str, str] = ("dict", "fast"),
    compare_round_traces: bool = True,
    through_json: bool = True,
    dump_dir: Optional[Path] = None,
) -> ResumeDifferentialResult:
    """Checkpoint mid-run on one backend, resume on another, assert equality.

    For every position ``p`` the harness runs the scenario *uninterrupted*
    on ``networks[0]``, takes a checkpoint of a second run
    at ``p`` (optionally round-tripped through the JSON codec of
    :mod:`repro.scenario.checkpoint_io` -- the default, since that is the
    path the CLI's ``--checkpoint-path`` files take), resumes it on
    ``networks[1]``, and then steps both sessions in lockstep, asserting
    after every post-resume change

    * identical per-change metrics (rounds, broadcasts, bits, state changes,
      adjustments, adjusted-node sets; plus causal depth for async),
    * identical round-by-round traces (synchronous protocols),
    * identical output maps, and -- at the end --
    * identical *accumulated* metric totals (the pre-checkpoint totals ride
      along in the snapshot) and a passing ``verify()`` on both sides.

    Same-backend pairs (``source == target``) accept any scheduler kind --
    including an absent/``"random"`` one, whose RNG stream rides in the
    snapshot (though its delays follow neighbor order, which restore need
    not reproduce after churn); cross-backend pairs still require a declared
    channel-deterministic scheduler (see
    :func:`_check_scenario_scheduler`).

    Dynamic (adaptive-adversary) scenarios additionally assert that the
    resumed adversary generates the identical deletion stream.  On
    divergence a JSON dump is written next to the protocol-differential
    dumps (``resume_divergence_*.json``; same
    ``REPRO_PROTOCOL_DIFF_DUMP_DIR`` artifact mechanism), embedding the
    scenario spec, before
    :class:`~repro.testing.differential.ConformanceMismatch` is raised.
    """
    from repro.scenario.checkpoint_io import checkpoint_from_dict, checkpoint_to_dict
    from repro.scenario.session import Session

    if scenario.backend.runner != "protocol":
        raise ValueError(
            "replay_resume_differential drives protocol scenarios; sequential "
            "checkpoint differentials live in tests/test_scenario_session.py"
        )
    if len(networks) != 2:
        raise ValueError("need exactly (source, resume) network backends")
    source, target = networks
    protocol = scenario.backend.protocol
    is_async = protocol not in _SYNC_PROTOCOLS
    if is_async and source != target:
        # A same-backend resume restores the random kind's RNG stream, so
        # it may run any scheduler; crossing cores needs
        # channel-deterministic delays.
        _check_scenario_scheduler(scenario, required=True)
    trace_enabled = compare_round_traces and not is_async
    metric_fields = ASYNC_METRIC_FIELDS if is_async else PROTOCOL_METRIC_FIELDS

    num_changes = 0
    final_mis_size = 0
    for position in positions:
        uninterrupted = Session(scenario.with_backend(network=source))
        if trace_enabled:
            uninterrupted.network.enable_round_logging(True)
        for _ in range(position):
            if uninterrupted.step() is None:
                raise ValueError(
                    f"scenario exhausted before checkpoint position {position}"
                )
        checkpoint = uninterrupted.checkpoint()
        if through_json:
            checkpoint = checkpoint_from_dict(checkpoint_to_dict(checkpoint))
        resumed = Session.resume(checkpoint, network=target)
        if trace_enabled:
            resumed.network.enable_round_logging(True)
        last_records: List = [None, None]

        def mismatch(step: int, change, detail: str) -> ConformanceMismatch:
            _write_divergence_dump(
                dump_dir,
                protocol,
                (source, target),
                scenario.seed,
                step,
                change,
                detail,
                [uninterrupted.network, resumed.network],
                last_records,
                trace_enabled,
                tag=f"resume_divergence_pos{position}",
                scenario=scenario,
            )
            return ConformanceMismatch(step, change, detail)

        while not uninterrupted.done:
            expected_record = uninterrupted.step()
            actual_record = resumed.step()
            last_records = [expected_record, actual_record]
            step = uninterrupted.position - 1
            if expected_record is None or actual_record is None:
                if (expected_record is None) != (actual_record is None):
                    raise mismatch(
                        step, None, "resumed run exhausted at a different point"
                    )
                break
            # Session.changes holds every change pulled so far, and the
            # uninterrupted session started at position 0, so the change
            # just applied sits at the position index for every workload.
            change = uninterrupted.changes[step] if step < len(uninterrupted.changes) else None
            if scenario.workload.is_dynamic and resumed.changes:
                if resumed.changes[-1] != change:
                    raise mismatch(
                        step,
                        change,
                        f"resumed workload diverged: {source} applied {change!r}, "
                        f"{target} applied {resumed.changes[-1]!r}",
                    )
            for field in metric_fields:
                lhs = getattr(expected_record, field)
                rhs = getattr(actual_record, field)
                if lhs != rhs:
                    raise mismatch(
                        step,
                        change,
                        f"{field} after resume at {position}: "
                        f"{source}={lhs!r} vs {target}={rhs!r}",
                    )
            if expected_record.adjusted_nodes != actual_record.adjusted_nodes:
                raise mismatch(
                    step,
                    change,
                    f"adjusted nodes after resume at {position}: "
                    f"{source}={sorted(expected_record.adjusted_nodes, key=repr)} "
                    f"vs {target}={sorted(actual_record.adjusted_nodes, key=repr)}",
                )
            if trace_enabled:
                expected_trace = _trace_tuples(uninterrupted.network)
                actual_trace = _trace_tuples(resumed.network)
                if expected_trace != actual_trace:
                    raise mismatch(
                        step,
                        change,
                        f"round trace after resume at {position}: "
                        f"{expected_trace!r} vs {actual_trace!r}",
                    )
            if uninterrupted.states() != resumed.states():
                raise mismatch(
                    step, change, f"states diverged after resume at {position}"
                )
        if uninterrupted.network.metrics != resumed.network.metrics:
            raise mismatch(-1, None, "accumulated metric totals differ after resume")
        for session in (uninterrupted, resumed):
            session.verify()
            checker = getattr(session.network, "check_interning_invariants", None)
            if checker is not None:
                checker()
        num_changes = uninterrupted.position
        final_mis_size = len(uninterrupted.mis())
    return ResumeDifferentialResult(
        protocol=protocol,
        networks=(source, target),
        positions=tuple(positions),
        num_changes=num_changes,
        final_mis_size=final_mis_size,
    )


def _trace_tuples(simulator) -> List[Tuple[int, int, int, List[Tuple]]]:
    """The last change's round trace as comparable plain tuples."""
    return [
        (record.round_number, record.messages_delivered, record.state_changes, record.broadcasts)
        for record in simulator.last_change_trace()
    ]


def _verify_all(networks: Tuple[str, ...], simulators: List, reference_engine: str) -> None:
    for name, simulator in zip(networks, simulators):
        simulator.verify(reference_engine=reference_engine)
        checker = getattr(simulator, "check_interning_invariants", None)
        if checker is not None:
            checker()


# ----------------------------------------------------------------------
# Divergence dumps (uploaded as CI artifacts on nightly failures)
# ----------------------------------------------------------------------
def _write_divergence_dump(
    dump_dir: Optional[Path],
    protocol: str,
    networks: Tuple[str, ...],
    seed: int,
    step: int,
    change,
    detail: str,
    simulators: List,
    last_records: List,
    trace_enabled: bool,
    tag: str = "divergence",
    scenario=None,
) -> Optional[Path]:
    """Write one JSON dump describing a divergent replay step (best effort).

    ``tag`` prefixes the file name; the resume differential uses
    ``resume_divergence_pos<p>`` so checkpoint failures are distinguishable
    in the uploaded CI artifacts.  When the caller ran from a scenario spec
    the dump embeds ``scenario.to_dict()`` (so ``repro-mis bisect
    --from-dump`` can rebuild the run).
    """
    if dump_dir is None:
        from_env = os.environ.get(DUMP_DIR_ENV)
        if not from_env:
            return None
        dump_dir = Path(from_env)
    try:
        dump_dir = Path(dump_dir)
        dump_dir.mkdir(parents=True, exist_ok=True)
        document = {
            "protocol": protocol,
            "networks": list(networks),
            "seed": seed,
            "step": step,
            "change": repr(change),
            "detail": detail,
            "backends": {
                name: _describe_simulator(simulator, last, trace_enabled)
                for name, simulator, last in zip(networks, simulators, last_records)
            },
        }
        if scenario is not None:
            document["scenario"] = scenario.to_dict()
        path = dump_dir / f"{tag}_{protocol}_seed{seed}_step{step}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True, default=repr) + "\n")
        return path
    except OSError:  # pragma: no cover - never fail the assertion over a dump
        return None


def _describe_simulator(simulator, last, trace_enabled: bool) -> Dict:
    """One backend's post-divergence state and last returned record, JSON-ready."""
    description: Dict = {
        "num_nodes": simulator.graph.num_nodes(),
        "num_edges": simulator.graph.num_edges(),
        "mis": sorted(simulator.mis(), key=repr),
        "states": {repr(node): in_mis for node, in_mis in sorted(
            simulator.states().items(), key=lambda item: repr(item[0])
        )},
        "last_change_metrics": last.as_dict() if last is not None else None,
    }
    if trace_enabled:
        description["last_change_trace"] = [
            {
                "round": record.round_number,
                "messages_delivered": record.messages_delivered,
                "state_changes": record.state_changes,
                "broadcasts": [list(map(repr, entry)) for entry in record.broadcasts],
            }
            for record in simulator.last_change_trace()
        ]
    return description
