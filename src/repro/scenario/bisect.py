"""Bisect a scenario for the first change at which two runs diverge.

A session's state is a pure function of ``(spec, position)``: the MIS is
history independent and every node's priority is drawn from the seed.  So
any intermediate state of a run is rebuilt by re-executing the spec, and
:func:`bisect_first_divergence` needs no recording: it re-runs the
reference and the candidate at each of its O(log N) probes and compares
them, collecting each re-execution's per-change records with an observer
(a checkpoint carries only fixed-size totals).  This is the time-travel
primitive the sts debugger built for SDN traces, and the one-command repro
for a CI divergence artifact (``repro-mis bisect``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.dynamic_mis import CHANGE_COUNTERS
from repro.distributed.metrics import ChangeMetrics
from repro.distributed.state import NetworkSnapshot
from repro.scenario.checkpoint_io import checkpoint_from_dict, checkpoint_to_dict
from repro.scenario.session import SessionCheckpoint, _replayed_checkpoint
from repro.scenario.sinks import CallbackSink
from repro.workloads.changes import TopologyChange

Node = Hashable


@dataclass(frozen=True)
class BisectResult:
    """Outcome of :func:`bisect_first_divergence`."""

    diverged: bool
    #: First position (1-based change index) at which the candidate run's
    #: outputs differ from the reference; ``None`` when no divergence.
    position: Optional[int]
    #: The change applied at that position (``None`` at position 0: the
    #: backends disagreed before any change was applied).
    change: Optional[TopologyChange]
    num_changes: int
    probes: Tuple[int, ...] = ()
    detail: str = ""


def bisect_first_divergence(
    spec,
    *,
    networks: Optional[Sequence[str]] = None,
    engines: Optional[Sequence[str]] = None,
    resume_at: Optional[int] = None,
    through_json: bool = True,
) -> BisectResult:
    """Binary-search a scenario for the first change where two runs diverge.

    The *reference* run streams the scenario once to its end.  The bisect
    then probes O(log N) positions, each probe re-executing both runs from
    scratch up to the probed position and comparing their full output maps,
    the per-change records an observer collected on the way, and the
    accumulated totals (the end probe reuses the one full reference run; a
    deterministic run's records up to a position are a prefix of its
    full-length records):

    * ``networks=(a, b)`` / ``engines=(a, b)`` -- reference on backend ``a``,
      candidate on backend ``b`` (a cross-backend differential bisect);
    * ``resume_at=p`` -- candidate is the *same* backend, but checkpointed at
      ``p`` (through the JSON codec when ``through_json``) and resumed, so
      the bisect pins down where a checkpoint/resume round-trip loses state.

    Both may be combined.  At least one must be given -- otherwise the two
    runs are identical by construction.  Batched specs are rejected: a probe
    could land inside a batch.  Re-executions run with the spec's sinks
    detached, so bisecting never writes a sink file.
    """
    if networks is not None and engines is not None:
        raise ValueError("pass networks= or engines=, not both")
    pair = networks if networks is not None else engines
    if pair is not None and len(pair) != 2:
        raise ValueError("need exactly (reference, candidate) backend names")
    if pair is None and resume_at is None:
        raise ValueError(
            "nothing to compare: pass two backends (networks=/engines=) "
            "and/or a resume_at position"
        )
    if resume_at is not None and resume_at < 0:
        raise ValueError(f"resume_at cannot be negative, got {resume_at}")
    if spec.batch_size:
        raise ValueError("bisect needs an unbatched workload")

    if networks is not None:
        reference_spec = spec.with_backend(network=networks[0])
        candidate_spec = spec.with_backend(network=networks[1])
    elif engines is not None:
        reference_spec = spec.with_backend(engine=engines[0])
        candidate_spec = spec.with_backend(engine=engines[1])
    else:
        reference_spec = candidate_spec = spec

    reference_changes: List[TopologyChange] = []
    reference_end, reference_records = _recorded_run(
        reference_spec, None, changes=reference_changes
    )
    num_changes = reference_end.position

    def candidate_at(position: int) -> Tuple[SessionCheckpoint, List]:
        if resume_at is None or position <= resume_at:
            return _recorded_run(candidate_spec, position)
        checkpoint, records = _recorded_run(candidate_spec, resume_at)
        if through_json:
            checkpoint = checkpoint_from_dict(checkpoint_to_dict(checkpoint))
        checkpoint, resumed_records = _recorded_run(candidate_spec, position, start=checkpoint)
        return checkpoint, records + resumed_records

    probes: List[int] = []

    def probe(position: int) -> Tuple[bool, str]:
        """Re-execute both runs up to ``position`` and compare them."""
        probes.append(position)
        if position == num_changes:
            expected = reference_end
        else:
            expected = _replayed_checkpoint(reference_spec, position)
        try:
            actual, actual_records = candidate_at(position)
        except ValueError as error:
            return False, f"candidate run failed before position {position}: {error}"
        detail = _divergence_detail(
            expected, actual, reference_records[:position], actual_records, position
        )
        return detail is None, detail or ""

    equal_at_end, detail = probe(num_changes)
    if equal_at_end:
        return BisectResult(
            diverged=False,
            position=None,
            change=None,
            num_changes=num_changes,
            probes=tuple(probes),
        )
    equal_at_start, start_detail = probe(0)
    if not equal_at_start:
        return BisectResult(
            diverged=True,
            position=0,
            change=None,
            num_changes=num_changes,
            probes=tuple(probes),
            detail=start_detail,
        )
    low, high = 0, num_changes  # invariant: equal at low, diverged at high
    while high - low > 1:
        mid = (low + high) // 2
        equal, mid_detail = probe(mid)
        if equal:
            low = mid
        else:
            high, detail = mid, mid_detail
    return BisectResult(
        diverged=True,
        position=high,
        change=reference_changes[high - 1],
        num_changes=num_changes,
        probes=tuple(probes),
        detail=detail,
    )


def _outputs(checkpoint: SessionCheckpoint) -> Dict[Node, bool]:
    """A checkpoint's output map, as ``node -> in MIS?``."""
    states = checkpoint.snapshot.states
    if isinstance(checkpoint.snapshot, NetworkSnapshot):
        return {node: value == "M" for node, value in states.items()}
    return dict(states)


def _recorded_run(
    spec,
    position: Optional[int],
    start: Optional[SessionCheckpoint] = None,
    changes: Optional[List[TopologyChange]] = None,
) -> Tuple[SessionCheckpoint, List]:
    """Re-execute ``spec`` to ``position``: the checkpoint there, and the
    per-change records applied on the way as comparable plain values."""
    records: List[Any] = []

    def collect(step: int, change, record) -> None:
        if isinstance(record, ChangeMetrics):
            records.append(record.as_dict())
        else:
            fields = (getattr(record, name) for name in CHANGE_COUNTERS)
            records.append((*fields, record.change_type))
        if changes is not None:
            changes.append(change)

    checkpoint = _replayed_checkpoint(
        spec, position, start=start, observers=[CallbackSink(collect)]
    )
    return checkpoint, records


def _totals(checkpoint: SessionCheckpoint) -> Any:
    """A checkpoint's totals: the snapshot's metrics, or the statistics."""
    if isinstance(checkpoint.snapshot, NetworkSnapshot):
        return checkpoint.snapshot.metrics
    return checkpoint.statistics


def _divergence_detail(
    expected: SessionCheckpoint,
    actual: SessionCheckpoint,
    expected_records: List,
    actual_records: List,
    position: int,
) -> Optional[str]:
    """How the candidate's run to ``position`` differs from the reference's.

    Compares the full output map, the per-change records of the whole
    prefix (metrics for protocol runs, statistics fields for sequential
    ones) and the checkpoints' totals -- outputs alone are too weak a probe:
    the asynchronous protocol self-stabilizes to the same MIS under any
    delays, so a scheduling or metric divergence only ever shows up in the
    records, and totals alone miss a cost moved from one change to the
    next.  Comparing the whole prefix also keeps the bisect predicate
    monotone.  ``None`` means no divergence.
    """
    expected_outputs = _outputs(expected)
    actual_outputs = _outputs(actual)
    if expected_outputs != actual_outputs:
        diff = {
            node: (expected_outputs.get(node), actual_outputs.get(node))
            for node in set(expected_outputs) | set(actual_outputs)
            if expected_outputs.get(node) != actual_outputs.get(node)
        }
        preview = dict(sorted(diff.items(), key=lambda item: repr(item[0]))[:8])
        return (
            f"{len(diff)} node outputs differ at position {position} "
            f"(reference vs candidate): {preview}"
        )
    if expected_records == actual_records:
        if _totals(expected) == _totals(actual):
            return None
        return f"accumulated totals differ at position {position}"
    limit = min(len(expected_records), len(actual_records))
    first = next((i for i in range(limit) if expected_records[i] != actual_records[i]), limit)
    if first == limit:
        return (
            f"accumulated record counts differ at position {position}: "
            f"reference has {len(expected_records)}, candidate {len(actual_records)}"
        )
    return (
        f"per-change record {first + 1} differs (reference vs candidate): "
        f"{expected_records[first]!r} vs {actual_records[first]!r}"
    )
