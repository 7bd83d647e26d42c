"""The shared checkpoint contract: :class:`Checkpointable` and its helpers.

Two families of maintainers in this library can rewind: the sequential
engine backends (:class:`~repro.core.engine_api.MISEngine`, whose
label-level :class:`~repro.core.engine_api.EngineSnapshot` the differential
harness and :class:`~repro.scenario.session.Session` already use) and -- as
of this module -- the six distributed network simulators, whose
:class:`~repro.distributed.state.NetworkSnapshot` captures topology, node
states, priority keys, metrics, the asynchronous scheduler cursor and the
scheduler's own resumable state (the RNG stream position of the
``"random"`` delay scheduler).  Resume is exact for every channel-deterministic
scheduler; the random kind hands its delays out in neighbor order, which a
restored simulator need not share with the live one after churn.
Each node's local knowledge is not captured: between changes it is every
neighbor's key and current output, which restore derives as bootstrap
does.

:class:`Checkpointable` is the structural protocol both families satisfy:
``snapshot()`` returns a frozen, *label-keyed* value object and
``restore(snapshot)`` resets the object to it.  Label-keyed means the
snapshot never mentions backend internals (dense ids, array layouts), so a
snapshot taken on one backend restores on any other backend of the same
family -- the property that makes cross-backend resume
(``dict`` -> ``fast`` and back) exact.

The contract, shared by both snapshot flavors:

* ``restore(snap)`` leaves the object observably equal to its state at
  ``snapshot()`` time: same graph, same outputs, same priority keys, same
  local knowledge (networks, where restore derives it) -- so applying the
  identical remaining workload reproduces an uninterrupted run change for
  change.
* Snapshots are values: mutating the object after ``snapshot()`` never
  mutates an already-captured snapshot.
* Snapshots are only captured *between* changes (engines and simulators only
  return control to callers at quiescence, so this is automatic).

:class:`EventSequence` is the restorable tie-break counter used by the
asynchronous event loops in place of :func:`itertools.count` -- an
``itertools.count`` cannot report how far it advanced, which is exactly what
a checkpoint needs to record.

:class:`Totals` is the fixed-size form of a run's per-change cost records
that checkpoints carry (the sequential statistics and the simulators'
metrics): a session's state does not grow with its age, so neither does
its checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Protocol, Tuple, runtime_checkable


@runtime_checkable
class Checkpointable(Protocol):
    """Structural protocol of everything that can checkpoint and rewind.

    Satisfied by every registered engine backend (via
    :meth:`~repro.core.engine_api.MISEngine.snapshot` /
    :meth:`~repro.core.engine_api.MISEngine.restore`) and by every registered
    network simulator (via the :class:`~repro.distributed.state.NetworkSnapshot`
    pair).  :meth:`repro.scenario.session.Session.checkpoint` accepts any
    runner whose backend satisfies this protocol, so a third-party backend
    gains session checkpointing by implementing the two methods -- no session
    edits required.
    """

    def snapshot(self) -> Any:
        """Capture the observable state as a frozen, label-keyed value object."""
        ...  # pragma: no cover - protocol signature

    def restore(self, snapshot: Any) -> None:
        """Reset to a previously captured snapshot (same family, any backend)."""
        ...  # pragma: no cover - protocol signature


class EventSequence:
    """A restorable monotone counter (drop-in for ``next(itertools.count())``).

    The asynchronous simulators consume one value per scheduled delivery to
    keep their event heaps totally ordered; the number of values consumed is
    the *scheduler cursor* recorded in a
    :class:`~repro.distributed.state.NetworkSnapshot`, so a resumed simulator
    continues the sequence exactly where the interrupted one stopped.
    """

    __slots__ = ("value",)

    def __init__(self, start: int = 0) -> None:
        if start < 0:
            raise ValueError(f"event sequence cannot start below 0, got {start}")
        self.value = int(start)

    def __next__(self) -> int:
        value = self.value
        self.value = value + 1
        return value

    def __iter__(self) -> "EventSequence":
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EventSequence(value={self.value})"


@dataclass
class Totals:
    """Count, sum and maximum of named counters, per change kind: fixed size.

    ``rows`` maps each kind, in first-appearance order, to one flat list
    holding ``count, sum, max`` of every counter in ``counters`` in turn --
    the same size however many records were folded in.  The owners
    (:class:`~repro.distributed.metrics.MetricsAggregator`,
    :class:`~repro.core.dynamic_mis.MaintainerStatistics`) fold records in
    with unrolled updates on their per-change paths, elsewhere with
    :meth:`add`.  Counters are non-negative ints; a ``None`` value counts
    toward nothing, and the first counter is never ``None``, so its count is
    the number of records.  :meth:`to_record` is an ordered list of ``[kind,
    row]`` pairs, so a key-sorting JSON writer keeps the order.
    """

    counters: Tuple[str, ...]
    rows: Dict[str, List[int]] = field(default_factory=dict)

    def row(self, kind: str) -> List[int]:
        """The row of ``kind``, started at zero on its first record."""
        return self.rows.setdefault(kind, [0] * (3 * len(self.counters)))

    def add(self, kind: str, values: Iterable[Optional[int]]) -> None:
        """Fold one record's counter values, in ``counters`` order (a generic,
        slower twin of the owners' unrolled per-change updates)."""
        row = self.rows.get(kind) or self.row(kind)
        for index, value in zip(range(0, len(row), 3), values):
            if value is not None:
                row[index] += 1
                row[index + 1] += value
                if value > row[index + 2]:
                    row[index + 2] = value

    def _column(self, counter: str, kind: Optional[str], offset: int) -> List[int]:
        index = 3 * self.counters.index(counter) + offset
        rows: Iterable[List[int]] = self.rows.values()
        if kind is not None:
            rows = [self.rows[kind]] if kind in self.rows else []
        return [row[index] for row in rows]

    def count(self, counter: str, kind: Optional[str] = None) -> int:
        """How many records (optionally of one kind) carried ``counter``."""
        return sum(self._column(counter, kind, 0))

    def total(self, counter: str, kind: Optional[str] = None) -> int:
        """Sum of ``counter`` (optionally over one kind)."""
        return sum(self._column(counter, kind, 1))

    def maximum(self, counter: str, kind: Optional[str] = None) -> int:
        """Maximum of ``counter`` (optionally over one kind); 0 if none."""
        return max(self._column(counter, kind, 2), default=0)

    def mean(self, counter: str, kind: Optional[str] = None) -> float:
        """Mean of ``counter`` over the records carrying it; 0.0 if none."""
        count = self.count(counter, kind)
        return self.total(counter, kind) / count if count else 0.0

    def num_records(self, kind: Optional[str] = None) -> int:
        """Number of records folded in (optionally of one kind)."""
        return self.count(self.counters[0], kind)

    def kinds(self) -> List[str]:
        """The change kinds seen, in first-appearance order."""
        return list(self.rows)

    def copy(self) -> "Totals":
        """An independent copy (rows are mutable)."""
        return Totals(self.counters, {kind: list(row) for kind, row in self.rows.items()})

    def to_record(self) -> List[list]:
        """JSON-ready form: ``[[kind, row], ...]`` in first-appearance order."""
        return [[kind, list(row)] for kind, row in self.rows.items()]

    @classmethod
    def from_record(cls, counters: Tuple[str, ...], record: Iterable[Any]) -> "Totals":
        """Decode :meth:`to_record` output; ``ValueError`` if malformed."""
        totals = cls(counters)
        for kind, row in record:
            if not isinstance(kind, str) or kind in totals.rows:
                raise ValueError(f"totals kind {kind!r} is not a new string")
            if len(row) != 3 * len(counters) or any(type(value) is not int for value in row):
                raise ValueError(f"totals row of {kind!r} is not {3 * len(counters)} ints")
            totals.rows[kind] = list(row)
        return totals
