"""The shared checkpoint contract: :class:`Checkpointable` and its helpers.

Two families of maintainers in this library can rewind: the sequential
engine backends (:class:`~repro.core.engine_api.MISEngine`, whose
label-level :class:`~repro.core.engine_api.EngineSnapshot` the differential
harness and :class:`~repro.scenario.session.Session` already use) and -- as
of this module -- the six distributed network simulators, whose
:class:`~repro.distributed.state.NetworkSnapshot` captures topology, node
states, priority keys, metrics, the asynchronous scheduler cursor and the
scheduler's own resumable state (the RNG stream position of the
``"random"`` delay scheduler), so resume is exact for every scheduler kind.
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
"""

from __future__ import annotations

from typing import Any, Protocol, runtime_checkable


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
