"""The streaming :class:`Session` runner: drive any spec through any backend.

A session materializes a :class:`~repro.scenario.spec.ScenarioSpec` into
``(initial_graph, changes)``, builds the requested backend (a sequential
:class:`~repro.core.dynamic_mis.DynamicMIS` or a distributed simulator from
the network registry) and streams the workload through it:

* :meth:`Session.step` applies the next change (or batch) and notifies the
  attached observers (:mod:`repro.scenario.sinks`);
* :meth:`Session.run` streams to the end, verifies, and returns a
  :class:`ScenarioResult`;
* :meth:`Session.checkpoint` captures a resumable
  :class:`SessionCheckpoint` between steps, and :meth:`Session.resume`
  continues it in a fresh session -- on the same backend or a different
  registered one.

Checkpointing works for **every** backend the registries know: sequential
sessions ride on the engines'
:meth:`~repro.core.engine_api.MISEngine.snapshot` /
:meth:`~repro.core.engine_api.MISEngine.restore` pair, protocol sessions on
the simulators'
:class:`~repro.distributed.state.NetworkSnapshot` pair -- both sides of the
shared :class:`~repro.core.state_api.Checkpointable` contract.  Because both
snapshot flavors are label-keyed, a checkpoint taken on one backend resumes
on another (``resume(checkpoint, engine="fast")`` for sequential sessions,
``resume(checkpoint, network="fast")`` for protocol sessions).

Checkpoint/resume is *exact*: node priorities are a pure function of
``(seed, node)`` (see :class:`~repro.core.priorities.RandomPriorityAssigner`),
so a resumed session applies the identical remaining workload to the
identical restored state and lands on the same outputs, statistics and
per-change metrics -- machine-checked by the checkpoint differentials in
``tests/test_scenario_session.py`` and
:func:`repro.testing.protocol_differential.replay_resume_differential`.
Asynchronous scenarios under the ``"random"`` delay scheduler are the
exception.  The snapshot carries the scheduler's RNG stream position
(:attr:`~repro.distributed.state.NetworkSnapshot.scheduler_state`), so a
same-backend resume draws the identical remaining delays, but the
scheduler hands them to receivers in neighbor order, and a restored
simulator, which builds each node's neighbors from the snapshot's edge
list, can enumerate them in another order than the live one, which built
them change by change.  After churn a same-backend resume can therefore
give the delays to other channels, and its broadcasts, state changes and
causal depths can diverge from the uninterrupted run's.  Exact async resume,
and every cross-*backend* comparison (the dict and fast cores enumerate
receivers in different orders too), needs a channel-deterministic
scheduler (kind ``"adversarial"`` or ``"fixed"``).

Every workload streams through one change iterator.  Static kinds iterate
the materialized list; a resumed session replays its applied prefix from a
fresh one.  Dynamic workloads (``workload.kind == "adaptive_adversary"``) are
generated against the live backend one change at a time; their checkpoint
carries the adversary's RNG state, so even an adaptive run resumes exactly.

Because history independence and per-node priorities make a session's state
a pure function of ``(spec, position)``, any past state is rebuilt by
re-executing the spec: :meth:`Session.replay_to` rewinds a session that way,
and :func:`repro.scenario.bisect.bisect_first_divergence` (the
``repro-mis bisect`` command) re-executes both runs at every probe.
"""

from __future__ import annotations

import copy
import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.dynamic_mis import DynamicMIS, MaintainerStatistics
from repro.core.engine_api import EngineSnapshot
from repro.core.state_api import Checkpointable
from repro.distributed.network_api import create_network
from repro.distributed.state import NetworkSnapshot
from repro.graph.dynamic_graph import DynamicGraph
from repro.scenario.sinks import ScenarioObserver, create_sink
from repro.scenario.spec import ScenarioSpec
from repro.workloads.adversary import AdaptiveAdversary
from repro.workloads.changes import TopologyChange

Node = Hashable


@dataclass(frozen=True)
class SessionCheckpoint:
    """A resumable point of a scenario session, any runner.

    Holds the spec (static workloads re-materialize from it
    deterministically), the number of changes already applied, the backend's
    label-keyed snapshot (an :class:`~repro.core.engine_api.EngineSnapshot`
    for sequential sessions, a
    :class:`~repro.distributed.state.NetworkSnapshot` for protocol sessions)
    and the runner-side extras: a copy of the sequential statistics (fixed-size
    totals, like a network snapshot's metrics), and the adaptive adversary's
    RNG state for dynamic workloads.  Because both
    snapshot flavors are label-keyed, a checkpoint taken on one backend can
    resume on another (``resume(checkpoint, engine="fast")`` /
    ``resume(checkpoint, network="fast")``) -- the cross-backend analogue of
    the differential harness's rewind.

    Checkpoints serialize to JSON files through
    :mod:`repro.scenario.checkpoint_io` (the CLI's ``--checkpoint-path`` /
    ``--resume-from`` flags).
    """

    spec: ScenarioSpec
    position: int
    snapshot: Union[EngineSnapshot, NetworkSnapshot]
    statistics: Optional[MaintainerStatistics] = None
    workload_state: Optional[Tuple] = None
    #: Wall-clock seconds spent inside apply calls up to this point; the
    #: resumed session continues the clock, so its result's ``per_change_us``
    #: averages over the whole run, not just the resumed stretch.
    elapsed_s: float = 0.0

    @property
    def runner(self) -> str:
        """Which runner family took the checkpoint."""
        return self.spec.backend.runner

    @property
    def remaining_changes(self) -> int:
        """How many workload changes are still to be applied after this point."""
        return self.spec_total_changes - self.position

    @property
    def spec_total_changes(self) -> int:
        """Total workload length of the underlying spec.

        For dynamic (adaptive) workloads this is the declared change budget;
        the adversary may stop early if the backend's MIS empties out.
        """
        if self.spec.workload.is_dynamic:
            return self.spec.workload.num_changes
        return len(self.spec._changes())


@dataclass
class ScenarioResult:
    """Outcome of one completed scenario run."""

    name: str
    runner: str
    backend: str
    num_changes: int
    elapsed_s: float
    final_mis_size: int
    final_num_nodes: int
    verified: bool
    summary: Dict[str, Any] = field(default_factory=dict)

    @property
    def per_change_us(self) -> float:
        """Mean wall-clock microseconds per applied change."""
        return self.elapsed_s / self.num_changes * 1e6 if self.num_changes else 0.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (used by benchmark payloads)."""
        return {
            "name": self.name,
            "runner": self.runner,
            "backend": self.backend,
            "num_changes": self.num_changes,
            "elapsed_s": self.elapsed_s,
            "per_change_us": self.per_change_us,
            "final_mis_size": self.final_mis_size,
            "final_num_nodes": self.final_num_nodes,
            "verified": self.verified,
            "summary": dict(self.summary),
        }


class Session:
    """Stream one scenario through one backend, notifying observers.

    Parameters
    ----------
    spec:
        The scenario to run (validated and materialized upfront; adaptive
        workloads are generated change by change against the live backend).
    observers:
        Extra :class:`~repro.scenario.sinks.ScenarioObserver` instances, on
        top of the sinks named in ``spec.sinks``.

    Use :meth:`Session.resume` (not the constructor) to continue from a
    :class:`SessionCheckpoint`.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        observers: Iterable[ScenarioObserver] = (),
        _checkpoint: Optional[SessionCheckpoint] = None,
    ) -> None:
        spec.validate()
        self._spec = spec
        self._observers: List[ScenarioObserver] = [
            create_sink(name) for name in spec.sinks
        ]
        self._observers.extend(observers)
        self._position = 0 if _checkpoint is None else _checkpoint.position
        self._elapsed = 0.0 if _checkpoint is None else _checkpoint.elapsed_s
        self._started = False
        self._exhausted = False  # the adaptive adversary stopped early
        # The one change iterator; static and adaptive workloads differ only
        # in how it is built, resumed and has its state read.
        self._changes: List[TopologyChange] = []  # pulled from the iterator so far
        self._workload: Iterator[TopologyChange]
        # Only a fresh backend is built from the starting graph; the session
        # drops it once the backend is built (see initial_graph).
        initial_graph: Optional[DynamicGraph] = None
        if spec.workload.is_dynamic:
            if _checkpoint is None:
                initial_graph = spec.graph.build()
            self._num_changes = spec.workload.num_changes
            adversary = AdaptiveAdversary(
                self.mis, self._num_changes - self._position, rng_seed=spec.workload.seed
            )
            if _checkpoint is not None and _checkpoint.workload_state is not None:
                adversary.setstate(_checkpoint.workload_state)
            self._workload = adversary
        else:
            if _checkpoint is None:
                initial_graph, changes = spec.materialize()
            else:
                changes = spec._changes()
            self._num_changes = len(changes)
            self._workload = iter(changes)
            self._changes.extend(itertools.islice(self._workload, self._position))
        unit_starts = range(0, self._num_changes, spec.batch_size or 1)
        if self._position != self._num_changes and self._position not in unit_starts:
            raise ValueError(
                f"checkpoint position {self._position} does not align with the batch "
                f"boundaries of batch_size={spec.batch_size}"
            )

        self._maintainer: Optional[DynamicMIS] = None
        self._network = None
        if spec.backend.runner == "sequential":
            engine = spec.backend.engine
            if _checkpoint is None:
                self._maintainer = DynamicMIS(
                    seed=spec.seed, initial_graph=initial_graph, engine=engine
                )
            else:
                # Rebuild the engine empty, then restore the label-level
                # snapshot; priorities are a pure function of (seed, node),
                # so future insertions draw the same IDs as an uninterrupted
                # run (which is what makes resume exact).
                self._maintainer = DynamicMIS(seed=spec.seed, engine=engine)
                self._maintainer.engine.restore(_checkpoint.snapshot)
                self._maintainer._statistics = copy.deepcopy(_checkpoint.statistics)
        else:
            kwargs: Dict[str, Any] = {"seed": spec.seed}
            scheduler = spec.backend.build_scheduler()
            if scheduler is not None:
                kwargs["scheduler"] = scheduler
            if _checkpoint is None:
                self._network = create_network(
                    spec.backend.protocol,
                    network=spec.backend.network,
                    initial_graph=initial_graph,
                    **kwargs,
                )
            else:
                # Same shape as the sequential path: build the simulator
                # empty, then restore the NetworkSnapshot (label-keyed, so
                # the dict and fast cores restore each other's checkpoints).
                self._network = create_network(
                    spec.backend.protocol, network=spec.backend.network, **kwargs
                )
                self._network.restore(_checkpoint.snapshot)

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def spec(self) -> ScenarioSpec:
        """The scenario being run."""
        return self._spec

    @property
    def initial_graph(self) -> DynamicGraph:
        """The materialized starting graph (do not mutate).

        Rebuilt from the spec when read, without generating the workload: a
        live session holds only its backend's graph, and a resumed one never
        built a starting graph.  Fresh or resumed, it equals
        ``spec.materialize()[0]``.
        """
        return self._spec._starting_graph()

    @property
    def changes(self) -> List[TopologyChange]:
        """The changes pulled from the workload so far, extended in place.

        A resumed static session starts with its replayed prefix; a resumed
        adaptive session holds only the changes generated since the resume.
        """
        return self._changes

    @property
    def maintainer(self) -> Optional[DynamicMIS]:
        """The sequential maintainer (``None`` for protocol sessions)."""
        return self._maintainer

    @property
    def network(self):
        """The distributed simulator (``None`` for sequential sessions)."""
        return self._network

    @property
    def position(self) -> int:
        """Number of individual changes applied so far."""
        return self._position

    @property
    def num_changes(self) -> int:
        """Total workload length: the materialized list's for static
        workloads, the declared budget for adaptive ones (which may stop
        early).  ``len(changes)`` reaches it only when the session is done."""
        return self._num_changes

    @property
    def done(self) -> bool:
        """Whether the whole workload has been applied."""
        return self._exhausted or self._position >= self._num_changes

    @property
    def elapsed_s(self) -> float:
        """Wall-clock seconds spent inside apply calls (resumed sessions
        continue the interrupted run's clock from the checkpoint)."""
        return self._elapsed

    def mis(self) -> Set[Node]:
        """The backend's current maximal independent set."""
        return self._runner.mis()

    def states(self) -> Dict[Node, bool]:
        """The backend's full output map ``node -> in MIS?``."""
        return self._runner.states()

    @property
    def graph(self):
        """The backend's current graph view."""
        return self._runner.graph

    def verify(self) -> None:
        """Assert the backend's invariant (protocol: against the spec engine)."""
        if self._maintainer is not None:
            self._maintainer.verify()
        else:
            self._network.verify(reference_engine=self._spec.backend.engine)

    def status(self) -> Dict[str, Any]:
        """A JSON-ready progress summary of the running session.

        This is the introspection hook of the service layer
        (:mod:`repro.service`), which adds it to every reply, so it carries
        only plain values that cost O(1) to read: never the MIS or the
        output map, whose size grows with n (``mis()`` / ``states()`` serve
        those on request).
        """
        return {
            "name": self._spec.name,
            "runner": self._spec.backend.runner,
            "backend": self._spec.backend.describe(),
            "position": self._position,
            "num_changes": self.num_changes,
            "done": self.done,
            "elapsed_s": self._elapsed,
            "num_nodes": self.graph.num_nodes(),
        }

    def metrics_summary(self) -> Dict[str, Any]:
        """The backend's accumulated per-change cost summary (JSON-ready).

        Sequential sessions report the maintainer statistics (Theorem 1
        quantities), protocol sessions the simulator's complexity-measure
        means.  :meth:`run` folds the same summary into its
        :class:`ScenarioResult`; the service layer serves it mid-run.
        """
        if self._maintainer is not None:
            stats = self._maintainer.statistics
            summary: Dict[str, Any] = {
                "mean_influenced_size": stats.mean_influenced_size(),
                "mean_adjustments": stats.mean_adjustments(),
                "max_adjustments": stats.max_adjustments(),
                "mean_update_work": stats.mean_update_work(),
            }
            if stats.num_batches:
                summary["num_batches"] = stats.num_batches
                summary["mean_batch_adjustments_per_change"] = (
                    stats.mean_batch_adjustments_per_change()
                )
            return summary
        return self._network.metrics.summary()

    @property
    def _runner(self):
        return self._maintainer if self._maintainer is not None else self._network

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    def step(self):
        """Apply the next change (or batch); notify observers; return the record.

        Returns ``None`` when the workload is exhausted (for adaptive
        workloads: also when the adversary finds no MIS node left to delete).
        """
        if self.done:
            return None
        self._notify_start()
        unit = self._next_unit()
        if not unit:
            return None
        start = time.perf_counter()
        if self._spec.batch_size and self._maintainer is not None:
            record = self._maintainer.apply_batch(unit)
        elif self._maintainer is not None:
            record = self._maintainer.apply(unit[0])
        else:
            record = self._network.apply(unit[0])
        self._elapsed += time.perf_counter() - start
        if self._spec.batch_size:
            for observer in self._observers:
                observer.on_batch(self._position // self._spec.batch_size, unit, record)
        else:
            for observer in self._observers:
                observer.on_change(self._position, unit[0], record)
        self._position += len(unit)
        return record

    def _next_unit(self) -> List[TopologyChange]:
        unit = list(itertools.islice(self._workload, self._spec.batch_size or 1))
        self._exhausted = not unit
        self._changes.extend(unit)
        return unit

    def __iter__(self) -> Iterator:
        """Yield the per-unit records while streaming to the end."""
        while not self.done:
            record = self.step()
            if record is None:
                break
            yield record

    def run(self, verify: bool = True) -> ScenarioResult:
        """Stream to the end and return the :class:`ScenarioResult`.

        ``elapsed_s`` covers the apply calls of the whole run: a resumed
        session starts from the checkpoint's accumulated clock, so
        ``per_change_us`` stays an honest whole-run average.
        """
        self._notify_start()
        while not self.done:
            if self.step() is None:
                break
        if verify:
            self.verify()
        result = self._build_result(verified=verify)
        for observer in self._observers:
            observer.on_end(self, result)
        return result

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint(self, full: bool = False) -> SessionCheckpoint:
        """Capture a resumable checkpoint of the current state.

        Works for every registered backend: sequential sessions snapshot the
        engine, protocol sessions the simulator (both label-level; a
        simulator's restore derives each node's knowledge from the node
        states).  The backend must satisfy the
        :class:`~repro.core.state_api.Checkpointable` contract -- all
        built-ins do; a third-party backend without a snapshot/restore pair
        raises :class:`TypeError` here.

        Every checkpoint is a full snapshot; ``full`` changes nothing and is
        accepted only so existing callers keep working.
        """
        return SessionCheckpoint(
            spec=self._spec,
            position=self._position,
            snapshot=self._checkpoint_backend().snapshot(),
            statistics=(
                copy.deepcopy(self._maintainer.statistics)
                if self._maintainer is not None
                else None
            ),
            workload_state=self._workload_state(),
            elapsed_s=self._elapsed,
        )

    def replay_to(self, position: int, observers: Iterable[ScenarioObserver] = ()) -> "Session":
        """Time travel: a fresh session positioned at ``position`` of this run.

        Re-executes the spec from the start to ``position`` (any point from 0
        to the current position; a unit boundary for batched specs) with the
        sinks detached, then resumes there, so the returned session continues
        from exactly that state -- same outputs, statistics, scheduler
        stream and adversary stream as this run had there.  Its own sinks
        see only the changes after ``position``.
        """
        if not 0 <= position <= self._position:
            raise ValueError(
                f"position {position} is outside this session's range [0, {self._position}]"
            )
        if position % (self._spec.batch_size or 1) and position != self._position:
            raise ValueError(
                f"position {position} does not align with the batch boundaries "
                f"of batch_size={self._spec.batch_size}"
            )
        return Session.resume(_replayed_checkpoint(self._spec, position), observers=observers)

    @classmethod
    def resume(
        cls,
        checkpoint: SessionCheckpoint,
        observers: Iterable[ScenarioObserver] = (),
        engine: Optional[str] = None,
        network: Optional[str] = None,
    ) -> "Session":
        """Continue a checkpointed scenario in a fresh session.

        ``engine`` (sequential sessions) and ``network`` (protocol sessions)
        optionally resume on a *different* registered backend -- both
        snapshot flavors are label-keyed, so any backend of the same family
        can restore them.  The override is folded into the resumed session's
        spec, so results attribute the right backend and a re-checkpoint
        keeps it.
        """
        overrides = {}
        if engine is not None:
            overrides["engine"] = engine
        if network is not None:
            overrides["network"] = network
        if overrides:
            checkpoint = dataclasses.replace(
                checkpoint, spec=checkpoint.spec.with_backend(**overrides)
            )
        return cls(checkpoint.spec, observers=observers, _checkpoint=checkpoint)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _checkpoint_backend(self):
        backend = self._maintainer.engine if self._maintainer is not None else self._network
        if not isinstance(backend, Checkpointable):
            raise TypeError(
                f"backend {type(backend).__name__} implements no snapshot/restore "
                "pair (see repro.core.state_api.Checkpointable)"
            )
        return backend

    def _notify_start(self) -> None:
        if not self._started:
            self._started = True
            for observer in self._observers:
                observer.on_start(self)

    def _workload_state(self) -> Optional[Tuple]:
        """The adversary's resumable state (static workloads replay instead)."""
        if isinstance(self._workload, AdaptiveAdversary):
            return self._workload.getstate()
        return None

    def _build_result(self, verified: bool) -> ScenarioResult:
        summary = self.metrics_summary()
        return ScenarioResult(
            name=self._spec.name,
            runner=self._spec.backend.runner,
            backend=self._spec.backend.describe(),
            num_changes=self._position,
            elapsed_s=self._elapsed,
            final_mis_size=len(self.mis()),
            final_num_nodes=self.graph.num_nodes(),
            verified=verified,
            summary=summary,
        )


def _replayed_checkpoint(
    spec: ScenarioSpec,
    position: Optional[int] = None,
    start: Optional[SessionCheckpoint] = None,
    observers: Iterable[ScenarioObserver] = (),
) -> SessionCheckpoint:
    """Re-execute ``spec`` to ``position`` and return the full checkpoint there.

    Runs from the start, or resumes ``start`` (a checkpoint of the same spec
    at or before ``position``); ``position=None`` runs to the end of the
    workload.  The spec's sinks are detached, so a re-execution never
    touches a sink file; ``observers`` still see every change it applies.
    The returned checkpoint carries ``spec`` itself, sinks included.
    Raises :class:`ValueError` if the run cannot stop exactly at
    ``position``.
    """
    detached = dataclasses.replace(spec, sinks=())
    if start is None:
        session = Session(detached, observers=observers)
    else:
        session = Session.resume(dataclasses.replace(start, spec=detached), observers=observers)
    target = session.num_changes if position is None else position
    while session.position < target and session.step() is not None:
        pass
    if position is not None and session.position != position:
        raise ValueError(
            f"re-executing scenario {spec.name!r} stopped at position "
            f"{session.position}, not {position}"
        )
    return dataclasses.replace(session.checkpoint(), spec=spec)


def run_scenario(
    spec: ScenarioSpec,
    observers: Iterable[ScenarioObserver] = (),
    verify: bool = True,
) -> ScenarioResult:
    """Build a :class:`Session` for ``spec``, run it to the end, return the result."""
    return Session(spec, observers=observers).run(verify=verify)


def run_scenario_grid(
    spec: ScenarioSpec,
    backends: Sequence[Tuple[str, Dict[str, Any]]],
    verify: bool = True,
) -> List[ScenarioResult]:
    """Run the *same* scenario across a grid of backend overrides.

    ``backends`` is a list of ``(label, overrides)`` pairs; each override
    dict is applied to the spec's :class:`~repro.scenario.spec.BackendSpec`
    (e.g. ``("fast", {"engine": "fast"})``).  The workload is identical by
    construction -- it re-materializes from the same spec -- which is what
    benchmark sweeps and conformance comparisons need.  (Adaptive workloads
    are generated per backend; because all backends are observably
    identical, the generated streams coincide too.)
    """
    results = []
    for label, overrides in backends:
        variant = spec.with_backend(**overrides)
        result = run_scenario(variant, verify=verify)
        result.name = f"{spec.name or 'scenario'}[{label}]"
        results.append(result)
    return results
