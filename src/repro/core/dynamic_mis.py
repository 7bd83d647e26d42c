"""User-facing dynamic MIS maintainer built on the template engine.

:class:`DynamicMIS` is the library's primary sequential-semantics API: it
consumes :class:`~repro.workloads.changes.TopologyChange` events (or the
direct ``insert_edge`` / ``delete_edge`` / ``insert_node`` / ``delete_node``
calls) and keeps a maximal independent set equal to the random-greedy MIS of
the current graph under a fixed random order.

It wraps an interchangeable :class:`~repro.core.engine_api.MISEngine`
backend (the paper-shaped :class:`~repro.core.template.TemplateEngine` by
default; any backend registered with
:func:`repro.core.engine_api.register_engine` by name) and additionally

* keeps running totals of the per-change costs (influenced-set sizes,
  adjustments, propagation depths) in a :class:`MaintainerStatistics` record
  used by the experiments, and
* exposes the correlation-clustering view of the MIS (every MIS node is a
  cluster center; every other node joins its earliest MIS neighbor), which is
  the paper's 3-approximation for correlation clustering.

The distributed protocols of :mod:`repro.distributed` provide the same
outputs under message-passing constraints; this class is the reference they
are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set

from repro.core.engine_api import (
    BatchUpdateReport,
    EngineSpec,
    available_engines,
    create_engine,
    engine_spec_name,
)
from repro.core.priorities import PriorityAssigner, RandomPriorityAssigner
from repro.core.state_api import Totals
from repro.core.template import UpdateReport
from repro.graph.dynamic_graph import DynamicGraph
from repro.workloads.changes import (
    EdgeDeletion,
    EdgeInsertion,
    NodeDeletion,
    NodeInsertion,
    NodeUnmuting,
    TopologyChange,
)

Node = Hashable


def __getattr__(name: str) -> Any:
    # ``ENGINE_NAMES`` derives from the backend registry (single source of
    # truth): backends registered after import -- compiled third-party slots,
    # test-only references -- appear here automatically.
    if name == "ENGINE_NAMES":
        return available_engines()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: Counters of the single-change channel: :class:`UpdateReport` fields.
CHANGE_COUNTERS = (
    "influenced_size",
    "num_adjustments",
    "num_levels",
    "state_flips",
    "update_work",
)
#: Counters of the batch channel: :class:`BatchUpdateReport` fields.
BATCH_COUNTERS = ("batch_size", "influenced_size", "num_adjustments", "num_levels")


@dataclass
class MaintainerStatistics:
    """Running totals of the costs collected by :class:`DynamicMIS`.

    Two :class:`~repro.core.state_api.Totals` channels are kept:

    * ``changes`` -- count, sum and maximum of each :data:`CHANGE_COUNTERS`
      field over the individually applied changes, per change kind;
    * ``batches`` -- the same over the :meth:`DynamicMIS.apply_batch` calls
      (:data:`BATCH_COUNTERS`, one row of kind ``"batch"``).  Batch costs are
      *not* folded into the single-change channel -- a batch is one atomic
      repair wave, so its numbers are not comparable per-change.

    Both are fixed-size, so a checkpoint carrying the statistics does not
    grow with the session's age.  Per-change numbers are in the reports
    :meth:`DynamicMIS.apply` returns (and a session's sinks see).
    """

    changes: Totals = field(default_factory=lambda: Totals(CHANGE_COUNTERS))
    batches: Totals = field(default_factory=lambda: Totals(BATCH_COUNTERS))

    def record(self, report: UpdateReport) -> None:
        """Fold the numbers of one :class:`UpdateReport` into ``changes``."""
        # Count, sum and max per counter in CHANGE_COUNTERS order, unrolled:
        # this runs once per applied change.
        row = self.changes.rows.get(report.change_type) or self.changes.row(report.change_type)
        row[0] += 1
        row[1] += (value := report.influenced_size)
        if value > row[2]:
            row[2] = value
        row[3] += 1
        row[4] += (value := report.num_adjustments)
        if value > row[5]:
            row[5] = value
        row[6] += 1
        row[7] += (value := report.num_levels)
        if value > row[8]:
            row[8] = value
        row[9] += 1
        row[10] += (value := report.state_flips)
        if value > row[11]:
            row[11] = value
        row[12] += 1
        row[13] += (value := report.update_work)
        if value > row[14]:
            row[14] = value

    def record_batch(self, report: BatchUpdateReport) -> None:
        """Fold one :class:`~repro.core.engine_api.BatchUpdateReport` into ``batches``."""
        self.batches.add("batch", [getattr(report, name) for name in BATCH_COUNTERS])

    @property
    def num_changes(self) -> int:
        """Number of single changes applied so far (batches not included)."""
        return self.changes.num_records()

    @property
    def num_batches(self) -> int:
        """Number of batches applied so far."""
        return self.batches.num_records()

    @property
    def num_batched_changes(self) -> int:
        """Total number of changes applied through batches."""
        return self.batches.total("batch_size")

    def mean_batch_adjustments_per_change(self) -> float:
        """Mean adjustments per *individual batched change* (A2's quantity)."""
        total = self.num_batched_changes
        return self.batches.total("num_adjustments") / total if total else 0.0

    def mean_influenced_size(self) -> float:
        """Sample mean of ``|S|`` (the Theorem 1 quantity)."""
        return self.changes.mean("influenced_size")

    def mean_adjustments(self) -> float:
        """Sample mean of the adjustment complexity."""
        return self.changes.mean("num_adjustments")

    def mean_propagation_depth(self) -> float:
        """Sample mean of the propagation depth (direct-implementation rounds)."""
        return self.changes.mean("num_levels")

    def mean_update_work(self) -> float:
        """Sample mean of neighbor inspections per change (sequential update time)."""
        return self.changes.mean("update_work")

    def max_adjustments(self) -> int:
        """Worst single-change adjustment count."""
        return self.changes.maximum("num_adjustments")


class DynamicMIS:
    """Maintain a random-greedy MIS under fully dynamic topology changes.

    Parameters
    ----------
    seed:
        Seed of the random order ``pi`` (ignored if ``priorities`` is given).
        Accepts a plain ``int`` or a ``numpy.random.Generator`` /
        ``SeedSequence`` (see :func:`repro.core.rng.normalize_seed`).
    priorities:
        Custom priority assigner.  Passing a
        :class:`~repro.core.priorities.DeterministicPriorityAssigner` turns
        this class into the deterministic greedy baseline used by the
        lower-bound experiment.
    initial_graph:
        Optional starting graph whose MIS is computed upfront.
    engine:
        Backend selection, resolved through the registry of
        :mod:`repro.core.engine_api`; accepts

        * a **registered name** -- ``"template"`` (default, the paper-shaped
          dict/set :class:`~repro.core.template.TemplateEngine`), ``"fast"``
          (the array-backed :class:`~repro.core.fast_engine.FastEngine` with
          identical outputs, machine-checked by ``tests/conformance/``, and
          far lower constant factors), or any name added via
          :func:`repro.core.engine_api.register_engine`;
        * an **engine class or factory** callable as
          ``factory(priorities=..., initial_graph=...)``;
        * a **pre-built** :class:`~repro.core.engine_api.MISEngine`
          **instance** (``seed``/``priorities``/``initial_graph`` must then
          be left at their defaults -- the instance already owns them).

    Examples
    --------
    >>> from repro.graph.generators import path_graph
    >>> maintainer = DynamicMIS(seed=7, initial_graph=path_graph(5), engine="fast")
    >>> sorted(maintainer.mis())  # doctest: +SKIP
    [0, 2, 4]
    >>> report = maintainer.delete_node(2)
    >>> maintainer.verify()
    """

    def __init__(
        self,
        seed: int = 0,
        priorities: Optional[PriorityAssigner] = None,
        initial_graph: Optional[DynamicGraph] = None,
        engine: EngineSpec = "template",
    ) -> None:
        from repro.core.engine_api import MISEngine

        if isinstance(engine, MISEngine):
            if priorities is not None or initial_graph is not None or seed != 0:
                raise ValueError(
                    "a pre-built engine instance already owns its priorities and "
                    "graph; do not combine it with seed=/priorities=/initial_graph="
                )
            self._engine = create_engine(engine)
        else:
            if priorities is None:
                priorities = RandomPriorityAssigner(seed)  # normalizes the seed itself
            self._engine = create_engine(
                engine, priorities=priorities, initial_graph=initial_graph
            )
        self._engine_name = engine_spec_name(engine)
        self._statistics = MaintainerStatistics()

    # ------------------------------------------------------------------
    # Read access
    # ------------------------------------------------------------------
    @property
    def engine_name(self) -> str:
        """The backend in use (a registered name, or a derived display name)."""
        return self._engine_name

    @property
    def engine(self):
        """The underlying :class:`~repro.core.engine_api.MISEngine` backend."""
        return self._engine

    @property
    def graph(self) -> DynamicGraph:
        """The current graph (do not mutate directly).

        For the fast backend this is a read-only
        :class:`~repro.core.fast_engine.FastGraphView` with the same read API.
        """
        return self._engine.graph

    @property
    def priorities(self) -> PriorityAssigner:
        """The order ``pi`` in use."""
        return self._engine.priorities

    @property
    def statistics(self) -> MaintainerStatistics:
        """Running totals of the costs of the changes applied so far."""
        return self._statistics

    def mis(self) -> Set[Node]:
        """The current maximal independent set."""
        return self._engine.mis()

    def states(self) -> Dict[Node, bool]:
        """Copy of the full output map ``node -> in MIS?``."""
        return self._engine.states()

    def in_mis(self, node: Node) -> bool:
        """Whether ``node`` is currently in the MIS."""
        return self._engine.in_mis(node)

    def verify(self) -> None:
        """Assert the MIS invariant holds everywhere (used heavily in tests)."""
        self._engine.verify()

    def clustering(self) -> Dict[Node, Node]:
        """The correlation clustering induced by the current MIS.

        Every MIS node is its own cluster center; every non-MIS node joins the
        cluster of its earliest (smallest random ID) MIS neighbor.  This is
        the paper's 3-approximation for correlation clustering, maintained
        dynamically for free because it is a local function of the MIS and the
        IDs.  Delegates to the engine backend (both backends implement
        ``clustering()`` as part of the common interface).
        """
        return self._engine.clustering()

    # ------------------------------------------------------------------
    # Topology changes
    # ------------------------------------------------------------------
    def apply(self, change: TopologyChange) -> UpdateReport:
        """Apply one topology-change event and return its report."""
        if isinstance(change, EdgeInsertion):
            return self.insert_edge(change.u, change.v)
        if isinstance(change, EdgeDeletion):
            return self.delete_edge(change.u, change.v)
        if isinstance(change, (NodeInsertion, NodeUnmuting)):
            return self.insert_node(change.node, change.neighbors)
        if isinstance(change, NodeDeletion):
            return self.delete_node(change.node)
        raise TypeError(f"unknown change type: {change!r}")

    def apply_sequence(self, changes: Iterable[TopologyChange]) -> List[UpdateReport]:
        """Apply a whole change sequence, returning one report per change."""
        return [self.apply(change) for change in changes]

    def apply_batch(self, changes: Iterable[TopologyChange]) -> BatchUpdateReport:
        """Apply a whole batch of changes atomically (Section 6 open question).

        The graph is updated for every change first and the MIS invariant is
        restored by a single repair wave afterwards; every backend implements
        this natively (:meth:`~repro.core.engine_api.MISEngine.apply_batch`).
        Returns a :class:`~repro.core.engine_api.BatchUpdateReport`; its
        per-batch costs are folded into :attr:`statistics` on the dedicated
        batch channel (``statistics.batches``), separate from the
        single-change totals.
        """
        report = self._engine.apply_batch(list(changes))
        self._statistics.record_batch(report)
        return report

    def insert_edge(self, u: Node, v: Node) -> UpdateReport:
        """Insert edge ``{u, v}``."""
        return self._record(self._engine.insert_edge(u, v))

    def delete_edge(self, u: Node, v: Node) -> UpdateReport:
        """Delete edge ``{u, v}``."""
        return self._record(self._engine.delete_edge(u, v))

    def insert_node(self, node: Node, neighbors: Iterable[Node] = ()) -> UpdateReport:
        """Insert ``node`` with edges to existing ``neighbors``."""
        return self._record(self._engine.insert_node(node, neighbors))

    def delete_node(self, node: Node) -> UpdateReport:
        """Delete ``node`` and its incident edges."""
        return self._record(self._engine.delete_node(node))

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------
    def _record(self, report: UpdateReport) -> UpdateReport:
        self._statistics.record(report)
        return report

