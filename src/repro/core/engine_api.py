"""The formal engine contract: :class:`MISEngine` and the backend registry.

The library maintains the random-greedy MIS of a fully dynamic graph behind
*interchangeable* engine backends: the paper-shaped dict/set
:class:`~repro.core.template.TemplateEngine` and the array-backed
:class:`~repro.core.fast_engine.FastEngine` already share an informal
contract (machine-checked by ``tests/conformance/``).  This module makes that
contract formal so that third-party backends -- including compiled
Rust/Cython slots, a ROADMAP open item -- can plug in without touching any
core module:

* :class:`MISEngine` is the abstract base class every backend implements:
  the four single-change operations returning an update report, the
  batch-first :meth:`MISEngine.apply_batch` returning a
  :class:`BatchUpdateReport`, the read views (``mis()`` / ``states()`` /
  ``in_mis()`` / ``clustering()`` / ``graph`` / ``priorities``), the
  invariant check ``verify()``, and the :meth:`MISEngine.snapshot` /
  :meth:`MISEngine.restore` pair used by the differential harness to rewind
  an engine between replay variants.
* :func:`register_engine` / :func:`available_engines` / :func:`create_engine`
  form the registry: :class:`~repro.core.dynamic_mis.DynamicMIS` resolves
  its ``engine=...`` argument (a name, an engine class, or a pre-built
  instance) through here, the CLI sources its ``--engine`` choices from
  :func:`available_engines`, and the distributed simulators'
  ``verify(reference_engine=...)`` builds its reference through
  :func:`create_engine`.

A new backend is validated by pointing
:func:`repro.testing.differential.replay_differential` (and its batched
sibling :func:`~repro.testing.differential.replay_batch_differential`) at
its registered name next to ``"template"`` -- see the README's
"Engine backends" section for a worked example.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.registry import Registry, UnknownNameError

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports, no cycle
    from repro.core.priorities import PriorityAssigner
    from repro.graph.dynamic_graph import DynamicGraph

Node = Hashable


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@dataclass
class BatchUpdateReport:
    """Outcome of applying one batch of topology changes atomically.

    Every engine backend returns this report from
    :meth:`MISEngine.apply_batch`.  The scalar cost counters are first-class
    fields so that array-backed engines never have to materialize a dict/set
    propagation trace; the template engine additionally attaches its full
    :class:`~repro.core.influenced.InfluencePropagation` in
    :attr:`propagation` for callers that want the level-by-level detail.

    Attributes
    ----------
    changes:
        The changes of the batch, in the order they were given.
    seed_nodes:
        Nodes whose invariant was re-checked directly because a change
        touched them (the batch analogue of ``v*``).
    influenced_labels:
        The influenced set ``S`` of the batch: every node that changed state
        at some point of the repair wave.
    influenced_size:
        ``|S|`` of the batch.
    num_adjustments:
        Nodes whose final output differs from before the batch.
    num_levels:
        Depth of the repair wave (rounds of a direct distributed run).
    state_flips:
        Total individual state flips, counting repeats.
    update_work:
        Neighbor inspections performed by the repair wave.
    evaluations:
        Per-node invariant re-evaluations performed by the repair wave.
    propagation:
        Optional full propagation trace.  The template engine fills it; the
        fast engine leaves it ``None`` (keeping the trace would put dict/set
        churn back on the hot path).
    """

    changes: List[Any] = field(default_factory=list)
    seed_nodes: Set[Node] = field(default_factory=set)
    influenced_labels: FrozenSet[Node] = frozenset()
    influenced_size: int = 0
    num_adjustments: int = 0
    num_levels: int = 0
    state_flips: int = 0
    update_work: int = 0
    evaluations: int = 0
    propagation: Optional["InfluencePropagation"] = None

    @property
    def batch_size(self) -> int:
        """Number of changes in the batch."""
        return len(self.changes)

    @property
    def influenced_set(self) -> Set[Node]:
        """The influenced set ``S`` as a plain set (parity with UpdateReport)."""
        return set(self.influenced_labels)


#: Fields of a :class:`BatchUpdateReport` that every backend must agree on
#: (compared by the batched differential harness, mirroring
#: ``repro.testing.differential.REPORT_FIELDS`` for single changes).
BATCH_REPORT_FIELDS = (
    "batch_size",
    "influenced_size",
    "num_adjustments",
    "num_levels",
    "state_flips",
    "update_work",
    "evaluations",
)


@dataclass(frozen=True)
class EngineSnapshot:
    """Frozen copy of an engine's observable state, for :meth:`MISEngine.restore`.

    The snapshot is deliberately *label-level* (nodes, edges, output states
    and priority keys) rather than a dump of backend internals, so any
    backend can restore a snapshot taken from any other backend -- the
    differential harness relies on this to rewind engines between the
    batched and one-at-a-time replays of the same change sequence.
    """

    nodes: Tuple[Node, ...]
    edges: Tuple[Tuple[Node, Node], ...]
    states: Dict[Node, bool]
    priority_keys: Dict[Node, Tuple]

    @property
    def num_nodes(self) -> int:
        """Number of nodes captured in the snapshot."""
        return len(self.nodes)


# ----------------------------------------------------------------------
# The engine contract
# ----------------------------------------------------------------------
class MISEngine(ABC):
    """Abstract base class of every dynamic-MIS engine backend.

    An engine owns the current graph, the order ``pi`` (a
    :class:`~repro.core.priorities.PriorityAssigner`) and the output state of
    every node, and keeps the outputs equal to the random-greedy MIS of the
    current graph under ``pi`` across topology changes.  All backends must be
    *observably identical* under the same seed: same MIS sets, same report
    counters, same clustering views -- enforced by the differential
    conformance harness (:mod:`repro.testing.differential`).

    Single-change operations return an update report exposing at least the
    fields in :data:`repro.testing.differential.REPORT_FIELDS` plus
    ``influenced_set``; :meth:`apply_batch` returns a
    :class:`BatchUpdateReport`.
    """

    # -- topology changes ------------------------------------------------
    @abstractmethod
    def insert_edge(self, u: Node, v: Node) -> Any:
        """Insert edge ``{u, v}``, restore the invariant, return a report."""

    @abstractmethod
    def delete_edge(self, u: Node, v: Node) -> Any:
        """Delete edge ``{u, v}``, restore the invariant, return a report."""

    @abstractmethod
    def insert_node(self, node: Node, neighbors: Iterable[Node] = ()) -> Any:
        """Insert ``node`` with edges to existing ``neighbors``, return a report."""

    @abstractmethod
    def delete_node(self, node: Node) -> Any:
        """Delete ``node`` and its incident edges, return a report."""

    @abstractmethod
    def apply_batch(self, changes: Sequence[Any]) -> BatchUpdateReport:
        """Apply a whole batch of changes atomically (Section 6 open question).

        All graph deltas are applied first; the MIS invariant is then
        restored by a single repair wave seeded with every node whose
        invariant may have broken.  Must land on the same final states as
        applying the changes one at a time.
        """

    # -- read views ------------------------------------------------------
    @property
    @abstractmethod
    def graph(self):
        """The current graph (a :class:`~repro.graph.dynamic_graph.DynamicGraph`
        or a read-only view with the same read API).  Do not mutate directly."""

    @property
    @abstractmethod
    def priorities(self):
        """The order ``pi`` in use (a :class:`~repro.core.priorities.PriorityAssigner`)."""

    @abstractmethod
    def mis(self) -> Set[Node]:
        """The current maximal independent set (as labels)."""

    @abstractmethod
    def states(self) -> Dict[Node, bool]:
        """Copy of the full output map ``node -> in MIS?``."""

    @abstractmethod
    def in_mis(self, node: Node) -> bool:
        """Whether ``node`` is currently in the MIS."""

    @abstractmethod
    def clustering(self) -> Dict[Node, Node]:
        """Correlation-clustering view: every node -> its cluster center."""

    @abstractmethod
    def verify(self) -> None:
        """Assert the MIS invariant holds at every node (raise if violated)."""

    # -- snapshot / restore ----------------------------------------------
    def snapshot(self) -> EngineSnapshot:
        """Capture the engine's observable state as an :class:`EngineSnapshot`.

        The default implementation reads everything through the public views,
        so backends only need to override :meth:`restore`.
        """
        graph = self.graph
        priorities = self.priorities
        nodes = tuple(graph.nodes())
        return EngineSnapshot(
            nodes=nodes,
            edges=tuple(graph.edges()),
            states=dict(self.states()),
            priority_keys={node: tuple(priorities.key(node)) for node in nodes},
        )

    @abstractmethod
    def restore(self, snapshot: EngineSnapshot) -> None:
        """Reset the engine to a previously captured :class:`EngineSnapshot`.

        After ``restore(snap)`` the engine's graph, states and priority keys
        equal those at ``snapshot()`` time; subsequent changes behave as if
        the intervening ones never happened.  Cost counters of past reports
        are not rewound (reports are values, not engine state).
        """


#: What ``DynamicMIS(engine=...)`` accepts: a registered name, an engine
#: class (or factory callable), or a pre-built engine instance.
EngineSpec = Union[str, Callable[..., MISEngine], MISEngine]

#: Signature of a registered backend factory: keyword arguments
#: ``priorities`` (a PriorityAssigner) and ``initial_graph`` (a DynamicGraph
#: or None), returning a ready :class:`MISEngine`.
EngineFactory = Callable[..., MISEngine]


# ----------------------------------------------------------------------
# Registry (a thin wrapper over the shared repro.registry helper)
# ----------------------------------------------------------------------
class UnknownEngineError(UnknownNameError):
    """An engine name that is not in the registry (with a did-you-mean hint)."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__("engine", name, known)


_REGISTRY = Registry("engine", error=UnknownEngineError)


def register_engine(name: str, factory: EngineFactory, overwrite: bool = False) -> None:
    """Register an engine backend under ``name``.

    ``factory`` must accept the keyword arguments ``priorities`` and
    ``initial_graph`` and return a ready :class:`MISEngine` (engine classes
    with that constructor signature qualify directly).  After registration
    the backend is selectable everywhere a name is: ``DynamicMIS(engine=name)``,
    the CLI's ``--engine``, the distributed ``verify(reference_engine=name)``
    and the differential harness's ``engines=(...)`` tuples.

    Parameters
    ----------
    name:
        Registry key.  Re-registering an existing name raises unless
        ``overwrite=True`` (guards against accidental shadowing of the
        built-in backends).
    factory:
        Engine class or factory callable.
    overwrite:
        Allow replacing an existing registration.
    """
    _REGISTRY.register(name, factory, overwrite=overwrite)


def unregister_engine(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent; mainly for tests)."""
    _REGISTRY.unregister(name)


def available_engines() -> Tuple[str, ...]:
    """The registered backend names, built-ins first, in registration order."""
    return _REGISTRY.names()


def get_engine_factory(name: str) -> EngineFactory:
    """The factory registered under ``name`` (raises :class:`UnknownEngineError`)."""
    return _REGISTRY.get(name)


def create_engine(
    spec: EngineSpec,
    priorities: "Optional[PriorityAssigner]" = None,
    initial_graph: "Optional[DynamicGraph]" = None,
) -> MISEngine:
    """Build (or pass through) an engine from an :data:`EngineSpec`.

    * a **string** is looked up in the registry and its factory called with
      ``priorities=`` / ``initial_graph=``;
    * a **class or callable** is called the same way (it does not need to be
      registered -- useful for one-off experimental backends);
    * a **pre-built instance** is returned as-is; ``priorities`` and
      ``initial_graph`` must then be ``None``, since the instance already
      owns its order and topology.
    """
    if isinstance(spec, MISEngine):
        if priorities is not None or initial_graph is not None:
            raise ValueError(
                "a pre-built engine instance already owns its priorities and "
                "graph; pass priorities/initial_graph only with a name or class"
            )
        return spec
    if isinstance(spec, str):
        factory = get_engine_factory(spec)
    elif callable(spec):
        factory = spec
    else:
        raise TypeError(
            f"engine must be a registered name, an engine class/factory, or a "
            f"MISEngine instance; got {spec!r}"
        )
    engine = factory(priorities=priorities, initial_graph=initial_graph)
    if not isinstance(engine, MISEngine):
        raise TypeError(
            f"engine factory {spec!r} returned {type(engine).__name__}, "
            "which is not a MISEngine"
        )
    return engine


def engine_spec_name(spec: EngineSpec) -> str:
    """Best-effort display name for an :data:`EngineSpec`.

    Registered names map to themselves; classes/factories and instances fall
    back to a registry reverse-lookup, then to the (lowercased) type name.
    """
    if isinstance(spec, str):
        return spec
    target = type(spec) if isinstance(spec, MISEngine) else spec
    for name, factory in _REGISTRY.items():
        if factory is target:
            return name
    return getattr(target, "__name__", type(spec).__name__).lower()


# ----------------------------------------------------------------------
# Built-in backends (lazy factories -- no circular imports)
# ----------------------------------------------------------------------
def _template_factory(
    priorities: "Optional[PriorityAssigner]" = None,
    initial_graph: "Optional[DynamicGraph]" = None,
) -> MISEngine:
    from repro.core.template import TemplateEngine

    return TemplateEngine(priorities=priorities, initial_graph=initial_graph)


def _fast_factory(
    priorities: "Optional[PriorityAssigner]" = None,
    initial_graph: "Optional[DynamicGraph]" = None,
) -> MISEngine:
    from repro.core.fast_engine import FastEngine

    return FastEngine(priorities=priorities, initial_graph=initial_graph)


register_engine("template", _template_factory)
register_engine("fast", _fast_factory)

# Deferred import for type checkers only (avoids a cycle at runtime).
from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.influenced import InfluencePropagation
