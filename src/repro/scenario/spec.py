"""Declarative scenario specifications (the "one front door" of the library).

Every experiment in this repository -- the CLI commands, the benchmark
sweeps, the differential conformance runs, the examples -- is an instance of
one shape: *a graph family + a stream of topology changes + a maintainer
backend + per-change measurements*.  A :class:`ScenarioSpec` captures that
shape as a plain value object with an exact dict/JSON round-trip, so a whole
experiment can be stored next to its results, replayed bit-identically on any
registered backend, swept as a ``spec x backend`` grid, or shipped in a bug
report.

A spec has four parts:

* :class:`GraphSpec` -- the starting (or, for build workloads, target) graph:
  a family name from :data:`repro.graph.generators.FAMILY_NAMES`, a node
  count, a seed and optional family parameters (e.g. an explicit
  ``edge_probability`` for ``erdos_renyi``).
* :class:`WorkloadSpec` -- the change stream.  The ``kind`` selects a
  generator from :mod:`repro.workloads.sequences` (or a saved trace file);
  together the kinds cover all six topology-change types of the paper's
  dynamic distributed model (Section 2): edge insertions, graceful and
  abrupt edge deletions, node insertions, graceful and abrupt node
  deletions (plus node unmuting, which the sequential template treats as an
  insertion).
* :class:`BackendSpec` -- which maintainer runs the scenario: the
  ``"sequential"`` runner drives a :class:`~repro.core.dynamic_mis.DynamicMIS`
  with any engine from the backend registry
  (:mod:`repro.core.engine_api`); the ``"protocol"`` runner drives a
  distributed simulator resolved through the network registry
  (:mod:`repro.distributed.network_api`).
* metric sinks -- names resolved through :mod:`repro.scenario.sinks`,
  attached as streaming observers by the :class:`~repro.scenario.session.Session`.

Specs are strict on decode: unknown keys and unknown enumeration values
raise :class:`ScenarioSpecError` with a did-you-mean hint, and backend names
are validated through the live registries, so a typo'd spec fails loudly
(and helpfully) instead of running the wrong experiment.
"""

from __future__ import annotations

import dataclasses
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engine_api import get_engine_factory
from repro.distributed.network_api import resolve_network
from repro.distributed.scheduler import scheduler_from_record
from repro.registry import did_you_mean
from repro.graph.dynamic_graph import DynamicGraph
from repro.graph.generators import (
    FAMILY_NAMES,
    erdos_renyi_graph,
    near_regular_graph,
    preferential_attachment_graph,
    random_geometric_graph,
    random_graph_family,
)
from repro.workloads.changes import TopologyChange
from repro.workloads.sequences import (
    build_sequence,
    edge_churn_sequence,
    mixed_churn_sequence,
    node_churn_sequence,
    sliding_window_sequence,
    teardown_sequence,
)

FORMAT = "repro-scenario-v1"

#: Workload kinds a spec may name.  The churn kinds generate forward from the
#: starting graph; ``build`` starts from the *empty* graph and assembles the
#: target described by :class:`GraphSpec`; ``teardown`` dismantles it;
#: ``trace`` replays a file saved with :func:`repro.workloads.trace.save_trace`;
#: ``sliding_window`` streams expiring-edge churn over its own node set
#: (``params: num_nodes, window_size``; the graph spec must be ``null``);
#: ``adaptive_adversary`` streams graceful deletions that always target the
#: *live backend's current MIS* (:class:`repro.workloads.adversary.AdaptiveAdversary`)
#: -- it cannot be pre-materialized and runs through a
#: :class:`~repro.scenario.session.Session` only.
WORKLOAD_KINDS = (
    "mixed_churn",
    "edge_churn",
    "node_churn",
    "build",
    "teardown",
    "trace",
    "sliding_window",
    "adaptive_adversary",
)

#: Runner kinds: sequential maintainer vs distributed protocol simulator.
RUNNER_NAMES = ("sequential", "protocol")


class ScenarioSpecError(ValueError):
    """A scenario spec that cannot be decoded, validated or materialized."""


# The shared registry hint builder doubles as the spec decoders' hint: one
# implementation, identical "; did you mean ...?" phrasing everywhere.
_did_you_mean = did_you_mean


def _check_choice(value: str, known: Sequence[str], what: str) -> str:
    if value not in known:
        raise ScenarioSpecError(
            f"unknown {what} {value!r}; known {what}s: {tuple(known)}"
            f"{_did_you_mean(value, known)}"
        )
    return value


def _check_keys(record: Mapping[str, Any], allowed: Sequence[str], context: str) -> None:
    if not isinstance(record, Mapping):
        raise ScenarioSpecError(f"{context} must be a mapping, got {record!r}")
    unknown = [key for key in record if key not in allowed]
    if unknown:
        shown = sorted(map(str, unknown))
        hints = "".join(_did_you_mean(key, allowed) for key in shown[:1])
        raise ScenarioSpecError(
            f"unknown key(s) {shown} in {context}; allowed keys: {tuple(allowed)}{hints}"
        )


def _check_int(value: Any, what: str, minimum: Optional[int] = None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioSpecError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioSpecError(f"{what} must be >= {minimum}, got {value}")
    return value


# ----------------------------------------------------------------------
# Graph part
# ----------------------------------------------------------------------
#: Families that accept an explicit parameter override (beyond the derived
#: defaults of :func:`repro.graph.generators.random_graph_family`).
_PARAMETRIC_FAMILIES = {
    "erdos_renyi": (erdos_renyi_graph, ("edge_probability",)),
    "preferential": (preferential_attachment_graph, ("edges_per_node",)),
    "geometric": (random_geometric_graph, ("radius",)),
    "near_regular": (near_regular_graph, ("degree",)),
}


#: Memo for :meth:`GraphSpec.build` (bounded FIFO; values are copied out).
_GRAPH_CACHE: Dict[Tuple, DynamicGraph] = {}
_GRAPH_CACHE_LIMIT = 8


@dataclass(frozen=True)
class GraphSpec:
    """The graph-family part of a scenario.

    ``params`` optionally overrides the family's derived default parameters
    (only for the parametric families: ``erdos_renyi`` takes
    ``edge_probability``, ``preferential`` takes ``edges_per_node``,
    ``geometric`` takes ``radius``, ``near_regular`` takes ``degree``); with
    an empty ``params`` the family defaults of
    :func:`~repro.graph.generators.random_graph_family` apply.
    """

    family: str = "erdos_renyi"
    nodes: int = 40
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)

    _FIELDS = ("family", "nodes", "seed", "params")

    def validate(self) -> None:
        """Raise :class:`ScenarioSpecError` if any field is out of range."""
        _check_choice(self.family, FAMILY_NAMES, "graph family")
        _check_int(self.nodes, "graph nodes", minimum=4)
        _check_int(self.seed, "graph seed")
        if self.params:
            if self.family not in _PARAMETRIC_FAMILIES:
                raise ScenarioSpecError(
                    f"graph family {self.family!r} takes no params, got {self.params!r}"
                )
            _, allowed = _PARAMETRIC_FAMILIES[self.family]
            _check_keys(self.params, allowed, f"graph params for family {self.family!r}")

    def build(self) -> DynamicGraph:
        """Materialize the graph (deterministic in ``family``/``nodes``/``seed``).

        Generation is memoized per spec (generators can be O(n^2); backend
        sweeps rebuild the same point repeatedly); every call returns a
        fresh copy, so callers may mutate their graph freely.
        """
        self.validate()
        try:
            key = (self.family, self.nodes, self.seed, tuple(sorted(self.params.items())))
            cached = _GRAPH_CACHE.get(key)
        except TypeError:  # unhashable param value: skip the cache
            key, cached = None, None
        if cached is None:
            if self.params:
                generator, _ = _PARAMETRIC_FAMILIES[self.family]
                cached = generator(self.nodes, seed=self.seed, **self.params)
            else:
                cached = random_graph_family(self.family, self.nodes, seed=self.seed)
            if key is not None:
                if len(_GRAPH_CACHE) >= _GRAPH_CACHE_LIMIT:
                    _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
                _GRAPH_CACHE[key] = cached
        return cached.copy()

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (exact round-trip through :meth:`from_dict`)."""
        return {
            "family": self.family,
            "nodes": self.nodes,
            "seed": self.seed,
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "GraphSpec":
        """Decode (strict: unknown keys raise with a did-you-mean hint)."""
        _check_keys(record, cls._FIELDS, "graph spec")
        spec = cls(
            family=record.get("family", "erdos_renyi"),
            nodes=record.get("nodes", 40),
            seed=record.get("seed", 0),
            params=dict(record.get("params", {})),
        )
        spec.validate()
        return spec


# ----------------------------------------------------------------------
# Workload part
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """The change-stream part of a scenario (paper, Section 2).

    The generated stream exercises the paper's six distributed topology
    changes: ``edge_churn`` mixes edge insertions with graceful/abrupt edge
    deletions, ``node_churn`` mixes node insertions with graceful/abrupt
    node deletions, and ``mixed_churn`` interleaves all of them (the general
    fully dynamic workload).  ``build`` assembles the scenario's graph from
    the empty graph (node insertions, then edge insertions); ``teardown``
    dismantles it (edge and node deletions); ``trace`` replays a change
    sequence previously saved with :func:`repro.workloads.trace.save_trace`
    (which may additionally contain node unmutings -- the sixth change type).

    Two further kinds extend the spec space beyond the generators:
    ``sliding_window`` models link churn with expiring edges (edges arrive
    continuously and the oldest live edge is deleted once the window is
    full) over its own node set -- ``params`` must carry ``num_nodes`` and
    ``window_size`` and the scenario's graph spec must be ``null``;
    ``adaptive_adversary`` always deletes a node of the running backend's
    *current* MIS (the adversary the paper's oblivious model excludes, used
    by experiment E1 and the conformance suite).  Adaptive workloads are
    *dynamic*: they query the live backend, so they cannot be
    pre-materialized and stream only through a
    :class:`~repro.scenario.session.Session` (checkpoint/resume included --
    the adversary's RNG state rides along in the checkpoint).

    ``num_changes`` is required (> 0) for the churn, sliding-window and
    adaptive kinds and must be left at 0 for ``build``/``teardown``/
    ``trace``, whose length is derived.  ``params`` forwards extra keyword
    arguments to the sequence generator, each a probability in [0, 1]:
    ``insert_probability`` for ``edge_churn``; ``insert_probability``,
    ``attachment_probability`` and ``graceful_probability`` for
    ``node_churn``; ``edge_change_probability`` for ``mixed_churn``; none
    for ``build`` and ``teardown``.  Decoding checks them like every other
    field.
    """

    kind: str = "mixed_churn"
    num_changes: int = 0
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    path: Optional[str] = None

    _FIELDS = ("kind", "num_changes", "seed", "params", "path")
    _CHURN_KINDS = ("mixed_churn", "edge_churn", "node_churn")
    #: Kinds whose length is the explicit ``num_changes`` (all others derive it).
    _SIZED_KINDS = _CHURN_KINDS + ("sliding_window", "adaptive_adversary")
    #: The probability params each generator kind accepts.
    _GENERATOR_PARAMS = {
        "mixed_churn": ("edge_change_probability",),
        "edge_churn": ("insert_probability",),
        "node_churn": ("insert_probability", "attachment_probability", "graceful_probability"),
        "build": (),
        "teardown": (),
    }

    @property
    def is_dynamic(self) -> bool:
        """True iff the workload is generated against the live backend."""
        return self.kind == "adaptive_adversary"

    def validate(self) -> None:
        """Raise :class:`ScenarioSpecError` if any field is out of range."""
        _check_choice(self.kind, WORKLOAD_KINDS, "workload kind")
        _check_int(self.seed, "workload seed")
        _check_int(self.num_changes, "workload num_changes", minimum=0)
        if self.kind in self._SIZED_KINDS and self.num_changes <= 0:
            raise ScenarioSpecError(
                f"workload kind {self.kind!r} needs num_changes > 0"
            )
        if self.kind not in self._SIZED_KINDS and self.num_changes:
            raise ScenarioSpecError(
                f"workload kind {self.kind!r} derives its length; leave num_changes at 0"
            )
        if self.kind == "trace":
            if not self.path:
                raise ScenarioSpecError("workload kind 'trace' needs a path")
            if self.params:
                raise ScenarioSpecError("workload kind 'trace' takes no params")
        elif self.path is not None:
            raise ScenarioSpecError(f"workload kind {self.kind!r} takes no path")
        if self.kind == "sliding_window":
            _check_keys(
                self.params, ("num_nodes", "window_size"), "sliding_window params"
            )
            missing = [key for key in ("num_nodes", "window_size") if key not in self.params]
            if missing:
                raise ScenarioSpecError(
                    f"workload kind 'sliding_window' needs params {missing} "
                    "(it builds its own node set)"
                )
            _check_int(self.params["num_nodes"], "sliding_window num_nodes", minimum=2)
            _check_int(self.params["window_size"], "sliding_window window_size", minimum=1)
        elif self.kind == "adaptive_adversary" and self.params:
            raise ScenarioSpecError(
                "workload kind 'adaptive_adversary' takes no params "
                "(num_changes is the deletion budget, seed drives the adversary RNG)"
            )
        elif self.kind in self._GENERATOR_PARAMS:
            context = f"bad params for workload kind {self.kind!r}"
            try:
                _check_keys(self.params, self._GENERATOR_PARAMS[self.kind], "params")
            except ScenarioSpecError as error:
                raise ScenarioSpecError(f"{context}: {error}") from None
            for key, value in self.params.items():
                real = isinstance(value, (int, float)) and not isinstance(value, bool)
                if not (real and 0 <= value <= 1):
                    raise ScenarioSpecError(
                        f"{context}: {key} must be a real number in [0, 1], got {value!r}"
                    )

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (exact round-trip through :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "num_changes": self.num_changes,
            "seed": self.seed,
            "params": dict(self.params),
            "path": self.path,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "WorkloadSpec":
        """Decode (strict: unknown keys raise with a did-you-mean hint).

        ``num_changes`` defaults to 100 for the explicitly sized kinds
        (churn, sliding-window, adaptive) when absent (matching the
        dataclass default used by :class:`~repro.scenario.spec.ScenarioSpec`);
        the derived kinds default to 0.
        """
        _check_keys(record, cls._FIELDS, "workload spec")
        kind = record.get("kind", "mixed_churn")
        default_changes = 100 if kind in cls._SIZED_KINDS else 0
        spec = cls(
            kind=kind,
            num_changes=record.get("num_changes", default_changes),
            seed=record.get("seed", 0),
            params=dict(record.get("params", {})),
            path=record.get("path"),
        )
        spec.validate()
        return spec


# ----------------------------------------------------------------------
# Backend part
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BackendSpec:
    """The maintainer-backend part of a scenario.

    ``runner="sequential"`` drives :class:`~repro.core.dynamic_mis.DynamicMIS`
    with the registered ``engine`` backend; ``runner="protocol"`` drives the
    distributed simulator for ``(protocol, network)`` resolved through
    :func:`repro.distributed.network_api.create_network`, using ``engine``
    as the sequential reference of its periodic ``verify()``.  Names are
    validated against the *live* registries, so the same registry
    did-you-mean errors fire for typos here.

    ``scheduler`` parameterizes the message-delay adversary of asynchronous
    protocol scenarios: a record ``{"kind": "adversarial" | "fixed" |
    "random", <params>}`` resolved through
    :func:`repro.distributed.scheduler.create_scheduler` (unknown kinds and
    parameters raise with did-you-mean hints).  Only valid with
    ``runner="protocol"`` and ``protocol="async-direct"``; left ``None``,
    the simulator's default random scheduler applies.  Channel-deterministic
    kinds (``"adversarial"``, ``"fixed"``) are what make cross-backend
    differentials and exact checkpoint/resume possible for async scenarios.
    """

    runner: str = "sequential"
    engine: str = "template"
    network: str = "dict"
    protocol: str = "buffered"
    scheduler: Optional[Dict[str, Any]] = None

    _FIELDS = ("runner", "engine", "network", "protocol", "scheduler")

    def validate(self) -> None:
        """Raise on unknown runner/engine/network/protocol/scheduler names."""
        _check_choice(self.runner, RUNNER_NAMES, "runner")
        # Registry lookups raise UnknownEngineError / UnknownNetworkError
        # (both ValueError subclasses) with their own did-you-mean hints.
        get_engine_factory(self.engine)
        if self.runner == "protocol":
            resolve_network(self.network, self.protocol)
        if self.scheduler is not None:
            if self.runner != "protocol" or self.protocol != "async-direct":
                raise ScenarioSpecError(
                    "a scheduler only applies to protocol-runner scenarios with "
                    f"protocol 'async-direct'; this backend declares "
                    f"runner={self.runner!r} protocol={self.protocol!r}"
                )
            self.build_scheduler()

    def build_scheduler(self):
        """Instantiate the declared delay scheduler (``None`` when unset).

        Unknown kinds raise the registry's
        :class:`~repro.distributed.scheduler.UnknownSchedulerError` (with a
        did-you-mean hint); bad parameters raise :class:`ScenarioSpecError`.
        """
        if self.scheduler is None:
            return None
        from repro.distributed.scheduler import UnknownSchedulerError

        try:
            return scheduler_from_record(self.scheduler)
        except UnknownSchedulerError:
            raise
        except ValueError as error:
            raise ScenarioSpecError(f"bad scheduler spec: {error}") from None

    def describe(self) -> str:
        """One-line display form used by result tables."""
        if self.runner == "protocol":
            described = (
                f"protocol={self.protocol} network={self.network} "
                f"(verify vs {self.engine})"
            )
            if self.scheduler is not None:
                described += f" scheduler={self.scheduler.get('kind')}"
            return described
        return f"engine={self.engine}"

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (exact round-trip through :meth:`from_dict`)."""
        return {
            "runner": self.runner,
            "engine": self.engine,
            "network": self.network,
            "protocol": self.protocol,
            "scheduler": None if self.scheduler is None else dict(self.scheduler),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "BackendSpec":
        """Decode (strict: unknown keys raise with a did-you-mean hint).

        Two fields that older specs and checkpoints may carry decode with a
        warning instead of an error, because neither ever changed an
        output: a ``parallel`` block (the retired worker pool) is dropped,
        and engine ``"fast-csr"`` (the retired CSR mirror) reads as
        ``"fast"``.
        """
        fields = dict(record)
        if "parallel" in fields:
            del fields["parallel"]
            warnings.warn(
                "ignoring the legacy backend.parallel block; the worker pool "
                "was removed and every run is serial",
                stacklevel=2,
            )
        if fields.get("engine") == "fast-csr":
            fields["engine"] = "fast"
            warnings.warn(
                "reading the legacy engine 'fast-csr' as 'fast'; the CSR "
                "mirror was removed",
                stacklevel=2,
            )
        _check_keys(fields, cls._FIELDS, "backend spec")
        scheduler = fields.get("scheduler")
        spec = cls(
            runner=fields.get("runner", "sequential"),
            engine=fields.get("engine", "template"),
            network=fields.get("network", "dict"),
            protocol=fields.get("protocol", "buffered"),
            scheduler=None if scheduler is None else dict(scheduler),
        )
        spec.validate()
        return spec


# ----------------------------------------------------------------------
# The whole scenario
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ScenarioSpec:
    """One complete, serializable experiment description.

    ``seed`` seeds the *algorithm* (the random order ``pi`` / the simulator);
    the graph and workload carry their own seeds, so one scenario fixes all
    three sources of randomness independently.  ``batch_size > 0`` applies
    the workload through :meth:`~repro.core.dynamic_mis.DynamicMIS.apply_batch`
    in fixed-size chunks (sequential runner only).  ``sinks`` names metric
    sinks from the :mod:`repro.scenario.sinks` registry, attached as
    streaming observers.

    The spec round-trips exactly through :meth:`to_dict`/:meth:`from_dict`
    and :meth:`to_json`/:meth:`from_json`; decoding is strict (unknown keys
    and unknown backend names raise :class:`ScenarioSpecError` or the
    registry errors, all with did-you-mean hints).
    """

    name: str = ""
    seed: int = 0
    graph: Optional[GraphSpec] = field(default_factory=GraphSpec)
    workload: WorkloadSpec = field(default_factory=lambda: WorkloadSpec(num_changes=100))
    backend: BackendSpec = field(default_factory=BackendSpec)
    batch_size: int = 0
    sinks: Tuple[str, ...] = ()

    _FIELDS = ("format", "name", "seed", "graph", "workload", "backend", "batch_size", "sinks")

    # -- validation ------------------------------------------------------
    def validate(self) -> None:
        """Validate every part (raises :class:`ScenarioSpecError` or registry errors)."""
        _check_int(self.seed, "scenario seed")
        _check_int(self.batch_size, "batch_size", minimum=0)
        self.workload.validate()
        self.backend.validate()
        if self.workload.kind == "sliding_window" and self.graph is not None:
            raise ScenarioSpecError(
                "workload kind 'sliding_window' builds its own node set "
                "(params: num_nodes); set graph to null"
            )
        if self.graph is None:
            if self.workload.kind not in ("trace", "sliding_window"):
                raise ScenarioSpecError(
                    f"workload kind {self.workload.kind!r} needs a graph spec"
                )
        else:
            self.graph.validate()
        if self.batch_size and self.backend.runner != "sequential":
            raise ScenarioSpecError("batch_size > 0 needs the sequential runner")
        if self.batch_size and self.workload.is_dynamic:
            raise ScenarioSpecError(
                "adaptive workloads react to every single change; batch_size "
                "must stay 0"
            )
        from repro.scenario.sinks import check_sink_names

        check_sink_names(self.sinks)

    # -- materialization -------------------------------------------------
    def materialize(self) -> Tuple[DynamicGraph, List[TopologyChange]]:
        """Build ``(initial_graph, changes)`` for one run of this scenario.

        Deterministic in the spec alone: the same spec always yields the same
        workload, which is what makes "same scenario, two backends"
        differential runs and spec x backend benchmark grids sound.
        """
        self.validate()
        workload = self.workload
        if workload.is_dynamic:
            raise ScenarioSpecError(
                f"workload kind {workload.kind!r} is generated against the live "
                "backend and cannot be pre-materialized; stream it through "
                "repro.scenario.Session (which also checkpoints it)"
            )
        if workload.kind == "trace":
            return self._load_trace(graph=True)
        graph = self._starting_graph()
        if workload.kind == "sliding_window":
            changes = sliding_window_sequence(
                workload.params["num_nodes"],
                workload.params["window_size"],
                workload.num_changes,
                seed=workload.seed,
            )
        elif workload.kind == "mixed_churn":
            changes = mixed_churn_sequence(
                graph, workload.num_changes, seed=workload.seed, **workload.params
            )
        elif workload.kind == "edge_churn":
            changes = edge_churn_sequence(
                graph, workload.num_changes, seed=workload.seed, **workload.params
            )
        elif workload.kind == "node_churn":
            changes = node_churn_sequence(
                graph, workload.num_changes, seed=workload.seed, **workload.params
            )
        elif workload.kind == "build":
            # The graph spec is the build's target; the run starts empty.
            changes = build_sequence(self.graph.build(), seed=workload.seed, **workload.params)
        elif workload.kind == "teardown":
            changes = teardown_sequence(graph, seed=workload.seed, **workload.params)
        else:  # pragma: no cover - kinds are validated upfront
            raise AssertionError(workload.kind)
        return graph, changes

    def _changes(self) -> List[TopologyChange]:
        """The changes of :meth:`materialize` alone (what a resumed session needs).

        A trace decodes only its changes; a generated workload still builds
        its graph, as generator input, and drops it.
        """
        if self.workload.kind == "trace":
            self.validate()
            return self._load_trace(graph=False)[1]
        return self.materialize()[1]

    def _starting_graph(self) -> DynamicGraph:
        """The starting graph of :meth:`materialize`, without generating the workload.

        Adaptive workloads, which cannot be materialized, start from the
        graph spec too.
        """
        workload = self.workload
        if workload.kind == "trace":
            return self._load_trace(graph=True)[0]
        if workload.kind == "sliding_window":
            return DynamicGraph(nodes=range(workload.params["num_nodes"]))
        if workload.kind == "build":
            return DynamicGraph()
        return self.graph.build()

    def _load_trace(self, graph: bool) -> Tuple[Optional[DynamicGraph], List[TopologyChange]]:
        """The trace file's ``(starting graph, changes)``; the graph is ``None``
        unless ``graph`` is set."""
        from repro.workloads.trace import TraceFormatError, _load_trace

        try:
            loaded = _load_trace(self.workload.path, graph=graph)
        except (OSError, TraceFormatError, json.JSONDecodeError) as error:
            raise ScenarioSpecError(
                f"cannot load trace {self.workload.path!r}: {error}"
            ) from None
        starting = loaded["initial_graph"]
        if graph and starting is None:
            if self.graph is None:
                raise ScenarioSpecError(
                    f"trace {self.workload.path!r} has no initial graph and the "
                    "scenario has no graph spec"
                )
            starting = self.graph.build()
        return starting, loaded["changes"]

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (exact round-trip through :meth:`from_dict`)."""
        return {
            "format": FORMAT,
            "name": self.name,
            "seed": self.seed,
            "graph": None if self.graph is None else self.graph.to_dict(),
            "workload": self.workload.to_dict(),
            "backend": self.backend.to_dict(),
            "batch_size": self.batch_size,
            "sinks": list(self.sinks),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "ScenarioSpec":
        """Decode and validate (strict; see the class docstring)."""
        _check_keys(record, cls._FIELDS, "scenario spec")
        declared = record.get("format", FORMAT)
        if declared != FORMAT:
            raise ScenarioSpecError(
                f"unsupported scenario format {declared!r} (expected {FORMAT!r})"
            )
        graph_record = record.get("graph", {})
        sinks = record.get("sinks", [])
        if isinstance(sinks, str):
            raise ScenarioSpecError("sinks must be a list of sink names, not a string")
        spec = cls(
            name=str(record.get("name", "")),
            seed=record.get("seed", 0),
            graph=None if graph_record is None else GraphSpec.from_dict(graph_record),
            workload=WorkloadSpec.from_dict(record.get("workload", {})),
            backend=BackendSpec.from_dict(record.get("backend", {})),
            batch_size=record.get("batch_size", 0),
            sinks=tuple(sinks),
        )
        spec.validate()
        return spec

    def to_json(self, indent: int = 2) -> str:
        """JSON text form (exact round-trip through :meth:`from_json`)."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        """Decode :meth:`to_json` output (or any conforming JSON object)."""
        try:
            record = json.loads(text)
        except json.JSONDecodeError as error:
            raise ScenarioSpecError(f"not valid JSON: {error}") from None
        return cls.from_dict(record)

    def save(self, path) -> None:
        """Write the spec to a JSON file."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path) -> "ScenarioSpec":
        """Read a spec from a JSON file written by :meth:`save` (or by hand)."""
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as error:
            raise ScenarioSpecError(f"cannot read scenario file {path!r}: {error}") from None
        return cls.from_json(text)

    # -- conveniences ----------------------------------------------------
    def with_backend(self, **overrides: Any) -> "ScenarioSpec":
        """Copy of the spec with backend fields replaced (for backend grids)."""
        backend = dataclasses.replace(self.backend, **overrides)
        backend.validate()
        return dataclasses.replace(self, backend=backend)
