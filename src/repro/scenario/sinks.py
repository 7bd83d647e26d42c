"""Streaming metric sinks (observers) for scenario sessions.

A :class:`~repro.scenario.session.Session` notifies its observers while the
scenario streams: once at the start, once per applied change (or batch), and
once at the end with the final :class:`~repro.scenario.session.ScenarioResult`.
Observers never influence the run -- they are pure measurement taps, which is
what keeps "same scenario, two backends" runs comparable.

The per-change ``record`` is whatever the runner produces:
an :class:`~repro.core.template.UpdateReport` for the sequential runner, a
:class:`~repro.distributed.metrics.ChangeMetrics` for the protocol runner,
and a :class:`~repro.core.engine_api.BatchUpdateReport` for batched
sequential sessions.  :data:`TRACKED_ATTRIBUTES` lists the numeric fields a
generic sink may probe; absent fields are simply skipped, so one sink
implementation serves every runner.

Sinks referenced *by name* in a :class:`~repro.scenario.spec.ScenarioSpec`
resolve through the registry here (:func:`register_sink` /
:func:`create_sink`), mirroring the engine and network registries including
the did-you-mean errors.  A name may carry one argument after a colon, e.g.
``"jsonl:/tmp/changes.jsonl"``.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.core.state_api import Totals
from repro.registry import Registry, UnknownNameError

#: Numeric per-change fields a generic sink probes on each record (sequential
#: report fields first, protocol metric fields second; a record exposes a
#: subset of these).
TRACKED_ATTRIBUTES = (
    "num_adjustments",
    "influenced_size",
    "num_levels",
    "state_flips",
    "update_work",
    "rounds",
    "broadcasts",
    "bits",
    "adjustments",
    "state_changes",
)


def _tracked_fields(record) -> Dict[str, Any]:
    """The :data:`TRACKED_ATTRIBUTES` a record carries as numbers (not bools)."""
    fields: Dict[str, Any] = {}
    for attribute in TRACKED_ATTRIBUTES:
        value = getattr(record, attribute, None)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            fields[attribute] = value
    return fields


class ScenarioObserver:
    """Base class for session observers; all hooks default to no-ops.

    Subclass and override any subset of the hooks.  ``on_change`` fires once
    per individually applied change, ``on_batch`` once per applied batch
    (batched sequential sessions fire ``on_batch`` only).
    """

    def on_start(self, session) -> None:
        """The session is about to apply its first change."""

    def on_change(self, step: int, change, record) -> None:
        """Change ``step`` (0-based) was applied; ``record`` is its report."""

    def on_batch(self, index: int, changes: Sequence, report) -> None:
        """Batch ``index`` (0-based) was applied atomically."""

    def on_end(self, session, result) -> None:
        """The session finished; ``result`` is its ScenarioResult."""


class SummarySink(ScenarioObserver):
    """Aggregate every tracked numeric field over the streamed records.

    After the run, :meth:`summary` returns ``{field: {"mean", "max",
    "total"}}`` for each field the records actually carried, plus the change
    count -- a runner-agnostic cost profile of the scenario.  It keeps
    :class:`~repro.core.state_api.Totals`, so its size does not grow with
    the number of records.
    """

    def __init__(self) -> None:
        self._totals = Totals(TRACKED_ATTRIBUTES)
        self._changes = 0
        self._batches = 0

    def on_change(self, step: int, change, record) -> None:
        self._changes += 1
        self._collect(record)

    def on_batch(self, index: int, changes: Sequence, report) -> None:
        self._changes += len(changes)
        self._batches += 1
        self._collect(report)

    def _collect(self, record) -> None:
        fields = _tracked_fields(record)
        self._totals.add("records", [fields.get(name) for name in TRACKED_ATTRIBUTES])

    @property
    def num_changes(self) -> int:
        """Number of individual changes observed (batched changes included)."""
        return self._changes

    def summary(self) -> Dict[str, Any]:
        """Mean/max/total of every observed field plus the change count."""
        summary: Dict[str, Any] = {"num_changes": self._changes}
        if self._batches:
            summary["num_batches"] = self._batches
        for attribute in sorted(TRACKED_ATTRIBUTES):
            if self._totals.count(attribute):
                summary[attribute] = {
                    "mean": self._totals.mean(attribute),
                    "max": float(self._totals.maximum(attribute)),
                    "total": float(self._totals.total(attribute)),
                }
        return summary


class JsonlSink(ScenarioObserver):
    """Append one JSON line per change (or batch) to a file.

    Lines carry the step index, the change (its ``repr``) and every tracked
    numeric field present on the record -- a cheap machine-readable
    per-change log for offline analysis, and the place per-change detail
    lives (a checkpoint carries only totals).  Each line opens, appends and
    closes the file, so the sink never holds a file open: a session driven
    by :meth:`~repro.scenario.session.Session.step` and then dropped (as the
    service host evicts one) leaves nothing to close, and an interrupted
    session leaves a complete per-change log behind.
    """

    def __init__(self, path: str) -> None:
        if not path:
            raise ValueError("jsonl sink needs a file path, e.g. 'jsonl:out.jsonl'")
        self._path = path

    def on_start(self, session) -> None:
        # A fresh session truncates; a resumed one (position > 0) appends,
        # so the pre-checkpoint lines of an interrupted run survive.
        if not session.position:
            open(self._path, "w", encoding="utf-8").close()

    def _emit(self, document: Dict[str, Any]) -> None:
        with open(self._path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(document, sort_keys=True) + "\n")

    def on_change(self, step: int, change, record) -> None:
        self._emit({"step": step, "change": repr(change), **_tracked_fields(record)})

    def on_batch(self, index: int, changes: Sequence, report) -> None:
        self._emit({"batch": index, "batch_size": len(changes), **_tracked_fields(report)})


class CallbackSink(ScenarioObserver):
    """Adapt a plain callable into an observer (called per change/batch)."""

    def __init__(self, callback: Callable[[int, Any, Any], None]) -> None:
        self._callback = callback

    def on_change(self, step: int, change, record) -> None:
        self._callback(step, change, record)

    def on_batch(self, index: int, changes: Sequence, report) -> None:
        self._callback(index, changes, report)


# ----------------------------------------------------------------------
# Registry (a thin wrapper over the shared repro.registry helper)
# ----------------------------------------------------------------------
class UnknownSinkError(UnknownNameError):
    """A sink name that is not registered (with a did-you-mean hint)."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__("sink", name, known)


#: A registered factory takes the optional ``:argument`` suffix (None when
#: the name had none) and returns a ready observer.
SinkFactory = Callable[[Optional[str]], ScenarioObserver]


def _check_sink_name(name: str) -> None:
    # Sink names must leave ':' free for the "name:argument" spec form.
    if not isinstance(name, str) or not name or ":" in name:
        raise ValueError(
            f"sink name must be a non-empty string without ':', got {name!r}"
        )


_REGISTRY = Registry("sink", error=UnknownSinkError, check_name=_check_sink_name)


def register_sink(name: str, factory: SinkFactory, overwrite: bool = False) -> None:
    """Register an observer factory under ``name`` (see the module docstring)."""
    _REGISTRY.register(name, factory, overwrite=overwrite)


def unregister_sink(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent; mainly for tests)."""
    _REGISTRY.unregister(name)


def available_sinks() -> Tuple[str, ...]:
    """The registered sink names, built-ins first, in registration order."""
    return _REGISTRY.names()


def get_sink_factory(name: str) -> SinkFactory:
    """The factory registered under ``name`` (raises :class:`UnknownSinkError`)."""
    return _REGISTRY.get(name)


def _split(sink_name: str) -> Tuple[str, Optional[str]]:
    name, _, argument = str(sink_name).partition(":")
    return name, (argument or None)


def create_sink(sink_name: str) -> ScenarioObserver:
    """Build an observer from a spec sink name (``"name"`` or ``"name:arg"``)."""
    name, argument = _split(sink_name)
    return _REGISTRY.get(name)(argument)


def check_sink_names(sink_names: Iterable[str]) -> None:
    """Validate sink names without instantiating (spec validation path)."""
    for sink_name in sink_names:
        name, _ = _split(sink_name)
        if name not in _REGISTRY:
            raise UnknownSinkError(name, available_sinks())


def _summary_factory(argument: Optional[str]) -> ScenarioObserver:
    """Aggregate mean/max/total of every tracked field (no argument)."""
    if argument is not None:
        raise ValueError("the summary sink takes no argument")
    return SummarySink()


def _jsonl_factory(argument: Optional[str]) -> ScenarioObserver:
    """Append one JSON line per change to a file ('jsonl:<path>')."""
    if argument is None:
        raise ValueError("the jsonl sink needs a path: 'jsonl:<path>'")
    return JsonlSink(argument)


register_sink("summary", _summary_factory)
register_sink("jsonl", _jsonl_factory)
