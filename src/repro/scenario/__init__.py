"""``repro.scenario`` -- the declarative front door of the library.

One :class:`ScenarioSpec` (graph family + workload + backend + metric sinks,
with exact dict/JSON round-trips) describes a whole experiment; one
:class:`Session` streams it through any registered engine or network backend
with checkpoint/resume and pluggable observers.  Checkpoints work for every
backend the registries know -- sequential sessions snapshot the engine,
protocol sessions snapshot the simulator's stable state -- and
serialize to JSON files through :mod:`repro.scenario.checkpoint_io`.  The
CLI's ``run`` command, the benchmark harness's ``run_scenario`` entry and
the differential conformance harnesses all build on this package -- see the
README's "Scenarios" and "Checkpointing" sections for worked examples.
"""

from repro.scenario.checkpoint_io import (
    CheckpointFormatError,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario.bisect import BisectResult, bisect_first_divergence
from repro.scenario.session import (
    ScenarioResult,
    Session,
    SessionCheckpoint,
    run_scenario,
    run_scenario_grid,
)
from repro.scenario.sinks import (
    CallbackSink,
    JsonlSink,
    ScenarioObserver,
    SummarySink,
    UnknownSinkError,
    available_sinks,
    create_sink,
    register_sink,
    unregister_sink,
)
from repro.scenario.spec import (
    RUNNER_NAMES,
    WORKLOAD_KINDS,
    BackendSpec,
    GraphSpec,
    ScenarioSpec,
    ScenarioSpecError,
    WorkloadSpec,
)

__all__ = [
    "ScenarioSpec",
    "GraphSpec",
    "WorkloadSpec",
    "BackendSpec",
    "ScenarioSpecError",
    "WORKLOAD_KINDS",
    "RUNNER_NAMES",
    "Session",
    "SessionCheckpoint",
    "ScenarioResult",
    "run_scenario",
    "run_scenario_grid",
    "CheckpointFormatError",
    "checkpoint_to_dict",
    "checkpoint_from_dict",
    "save_checkpoint",
    "load_checkpoint",
    "BisectResult",
    "bisect_first_divergence",
    "ScenarioObserver",
    "SummarySink",
    "JsonlSink",
    "CallbackSink",
    "UnknownSinkError",
    "register_sink",
    "unregister_sink",
    "available_sinks",
    "create_sink",
]
