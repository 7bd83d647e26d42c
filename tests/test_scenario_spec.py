"""Tests for the declarative scenario specs (``repro.scenario.spec``).

Pins down the satellite guarantees of the scenario API:

* ``spec -> dict/JSON -> spec`` is the identity (hypothesis-checked across
  the whole spec space),
* unknown keys and unknown enumeration values raise
  :class:`~repro.scenario.spec.ScenarioSpecError` with a did-you-mean hint,
* bad backend names surface the *registries'* did-you-mean errors
  (:class:`~repro.core.engine_api.UnknownEngineError` /
  :class:`~repro.distributed.network_api.UnknownNetworkError`), and
* materialization is deterministic in the spec alone.
"""

from __future__ import annotations

import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine_api import UnknownEngineError
from repro.distributed.network_api import UnknownNetworkError
from repro.graph.generators import erdos_renyi_graph, random_graph_family
from repro.scenario import (
    BackendSpec,
    GraphSpec,
    ScenarioSpec,
    ScenarioSpecError,
    UnknownSinkError,
    WorkloadSpec,
)
from repro.workloads.sequences import mixed_churn_sequence

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


@st.composite
def graph_specs(draw):
    family = draw(st.sampled_from(("erdos_renyi", "sparse", "star", "path", "near_regular")))
    params = {}
    if family == "erdos_renyi" and draw(st.booleans()):
        params["edge_probability"] = draw(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
        )
    return GraphSpec(
        family=family,
        nodes=draw(st.integers(min_value=4, max_value=60)),
        seed=draw(SEEDS),
        params=params,
    )


@st.composite
def workload_specs(draw):
    kind = draw(
        st.sampled_from(
            (
                "mixed_churn",
                "edge_churn",
                "node_churn",
                "build",
                "teardown",
                "sliding_window",
                "adaptive_adversary",
            )
        )
    )
    sized = kind in WorkloadSpec._SIZED_KINDS
    params = {}
    if kind == "sliding_window":
        params = {
            "num_nodes": draw(st.integers(min_value=2, max_value=80)),
            "window_size": draw(st.integers(min_value=1, max_value=40)),
        }
    for key in WorkloadSpec._GENERATOR_PARAMS.get(kind, ()):
        if draw(st.booleans()):
            params[key] = draw(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    return WorkloadSpec(
        kind=kind,
        num_changes=draw(st.integers(min_value=1, max_value=60)) if sized else 0,
        seed=draw(SEEDS),
        params=params,
    )


@st.composite
def scheduler_records(draw):
    kind = draw(st.sampled_from(("fixed", "random", "adversarial")))
    if kind == "fixed":
        return {"kind": kind, "delay_value": draw(st.floats(0.1, 5.0, allow_nan=False))}
    if kind == "random":
        return {"kind": kind, "seed": draw(SEEDS)}
    return {
        "kind": kind,
        "seed": draw(SEEDS),
        "slow_fraction": draw(st.floats(0.0, 1.0, allow_nan=False)),
        "slow_factor": draw(st.floats(1.0, 50.0, allow_nan=False)),
    }


@st.composite
def scenario_specs(draw):
    workload = draw(workload_specs())
    runner = draw(st.sampled_from(("sequential", "protocol")))
    protocol = draw(st.sampled_from(("buffered", "direct", "async-direct")))
    scheduler = None
    if runner == "protocol" and protocol == "async-direct" and draw(st.booleans()):
        scheduler = draw(scheduler_records())
    backend = BackendSpec(
        runner=runner,
        engine=draw(st.sampled_from(("template", "fast"))),
        network=draw(st.sampled_from(("dict", "fast"))),
        protocol=protocol,
        scheduler=scheduler,
    )
    batch_size = 0
    if runner == "sequential" and not workload.is_dynamic:
        batch_size = draw(st.integers(min_value=0, max_value=6))
    sinks = tuple(draw(st.sets(st.sampled_from(("summary", "jsonl:out.jsonl")), max_size=2)))
    return ScenarioSpec(
        name=draw(st.text(alphabet="abcdefg-", max_size=10)),
        seed=draw(SEEDS),
        graph=None if workload.kind == "sliding_window" else draw(graph_specs()),
        workload=workload,
        backend=backend,
        batch_size=batch_size,
        sinks=sinks,
    )


_FORK_BLOCK = {"workers": 2, "min_chunk": 256, "backend": "fork"}
_SPAWN_BLOCK = {"workers": 4, "min_chunk": 1, "backend": "spawn"}
_SERIAL_BLOCK = {"workers": 1, "min_chunk": 256, "backend": "serial"}

#: Backend records that older specs and checkpoints hold: the ``parallel``
#: block on the fast engine or on a fast buffered/direct network (full or,
#: hand-written, partial), and engine ``fast-csr`` as the sequential engine
#: or a protocol run's reference engine.  Each with its warning count and
#: the spec it must decode to.
LEGACY_BACKEND_RECORDS = [
    pytest.param(
        {"engine": "fast", "parallel": _FORK_BLOCK}, 1, BackendSpec(engine="fast"), id="fork"
    ),
    pytest.param(
        {"engine": "fast", "parallel": _SPAWN_BLOCK}, 1, BackendSpec(engine="fast"), id="spawn"
    ),
    pytest.param(
        {"engine": "fast", "parallel": _SERIAL_BLOCK}, 1, BackendSpec(engine="fast"), id="serial"
    ),
    pytest.param(
        {"engine": "fast", "parallel": {"workers": 2}},
        1,
        BackendSpec(engine="fast"),
        id="partial-block",
    ),
    pytest.param({"engine": "fast-csr"}, 1, BackendSpec(engine="fast"), id="fast-csr"),
    pytest.param(
        {"engine": "fast-csr", "parallel": _FORK_BLOCK},
        2,
        BackendSpec(engine="fast"),
        id="fast-csr-and-block",
    ),
    pytest.param(
        {
            "runner": "protocol",
            "protocol": "buffered",
            "network": "fast",
            "engine": "fast",
            "parallel": _FORK_BLOCK,
        },
        1,
        BackendSpec(runner="protocol", protocol="buffered", network="fast", engine="fast"),
        id="buffered-network",
    ),
    pytest.param(
        {"runner": "protocol", "protocol": "direct", "network": "fast", "parallel": _SPAWN_BLOCK},
        1,
        BackendSpec(runner="protocol", protocol="direct", network="fast"),
        id="direct-network",
    ),
    pytest.param(
        {"runner": "protocol", "network": "fast", "engine": "fast-csr"},
        1,
        BackendSpec(runner="protocol", network="fast", engine="fast"),
        id="fast-csr-reference",
    ),
]


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(scenario_specs())
    def test_json_round_trip_is_identity(self, spec: ScenarioSpec):
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            name="file-trip",
            seed=9,
            graph=GraphSpec(family="sparse", nodes=12, seed=4),
            workload=WorkloadSpec(kind="node_churn", num_changes=7, seed=5),
            backend=BackendSpec(runner="protocol", network="fast", protocol="direct"),
            sinks=("summary",),
        )
        path = tmp_path / "spec.json"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_trace_workload_round_trips(self, tmp_path):
        from repro.workloads.trace import save_trace

        graph = erdos_renyi_graph(10, 0.3, seed=1)
        changes = mixed_churn_sequence(graph, 12, seed=2)
        trace_path = tmp_path / "trace.json"
        save_trace(trace_path, changes, graph)
        spec = ScenarioSpec(
            graph=None, workload=WorkloadSpec(kind="trace", path=str(trace_path))
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        loaded_graph, loaded_changes = spec.materialize()
        assert loaded_changes == changes
        assert set(loaded_graph.edges()) == set(graph.edges())

    def test_defaults_decode_from_minimal_record(self):
        spec = ScenarioSpec.from_dict({"workload": {"num_changes": 10}})
        assert spec.graph == GraphSpec()
        assert spec.backend == BackendSpec()
        assert spec.workload.num_changes == 10

    def test_legacy_parallel_block_is_dropped_with_a_warning(self):
        record = {"engine": "fast", "parallel": {"workers": 4, "min_chunk": 8}}
        with pytest.warns(UserWarning, match="legacy backend.parallel") as caught:
            backend = BackendSpec.from_dict(record)
        assert len(caught) == 1
        assert backend == BackendSpec(engine="fast")
        assert "parallel" not in backend.to_dict()
        assert "parallel" in record  # the caller's record is not mutated

    def test_legacy_fast_csr_engine_reads_as_fast_with_a_warning(self):
        record = {"workload": {"num_changes": 5}, "backend": {"engine": "fast-csr"}}
        with pytest.warns(UserWarning, match="legacy engine 'fast-csr'") as caught:
            spec = ScenarioSpec.from_dict(record)
        assert len(caught) == 1
        assert spec.backend.engine == "fast"
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("record, num_warnings, expected", LEGACY_BACKEND_RECORDS)
    def test_legacy_backend_records_decode_as_plain_specs(self, record, num_warnings, expected):
        with pytest.warns(UserWarning, match="legacy") as caught:
            backend = BackendSpec.from_dict(record)
        assert len(caught) == num_warnings
        assert backend == expected
        # The re-encoded record is current: it decodes to the same spec silently.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert BackendSpec.from_dict(backend.to_dict()) == backend


class TestShippedSpecFiles:
    def test_example_spec_files_load_and_validate(self):
        from pathlib import Path

        spec_dir = Path(__file__).resolve().parent.parent / "examples" / "scenario_specs"
        files = sorted(spec_dir.glob("*.json"))
        assert files, "examples/scenario_specs/ must ship at least one spec"
        for path in files:
            spec = ScenarioSpec.load(path)
            assert ScenarioSpec.from_json(spec.to_json()) == spec


class TestMaterialization:
    def test_deterministic_in_the_spec_alone(self):
        spec = ScenarioSpec(
            graph=GraphSpec(family="erdos_renyi", nodes=18, seed=3),
            workload=WorkloadSpec(kind="mixed_churn", num_changes=25, seed=4),
        )
        graph_a, changes_a = spec.materialize()
        graph_b, changes_b = spec.materialize()
        assert changes_a == changes_b
        assert set(graph_a.edges()) == set(graph_b.edges())

    def test_matches_the_raw_generators(self):
        spec = ScenarioSpec(
            graph=GraphSpec(family="near_regular", nodes=14, seed=6),
            workload=WorkloadSpec(kind="mixed_churn", num_changes=20, seed=7),
        )
        graph, changes = spec.materialize()
        reference_graph = random_graph_family("near_regular", 14, seed=6)
        assert set(graph.edges()) == set(reference_graph.edges())
        assert changes == mixed_churn_sequence(reference_graph, 20, seed=7)

    def test_graph_params_override_the_family_defaults(self):
        spec = GraphSpec(
            family="erdos_renyi", nodes=30, seed=2, params={"edge_probability": 0.5}
        )
        assert set(spec.build().edges()) == set(erdos_renyi_graph(30, 0.5, seed=2).edges())

    def test_build_workload_starts_from_the_empty_graph(self):
        spec = ScenarioSpec(
            graph=GraphSpec(family="path", nodes=6, seed=0),
            workload=WorkloadSpec(kind="build", seed=1),
        )
        initial, changes = spec.materialize()
        assert initial.num_nodes() == 0
        assert len(changes) == 6 + 5  # node insertions + path edges


class TestStrictDecoding:
    def test_unknown_top_level_key_has_did_you_mean(self):
        with pytest.raises(ScenarioSpecError, match="did you mean 'workload'"):
            ScenarioSpec.from_dict({"wrkload": {}})

    @pytest.mark.parametrize(
        "record, fragment",
        [
            ({"graph": {"famly": "star"}}, "family"),
            ({"workload": {"num_changes": 3, "sed": 1}}, "seed"),
            ({"backend": {"runer": "protocol"}}, "runner"),
        ],
    )
    def test_unknown_nested_keys_have_did_you_mean(self, record, fragment):
        with pytest.raises(ScenarioSpecError, match=f"did you mean '{fragment}'"):
            ScenarioSpec.from_dict(record)

    def test_unknown_format_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unsupported scenario format"):
            ScenarioSpec.from_dict({"format": "repro-scenario-v0"})

    def test_unknown_family_has_did_you_mean(self):
        with pytest.raises(ScenarioSpecError, match="did you mean 'erdos_renyi'"):
            GraphSpec(family="erdos_reny").validate()

    def test_unknown_workload_kind_has_did_you_mean(self):
        with pytest.raises(ScenarioSpecError, match="did you mean 'mixed_churn'"):
            WorkloadSpec(kind="mixed_chrun", num_changes=5).validate()

    def test_unknown_runner_has_did_you_mean(self):
        with pytest.raises(ScenarioSpecError, match="did you mean 'sequential'"):
            BackendSpec(runner="sequental").validate()

    def test_bad_engine_name_raises_the_registry_error(self):
        with pytest.raises(UnknownEngineError, match="did you mean 'fast'"):
            BackendSpec(engine="fsat").validate()

    def test_bad_network_name_raises_the_registry_error(self):
        with pytest.raises(UnknownNetworkError, match="did you mean 'dict'"):
            BackendSpec(runner="protocol", network="dcit").validate()

    def test_typo_next_to_a_legacy_block_still_has_did_you_mean(self):
        with pytest.warns(UserWarning, match="legacy backend.parallel"):
            with pytest.raises(ScenarioSpecError, match="did you mean 'runner'"):
                BackendSpec.from_dict({"runer": "protocol", "parallel": _FORK_BLOCK})

    def test_fast_csr_is_read_as_fast_only_in_the_engine_field(self):
        with pytest.raises(UnknownNetworkError):
            BackendSpec.from_dict({"runner": "protocol", "network": "fast-csr"})

    def test_bad_protocol_name_raises_the_registry_error(self):
        with pytest.raises(UnknownNetworkError, match="did you mean 'buffered'"):
            BackendSpec(runner="protocol", protocol="bufered").validate()

    def test_bad_sink_name_has_did_you_mean(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(kind="mixed_churn", num_changes=5), sinks=("sumary",)
        )
        with pytest.raises(UnknownSinkError, match="did you mean 'summary'"):
            spec.validate()

    def test_bad_adversary_kind_has_did_you_mean(self):
        with pytest.raises(ScenarioSpecError, match="did you mean 'adaptive_adversary'"):
            WorkloadSpec(kind="adaptive_adversry", num_changes=5).validate()

    def test_bad_scheduler_kind_raises_the_registry_error(self):
        from repro.distributed.scheduler import UnknownSchedulerError

        with pytest.raises(UnknownSchedulerError, match="did you mean 'adversarial'"):
            BackendSpec(
                runner="protocol",
                protocol="async-direct",
                scheduler={"kind": "adverserial"},
            ).validate()

    def test_bad_scheduler_param_has_did_you_mean(self):
        with pytest.raises(ScenarioSpecError, match="did you mean 'slow_fraction'"):
            BackendSpec(
                runner="protocol",
                protocol="async-direct",
                scheduler={"kind": "adversarial", "slow_fractoin": 0.5},
            ).validate()

    def test_out_of_range_scheduler_param_rejected(self):
        with pytest.raises(ScenarioSpecError, match="slow_factor"):
            BackendSpec(
                runner="protocol",
                protocol="async-direct",
                scheduler={"kind": "adversarial", "slow_factor": 0.5},
            ).validate()


class TestValidation:
    def test_churn_needs_positive_num_changes(self):
        with pytest.raises(ScenarioSpecError, match="num_changes > 0"):
            WorkloadSpec(kind="edge_churn", num_changes=0).validate()

    def test_derived_kinds_reject_num_changes(self):
        with pytest.raises(ScenarioSpecError, match="derives its length"):
            WorkloadSpec(kind="build", num_changes=10).validate()

    def test_trace_needs_a_path(self):
        with pytest.raises(ScenarioSpecError, match="needs a path"):
            WorkloadSpec(kind="trace").validate()

    def test_non_trace_rejects_a_path(self):
        with pytest.raises(ScenarioSpecError, match="takes no path"):
            WorkloadSpec(kind="mixed_churn", num_changes=3, path="x.json").validate()

    def test_batching_needs_the_sequential_runner(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(kind="mixed_churn", num_changes=5),
            backend=BackendSpec(runner="protocol"),
            batch_size=4,
        )
        with pytest.raises(ScenarioSpecError, match="sequential"):
            spec.validate()

    def test_graphless_spec_needs_a_trace_workload(self):
        spec = ScenarioSpec(
            graph=None, workload=WorkloadSpec(kind="mixed_churn", num_changes=5)
        )
        with pytest.raises(ScenarioSpecError, match="needs a graph"):
            spec.validate()

    def test_params_on_nonparametric_family_rejected(self):
        with pytest.raises(ScenarioSpecError, match="takes no params"):
            GraphSpec(family="star", params={"radius": 0.5}).validate()

    def test_unknown_graph_param_rejected(self):
        with pytest.raises(ScenarioSpecError, match="edge_probability"):
            GraphSpec(family="erdos_renyi", params={"probability": 0.5}).validate()

    def test_bad_workload_params_fail_at_materialization(self):
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                kind="edge_churn", num_changes=5, params={"insert_prob": 0.9}
            )
        )
        with pytest.raises(ScenarioSpecError, match="bad params"):
            spec.materialize()

    @pytest.mark.parametrize(
        "kind, params, match",
        [
            ("edge_churn", {"insert_prob": 0.5}, "did you mean 'insert_probability'"),
            ("edge_churn", {"insert_probability": "high"}, r"in \[0, 1\], got 'high'"),
            ("edge_churn", {"insert_probability": 1.5}, r"in \[0, 1\], got 1.5"),
            ("edge_churn", {"insert_probability": True}, r"in \[0, 1\], got True"),
            ("mixed_churn", {"insert_probability": 0.5}, "'edge_change_probability'"),
            ("build", {"seed": 1}, r"allowed keys: \(\)"),
            ("teardown", {"seed": 1}, r"allowed keys: \(\)"),
        ],
    )
    def test_bad_workload_params_fail_at_decode(self, kind, params, match):
        with pytest.raises(ScenarioSpecError, match=match) as caught:
            ScenarioSpec.from_dict({"workload": {"kind": kind, "params": params}})
        assert f"bad params for workload kind {kind!r}" in str(caught.value)

    def test_scheduler_needs_the_async_protocol(self):
        with pytest.raises(ScenarioSpecError, match="async-direct"):
            BackendSpec(
                runner="protocol",
                protocol="buffered",
                scheduler={"kind": "adversarial"},
            ).validate()
        with pytest.raises(ScenarioSpecError, match="async-direct"):
            BackendSpec(scheduler={"kind": "fixed"}).validate()

    def test_sliding_window_needs_its_params_and_no_graph(self):
        with pytest.raises(ScenarioSpecError, match="num_nodes"):
            WorkloadSpec(kind="sliding_window", num_changes=10).validate()
        spec = ScenarioSpec(
            workload=WorkloadSpec(
                kind="sliding_window",
                num_changes=10,
                params={"num_nodes": 12, "window_size": 4},
            )
        )
        with pytest.raises(ScenarioSpecError, match="graph to null"):
            spec.validate()

    def test_adaptive_rejects_params_and_batching(self):
        with pytest.raises(ScenarioSpecError, match="takes no params"):
            WorkloadSpec(
                kind="adaptive_adversary", num_changes=5, params={"graceful": True}
            ).validate()
        spec = ScenarioSpec(
            workload=WorkloadSpec(kind="adaptive_adversary", num_changes=5),
            batch_size=3,
        )
        with pytest.raises(ScenarioSpecError, match="batch_size"):
            spec.validate()

    def test_sliding_window_materializes_from_its_own_node_set(self):
        from repro.workloads.sequences import sliding_window_sequence

        spec = ScenarioSpec(
            graph=None,
            workload=WorkloadSpec(
                kind="sliding_window",
                num_changes=20,
                seed=3,
                params={"num_nodes": 15, "window_size": 6},
            ),
        )
        graph, changes = spec.materialize()
        assert graph.num_nodes() == 15
        assert graph.num_edges() == 0
        assert changes == sliding_window_sequence(15, 6, 20, seed=3)

    def test_with_backend_builds_validated_variants(self):
        spec = ScenarioSpec(workload=WorkloadSpec(kind="mixed_churn", num_changes=5))
        fast = spec.with_backend(engine="fast")
        assert fast.backend.engine == "fast"
        assert spec.backend.engine == "template"  # original untouched
        with pytest.raises(UnknownEngineError):
            spec.with_backend(engine="no-such-engine")
