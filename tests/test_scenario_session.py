"""Tests for the streaming :class:`~repro.scenario.session.Session` runner.

The load-bearing guarantee here is the checkpoint/resume differential: a
session interrupted at *any* point and resumed in a fresh process-state must
land on exactly the outputs and statistics of an uninterrupted run, on every
engine backend *and* every network backend x protocol, even when resuming on
a *different* backend (both snapshot flavors are label-keyed) and across a
JSON checkpoint file.  The rest pins down the runner surface: sequential vs
protocol sessions, dynamic (adaptive-adversary) workloads, batched
application, observers/sinks and the ``spec x backend`` grid helper.
"""

from __future__ import annotations

import dataclasses
import itertools
import json

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.core.engine_api import BATCH_REPORT_FIELDS, BatchUpdateReport
from repro.distributed.metrics import ChangeMetrics
from repro.scenario import (
    BackendSpec,
    CallbackSink,
    GraphSpec,
    JsonlSink,
    ScenarioSpec,
    Session,
    SummarySink,
    WorkloadSpec,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    run_scenario,
    run_scenario_grid,
    save_checkpoint,
)
from repro.testing.differential import REPORT_FIELDS
from repro.workloads import trace


def _row(record):
    """A per-unit record a session returned, as a comparable plain value."""
    if isinstance(record, ChangeMetrics):
        return dict(record.as_dict(), adjusted=sorted(record.adjusted_nodes, key=repr))
    if isinstance(record, BatchUpdateReport):
        return {name: getattr(record, name) for name in BATCH_REPORT_FIELDS}
    return {name: getattr(record, name) for name in REPORT_FIELDS}


def _steps(session, count=None):
    """Step ``session`` ``count`` times (default: to its end); the rows of
    the records it returned.  A checkpoint holds only totals, so per-change
    comparisons run on these."""
    return [_row(record) for record in itertools.islice(session, count)]


def small_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        name="session-test",
        seed=5,
        graph=GraphSpec(family="erdos_renyi", nodes=18, seed=1),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=40, seed=2),
        backend=BackendSpec(runner="sequential", engine="template"),
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


class TestSequentialSession:
    def test_matches_a_hand_driven_maintainer(self):
        spec = small_spec()
        session = Session(spec)
        rows = _steps(session)
        result = session.run()

        graph, changes = spec.materialize()
        maintainer = DynamicMIS(seed=spec.seed, initial_graph=graph, engine="template")
        reports = maintainer.apply_sequence(changes)
        assert session.states() == maintainer.states()
        assert session.mis() == maintainer.mis()
        assert rows == [_row(report) for report in reports]
        assert session.maintainer.statistics == maintainer.statistics
        assert result.num_changes == len(changes)
        assert result.verified
        assert result.final_mis_size == len(maintainer.mis())

    def test_streaming_iteration_yields_one_record_per_change(self):
        session = Session(small_spec())
        records = list(session)
        assert len(records) == session.num_changes
        assert session.done
        assert session.step() is None

    def test_batched_session_matches_manual_batches(self):
        spec = small_spec(batch_size=7)
        session = Session(spec)
        rows = _steps(session)

        graph, changes = spec.materialize()
        maintainer = DynamicMIS(seed=spec.seed, initial_graph=graph, engine="template")
        reports = [
            maintainer.apply_batch(changes[start : start + 7])
            for start in range(0, len(changes), 7)
        ]
        assert session.states() == maintainer.states()
        assert rows == [_row(report) for report in reports]
        assert [row["batch_size"] for row in rows] == [7] * 5 + [5]
        assert session.maintainer.statistics == maintainer.statistics

    def test_batched_fast_session_matches_the_template_batch_for_batch(self):
        spec = small_spec(
            graph=GraphSpec(family="erdos_renyi", nodes=48, seed=3),
            workload=WorkloadSpec(kind="mixed_churn", num_changes=96, seed=5),
            batch_size=12,
        )
        sessions = [Session(spec.with_backend(engine=name)) for name in ("template", "fast")]
        template_rows, fast_rows = (_steps(session) for session in sessions)
        for session in sessions:
            assert session.run().verified
        template, fast = (session.maintainer.statistics for session in sessions)
        assert sessions[1].states() == sessions[0].states()
        assert fast_rows == template_rows
        assert fast == template

    def test_result_per_change_us_is_consistent(self):
        result = run_scenario(small_spec())
        assert result.per_change_us == pytest.approx(
            result.elapsed_s / result.num_changes * 1e6
        )
        document = result.to_dict()
        assert document["num_changes"] == result.num_changes
        json.dumps(document)  # JSON-ready


class TestProtocolSession:
    @pytest.mark.parametrize("network", ["dict", "fast"])
    def test_runs_and_verifies(self, network):
        spec = small_spec(
            backend=BackendSpec(
                runner="protocol", protocol="buffered", network=network, engine="fast"
            )
        )
        result = run_scenario(spec)
        assert result.runner == "protocol"
        assert result.num_changes == 40
        assert "mean_broadcasts" in result.summary

    def test_networks_agree_on_the_same_scenario(self):
        spec = small_spec(
            backend=BackendSpec(runner="protocol", protocol="buffered", engine="fast")
        )
        sessions = []
        for network in ("dict", "fast"):
            session = Session(spec.with_backend(network=network))
            session.run()
            sessions.append(session)
        assert sessions[0].states() == sessions[1].states()

    def test_checkpoint_rejects_backends_without_the_pair(self):
        session = Session(
            small_spec(backend=BackendSpec(runner="protocol", protocol="buffered"))
        )
        session._network = object()  # a backend lacking snapshot/restore
        with pytest.raises(TypeError, match="snapshot/restore"):
            session.checkpoint()


class TestCheckpointResume:
    @pytest.mark.parametrize("engine", ["template", "fast"])
    @pytest.mark.parametrize("stop_at", [0, 1, 13, 39, 40])
    def test_resumed_run_equals_uninterrupted_run(self, engine, stop_at):
        spec = small_spec(backend=BackendSpec(runner="sequential", engine=engine))
        uninterrupted = Session(spec)
        full_rows = _steps(uninterrupted)
        full_result = uninterrupted.run()

        interrupted = Session(spec)
        assert interrupted.changes == [] and interrupted.num_changes == 40
        rows = _steps(interrupted, stop_at)
        checkpoint = interrupted.checkpoint()
        assert checkpoint.position == stop_at
        assert checkpoint.remaining_changes == 40 - stop_at
        del interrupted  # the resumed session rebuilds everything from the checkpoint

        resumed = Session.resume(checkpoint)
        # ``changes`` holds what was pulled so far: the replayed prefix.
        assert resumed.changes == uninterrupted.changes[:stop_at]
        rows += _steps(resumed)
        resumed_result = resumed.run()
        assert resumed.changes == uninterrupted.changes

        assert resumed.states() == uninterrupted.states()
        assert resumed.mis() == uninterrupted.mis()
        assert rows == full_rows
        assert resumed.maintainer.statistics == uninterrupted.maintainer.statistics
        assert resumed_result.summary == full_result.summary
        assert resumed_result.final_mis_size == full_result.final_mis_size
        assert resumed_result.num_changes == full_result.num_changes

    def test_cross_engine_resume(self):
        # The snapshot is label-level, so a checkpoint taken on the template
        # engine resumes on the fast engine with identical outputs.
        spec = small_spec(backend=BackendSpec(runner="sequential", engine="template"))
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 17)
        resumed = Session.resume(interrupted.checkpoint(), engine="fast")
        rows += _steps(resumed)
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.maintainer.statistics == reference.maintainer.statistics

    def test_legacy_backend_fields_resume_as_a_fast_run(self, tmp_path):
        # Checkpoints from before the worker pool and the CSR mirror were
        # removed may carry a parallel block and engine "fast-csr"; neither
        # ever changed an output, so they resume exactly as a fast run.
        spec = small_spec(backend=BackendSpec(runner="sequential", engine="fast"))
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 17)
        record = checkpoint_to_dict(interrupted.checkpoint())
        record["spec"]["backend"].update(
            engine="fast-csr", parallel={"workers": 2, "min_chunk": 256, "backend": "fork"}
        )
        path = tmp_path / "legacy.ckpt.json"
        path.write_text(json.dumps(record))
        with pytest.warns(UserWarning) as caught:
            checkpoint = load_checkpoint(path)
        assert len(caught) == 2
        assert checkpoint.spec.backend == spec.backend

        resumed = Session.resume(checkpoint)
        rows += _steps(resumed)
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.maintainer.statistics == reference.maintainer.statistics

    def test_cross_engine_resume_updates_the_spec(self):
        # The engine override is folded into the resumed session's spec, so
        # results attribute the right backend and a chained checkpoint/resume
        # stays on the overridden engine.
        spec = small_spec(backend=BackendSpec(runner="sequential", engine="template"))
        reference = Session(spec)
        reference.run()

        first = Session(spec)
        for _ in range(10):
            first.step()
        second = Session.resume(first.checkpoint(), engine="fast")
        assert second.spec.backend.engine == "fast"
        for _ in range(10):
            second.step()
        chained = Session.resume(second.checkpoint())
        assert chained.spec.backend.engine == "fast"
        result = chained.run()
        assert result.backend == "engine=fast"
        assert chained.states() == reference.states()

    def test_jsonl_sink_survives_a_resume(self, tmp_path):
        path = tmp_path / "resumed.jsonl"
        spec = small_spec(sinks=(f"jsonl:{path}",))
        session = Session(spec)
        for _ in range(15):
            session.step()
        checkpoint = session.checkpoint()
        del session
        Session.resume(checkpoint).run()
        # The resumed session appends: all 40 per-change lines survive.
        assert len(path.read_text().splitlines()) == 40

    def test_batched_checkpoint_resume(self):
        # batch_size 6 does not divide the 40 changes: six full batches,
        # then one of four.  Resuming at each of the eight boundaries (the
        # last is the end) replays the applied prefix into ``changes``.
        spec = small_spec(batch_size=6)
        uninterrupted = Session(spec)
        full_rows = _steps(uninterrupted)
        assert [row["batch_size"] for row in full_rows] == [6] * 6 + [4]
        for units in range(8):
            interrupted = Session(spec)
            rows = _steps(interrupted, units)
            checkpoint = checkpoint_from_dict(checkpoint_to_dict(interrupted.checkpoint()))
            assert checkpoint.position == min(6 * units, 40)
            resumed = Session.resume(checkpoint)
            assert resumed.changes == uninterrupted.changes[: checkpoint.position]
            rows += _steps(resumed)
            assert resumed.done and resumed.position == 40
            assert resumed.states() == uninterrupted.states()
            assert rows == full_rows
            assert resumed.maintainer.statistics == uninterrupted.maintainer.statistics
            assert resumed.changes == uninterrupted.changes

    @pytest.mark.parametrize("position", [3, 37, 41])
    def test_resume_off_a_batch_boundary_raises(self, position):
        checkpoint = Session(small_spec(batch_size=6)).checkpoint()
        checkpoint = dataclasses.replace(checkpoint, position=position)
        with pytest.raises(ValueError, match="does not align with the batch boundaries"):
            Session.resume(checkpoint)


class TestProtocolCheckpointResume:
    """Protocol sessions checkpoint via the label-keyed NetworkSnapshot."""

    @pytest.mark.parametrize("network", ["dict", "fast"])
    @pytest.mark.parametrize("stop_at", [0, 1, 13, 40])
    def test_resumed_run_equals_uninterrupted_run(self, network, stop_at):
        spec = small_spec(
            backend=BackendSpec(
                runner="protocol", protocol="buffered", network=network, engine="fast"
            )
        )
        uninterrupted = Session(spec)
        full_rows = _steps(uninterrupted)
        full_result = uninterrupted.run()

        interrupted = Session(spec)
        rows = _steps(interrupted, stop_at)
        checkpoint = interrupted.checkpoint()
        assert checkpoint.position == stop_at
        assert checkpoint.runner == "protocol"
        assert checkpoint.remaining_changes == 40 - stop_at
        assert checkpoint.statistics is None
        del interrupted

        resumed = Session.resume(checkpoint)
        rows += _steps(resumed)
        resumed_result = resumed.run()
        assert resumed.states() == uninterrupted.states()
        assert rows == full_rows
        assert resumed.network.metrics == uninterrupted.network.metrics
        assert resumed_result.summary == full_result.summary
        assert resumed_result.num_changes == full_result.num_changes

    @pytest.mark.parametrize("protocol", ["buffered", "direct"])
    def test_cross_network_resume(self, protocol):
        # The snapshot is label-keyed: a checkpoint taken on the dict core
        # resumes on the fast core with identical outputs and metrics.
        spec = small_spec(
            backend=BackendSpec(
                runner="protocol", protocol=protocol, network="dict", engine="fast"
            )
        )
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 17)
        resumed = Session.resume(interrupted.checkpoint(), network="fast")
        assert resumed.spec.backend.network == "fast"
        rows += _steps(resumed)
        result = resumed.run()
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.network.metrics == reference.network.metrics
        assert "network=fast" in result.backend

    def test_async_resume_with_spec_scheduler_is_exact(self):
        # Exact async resume needs a channel-deterministic scheduler; the
        # spec's scheduler field pins one down, so the resumed session
        # rebuilds the identical delay adversary.
        spec = small_spec(
            backend=BackendSpec(
                runner="protocol",
                protocol="async-direct",
                network="dict",
                engine="fast",
                scheduler={"kind": "adversarial", "seed": 11},
            )
        )
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 19)
        checkpoint = interrupted.checkpoint()
        assert checkpoint.snapshot.scheduler_cursor > 0
        resumed = Session.resume(checkpoint, network="fast")
        rows += _steps(resumed)
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.network.metrics == reference.network.metrics

    def test_checkpoint_file_round_trip(self, tmp_path):
        spec = small_spec(
            backend=BackendSpec(runner="protocol", protocol="buffered", engine="fast")
        )
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 23)
        checkpoint = interrupted.checkpoint()
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, checkpoint)
        del interrupted

        loaded = load_checkpoint(path)
        assert loaded.position == 23
        assert loaded.spec == spec
        resumed = Session.resume(loaded, network="fast")
        rows += _steps(resumed)
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.network.metrics == reference.network.metrics

    @pytest.mark.parametrize("protocol", ["buffered", "direct"])
    def test_legacy_backend_fields_resume_as_a_plain_run(self, protocol, tmp_path):
        # Protocol checkpoints from before the worker pool and the CSR mirror
        # were removed may carry a parallel block on the fast network and
        # fast-csr as the reference engine; both resume as a plain run.
        spec = small_spec(
            backend=BackendSpec(
                runner="protocol", protocol=protocol, network="fast", engine="fast"
            )
        )
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 19)
        record = checkpoint_to_dict(interrupted.checkpoint())
        record["spec"]["backend"].update(
            engine="fast-csr", parallel={"workers": 2, "min_chunk": 256, "backend": "fork"}
        )
        path = tmp_path / "legacy.ckpt.json"
        path.write_text(json.dumps(record))
        with pytest.warns(UserWarning) as caught:
            checkpoint = load_checkpoint(path)
        assert len(caught) == 2
        assert checkpoint.spec == spec

        resumed = Session.resume(checkpoint)
        rows += _steps(resumed)
        assert resumed.run().verified
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.network.metrics == reference.network.metrics

    def test_resumed_result_keeps_the_whole_run_clock(self):
        # The checkpoint carries the accumulated elapsed time, so a resumed
        # run's per_change_us averages over all changes, not just the tail.
        spec = small_spec(
            backend=BackendSpec(runner="protocol", protocol="buffered", engine="fast")
        )
        interrupted = Session(spec)
        for _ in range(30):
            interrupted.step()
        checkpoint = interrupted.checkpoint()
        assert checkpoint.elapsed_s == interrupted.elapsed_s > 0
        resumed = Session.resume(checkpoint)
        result = resumed.run()
        assert resumed.elapsed_s > checkpoint.elapsed_s
        assert result.per_change_us == pytest.approx(resumed.elapsed_s / 40 * 1e6)

    def test_checkpoint_without_a_spec_is_rejected(self):
        from repro.scenario import CheckpointFormatError

        spec = small_spec()
        session = Session(spec)
        session.step()
        record = checkpoint_to_dict(session.checkpoint())
        del record["spec"]
        with pytest.raises(CheckpointFormatError, match="missing 'spec'"):
            checkpoint_from_dict(record)

    def test_sequential_checkpoint_file_round_trip(self, tmp_path):
        spec = small_spec()
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, 9)
        record = checkpoint_to_dict(interrupted.checkpoint())
        json.dumps(record)  # JSON-ready
        resumed = Session.resume(checkpoint_from_dict(record), engine="fast")
        rows += _steps(resumed)
        assert resumed.states() == reference.states()
        assert rows == reference_rows
        assert resumed.maintainer.statistics == reference.maintainer.statistics


class TestDynamicWorkloads:
    """Adaptive-adversary and sliding-window scenarios through the session."""

    def adaptive_spec(self, **overrides) -> ScenarioSpec:
        defaults = dict(
            name="adaptive",
            seed=4,
            graph=GraphSpec(family="erdos_renyi", nodes=20, seed=2),
            workload=WorkloadSpec(kind="adaptive_adversary", num_changes=12, seed=3),
            backend=BackendSpec(runner="sequential", engine="template"),
        )
        defaults.update(overrides)
        return ScenarioSpec(**defaults)

    @pytest.mark.parametrize("runner_overrides", [
        {},
        {"backend": BackendSpec(runner="protocol", protocol="buffered", engine="fast")},
    ])
    def test_adversary_always_deletes_a_current_mis_node(self, runner_overrides):
        spec = self.adaptive_spec(**runner_overrides)
        session = Session(spec)
        while not session.done:
            mis_before = session.mis()
            record = session.step()
            if record is None:
                break
            deleted = session.changes[-1].node
            assert deleted in mis_before
        assert session.position == 12
        session.verify()

    def test_materialize_rejects_adaptive_workloads(self):
        from repro.scenario import ScenarioSpecError

        with pytest.raises(ScenarioSpecError, match="live.*backend|Session"):
            self.adaptive_spec().materialize()

    def test_backends_generate_the_same_adaptive_stream(self):
        # Observably identical backends see identical MIS sets, so the
        # adaptive adversary generates the identical deletion stream.
        streams = {}
        for network in ("dict", "fast"):
            session = Session(
                self.adaptive_spec(
                    backend=BackendSpec(
                        runner="protocol", protocol="buffered", network=network,
                        engine="fast",
                    )
                )
            )
            session.run()
            streams[network] = list(session.changes)
        assert streams["dict"] == streams["fast"]

    @pytest.mark.parametrize("stop_at", [0, 5, 11])
    def test_adaptive_resume_is_exact(self, stop_at, tmp_path):
        # The checkpoint carries the adversary's RNG state, so the resumed
        # session generates exactly the deletions an uninterrupted run would.
        spec = self.adaptive_spec(
            backend=BackendSpec(
                runner="protocol", protocol="buffered", network="dict", engine="fast"
            )
        )
        reference = Session(spec)
        reference_rows = _steps(reference)

        interrupted = Session(spec)
        rows = _steps(interrupted, stop_at)
        checkpoint = interrupted.checkpoint()
        assert checkpoint.workload_state is not None
        path = tmp_path / "adaptive.json"
        save_checkpoint(path, checkpoint)
        resumed = Session.resume(load_checkpoint(path), network="fast")
        assert resumed.changes == []  # adaptive changes are not replayed
        rows += _steps(resumed)
        assert resumed.states() == reference.states()
        assert resumed.changes == reference.changes[stop_at:]
        assert rows == reference_rows
        assert resumed.network.metrics == reference.network.metrics

    def test_adaptive_stops_early_when_the_mis_empties(self):
        spec = ScenarioSpec(
            name="tiny",
            seed=1,
            graph=GraphSpec(family="path", nodes=4, seed=0),
            workload=WorkloadSpec(kind="adaptive_adversary", num_changes=50, seed=2),
            backend=BackendSpec(runner="sequential", engine="template"),
        )
        result = Session(spec).run()
        assert result.num_changes == 4  # every node deleted, then StopIteration

    def test_sliding_window_scenario_runs_on_both_runners(self):
        spec = ScenarioSpec(
            name="window",
            seed=4,
            graph=None,
            workload=WorkloadSpec(
                kind="sliding_window",
                num_changes=40,
                seed=9,
                params={"num_nodes": 25, "window_size": 10},
            ),
            backend=BackendSpec(runner="sequential", engine="fast"),
        )
        sequential = run_scenario(spec)
        assert sequential.num_changes == 40
        protocol = run_scenario(
            spec.with_backend(runner="protocol", protocol="direct", network="fast")
        )
        assert protocol.num_changes == 40
        assert protocol.verified


class TestInitialGraph:
    """A session keeps no starting graph: it is rebuilt from the spec when read."""

    @staticmethod
    def _trace_specs(tmp_path):
        """A trace that embeds its starting graph and one that does not."""
        graph, changes = small_spec(
            workload=WorkloadSpec(kind="mixed_churn", num_changes=12, seed=2)
        ).materialize()
        embedded = tmp_path / "embedded.trace.json"
        trace.save_trace(embedded, changes, initial_graph=graph)
        bare = tmp_path / "bare.trace.json"
        trace.save_trace(bare, changes)
        return {
            "trace-embedded": small_spec(
                graph=None, workload=WorkloadSpec(kind="trace", path=str(embedded))
            ),
            "trace-bare": small_spec(workload=WorkloadSpec(kind="trace", path=str(bare))),
        }

    @classmethod
    def _spec(cls, kind, tmp_path):
        if kind.startswith("trace"):
            return cls._trace_specs(tmp_path)[kind]
        if kind == "sliding_window":
            params = {"num_nodes": 16, "window_size": 6}
            workload = WorkloadSpec(kind="sliding_window", num_changes=12, seed=9, params=params)
            return small_spec(graph=None, workload=workload)
        if kind == "build":
            return small_spec(workload=WorkloadSpec(kind="build", seed=3))
        return small_spec(workload=WorkloadSpec(kind=kind, num_changes=12, seed=3))

    @pytest.mark.parametrize(
        "kind",
        [
            "trace-embedded",
            "trace-bare",
            "mixed_churn",
            "build",
            "sliding_window",
            "adaptive_adversary",
        ],
    )
    def test_fresh_and_resumed_sessions_read_the_materialized_graph(self, kind, tmp_path):
        spec = self._spec(kind, tmp_path)
        # Adaptive workloads cannot be materialized; they start from the graph spec.
        expected = spec.graph.build() if spec.workload.is_dynamic else spec.materialize()[0]
        session = Session(spec)
        assert session.initial_graph == expected
        for _ in range(4):
            session.step()
        assert session.initial_graph == expected  # not the backend's current graph
        path = tmp_path / "resume.json"
        save_checkpoint(path, session.checkpoint())
        resumed = Session.resume(load_checkpoint(path))
        assert resumed.position == 4
        assert resumed.initial_graph == expected
        assert resumed.states() == session.states()

    @pytest.mark.parametrize("kind", ["trace-embedded", "trace-bare"])
    def test_resuming_a_trace_session_builds_no_graph(self, kind, tmp_path, monkeypatch):
        """Neither ``GraphSpec.build`` nor the trace's graph decoder runs."""
        spec = self._spec(kind, tmp_path)
        session = Session(spec)
        for _ in range(5):
            session.step()
        checkpoint = session.checkpoint()
        built = []

        def counted(name, function):
            def wrapper(*args, **kwargs):
                built.append(name)
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(GraphSpec, "build", counted("build", GraphSpec.build))
        monkeypatch.setattr(trace, "decode_graph", counted("decode_graph", trace.decode_graph))
        resumed = Session.resume(checkpoint)
        assert built == []
        resumed.run()
        session.run()
        assert resumed.states() == session.states()


class TestObservers:
    def test_summary_sink_sees_every_change(self):
        sink = SummarySink()
        run_scenario(small_spec(), observers=(sink,))
        assert sink.num_changes == 40
        summary = sink.summary()
        assert summary["num_changes"] == 40
        assert "num_adjustments" in summary
        assert summary["num_adjustments"]["total"] >= 0

    def test_summary_sink_works_for_protocol_records(self):
        sink = SummarySink()
        run_scenario(
            small_spec(backend=BackendSpec(runner="protocol", protocol="buffered")),
            observers=(sink,),
        )
        assert "broadcasts" in sink.summary()

    def test_jsonl_sink_writes_one_line_per_change(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        run_scenario(small_spec(), observers=(JsonlSink(str(path)),))
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 40
        assert all("change" in line and "num_adjustments" in line for line in lines)

    def test_spec_named_sinks_are_attached(self, tmp_path):
        path = tmp_path / "spec-sink.jsonl"
        spec = small_spec(sinks=("summary", f"jsonl:{path}"))
        run_scenario(spec)
        assert len(path.read_text().splitlines()) == 40

    def test_callback_sink_and_batch_hook(self):
        seen = []
        spec = small_spec(batch_size=10)
        run_scenario(spec, observers=(CallbackSink(lambda i, unit, r: seen.append(i)),))
        assert seen == [0, 1, 2, 3]  # 40 changes / batch_size 10


class TestStatus:
    @pytest.mark.parametrize(
        "backend",
        [
            BackendSpec(runner="sequential", engine="fast"),
            BackendSpec(runner="protocol", protocol="direct", network="fast"),
        ],
        ids=["sequential", "protocol"],
    )
    def test_status_never_materializes_the_outputs(self, backend, monkeypatch):
        # The service adds status() to every reply, so it must not pay for an
        # O(n) read of the MIS or the output map.
        session = Session(small_spec(backend=backend))
        _steps(session, 5)

        def boom():
            raise AssertionError("status() read the whole output")

        monkeypatch.setattr(session._runner, "mis", boom)
        monkeypatch.setattr(session._runner, "states", boom)
        status = session.status()
        assert status["position"] == 5
        assert status["num_nodes"] == session.graph.num_nodes()
        json.dumps(status)


class TestGrid:
    def test_same_scenario_across_backends(self):
        results = run_scenario_grid(
            small_spec(),
            [("template", {"engine": "template"}), ("fast", {"engine": "fast"})],
        )
        assert [result.name for result in results] == [
            "session-test[template]",
            "session-test[fast]",
        ]
        # Identical workload + seed => identical outputs and costs.
        assert results[0].final_mis_size == results[1].final_mis_size
        assert results[0].summary == results[1].summary
