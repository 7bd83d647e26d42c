"""Unit tests for the delta journal and time travel (``repro.scenario.journal``).

The load-bearing contract is **journal-folded snapshot == fresh full
snapshot**: a fold derives the knowledge map from the folded topology and
states (the quiescence invariant), so any drift between the two would
corrupt every delta checkpoint.  It is property-tested here over seeded
churn -- including deletion/reinsertion sequences that recycle free-list
ids in the fast core -- for both network cores, a synchronous and an
asynchronous (random-scheduler) protocol, and both sequential engines.

On top of that: ``replay_to`` time travel, delta checkpoints through the
v2 JSON codec, v1 decode compatibility, the recursive key/state-tree
codecs, the atomic ``save_checkpoint`` rewrite, and ``repro-mis bisect``
(no divergence, planted divergence, and the CLI entry).
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import pathlib

import pytest

from repro.core.engine_api import EngineSnapshot
from repro.distributed.fast_network import FastBufferedMISNetwork
from repro.distributed.state import NetworkSnapshot
from repro.scenario import (
    BackendSpec,
    BisectResult,
    CheckpointFormatError,
    DeltaJournal,
    GraphSpec,
    JournalError,
    ScenarioSpec,
    Session,
    WorkloadSpec,
    bisect_first_divergence,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario.checkpoint_io import (
    FORMAT,
    FORMAT_V1,
    _decode_key,
    _decode_state_tree,
    _encode_key,
    _encode_state_tree,
)


def _network_spec(
    network: str = "fast",
    protocol: str = "buffered",
    scheduler=None,
    workload: str = "mixed_churn",
    num_changes: int = 40,
    seed: int = 11,
) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"journal-{protocol}-{network}",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=seed + 1),
        workload=WorkloadSpec(kind=workload, num_changes=num_changes, seed=seed + 2),
        backend=BackendSpec(
            runner="protocol", network=network, protocol=protocol, scheduler=scheduler
        ),
    )


def _engine_spec(engine: str = "fast", num_changes: int = 40, seed: int = 11) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"journal-{engine}",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=seed + 1),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=num_changes, seed=seed + 2),
        backend=BackendSpec(runner="sequential", engine=engine),
    )


def _assert_snapshots_equal(folded, fresh) -> None:
    """Field-for-field equality up to node/edge enumeration order."""
    assert type(folded) is type(fresh)
    assert sorted(folded.nodes, key=repr) == sorted(fresh.nodes, key=repr)

    def canon(edges):
        return sorted(
            ((u, v) if repr(u) <= repr(v) else (v, u) for u, v in edges),
            key=repr,
        )

    assert canon(folded.edges) == canon(fresh.edges)
    assert folded.states == fresh.states
    assert folded.priority_keys == fresh.priority_keys
    if isinstance(fresh, NetworkSnapshot):
        assert folded.protocol == fresh.protocol
        assert folded.knowledge == fresh.knowledge
        assert folded.scheduler_cursor == fresh.scheduler_cursor
        assert folded.scheduler_state == fresh.scheduler_state
        assert [m.as_dict() for m in folded.metrics] == [
            m.as_dict() for m in fresh.metrics
        ]


# ----------------------------------------------------------------------
# The fold contract: folded == fresh full snapshot, at every position
# ----------------------------------------------------------------------
class TestFoldEqualsFreshSnapshot:
    @pytest.mark.parametrize("network", ["dict", "fast"])
    @pytest.mark.parametrize(
        "protocol,scheduler",
        [("buffered", None), ("async-direct", {"kind": "random", "seed": 5})],
    )
    def test_network_sessions(self, network, protocol, scheduler):
        session = Session(
            _network_spec(network, protocol, scheduler), record_journal=True
        )
        while not session.done:
            session.step()
            folded = session.journal.fold(session.position)
            _assert_snapshots_equal(folded.snapshot, session.network.snapshot())

    @pytest.mark.parametrize("engine", ["template", "fast"])
    def test_sequential_sessions(self, engine):
        session = Session(_engine_spec(engine), record_journal=True)
        reference = Session(_engine_spec(engine))
        while not session.done:
            session.step()
            reference.step()
            folded = session.journal.fold(session.position)
            _assert_snapshots_equal(folded.snapshot, session.maintainer.engine.snapshot())
            stats = folded.statistics
            assert stats.influenced_sizes == reference.maintainer.statistics.influenced_sizes
            assert stats.change_kinds == reference.maintainer.statistics.change_kinds

    def test_id_reuse_in_the_fast_core(self):
        """Deletion/reinsertion churn recycles free-list ids; the label-keyed
        fold must be oblivious to it."""
        from repro.workloads.changes import NodeDeletion, NodeInsertion

        spec = _network_spec("fast", "buffered", num_changes=10)
        session = Session(spec, record_journal=True)
        nodes = sorted(session.initial_graph.nodes())
        backend = session.network
        position = session.position
        for round_number in range(3):
            for change in (
                NodeDeletion(nodes[0]),
                NodeDeletion(nodes[1]),
                NodeInsertion(f"re{round_number}", (nodes[2], nodes[3])),
                NodeInsertion(nodes[0], (f"re{round_number}", nodes[4])),
                NodeInsertion(nodes[1], (nodes[0],)),
                NodeDeletion(f"re{round_number}"),
            ):
                removed = session.journal.pre_change(backend, change)
                record = backend.apply(change)
                position += 1
                session.journal.record_change(
                    backend, change, record, removed_edges=removed
                )
                folded = session.journal.fold(position)
                _assert_snapshots_equal(folded.snapshot, backend.snapshot())
        backend.check_interning_invariants()

    def test_adaptive_adversary_state_rides_in_entries(self):
        spec = _network_spec(workload="adaptive_adversary", num_changes=16)
        session = Session(spec, record_journal=True)
        for _ in range(9):
            session.step()
        folded = session.journal.fold(session.position)
        assert folded.workload_state is not None
        assert folded.workload_state == session.checkpoint(full=True).workload_state
        assert folded.elapsed_s == pytest.approx(session.elapsed_s)


class TestJournalGuards:
    def test_batched_specs_are_rejected(self):
        spec = dataclasses.replace(_engine_spec(), batch_size=4)
        with pytest.raises(JournalError, match="unbatched"):
            Session(spec, record_journal=True)

    def test_fold_position_must_be_in_range(self):
        session = Session(_engine_spec(num_changes=10), record_journal=True)
        session.step()
        with pytest.raises(JournalError, match="outside"):
            session.journal.fold(5)
        with pytest.raises(JournalError, match="outside"):
            session.journal.slice(-1)

    def test_node_deletion_without_pre_change_is_rejected(self):
        from repro.workloads.changes import NodeDeletion

        session = Session(_network_spec(num_changes=10), record_journal=True)
        backend = session.network
        node = sorted(session.initial_graph.nodes())[0]
        record = backend.apply(NodeDeletion(node))
        with pytest.raises(JournalError, match="pre_change"):
            session.journal.record_change(backend, NodeDeletion(node), record)

    def test_base_must_be_a_known_snapshot_flavor(self):
        with pytest.raises(JournalError, match="NetworkSnapshot"):
            DeltaJournal({"not": "a snapshot"})


# ----------------------------------------------------------------------
# Time travel: replay_to
# ----------------------------------------------------------------------
class TestReplayTo:
    def test_replayed_session_continues_identically(self):
        spec = _network_spec(
            "fast", "async-direct", {"kind": "random", "seed": 7}, num_changes=30
        )
        recorded = Session(spec, record_journal=True)
        while not recorded.done:
            recorded.step()
        reference_records = [r.as_dict() for r in recorded.network.metrics.records]
        for position in (0, 11, 23):
            replayed = recorded.replay_to(position)
            assert replayed.position == position
            while not replayed.done:
                replayed.step()
            assert replayed.states() == recorded.states()
            assert [
                r.as_dict() for r in replayed.network.metrics.records
            ] == reference_records

    def test_replay_to_needs_a_recorded_journal(self):
        session = Session(_engine_spec(num_changes=10))
        with pytest.raises(JournalError, match="record_journal"):
            session.replay_to(3)

    def test_replayed_session_can_itself_record(self):
        recorded = Session(_engine_spec(num_changes=20), record_journal=True)
        while not recorded.done:
            recorded.step()
        replayed = recorded.replay_to(8, record_journal=True)
        replayed.step()
        assert replayed.journal.position == 9


# ----------------------------------------------------------------------
# Checkpoint v2: delta checkpoints through JSON, v1 compatibility
# ----------------------------------------------------------------------
class TestCheckpointV2:
    def test_delta_checkpoint_shares_the_base_and_resolves_equal(self):
        session = Session(_network_spec(num_changes=30), record_journal=True)
        for _ in range(12):
            session.step()
        delta = session.checkpoint()
        full = session.checkpoint(full=True)
        assert delta.journal is not None
        assert delta.snapshot is session.journal.base_snapshot  # aliased, not copied
        resolved = delta.resolve()
        assert resolved.journal is None
        _assert_snapshots_equal(resolved.snapshot, full.snapshot)

    @pytest.mark.parametrize(
        "scheduler", [None, {"kind": "random", "seed": 5}], ids=["default", "random"]
    )
    def test_async_delta_checkpoint_round_trips_json(self, scheduler):
        spec = _network_spec("fast", "async-direct", scheduler, num_changes=30)
        session = Session(spec, record_journal=True)
        for _ in range(13):
            session.step()
        delta = session.checkpoint()
        wire = json.dumps(checkpoint_to_dict(delta), sort_keys=True)
        record = json.loads(wire)
        assert record["format"] == FORMAT
        resumed = Session.resume(checkpoint_from_dict(record))
        while not session.done:
            session.step()
            resumed.step()
        assert resumed.states() == session.states()
        assert [r.as_dict() for r in resumed.network.metrics.records] == [
            r.as_dict() for r in session.network.metrics.records
        ]

    def test_sequential_delta_checkpoint_round_trips_json(self):
        session = Session(_engine_spec(num_changes=30), record_journal=True)
        for _ in range(17):
            session.step()
        delta = session.checkpoint()
        resumed = Session.resume(
            checkpoint_from_dict(json.loads(json.dumps(checkpoint_to_dict(delta))))
        )
        while not session.done:
            session.step()
            resumed.step()
        assert resumed.states() == session.states()
        assert (
            resumed.maintainer.statistics.influenced_sizes
            == session.maintainer.statistics.influenced_sizes
        )

    def test_v1_records_still_decode(self):
        """A pre-journal checkpoint file (v1 format, no scheduler_state, no
        journal key) must keep loading -- the new fields default to None."""
        session = Session(_network_spec(num_changes=20))
        for _ in range(6):
            session.step()
        record = checkpoint_to_dict(session.checkpoint())
        v1 = copy.deepcopy(record)
        v1["format"] = FORMAT_V1
        v1.pop("journal", None)
        v1["snapshot"].pop("scheduler_state", None)
        checkpoint = checkpoint_from_dict(v1)
        assert checkpoint.snapshot.scheduler_state is None
        assert checkpoint.journal is None
        resumed = Session.resume(checkpoint)
        assert resumed.states() == session.states()

    def test_unsupported_formats_are_rejected(self):
        record = checkpoint_to_dict(Session(_engine_spec(num_changes=5)).checkpoint())
        record["format"] = "repro-checkpoint-v99"
        with pytest.raises(CheckpointFormatError, match="supported"):
            checkpoint_from_dict(record)


class TestRecursiveCodecs:
    def test_nested_keys_round_trip(self):
        # Reduction labels nest tuples inside priority keys; the codec must
        # rebuild the exact tuple tree, not just the top level.
        keys = [
            (0.25, 3),
            (("line", ("a", "b")), 0.5, 7),
            ((("deep", (1, ("deeper", 2))), 0.125), 4),
        ]
        for key in keys:
            assert _decode_key(_encode_key(key)) == key

    def test_state_trees_round_trip(self):
        state = ("uniform-rng", (3, tuple(range(10)), None))
        assert _decode_state_tree(_encode_state_tree(state)) == state
        assert _encode_state_tree(None) is None
        assert _decode_state_tree(None) is None

    def test_nested_reduction_labels_survive_a_checkpoint(self):
        """End-to-end: a snapshot with tuple-structured node labels and keys
        round-trips the JSON codec exactly (the v1 codec flattened these)."""
        session = Session(_engine_spec(num_changes=8))
        for _ in range(4):
            session.step()
        checkpoint = session.checkpoint()
        nodes = tuple(checkpoint.snapshot.nodes) + (("line", ("u", ("v", 2))),)
        keys = dict(checkpoint.snapshot.priority_keys)
        keys[("line", ("u", ("v", 2)))] = (("nested", (1, 2)), 0.5)
        states = dict(checkpoint.snapshot.states)
        states[("line", ("u", ("v", 2)))] = False
        snapshot = dataclasses.replace(
            checkpoint.snapshot, nodes=nodes, priority_keys=keys, states=states
        )
        checkpoint = dataclasses.replace(checkpoint, snapshot=snapshot)
        decoded = checkpoint_from_dict(
            json.loads(json.dumps(checkpoint_to_dict(checkpoint)))
        )
        assert decoded.snapshot.nodes == snapshot.nodes
        assert decoded.snapshot.priority_keys == snapshot.priority_keys


class TestSaveCheckpoint:
    def test_atomic_write_and_load(self, tmp_path):
        session = Session(_engine_spec(num_changes=10), record_journal=True)
        for _ in range(4):
            session.step()
        target = tmp_path / "checkpoint.json"
        save_checkpoint(target, session.checkpoint())
        loaded = load_checkpoint(target)
        assert loaded.position == 4
        assert loaded.journal is not None
        assert [p.name for p in tmp_path.iterdir()] == ["checkpoint.json"]

    def test_failed_replace_cleans_up_the_temp_file(self, tmp_path, monkeypatch):
        session = Session(_engine_spec(num_changes=10))
        session.step()
        target = tmp_path / "checkpoint.json"

        def broken_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", broken_replace)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(target, session.checkpoint())
        assert list(tmp_path.iterdir()) == []  # no orphaned .tmp sibling

    def test_concurrent_writers_use_distinct_temp_names(self, tmp_path, monkeypatch):
        session = Session(_engine_spec(num_changes=10))
        session.step()
        checkpoint = session.checkpoint()
        seen = []
        original = os.replace

        def spying_replace(src, dst):
            seen.append(pathlib.Path(src).name)
            return original(src, dst)

        monkeypatch.setattr(os, "replace", spying_replace)
        target = tmp_path / "checkpoint.json"
        save_checkpoint(target, checkpoint)
        save_checkpoint(target, checkpoint)
        assert len(seen) == 2 and seen[0] != seen[1]


# ----------------------------------------------------------------------
# Bisect: binary search for the first divergent change
# ----------------------------------------------------------------------
def _lying_fast_step(monkeypatch: pytest.MonkeyPatch) -> None:
    """Make the fast buffered core under-report its state changes."""
    honest = FastBufferedMISNetwork._node_step

    def lying_step(self, nid, inbox, round_no):
        outgoing, changed = honest(self, nid, inbox, round_no)
        if changed:
            return outgoing, False
        return outgoing, changed

    monkeypatch.setattr(FastBufferedMISNetwork, "_node_step", lying_step)


class TestBisect:
    def test_agreeing_backends_report_no_divergence(self):
        result = bisect_first_divergence(
            _network_spec("dict", num_changes=25), networks=("dict", "fast")
        )
        assert isinstance(result, BisectResult)
        assert not result.diverged
        assert result.position is None
        assert result.probes == (25,)  # one probe at the end settles it

    def test_planted_divergence_is_pinned_to_its_first_change(self, monkeypatch):
        reference = bisect_first_divergence(
            _network_spec("dict", num_changes=25), networks=("dict", "fast")
        )
        assert not reference.diverged
        _lying_fast_step(monkeypatch)
        result = bisect_first_divergence(
            _network_spec("dict", num_changes=25), networks=("dict", "fast")
        )
        assert result.diverged
        assert result.position is not None and 1 <= result.position <= 25
        assert result.change is not None
        assert "state_changes" in result.detail or "record" in result.detail
        # O(log N) probing, not a linear scan.
        assert len(result.probes) <= 8

    def test_resume_at_probe_passes_when_resume_is_exact(self):
        spec = _network_spec(
            "fast", "async-direct", {"kind": "random", "seed": 3}, num_changes=20
        )
        result = bisect_first_divergence(spec, resume_at=8)
        assert not result.diverged

    def test_engines_pair_bisects_sequential_scenarios(self):
        result = bisect_first_divergence(
            _engine_spec(num_changes=20), engines=("template", "fast")
        )
        assert not result.diverged

    def test_argument_validation(self):
        spec = _engine_spec(num_changes=5)
        with pytest.raises(ValueError, match="not both"):
            bisect_first_divergence(
                spec, networks=("dict", "fast"), engines=("template", "fast")
            )
        with pytest.raises(ValueError, match="nothing to compare"):
            bisect_first_divergence(spec)
        with pytest.raises(ValueError, match="exactly"):
            bisect_first_divergence(spec, engines=("template",))

    def test_cli_bisect_exits_one_on_divergence(self, monkeypatch, tmp_path, capsys):
        from repro.cli import main

        spec_path = tmp_path / "spec.json"
        _network_spec("dict", num_changes=25).save(spec_path)
        assert (
            main(["bisect", "--scenario", str(spec_path), "--networks", "dict,fast"])
            == 0
        )
        _lying_fast_step(monkeypatch)
        assert (
            main(["bisect", "--scenario", str(spec_path), "--networks", "dict,fast"])
            == 1
        )
        out = capsys.readouterr().out
        assert "first divergent change" in out
