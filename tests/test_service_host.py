"""SessionHost: lifecycle, LRU eviction, spool rehydration, crash safety.

The host is the process-agnostic core of one shard worker
(:mod:`repro.service.host`); these tests drive it in-process.  The headline
guarantees under test:

* a session evicted to a JSON spool checkpoint and rehydrated on demand --
  on the same backend or the shard's preferred opposite one -- produces
  outputs identical to a never-evicted run (the differential section reuses
  :func:`~repro.testing.protocol_differential.replay_resume_differential`,
  whose checkpoint->JSON->resume path is exactly the spool's);
* ``save_checkpoint`` fsyncs before its atomic rename, so a crashed daemon
  can never leave a truncated-but-renamed spool file, and fsyncs the spool
  directory after it, so the rename itself survives a power loss;
* a damaged spool file (truncated, not valid UTF-8, or a protocol snapshot
  torn so it cannot restore) fails its request with the typed
  ``spec-error``;
* the cyclic collector is held off inside the spool phases (checkpoint and
  save on evict, load and resume on rehydrate) and comes back in the state
  the caller left it in, also when a rehydrate fails;
* ``stats`` counts applies and evictions over the host's lifetime, closed
  sessions included.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import os
import random
import stat
import warnings

import pytest

from repro.scenario.checkpoint_io import (
    CheckpointFormatError,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario.session import Session
from repro.scenario.spec import BackendSpec, GraphSpec, ScenarioSpec, WorkloadSpec
from repro.service import host as service_host
from repro.service.host import (
    BadRequestError,
    HostConfig,
    SessionExistsError,
    SessionHost,
    UnknownSessionError,
)


def _spec(name="host-test", *, nodes=14, changes=16, seed=3, runner="sequential",
          engine="template", network="dict", batch_size=0):
    backend = (
        BackendSpec(runner="sequential", engine=engine)
        if runner == "sequential"
        else BackendSpec(runner="protocol", protocol="buffered", network=network)
    )
    return ScenarioSpec(
        name=name,
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=nodes, seed=seed),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=changes, seed=seed + 1),
        backend=backend,
        batch_size=batch_size,
    )


def _host(tmp_path, **overrides):
    config = {"spool_dir": str(tmp_path / "spool"), "max_live": 8}
    config.update(overrides)
    return SessionHost(HostConfig(**config))


class TestLifecycle:
    def test_create_apply_query_close(self, tmp_path):
        host = _host(tmp_path)
        status = host.handle("create", {"session": "s1", "spec": _spec().to_dict()})
        assert status["live"] and status["position"] == 0
        status = host.handle("apply", {"session": "s1", "steps": 5})
        assert status["position"] == 5 and status["applied"] == 5
        result = host.handle("query", {"session": "s1", "what": "mis"})
        assert result["mis"] and result["position"] == 5
        states = host.handle("query", {"session": "s1", "what": "states"})["states"]
        assert {label for label, in_mis in states if in_mis} == set(result["mis"])
        metrics = host.handle("query", {"session": "s1", "what": "metrics"})["metrics"]
        assert "mean_adjustments" in metrics
        assert host.handle("close", {"session": "s1"})["closed"]
        with pytest.raises(UnknownSessionError):
            host.handle("query", {"session": "s1"})

    def test_apply_stops_at_workload_end(self, tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "s1", "spec": _spec(changes=6).to_dict()})
        status = host.handle("apply", {"session": "s1", "steps": 99})
        assert status["applied"] == 6 and status["done"]

    def test_batched_spec_applies_batch_units(self, tmp_path):
        """With ``batch_size`` set, one unit is one ``apply_batch`` batch."""
        host = _host(tmp_path)
        spec = _spec(changes=12, batch_size=4).to_dict()
        host.handle("create", {"session": "b", "spec": spec})
        status = host.handle("apply_batch", {"session": "b", "steps": 2})
        assert status["position"] == 8 and status["applied"] == 2

    def test_errors_carry_wire_kinds(self, tmp_path):
        host = _host(tmp_path)
        spec = _spec().to_dict()
        host.handle("create", {"session": "dup", "spec": spec})
        with pytest.raises(SessionExistsError):
            host.handle("create", {"session": "dup", "spec": spec})
        with pytest.raises(UnknownSessionError):
            host.handle("apply", {"session": "ghost"})
        with pytest.raises(BadRequestError):
            host.handle("apply", {"session": "dup", "steps": 0})
        with pytest.raises(BadRequestError):
            host.handle("query", {"session": "dup", "what": "everything"})
        with pytest.raises(BadRequestError):
            host.handle("apply", {"session": "../escape"})
        with pytest.raises(BadRequestError):
            host.handle("nope", {})
        assert host.handle_safely("nope", {})["kind"] == "bad-request"
        assert host.handle_safely("create", {"session": "bad", "spec": {"runner": "x"}})[
            "kind"
        ] in ("spec-error", "bad-request")

    def test_apply_batch_requires_steps(self, tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "s", "spec": _spec().to_dict()})
        with pytest.raises(BadRequestError, match="apply_batch"):
            host.handle("apply_batch", {"session": "s"})


class TestEviction:
    def test_lru_eviction_past_capacity(self, tmp_path):
        host = _host(tmp_path, max_live=2)
        spec = _spec().to_dict()
        for name in ("a", "b", "c"):
            host.handle("create", {"session": name, "spec": spec})
        rows = {row["session"]: row for row in host.handle("list", {})}
        # "a" was the least recently used when "c" arrived.
        assert not rows["a"]["live"] and rows["a"]["spooled"]
        assert rows["b"]["live"] and rows["c"]["live"]
        # Touching "b" then creating "d" evicts "c", not "b".
        host.handle("query", {"session": "b"})
        host.handle("create", {"session": "d", "spec": spec})
        rows = {row["session"]: row for row in host.handle("list", {})}
        assert rows["b"]["live"] and not rows["c"]["live"]

    @pytest.mark.parametrize("seed", range(3))
    def test_live_sessions_follow_a_reference_lru(self, tmp_path, seed):
        """A scripted op mix over ``max_live + 3`` sessions against a list model."""
        max_live = 3
        host = _host(tmp_path, max_live=max_live)
        spec = _spec(nodes=8, changes=40).to_dict()
        names = [f"s{k}" for k in range(max_live + 3)]
        ops = ("apply", "apply", "query", "query", "evict", "close")
        rng = random.Random(seed)
        model = []  # live session ids, least recently used first
        known = set()

        def use(name):
            if name in model:
                model.remove(name)
            model.append(name)
            del model[:-max_live]

        for _ in range(120):
            name = rng.choice(names)
            op = rng.choice(ops) if name in known else "create"
            if op == "create":
                host.handle("create", {"session": name, "spec": spec})
                known.add(name)
            elif op == "apply":
                host.handle("apply", {"session": name, "steps": 1})
            elif op == "query":
                host.handle("query", {"session": name, "what": "mis"})
            else:
                host.handle(op, {"session": name})
            if op in ("evict", "close"):
                if name in model:
                    model.remove(name)
                if op == "close":
                    known.discard(name)
            else:
                use(name)
            live = {row["session"] for row in host.handle("list", {}) if row["live"]}
            assert live == set(model)
            assert host.handle("stats", {})["live"] == len(model)
        stats = host.handle("stats", {})
        assert stats["evictions"] > 0 and stats["rehydrations"] > 0

    def test_rehydration_is_transparent(self, tmp_path):
        host = _host(tmp_path, max_live=1)
        spec = _spec().to_dict()
        host.handle("create", {"session": "a", "spec": spec})
        host.handle("apply", {"session": "a", "steps": 7})
        host.handle("create", {"session": "b", "spec": spec})  # evicts a
        status = host.handle("apply", {"session": "a", "steps": 2})  # rehydrates a
        assert status["position"] == 9
        assert host.handle("stats", {})["rehydrations"] == 1

    def test_jsonl_sink_survives_evict_and_rehydrate(self, tmp_path):
        """A stepped, evicted and rehydrated session logs every change once,
        and dropping it leaves no file open (no ``ResourceWarning``)."""
        path = tmp_path / "changes.jsonl"
        spec = dataclasses.replace(_spec(changes=16), sinks=(f"jsonl:{path}",))
        host = _host(tmp_path, max_live=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            host.handle("create", {"session": "a", "spec": spec.to_dict()})
            host.handle("apply", {"session": "a", "steps": 6})
            host.handle("evict", {"session": "a"})
            gc.collect()
            host.handle("apply", {"session": "a", "steps": 5})  # rehydrates a
            host.handle("create", {"session": "b", "spec": _spec().to_dict()})  # evicts a
            gc.collect()
            host.handle("apply", {"session": "a", "steps": 99})
            host.handle("close", {"session": "a"})
            gc.collect()
        assert host.handle("stats", {})["rehydrations"] == 2
        steps = [json.loads(line)["step"] for line in path.read_text().splitlines()]
        assert steps == list(range(16))

    def test_drain_spools_everything(self, tmp_path):
        host = _host(tmp_path)
        spec = _spec().to_dict()
        for name in ("a", "b"):
            host.handle("create", {"session": name, "spec": spec})
        report = host.handle("drain", {})
        assert report["drained"] == ["a", "b"]
        assert sorted(path.name for path in (tmp_path / "spool").iterdir()) == [
            "a.ckpt.json",
            "b.ckpt.json",
        ]
        assert all(not row["live"] for row in host.handle("list", {}))

    def test_adoption_resumes_spooled_sessions(self, tmp_path):
        first = _host(tmp_path)
        first.handle("create", {"session": "a", "spec": _spec().to_dict()})
        first.handle("apply", {"session": "a", "steps": 4})
        first.handle("drain", {})
        second = _host(tmp_path)
        assert second.adopt_spool() == ["a"]
        assert second.handle("query", {"session": "a"})["position"] == 4

    def test_legacy_backend_fields_in_a_spool_file_rehydrate(self, tmp_path):
        """Spool files may name engine ``fast-csr`` and carry a ``parallel``
        block; the host rehydrates them as plain ``fast`` sessions."""
        spec = _spec(changes=12, engine="fast")
        first = _host(tmp_path)
        first.handle("create", {"session": "old", "spec": spec.to_dict()})
        first.handle("apply", {"session": "old", "steps": 5})
        first.handle("drain", {})
        path = tmp_path / "spool" / "old.ckpt.json"
        record = json.loads(path.read_text())
        record["spec"]["backend"].update(engine="fast-csr", parallel={"workers": 2})
        path.write_text(json.dumps(record))

        second = _host(tmp_path)
        assert second.adopt_spool() == ["old"]
        with pytest.warns(UserWarning) as caught:
            status = second.handle("apply", {"session": "old", "steps": 99})
        assert len(caught) == 2
        assert status["position"] == 12 and status["done"]
        reference = Session(spec)
        reference.run()
        hosted = second.handle("query", {"session": "old", "what": "states"})["states"]
        assert hosted == sorted(
            ([node, in_mis] for node, in_mis in reference.states().items()), key=repr
        )

    def test_indented_spool_file_from_earlier_versions_is_adopted(self, tmp_path):
        """Spool files used to be indented JSON; they still adopt and resume."""
        spec = _spec(changes=12, engine="fast")
        session = Session(spec)
        for _ in range(5):
            session.step()
        spool = tmp_path / "spool"
        spool.mkdir()
        record = checkpoint_to_dict(session.checkpoint())
        (spool / "old.ckpt.json").write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

        host = _host(tmp_path)
        assert host.adopt_spool() == ["old"]
        status = host.handle("apply", {"session": "old", "steps": 99})
        assert status["position"] == 12 and status["done"]
        reference = Session(spec)
        reference.run()
        hosted = host.handle("query", {"session": "old", "what": "states"})["states"]
        assert hosted == sorted(
            ([node, in_mis] for node, in_mis in reference.states().items()), key=repr
        )

    def test_close_deletes_the_spool_file(self, tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "a", "spec": _spec().to_dict()})
        host.handle("evict", {"session": "a"})
        assert (tmp_path / "spool" / "a.ckpt.json").exists()
        host.handle("close", {"session": "a"})
        assert not (tmp_path / "spool" / "a.ckpt.json").exists()


class TestLifetimeCounters:
    def test_stats_keeps_the_counts_of_closed_sessions(self, tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "a", "spec": _spec().to_dict()})
        host.handle("apply", {"session": "a", "steps": 5})
        host.handle("evict", {"session": "a"})
        host.handle("query", {"session": "a"})
        host.handle("close", {"session": "a"})
        stats = host.handle("stats", {})
        assert stats["sessions"] == 0
        assert (stats["applied"], stats["evictions"], stats["rehydrations"]) == (5, 1, 1)


class TestCollectorContract:
    """No cyclic collection inside a spool phase; the caller's GC state survives."""

    #: The calls of the two spool phases: evict, then rehydrate.
    PHASE_CALLS = ("checkpoint", "save_checkpoint", "load_checkpoint", "resume")

    @staticmethod
    def _watch_spool_calls(monkeypatch):
        """Wrap the four spool-phase calls the host makes.

        Each wrapped call records whether the collector was enabled inside
        it and how many collections started while it ran.
        """
        started = []
        calls = []

        def on_collection(phase, info):
            if phase == "start":
                started.append(info["generation"])

        def watched(name, function):
            def wrapper(*args, **kwargs):
                before = len(started)
                enabled = gc.isenabled()
                try:
                    return function(*args, **kwargs)
                finally:
                    calls.append((name, enabled, len(started) - before))

            return wrapper

        for name in ("save_checkpoint", "load_checkpoint"):
            monkeypatch.setattr(service_host, name, watched(name, getattr(service_host, name)))
        monkeypatch.setattr(Session, "checkpoint", watched("checkpoint", Session.checkpoint))
        monkeypatch.setattr(Session, "resume", staticmethod(watched("resume", Session.resume)))
        return calls, on_collection

    def test_no_collection_starts_inside_a_spool_phase(self, tmp_path, monkeypatch):
        host = _host(tmp_path)
        host.handle("create", {"session": "a", "spec": _spec().to_dict()})
        host.handle("apply", {"session": "a", "steps": 4})
        calls, on_collection = self._watch_spool_calls(monkeypatch)
        enabled, thresholds = gc.isenabled(), gc.get_threshold()
        gc.enable()
        # A tiny young-generation threshold: any enabled stretch that
        # allocates containers would start collections.
        gc.set_threshold(10, 1000, 1000)
        gc.callbacks.append(on_collection)
        try:
            host.handle("evict", {"session": "a"})
            assert gc.isenabled()
            status = host.handle("query", {"session": "a"})
            assert gc.isenabled()
        finally:
            gc.callbacks.remove(on_collection)
            gc.set_threshold(*thresholds)
            (gc.enable if enabled else gc.disable)()
        assert status["live"] and status["position"] == 4
        assert [name for name, _, _ in calls] == list(self.PHASE_CALLS)
        assert all(not inside for _, inside, _ in calls), calls
        assert all(collections == 0 for _, _, collections in calls), calls

    def test_a_failed_rehydrate_re_enables_the_collector(self, tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "a", "spec": _spec().to_dict()})
        host.handle("apply", {"session": "a", "steps": 3})
        host.handle("evict", {"session": "a"})
        path = tmp_path / "spool" / "a.ckpt.json"
        path.write_bytes(path.read_bytes()[:-40])
        enabled = gc.isenabled()
        gc.enable()
        try:
            response = host.handle_safely("query", {"session": "a"})
            assert gc.isenabled()
        finally:
            (gc.enable if enabled else gc.disable)()
        assert not response["ok"] and response["kind"] == "spec-error"

    def test_a_caller_that_disabled_the_collector_keeps_it_disabled(self, tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "a", "spec": _spec().to_dict()})
        enabled = gc.isenabled()
        gc.disable()
        try:
            host.handle("apply", {"session": "a", "steps": 2})
            host.handle("evict", {"session": "a"})
            assert not gc.isenabled()
            assert host.handle("query", {"session": "a"})["position"] == 2
            assert not gc.isenabled()
        finally:
            (gc.enable if enabled else gc.disable)()


class TestEvictRehydrateDifferential:
    """Evicted-and-rehydrated == never-evicted, same and opposite backend."""

    @pytest.mark.parametrize("engine", [None, "fast"])
    def test_sequential_interleaved_evictions(self, tmp_path, engine):
        """Evict after every apply window; outputs stay lockstep-equal to an
        uninterrupted session (optionally rehydrating on the other engine)."""
        spec = _spec(changes=18, engine="template")
        host = _host(tmp_path, engine=engine)
        host.handle("create", {"session": "s", "spec": spec.to_dict()})
        reference = Session(spec)
        position = 0
        for window in (5, 4, 6, 3):
            host.handle("evict", {"session": "s"})
            status = host.handle("apply", {"session": "s", "steps": window})
            for _ in range(window):
                if reference.step() is None:
                    break
            position = reference.position
            assert status["position"] == position
            hosted = host.handle("query", {"session": "s", "what": "states"})["states"]
            expected = sorted(
                ([node, in_mis] for node, in_mis in reference.states().items()),
                key=repr,
            )
            assert hosted == expected

    @pytest.mark.parametrize("network", [None, "fast"])
    def test_protocol_interleaved_evictions(self, tmp_path, network):
        spec = _spec(changes=14, runner="protocol", network="dict")
        host = _host(tmp_path, network=network)
        host.handle("create", {"session": "p", "spec": spec.to_dict()})
        reference = Session(spec)
        for window in (4, 5, 5):
            host.handle("evict", {"session": "p"})
            host.handle("apply", {"session": "p", "steps": window})
            for _ in range(window):
                reference.step()
            hosted = host.handle("query", {"session": "p", "what": "mis"})["mis"]
            assert set(hosted) == set(reference.mis())

    @pytest.mark.parametrize("networks", [("fast", "fast"), ("dict", "fast")])
    def test_spool_path_via_resume_differential_harness(self, networks):
        """The spool's exact restore discipline, checked by the conformance
        harness itself: checkpoint mid-run through the JSON codec (the spool
        file format) and resume -- same backend and cross-backend -- asserting
        per-change metrics, round traces and outputs against an uninterrupted
        run.  The eviction positions stand in for idle-eviction points."""
        from repro.testing.protocol_differential import replay_resume_differential

        scenario = _spec(
            name="spool-differential", changes=16, runner="protocol",
            network=networks[0],
        )
        result = replay_resume_differential(scenario, positions=(3, 9), networks=networks)
        assert result.networks == networks
        assert result.num_changes == 16


class TestSaveCheckpointDurability:
    """The spool must never see a truncated-but-renamed checkpoint."""

    def test_fsync_happens_before_rename(self, tmp_path, monkeypatch):
        session = Session(_spec(changes=6))
        session.step()
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", fd))
            return real_fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", str(src), str(dst)))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        target = tmp_path / "spool.ckpt.json"
        save_checkpoint(target, session.checkpoint())
        kinds = [call[0] for call in calls]
        assert kinds.index("fsync") < kinds.index("replace")
        assert load_checkpoint(target).position == session.position

    @pytest.mark.skipif(os.name != "posix", reason="directory fsync is POSIX-only")
    def test_directory_fsync_follows_rename(self, tmp_path, monkeypatch):
        """Without it, a power loss can undo the rename of an acknowledged evict."""
        session = Session(_spec(changes=6))
        session.step()
        calls = []
        real_fsync, real_replace = os.fsync, os.replace

        def spy_fsync(fd):
            calls.append(("fsync", stat.S_ISDIR(os.fstat(fd).st_mode)))
            return real_fsync(fd)

        def spy_replace(src, dst):
            calls.append(("replace", None))
            return real_replace(src, dst)

        monkeypatch.setattr(os, "fsync", spy_fsync)
        monkeypatch.setattr(os, "replace", spy_replace)
        save_checkpoint(tmp_path / "spool.ckpt.json", session.checkpoint())
        after = calls[calls.index(("replace", None)) + 1 :]
        assert ("fsync", True) in after

    def test_checkpoint_file_is_one_line_of_compact_json(self, tmp_path):
        session = Session(_spec(changes=6))
        session.step()
        checkpoint = session.checkpoint()
        target = tmp_path / "spool.ckpt.json"
        save_checkpoint(target, checkpoint)
        text = target.read_text(encoding="utf-8")
        record = checkpoint_to_dict(checkpoint)
        assert text == json.dumps(record, separators=(",", ":"), sort_keys=True) + "\n"

    def test_failed_rename_leaves_no_temp_and_keeps_target(self, tmp_path, monkeypatch):
        session = Session(_spec(changes=6))
        target = tmp_path / "spool.ckpt.json"
        save_checkpoint(target, session.checkpoint())
        before = target.read_text(encoding="utf-8")
        session.step()

        def failing_replace(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(target, session.checkpoint())
        monkeypatch.undo()
        # The old checkpoint survives untouched; the temp file is cleaned up.
        assert target.read_text(encoding="utf-8") == before
        assert [path.name for path in tmp_path.iterdir()] == [target.name]


class TestCorruptSpoolFile:
    """A damaged spool file is a typed ``spec-error``, never ``internal``."""

    @staticmethod
    def _spooled(tmp_path):
        host = _host(tmp_path)
        host.handle("create", {"session": "a", "spec": _spec().to_dict()})
        host.handle("apply", {"session": "a", "steps": 3})
        host.handle("evict", {"session": "a"})
        return host, tmp_path / "spool" / "a.ckpt.json"

    def test_invalid_utf8_fails_to_load_as_a_format_error(self, tmp_path):
        _, path = self._spooled(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[:40] + b"\xff" + data[41:])
        with pytest.raises(CheckpointFormatError, match="UTF-8"):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage", ["bit-flip", "truncate"])
    def test_query_on_a_damaged_spool_file_is_a_spec_error(self, tmp_path, damage):
        host, path = self._spooled(tmp_path)
        data = path.read_bytes()
        if damage == "bit-flip":
            path.write_bytes(data[:40] + b"\xff" + data[41:])
        else:
            path.write_bytes(data[: len(data) // 2])
        response = host.handle_safely("query", {"session": "a"})
        assert not response["ok"]
        assert response["kind"] == "spec-error"

    def test_a_torn_protocol_spool_file_is_a_spec_error(self, tmp_path):
        # It decodes, but a node has no state: restore refuses to derive
        # that node's neighbors' knowledge from it.
        host = _host(tmp_path)
        host.handle("create", {"session": "p", "spec": _spec(runner="protocol").to_dict()})
        host.handle("apply", {"session": "p", "steps": 3})
        host.handle("evict", {"session": "p"})
        path = tmp_path / "spool" / "p.ckpt.json"
        record = json.loads(path.read_text(encoding="utf-8"))
        del record["snapshot"]["states"][0]
        path.write_text(json.dumps(record), encoding="utf-8")
        response = host.handle_safely("query", {"session": "p"})
        assert not response["ok"]
        assert response["kind"] == "spec-error"
        assert "torn snapshot" in response["error"]
