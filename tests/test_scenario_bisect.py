"""Time travel and bisect by re-execution (``Session.replay_to``, ``repro.scenario.bisect``).

A session's state is a pure function of ``(spec, position)``, so both
rebuild any past state by re-executing the spec.  Covered here:
``replay_to`` on plain, batched, adaptive and resumed sessions; sink files
that re-execution must leave alone; and ``repro-mis bisect`` (no
divergence, planted divergences -- one a cost moved to the next change, so
only the per-change records an observer collects can find it, one totals
lost by the checkpoint decoder -- the ``resume_at`` leg, the CLI entry, a
``--from-dump`` on a dump written while bisect still folded a delta
journal, and exit status 2 on input errors).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
import re

import pytest

from repro.cli import main
from repro.distributed.fast_network import FastBufferedMISNetwork, FastDirectMISNetwork
from repro.distributed.metrics import MetricsAggregator
from repro.scenario import (
    BackendSpec,
    BisectResult,
    GraphSpec,
    ScenarioSpec,
    Session,
    WorkloadSpec,
    bisect_first_divergence,
    checkpoint_from_dict,
    checkpoint_io,
    checkpoint_to_dict,
)

DATA_DIR = pathlib.Path(__file__).parent / "data"


def _network_spec(
    network: str = "fast",
    protocol: str = "buffered",
    scheduler=None,
    workload: str = "mixed_churn",
    num_changes: int = 40,
    seed: int = 11,
) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bisect-{protocol}-{network}",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=seed + 1),
        workload=WorkloadSpec(kind=workload, num_changes=num_changes, seed=seed + 2),
        backend=BackendSpec(
            runner="protocol", network=network, protocol=protocol, scheduler=scheduler
        ),
    )


def _engine_spec(engine: str = "fast", num_changes: int = 40, seed: int = 11) -> ScenarioSpec:
    return ScenarioSpec(
        name=f"bisect-{engine}",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=seed + 1),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=num_changes, seed=seed + 2),
        backend=BackendSpec(runner="sequential", engine=engine),
    )


def _run_to_end(session: Session) -> Session:
    while not session.done:
        session.step()
    return session


def _rows(session: Session) -> list:
    """Step ``session`` to its end; the per-change records it returned."""
    return [dict(r.as_dict(), adjusted=sorted(r.adjusted_nodes, key=repr)) for r in session]


# ----------------------------------------------------------------------
# Time travel: replay_to
# ----------------------------------------------------------------------
class TestReplayTo:
    def test_replayed_session_continues_identically(self):
        spec = _network_spec(
            "fast", "async-direct", {"kind": "random", "seed": 7}, num_changes=30
        )
        recorded = Session(spec)
        reference_rows = _rows(recorded)
        for position in (0, 11, 23):
            replayed = recorded.replay_to(position)
            assert replayed.position == position
            assert _rows(replayed) == reference_rows[position:]
            assert replayed.states() == recorded.states()
            assert replayed.network.metrics == recorded.network.metrics

    def test_batched_session_replays_at_unit_boundaries(self):
        spec = dataclasses.replace(_engine_spec(num_changes=30), batch_size=4)
        session = _run_to_end(Session(spec))
        # 30 changes in units of 4: the last unit (28..30) is partial.
        for position in (0, 8, 28, 30):
            replayed = session.replay_to(position)
            assert replayed.position == position
            _run_to_end(replayed)
            assert replayed.states() == session.states()
            assert replayed.maintainer.statistics == session.maintainer.statistics
        for position in (1, 6, 29):
            with pytest.raises(ValueError, match="batch boundaries"):
                session.replay_to(position)

    def test_adaptive_adversary_session(self):
        spec = _network_spec(workload="adaptive_adversary", num_changes=16)
        session = Session(spec)
        reference_rows = _rows(session)
        replayed = session.replay_to(9)
        assert replayed.checkpoint().workload_state is not None
        assert _rows(replayed) == reference_rows[9:]
        # A resumed adaptive session holds only the changes generated since.
        assert replayed.changes == session.changes[9:]
        assert replayed.states() == session.states()
        assert replayed.network.metrics == session.network.metrics

    def test_resumed_session_replays_before_its_resume_point(self):
        spec = _engine_spec(num_changes=30)
        original = Session(spec)
        for _ in range(12):
            original.step()
        resumed = Session.resume(checkpoint_from_dict(checkpoint_to_dict(original.checkpoint())))
        _run_to_end(resumed)
        replayed = resumed.replay_to(5)
        reference = Session(spec)
        for _ in range(5):
            reference.step()
        assert replayed.position == 5
        assert replayed.states() == reference.states()
        assert replayed.maintainer.statistics == reference.maintainer.statistics
        _run_to_end(replayed)
        assert replayed.states() == resumed.states()
        assert replayed.maintainer.statistics == resumed.maintainer.statistics

    def test_out_of_range_positions_are_rejected(self):
        session = Session(_engine_spec(num_changes=10))
        for _ in range(3):
            session.step()
        for position in (-1, 4, 10):
            with pytest.raises(ValueError, match="outside"):
                session.replay_to(position)


# ----------------------------------------------------------------------
# Re-execution never writes the spec's sink files
# ----------------------------------------------------------------------
class TestSinkFiles:
    def test_replayed_session_sink_appends_only_later_records(self, tmp_path):
        path = tmp_path / "changes.jsonl"
        spec = dataclasses.replace(_engine_spec(num_changes=12), sinks=(f"jsonl:{path}",))
        session = Session(spec)
        session.run()
        lines = path.read_text().splitlines()
        assert len(lines) == 12
        replayed = session.replay_to(5)
        assert path.read_text().splitlines() == lines  # re-execution wrote nothing
        replayed.run()
        assert path.read_text().splitlines() == lines + lines[5:]

    @pytest.mark.parametrize(
        "comparison",
        [{"networks": ("dict", "fast")}, {"resume_at": 8}],
        ids=["networks", "resume_at"],
    )
    def test_bisect_leaves_sink_files_byte_identical(self, tmp_path, comparison):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"USER DATA\n")
        spec = dataclasses.replace(_network_spec("dict", num_changes=25), sinks=(f"jsonl:{path}",))
        result = bisect_first_divergence(spec, **comparison)
        assert not result.diverged
        assert path.read_bytes() == b"USER DATA\n"


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


def _shift_one_broadcast(monkeypatch: pytest.MonkeyPatch, change: int) -> None:
    """Make the fast direct core report one broadcast of change ``change``
    (1-based) at change ``change + 1`` instead, records and totals alike."""
    honest = FastDirectMISNetwork.apply

    def shifted_apply(self, topology_change):
        aggregator, self._aggregator = self._aggregator, MetricsAggregator()
        try:
            metrics = honest(self, topology_change)
        finally:
            self._aggregator = aggregator
        self.applied = getattr(self, "applied", 0) + 1
        if self.applied == change:
            metrics.broadcasts -= 1
        elif self.applied == change + 1:
            metrics.broadcasts += 1
        aggregator.add(metrics)
        return metrics

    monkeypatch.setattr(FastDirectMISNetwork, "apply", shifted_apply)


def _shiftable_change(records) -> int:
    """A change whose broadcast can move to the next one with equal totals:
    same kind, at least one broadcast, and neither count past the kind's
    earlier maximum."""
    for index in range(1, len(records) - 1):
        record, following = records[index], records[index + 1]
        earlier = [r.broadcasts for r in records[:index] if r.change_kind == record.change_kind]
        if (
            following.change_kind == record.change_kind
            and record.broadcasts >= 1
            and earlier
            and max(record.broadcasts, following.broadcasts + 1) <= max(earlier)
        ):
            return index + 1
    raise AssertionError("no shiftable change in the workload")


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

    def test_a_cost_moved_to_the_next_change_is_pinned_to_its_change(self, monkeypatch):
        """Totals agree from the change after on, so only the per-change
        records the bisect collects can pin the divergence."""
        spec = _network_spec("dict", protocol="direct", num_changes=40)
        change = _shiftable_change(list(Session(spec)))
        _shift_one_broadcast(monkeypatch, change)
        reference = _run_to_end(Session(spec))
        candidate = _run_to_end(Session(spec.with_backend(network="fast")))
        assert candidate.states() == reference.states()
        assert candidate.network.metrics == reference.network.metrics
        result = bisect_first_divergence(spec, networks=("dict", "fast"))
        assert result.diverged
        assert result.position == change
        assert result.detail.startswith(f"per-change record {change} differs")

    def test_totals_lost_by_the_codec_are_pinned_after_the_resume_point(self, monkeypatch):
        """Outputs and per-change records agree when a checkpoint decoder
        drops the totals; only the totals comparison sees it."""
        spec = _engine_spec(num_changes=20)

        def forgetful(cls, counters, record):
            return cls(counters)

        monkeypatch.setattr(checkpoint_io.Totals, "from_record", classmethod(forgetful))
        result = bisect_first_divergence(spec, resume_at=8)
        assert result.diverged
        assert result.position == 9
        assert result.detail == "accumulated totals differ at position 9"

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


def _table_rows(out: str) -> dict:
    """The ``quantity -> value`` rows of a printed ``repro-mis bisect`` table."""
    rows = {}
    for line in out.splitlines():
        parts = re.split(r"\s{2,}", line.strip(), maxsplit=1)
        if len(parts) == 2:
            rows[parts[0]] = parts[1]
    return rows


class TestBisectCli:
    def test_from_dump_matches_what_the_journal_bisect_printed(self, monkeypatch, capsys):
        """The committed dump was written by the resume differential with the
        lying fast core, while bisect still folded a recorded delta journal;
        the rows below are what that bisect printed for it."""
        _lying_fast_step(monkeypatch)
        dump = DATA_DIR / "resume_divergence_pos7_buffered_seed31_step27.json"
        assert main(["bisect", "--from-dump", str(dump)]) == 1
        rows = _table_rows(capsys.readouterr().out)
        assert rows["comparison"] == "networks dict vs fast"
        assert rows["changes in run"] == "30"
        assert rows["probes"] == "30, 0, 15, 7, 3, 1, 2"
        assert rows["first divergent change"] == "2"
        assert rows["change applied there"] == "EdgeInsertion(u=7, v=10)"
        assert rows["detail"] == (
            "per-change record 2 differs (reference vs candidate): "
            "{'change_kind': 'edge_insertion', 'rounds': 8, 'broadcasts': 8, "
            "'bits': 32, 'adjustments': 2, 'state_changes': 6} vs "
            "{'change_kind': 'edge_insertion', 'rounds': 8, 'broadcasts': 8, "
            "'bits': 32, 'adjustments': 2, 'state_changes': 0}"
        )

    @pytest.mark.parametrize(
        "case, message",
        [
            ("missing-scenario", "cannot read scenario file"),
            ("undecodable-dump", "unknown graph family"),
            ("batched", "bisect needs an unbatched workload"),
        ],
    )
    def test_input_errors_exit_two_with_one_line(self, tmp_path, capsys, case, message):
        if case == "missing-scenario":
            missing = tmp_path / "missing.json"
            argv = ["bisect", "--scenario", str(missing), "--networks", "dict,fast"]
        elif case == "undecodable-dump":
            dump = tmp_path / "dump.json"
            document = {"networks": ["dict", "fast"], "scenario": {"graph": {"family": "nope"}}}
            dump.write_text(json.dumps(document))
            argv = ["bisect", "--from-dump", str(dump)]
        else:
            spec_path = tmp_path / "spec.json"
            dataclasses.replace(_engine_spec(num_changes=8), batch_size=4).save(spec_path)
            argv = ["bisect", "--scenario", str(spec_path), "--engines", "template,fast"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("repro-mis bisect: ")
        assert message in lines[0]
