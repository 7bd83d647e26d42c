"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_a_command(self):
        # A bare invocation (no command, no --list-* flag) still exits.
        with pytest.raises(SystemExit):
            main([])

    def test_defaults(self):
        arguments = build_parser().parse_args(["churn"])
        assert arguments.family == "erdos_renyi"
        assert arguments.nodes == 40
        assert arguments.structure == "mis"

    def test_unknown_family_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["churn", "--family", "hypercube"])

    def test_network_choices_come_from_the_registry(self):
        arguments = build_parser().parse_args(["protocol", "--network", "fast"])
        assert arguments.network == "fast"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["protocol", "--network", "no-such-core"])


class TestCommands:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        output = capsys.readouterr().out
        assert "erdos_renyi" in output
        assert "star" in output

    def test_churn_mis(self, capsys):
        exit_code = main(["churn", "--nodes", "20", "--changes", "30", "--seed", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Theorem 1" in output
        assert "final MIS size" in output

    def test_churn_matching(self, capsys):
        exit_code = main(
            ["churn", "--structure", "matching", "--nodes", "14", "--changes", "20", "--seed", "2"]
        )
        assert exit_code == 0
        assert "matching" in capsys.readouterr().out

    def test_churn_clustering(self, capsys):
        exit_code = main(
            [
                "churn",
                "--structure",
                "clustering",
                "--nodes",
                "15",
                "--changes",
                "20",
                "--seed",
                "4",
            ]
        )
        assert exit_code == 0
        assert "clusters" in capsys.readouterr().out

    @pytest.mark.parametrize("protocol", ["buffered", "direct", "async"])
    @pytest.mark.parametrize("network", ["dict", "fast"])
    def test_protocol_commands(self, protocol, network, capsys):
        exit_code = main(
            [
                "protocol",
                "--protocol",
                protocol,
                "--network",
                network,
                "--nodes",
                "18",
                "--changes",
                "25",
                "--seed",
                "5",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "mean broadcasts" in output
        assert "ALL" in output

    @pytest.mark.parametrize("protocol", ["buffered", "direct"])
    def test_protocol_tables_are_identical_on_both_network_cores(self, protocol, capsys):
        # Not for --protocol async: its default random-delay scheduler draws
        # in neighbor iteration order, which the two cores do not share.
        tables = []
        for network in ("dict", "fast"):
            argv = ["protocol", "--protocol", protocol, "--network", network]
            assert main(argv + ["--nodes", "40", "--changes", "60", "--seed", "5"]) == 0
            tables.append(capsys.readouterr().out)
        assert "mean broadcasts" in tables[0]
        assert tables[0] == tables[1]

    def test_protocol_with_recompute_comparison(self, capsys):
        exit_code = main(
            [
                "protocol",
                "--protocol",
                "buffered",
                "--nodes",
                "18",
                "--changes",
                "20",
                "--seed",
                "6",
                "--compare-recompute",
            ]
        )
        assert exit_code == 0
        assert "Luby recompute" in capsys.readouterr().out

    def test_save_and_replay_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "workload.json"
        assert (
            main(
                [
                    "churn",
                    "--nodes",
                    "15",
                    "--changes",
                    "20",
                    "--seed",
                    "8",
                    "--save-trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert trace_path.exists()
        first_output = capsys.readouterr().out
        assert main(["churn", "--load-trace", str(trace_path), "--seed", "8"]) == 0
        second_output = capsys.readouterr().out
        # Same workload, same seed: the summary numbers coincide.
        assert first_output.splitlines()[-3:] == second_output.splitlines()[-3:]

    def test_load_trace_without_graph_fails(self, tmp_path):
        import json

        path = tmp_path / "broken.json"
        path.write_text(json.dumps({"format": "repro-trace-v1", "changes": []}))
        with pytest.raises(SystemExit):
            main(["churn", "--load-trace", str(path)])

    def test_list_engines_and_networks(self, capsys):
        assert main(["--list-engines", "--list-networks"]) == 0
        output = capsys.readouterr().out
        assert "template" in output and "fast" in output
        assert "TemplateEngine" in output and "FastEngine" in output
        assert "native" in output  # batch capability flag
        assert "buffered" in output and "async-direct" in output

    def test_run_scenario_file(self, tmp_path, capsys):
        from repro.scenario import ScenarioSpec, WorkloadSpec

        path = tmp_path / "spec.json"
        ScenarioSpec(
            name="cli-run", workload=WorkloadSpec(kind="mixed_churn", num_changes=15)
        ).save(path)
        assert main(["run", "--scenario", str(path), "--engine", "fast"]) == 0
        output = capsys.readouterr().out
        assert "cli-run" in output
        assert "engine=fast" in output
        assert "final MIS size" in output

    def test_run_scenario_protocol_override(self, tmp_path, capsys):
        from repro.scenario import BackendSpec, ScenarioSpec, WorkloadSpec

        path = tmp_path / "spec.json"
        ScenarioSpec(
            workload=WorkloadSpec(kind="mixed_churn", num_changes=12),
            backend=BackendSpec(runner="protocol"),
        ).save(path)
        assert main(["run", "--scenario", str(path), "--network", "fast"]) == 0
        assert "network=fast" in capsys.readouterr().out

    def test_list_sinks(self, capsys):
        assert main(["--list-sinks"]) == 0
        output = capsys.readouterr().out
        assert "summary" in output
        assert "jsonl" in output
        assert "repro.scenario.sinks" in output

    def test_list_schedulers(self, capsys):
        assert main(["--list-schedulers"]) == 0
        output = capsys.readouterr().out
        assert "fixed" in output and "random" in output and "adversarial" in output
        assert "AdversarialDelayScheduler" in output
        assert "channel-deterministic" in output
        # fixed/adversarial support exact cross-backend async resume; random not.
        assert "slow_fraction" in output

    def test_list_flags_reject_commands(self):
        with pytest.raises(SystemExit):
            main(["--list-schedulers", "churn"])

    def test_serve_parser_defaults(self):
        arguments = build_parser().parse_args(["serve", "--spool", "/tmp/spool"])
        assert arguments.bind == "tcp:127.0.0.1:0"
        assert arguments.shards == 2
        assert arguments.max_live == 64
        with pytest.raises(SystemExit):  # --spool is required
            build_parser().parse_args(["serve"])

    def test_client_parser_requires_connect(self):
        arguments = build_parser().parse_args(
            ["client", "ping", "--connect", "tcp:127.0.0.1:1"]
        )
        assert arguments.op == "ping"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "ping"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client", "warp", "--connect", "tcp:h:1"])

    def test_client_session_ops_need_session_flag(self):
        with pytest.raises(SystemExit, match="--session"):
            main(["client", "apply", "--connect", "tcp:127.0.0.1:1"])

    def test_client_unreachable_daemon_exits_cleanly(self):
        with pytest.raises(SystemExit, match="cannot reach daemon"):
            main(["client", "ping", "--connect", "tcp:127.0.0.1:1"])

    def test_run_writes_checkpoints_and_resumes(self, tmp_path, capsys):
        from repro.scenario import BackendSpec, ScenarioSpec, WorkloadSpec

        spec_path = tmp_path / "spec.json"
        checkpoint_path = tmp_path / "checkpoint.json"
        ScenarioSpec(
            name="cli-checkpoint",
            workload=WorkloadSpec(kind="mixed_churn", num_changes=24),
            backend=BackendSpec(runner="protocol", protocol="buffered", engine="fast"),
        ).save(spec_path)
        assert (
            main(
                [
                    "run",
                    "--scenario",
                    str(spec_path),
                    "--checkpoint-every",
                    "10",
                    "--checkpoint-path",
                    str(checkpoint_path),
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "checkpoint written" in output
        assert checkpoint_path.exists()
        # The file holds the last written checkpoint (position 20 of 24):
        # resuming it finishes the workload, optionally on another backend.
        assert main(["run", "--resume-from", str(checkpoint_path), "--network", "fast"]) == 0
        output = capsys.readouterr().out
        assert "resuming from" in output
        assert "network=fast" in output

    def test_run_legacy_scenario_file(self, tmp_path, capsys):
        """Spec files may still carry the retired backend fields."""
        import json

        from repro.scenario import BackendSpec, ScenarioSpec, WorkloadSpec

        record = ScenarioSpec(
            name="cli-legacy",
            workload=WorkloadSpec(kind="mixed_churn", num_changes=15),
            backend=BackendSpec(engine="fast"),
        ).to_dict()
        record["backend"].update(engine="fast-csr", parallel={"workers": 2})
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(record))
        with pytest.warns(UserWarning, match="legacy") as caught:
            assert main(["run", "--scenario", str(path)]) == 0
        assert len(caught) == 2
        output = capsys.readouterr().out
        assert "cli-legacy" in output
        assert "engine=fast" in output and "engine=fast-csr" not in output

    def test_resume_from_a_legacy_checkpoint_file(self, tmp_path, capsys):
        import json

        from repro.scenario import BackendSpec, ScenarioSpec, WorkloadSpec

        spec_path = tmp_path / "spec.json"
        checkpoint_path = tmp_path / "checkpoint.json"
        ScenarioSpec(
            name="cli-legacy-resume",
            workload=WorkloadSpec(kind="mixed_churn", num_changes=24),
            backend=BackendSpec(engine="fast"),
        ).save(spec_path)
        arguments = ["--checkpoint-every", "10", "--checkpoint-path", str(checkpoint_path)]
        assert main(["run", "--scenario", str(spec_path), *arguments]) == 0
        capsys.readouterr()
        record = json.loads(checkpoint_path.read_text())
        record["spec"]["backend"]["parallel"] = {"workers": 4, "backend": "spawn"}
        checkpoint_path.write_text(json.dumps(record))
        with pytest.warns(UserWarning, match="legacy backend.parallel") as caught:
            assert main(["run", "--resume-from", str(checkpoint_path)]) == 0
        assert len(caught) == 1
        output = capsys.readouterr().out
        assert "resuming from" in output
        assert "cli-legacy-resume" in output and "engine=fast" in output

    def test_resume_builds_the_workload_once(self, tmp_path, capsys, monkeypatch):
        from repro.scenario import ScenarioSpec, Session, WorkloadSpec, save_checkpoint

        session = Session(ScenarioSpec(workload=WorkloadSpec(kind="mixed_churn", num_changes=20)))
        for _ in range(8):
            session.step()
        path = tmp_path / "cp.json"
        save_checkpoint(path, session.checkpoint())
        calls = []
        materialize = ScenarioSpec.materialize

        def counting_materialize(spec):
            calls.append(spec)
            return materialize(spec)

        monkeypatch.setattr(ScenarioSpec, "materialize", counting_materialize)
        assert main(["run", "--resume-from", str(path)]) == 0
        assert len(calls) == 1
        assert "at change 8 (12 remaining)" in capsys.readouterr().out

    def test_run_checkpoint_flags_must_pair(self, tmp_path):
        with pytest.raises(SystemExit, match="go together"):
            main(["run", "--scenario", "x.json", "--checkpoint-every", "5"])

    def test_run_needs_scenario_xor_resume(self, tmp_path):
        with pytest.raises(SystemExit, match="exactly one"):
            main(["run"])

    def test_resume_rejects_protocol_switch(self, tmp_path):
        from repro.scenario import (
            BackendSpec,
            ScenarioSpec,
            Session,
            WorkloadSpec,
            save_checkpoint,
        )

        spec = ScenarioSpec(
            workload=WorkloadSpec(kind="mixed_churn", num_changes=10),
            backend=BackendSpec(runner="protocol", protocol="buffered"),
        )
        session = Session(spec)
        session.step()
        path = tmp_path / "cp.json"
        save_checkpoint(path, session.checkpoint())
        with pytest.raises(SystemExit, match="per-protocol"):
            main(["run", "--resume-from", str(path), "--protocol", "direct"])

    def test_list_flags_reject_a_command(self):
        with pytest.raises(SystemExit):
            main(["--list-engines", "churn"])

    def test_run_rejects_network_override_on_sequential_spec(self, tmp_path):
        from repro.scenario import ScenarioSpec, WorkloadSpec

        path = tmp_path / "seq.json"
        ScenarioSpec(workload=WorkloadSpec(kind="mixed_churn", num_changes=5)).save(path)
        with pytest.raises(SystemExit, match="protocol-runner"):
            main(["run", "--scenario", str(path), "--network", "fast"])

    def test_run_scenario_rejects_bad_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"format": "repro-scenario-v1", "wrkload": {}}')
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--scenario", str(path)])
        assert "workload" in str(excinfo.value)  # did-you-mean hint

    def test_churn_save_scenario_roundtrips_through_run(self, tmp_path, capsys):
        spec_path = tmp_path / "churn.json"
        assert (
            main(
                [
                    "churn",
                    "--nodes",
                    "15",
                    "--changes",
                    "20",
                    "--seed",
                    "8",
                    "--save-scenario",
                    str(spec_path),
                ]
            )
            == 0
        )
        churn_output = capsys.readouterr().out
        assert spec_path.exists()
        assert main(["run", "--scenario", str(spec_path)]) == 0
        run_output = capsys.readouterr().out
        # The replayed scenario lands on the identical final MIS.
        (churn_mis_line,) = [li for li in churn_output.splitlines() if "final MIS size" in li]
        (run_mis_line,) = [li for li in run_output.splitlines() if "final MIS size" in li]
        assert churn_mis_line.split()[-1] == run_mis_line.split()[-1]

    def test_lowerbound(self, capsys):
        exit_code = main(["lowerbound", "--side-size", "6", "--seeds", "3"])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "deterministic greedy" in output
        assert "randomized" in output

    def test_history(self, capsys):
        exit_code = main(
            ["history", "--nodes", "10", "--changes", "10", "--samples", "10", "--seed", "7"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "identical output per seed" in output
        assert "yes" in output
