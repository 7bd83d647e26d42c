"""Unit tests for the shared benchmark harness (``benchmarks/harness.py``).

Covers the two scenario-era additions: ``run_scenario_session`` (the
benchmarks' entry into the declarative scenario API) and the ``emit_json`` overwrite
logging -- result files record the performance trajectory in git, so
overwriting one must report the previous values (on stderr -- stdout is for
machine output) instead of silently dropping them (the exact values
``report.py`` would have diffed against).  It also checks that an
experiment's measured quantities do not depend on the interpreter's string
hash seed.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
HARNESS_PATH = REPO_ROOT / "benchmarks" / "harness.py"

spec = importlib.util.spec_from_file_location("benchmark_harness", HARNESS_PATH)
harness = importlib.util.module_from_spec(spec)
sys.modules["benchmark_harness"] = harness
spec.loader.exec_module(harness)


class TestEmitJson:
    def test_first_write_is_silent(self, tmp_path, capsys):
        path = harness.emit_json("demo", {"per_change_us": 10.0}, results_dir=tmp_path)
        assert path.exists()
        assert "overwriting" not in capsys.readouterr().err
        document = json.loads(path.read_text())
        assert document["benchmark"] == "demo"
        assert document["results"] == {"per_change_us": 10.0}

    def test_overwrite_logs_the_previous_values(self, tmp_path, capsys):
        harness.emit_json(
            "demo",
            {"series": [{"n": 500, "per_change_us": 10.0, "speedup": 4.0}]},
            results_dir=tmp_path,
        )
        capsys.readouterr()
        harness.emit_json(
            "demo",
            {"series": [{"n": 500, "per_change_us": 15.0, "speedup": 6.0}]},
            results_dir=tmp_path,
        )
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays machine-pure
        output = captured.err
        assert "overwriting" in output
        assert "series[0].per_change_us: 10 -> 15" in output
        assert "series[0].speedup: 4 -> 6" in output
        assert "series[0].n" not in output  # unchanged values are not logged

    def test_overwrite_logs_dropped_values(self, tmp_path, capsys):
        harness.emit_json("demo", {"old_metric_us": 3.0}, results_dir=tmp_path)
        capsys.readouterr()
        harness.emit_json("demo", {"new_metric_us": 5.0}, results_dir=tmp_path)
        output = capsys.readouterr().err
        assert "dropped values" in output
        assert "old_metric_us" in output

    def test_corrupt_previous_file_does_not_block_the_write(self, tmp_path, capsys):
        target = tmp_path / "demo.json"
        target.write_text("{not json")
        path = harness.emit_json("demo", {"per_change_us": 1.0}, results_dir=tmp_path)
        assert json.loads(path.read_text())["results"] == {"per_change_us": 1.0}
        assert "overwriting" not in capsys.readouterr().err

    def test_long_change_lists_are_truncated(self, tmp_path, capsys):
        harness.emit_json(
            "demo", {f"metric_{i:02}_us": float(i) for i in range(40)}, results_dir=tmp_path
        )
        capsys.readouterr()
        harness.emit_json(
            "demo", {f"metric_{i:02}_us": float(i + 1) for i in range(40)}, results_dir=tmp_path
        )
        output = capsys.readouterr().err
        assert "more changed values" in output


class TestRunScenario:
    def test_runs_a_spec_and_returns_result_and_session(self):
        from repro.scenario import GraphSpec, ScenarioSpec, WorkloadSpec

        scenario = ScenarioSpec(
            name="harness-smoke",
            seed=4,
            graph=GraphSpec(family="erdos_renyi", nodes=12, seed=1),
            workload=WorkloadSpec(kind="edge_churn", num_changes=10, seed=2),
        )
        result, session = harness.run_scenario_session(scenario)
        assert result.num_changes == 10
        assert result.verified
        assert session.done
        assert session.mis() == session.maintainer.mis()

    def test_backend_grid_shares_the_workload(self):
        from repro.scenario import GraphSpec, ScenarioSpec, WorkloadSpec

        scenario = ScenarioSpec(
            seed=4,
            graph=GraphSpec(family="erdos_renyi", nodes=12, seed=1),
            workload=WorkloadSpec(kind="edge_churn", num_changes=10, seed=2),
        )
        _, template_session = harness.run_scenario_session(
            scenario.with_backend(engine="template")
        )
        _, fast_session = harness.run_scenario_session(scenario.with_backend(engine="fast"))
        assert template_session.changes == fast_session.changes
        assert template_session.states() == fast_session.states()


class TestReproducibleExperiments:
    @pytest.mark.parametrize(
        "module", ["bench_e2_direct_single_round", "bench_e3_constant_broadcasts"]
    )
    def test_results_do_not_depend_on_the_string_hash_seed(self, module):
        """str hashes are salted per interpreter; an experiment must not follow them."""
        entries = [REPO_ROOT / "src", REPO_ROOT / "benchmarks", os.environ.get("PYTHONPATH")]
        path = os.pathsep.join(str(entry) for entry in entries if entry)
        script = f"import {module} as bench; print(repr(bench.run_experiment()))"
        outputs = []
        for hash_seed in ("0", "1"):
            result = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
