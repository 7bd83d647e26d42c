"""Unit tests for the benchmark trajectory report (``benchmarks/report.py``).

The report script lives outside the package (benchmarks are not shipped), so
it is loaded by path here.  The tests pin down the metric classification
(timings lower-is-better, speedups higher-is-better), the positional pairing
of series entries, and the pass/fail decision around the threshold.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

REPORT_PATH = Path(__file__).resolve().parent.parent / "benchmarks" / "report.py"

spec = importlib.util.spec_from_file_location("benchmark_report", REPORT_PATH)
report = importlib.util.module_from_spec(spec)
sys.modules["benchmark_report"] = report  # dataclasses resolve annotations here
spec.loader.exec_module(report)


def document(series):
    return {"benchmark": "demo", "created_unix": 1, "results": {"series": series}}


def test_iter_metrics_tracks_timings_and_speedups_only():
    doc = {
        "per_change_us": 5.0,
        "total_s": 1.25,
        "speedup": 10.0,
        "final_mis_size": 137,  # informational -> ignored
        "master_seed": 42,  # informational -> ignored
        "created_unix": 1785298585,  # not a timing despite being a number
    }
    metrics = {path: (key, value) for path, key, value in report.iter_metrics(doc)}
    assert set(metrics) == {"per_change_us", "total_s", "speedup"}


def test_timing_regression_is_positive_and_speedup_gain_is_negative():
    baseline = document([{"n": 500, "fast_per_batch_us": 100.0, "speedup": 10.0}])
    current = document([{"n": 500, "fast_per_batch_us": 150.0, "speedup": 20.0}])
    deltas = {d.path: d for d in report.compare_documents("demo", current, baseline)}
    assert deltas["series[0].fast_per_batch_us"].relative_regression == pytest.approx(0.5)
    assert deltas["series[0].speedup"].relative_regression == pytest.approx(-1.0)


def test_speedup_drop_counts_as_regression():
    baseline = document([{"speedup": 10.0}])
    current = document([{"speedup": 6.0}])
    (delta,) = report.compare_documents("demo", current, baseline)
    assert delta.higher_is_better
    assert delta.relative_regression == pytest.approx(0.4)


def test_run_report_fails_on_large_regression(tmp_path, monkeypatch):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "demo.json").write_text(
        json.dumps(document([{"per_batch_us": 200.0}]))
    )
    monkeypatch.setattr(
        report, "load_baseline", lambda path, ref: document([{"per_batch_us": 100.0}])
    )
    monkeypatch.setattr(report, "baseline_ref_exists", lambda ref: True)
    monkeypatch.setattr(report, "REPO_ROOT", tmp_path)
    assert report.run_report(results_dir=results_dir, threshold=0.30) == 1
    # A generous threshold tolerates the same delta.
    assert report.run_report(results_dir=results_dir, threshold=2.0) == 0


def test_run_report_tolerates_missing_baseline(tmp_path, monkeypatch):
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "fresh.json").write_text(json.dumps(document([{"per_batch_us": 1.0}])))
    monkeypatch.setattr(report, "load_baseline", lambda path, ref: None)
    monkeypatch.setattr(report, "baseline_ref_exists", lambda ref: True)
    monkeypatch.setattr(report, "REPO_ROOT", tmp_path)
    assert report.run_report(results_dir=results_dir) == 0


def test_run_report_skips_cleanly_without_the_baseline_ref(tmp_path, monkeypatch, capsys):
    """First-commit / shallow checkouts must degrade to a skip, not a failure.

    An empty ``git init`` repository has no ``HEAD`` commit, which is exactly
    the state of a brand-new project (or a shallow CI checkout that did not
    fetch the baseline ref): the report must explain and exit 0.
    """
    import subprocess

    subprocess.run(["git", "init", "--quiet", str(tmp_path)], check=True)
    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "demo.json").write_text(json.dumps(document([{"per_batch_us": 1.0}])))
    monkeypatch.setattr(report, "REPO_ROOT", tmp_path)
    assert report.run_report(against="HEAD", results_dir=results_dir) == 0
    assert "skipping the trajectory comparison" in capsys.readouterr().out


def test_run_report_skips_cleanly_when_git_is_unavailable(tmp_path, monkeypatch, capsys):
    def no_git(*args, **kwargs):
        raise FileNotFoundError("git not installed")

    results_dir = tmp_path / "results"
    results_dir.mkdir()
    (results_dir / "demo.json").write_text(json.dumps(document([{"per_batch_us": 1.0}])))
    monkeypatch.setattr(report.subprocess, "run", no_git)
    assert report.run_report(against="HEAD", results_dir=results_dir) == 0
    assert "skipping the trajectory comparison" in capsys.readouterr().out


def test_baseline_ref_exists_distinguishes_real_and_missing_refs(tmp_path, monkeypatch):
    """Checked in a throwaway repository, so it holds in a copy without ``.git``."""
    import subprocess

    git = ["git", "-C", str(tmp_path), "-c", "user.name=t", "-c", "user.email=t@example.invalid"]
    subprocess.run([*git, "init", "--quiet"], check=True)
    subprocess.run(
        [*git, "commit", "--quiet", "--allow-empty", "--no-gpg-sign", "-m", "base"], check=True
    )
    monkeypatch.setattr(report, "REPO_ROOT", tmp_path)
    assert report.baseline_ref_exists("HEAD")
    assert not report.baseline_ref_exists("no-such-ref-anywhere")


def test_report_runs_against_the_real_repository():
    """End-to-end: the script exits 0 or 1 against the actual git history."""
    assert report.run_report(against="HEAD") in (0, 1)
