"""Seed plumbing and determinism regression tests.

The reproduction's claims are all *per seed*: replaying the same seed must be
bit-identical -- same priorities, same MIS trajectory, same
``MaintainerStatistics``.  These tests pin that down end-to-end for both
engine backends and for numpy ``Generator`` seeds, so a refactor that
accidentally introduces module-level randomness or order-dependent state on
the hot path fails loudly.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.dynamic_mis import DynamicMIS, MaintainerStatistics
from repro.core.priorities import RandomPriorityAssigner
from repro.core.rng import normalize_seed, spawn_seeds
from repro.graph.generators import erdos_renyi_graph
from repro.testing.differential import REPORT_FIELDS
from repro.workloads.sequences import mixed_churn_sequence


def _run(seed, engine: str) -> tuple:
    graph = erdos_renyi_graph(25, 0.15, seed=3)
    changes = mixed_churn_sequence(graph, 120, seed=4)
    maintainer = DynamicMIS(seed=seed, initial_graph=graph, engine=engine)
    reports = maintainer.apply_sequence(changes)
    return maintainer.mis(), maintainer.statistics, reports


def _statistics_tuple(statistics: MaintainerStatistics, reports) -> tuple:
    """The totals plus every returned report's statistics fields."""
    rows = tuple(tuple(getattr(report, name) for name in REPORT_FIELDS) for report in reports)
    return statistics.changes.to_record(), statistics.batches.to_record(), rows


@pytest.mark.parametrize("engine", ["template", "fast"])
def test_same_seed_identical_statistics(engine: str) -> None:
    mis_a, stats_a, reports_a = _run(17, engine)
    mis_b, stats_b, reports_b = _run(17, engine)
    assert mis_a == mis_b
    assert _statistics_tuple(stats_a, reports_a) == _statistics_tuple(stats_b, reports_b)
    assert stats_a.num_changes == 120


@pytest.mark.parametrize("engine", ["template", "fast"])
def test_numpy_generator_seed_is_deterministic(engine: str) -> None:
    np = pytest.importorskip("numpy")
    mis_a, stats_a, reports_a = _run(np.random.default_rng(99), engine)
    mis_b, stats_b, reports_b = _run(np.random.default_rng(99), engine)
    assert mis_a == mis_b
    assert _statistics_tuple(stats_a, reports_a) == _statistics_tuple(stats_b, reports_b)


def test_generator_seed_matches_equivalent_int_seed() -> None:
    np = pytest.importorskip("numpy")
    generator = np.random.default_rng(7)
    drawn = normalize_seed(np.random.default_rng(7))
    mis_gen, stats_gen, reports_gen = _run(generator, "fast")
    mis_int, stats_int, reports_int = _run(drawn, "fast")
    assert mis_gen == mis_int
    assert _statistics_tuple(stats_gen, reports_gen) == _statistics_tuple(stats_int, reports_int)


def test_normalize_seed_accepted_plain_types() -> None:
    assert normalize_seed(None) == 0
    assert normalize_seed(5) == 5
    assert normalize_seed(True) == 1
    with pytest.raises(TypeError):
        normalize_seed("a string")
    with pytest.raises(TypeError):
        normalize_seed(1.5)


def test_normalize_seed_accepted_numpy_types() -> None:
    np = pytest.importorskip("numpy")
    assert normalize_seed(np.int64(9)) == 9
    assert isinstance(normalize_seed(np.random.default_rng(1)), int)
    assert isinstance(normalize_seed(np.random.SeedSequence(2)), int)


def test_spawn_seeds_deterministic_and_distinct() -> None:
    seeds = spawn_seeds(42, 50)
    assert seeds == spawn_seeds(42, 50)
    assert len(set(seeds)) == 50
    assert seeds[:10] == spawn_seeds(42, 10)


def test_spawn_seeds_from_numpy_seed_sequence() -> None:
    np = pytest.importorskip("numpy")
    assert spawn_seeds(np.random.SeedSequence(42), 3) == spawn_seeds(
        np.random.SeedSequence(42), 3
    )


def test_priority_assigner_accepts_generator() -> None:
    np = pytest.importorskip("numpy")
    assigner_a = RandomPriorityAssigner(np.random.default_rng(5))
    assigner_b = RandomPriorityAssigner(np.random.default_rng(5))
    assert assigner_a.seed == assigner_b.seed
    assert assigner_a.assign("node") == assigner_b.assign("node")


_NO_NUMPY_SCRIPT = """
import sys

import repro
import repro.cli
import repro.scenario
import repro.service
from repro.scenario import BackendSpec, GraphSpec, ScenarioSpec, Session, WorkloadSpec


def run(backend, batch_size=0):
    spec = ScenarioSpec(
        name="no-numpy",
        seed=5,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=1),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=40, seed=2),
        backend=backend,
        batch_size=batch_size,
    )
    session = Session(spec)
    assert session.run().verified
    return session


batched = run(BackendSpec(runner="sequential", engine="fast"), batch_size=8)
assert batched.maintainer.statistics.num_batches == 5
run(BackendSpec(runner="protocol", protocol="direct", network="fast", engine="fast"))
assert "numpy" not in sys.modules, "an int-seeded run imported numpy"
"""


def test_int_seeded_sessions_import_no_numpy() -> None:
    """numpy is optional: only a numpy seed (see ``normalize_seed``) imports it.

    A fresh interpreter imports the package surfaces and runs a batched
    ``fast`` session and a ``direct`` protocol session on int seeds.
    """
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
