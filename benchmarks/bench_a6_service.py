"""A6 (service) -- daemon saturation: sessions x changes/sec across shard counts.

The service tentpole's claim is operational, not algorithmic: a sharded
``repro-mis serve`` daemon turns the per-session O(1)-adjustments guarantee
into aggregate ingestion throughput that scales with worker processes,
because each shard owns its sessions outright (no cross-shard coordination)
and the unit of work on the wire is the batched ``apply_batch`` path.

Reproduction: one in-process daemon per shard count, real shard worker
processes and a real localhost socket.  A fixed fleet of sessions -- all on
the batched fast sequential engine, large enough that per-batch compute
dominates the JSON/IPC overhead -- is driven to workload exhaustion by a
pool of client threads (each with its own connection, each owning a slice
of the fleet), and the aggregate rate of applied topology changes is the
saturation point for that shard count.  ``speedup`` is the multi-shard rate
over the 1-shard rate on the same machine and fleet, which is the
machine-portable number the nightly trajectory gate holds
(``report.py --speedups-only``).

A second, single-session measurement records the service-path tax directly:
changes/sec through the daemon vs the same spec stepped in-process, plus
the evict -> rehydrate round-trip cost a spool cycle adds.  Results are
emitted as tables and JSON (``benchmarks/results/a6_service.json``).
"""

from __future__ import annotations

import os
import sys
import threading
import time
from typing import Dict, List

from repro.scenario import BackendSpec, GraphSpec, ScenarioSpec, Session, WorkloadSpec
from repro.service import MISService, ServiceClient, ServiceConfig

from harness import benchmark_seeds, emit, emit_json, emit_table, run_once

SHARD_COUNTS = (1, 2, 4)
NUM_SESSIONS = 16
NUM_CLIENT_THREADS = 4
NODES = 1500
AVERAGE_DEGREE = 8
CHANGES_PER_SESSION = 384
BATCH_SIZE = 32
MASTER_SEED = 20260808
#: Hard floor: sharding must never *cost* more than a quarter of the 1-shard
#: ingestion rate.  On a single-core machine the expected speedup is ~1.0x
#: (worker processes cannot run in parallel; the committed trajectory point
#: records the core count next to the rate); real scaling shows on
#: multi-core runners, where the trajectory gate holds it as higher-better.
MIN_SPEEDUP_AT_MAX_SHARDS = 0.75


def _fleet_spec(name: str, graph_seed: int, workload_seed: int) -> ScenarioSpec:
    """One fleet session: batched fast-engine sequential churn.

    Every session shares the graph spec (one cached build per worker
    process) and draws its own workload stream, as a multi-tenant daemon
    would see.
    """
    return ScenarioSpec(
        name=name,
        seed=workload_seed + 1,
        graph=GraphSpec(
            family="erdos_renyi",
            nodes=NODES,
            seed=graph_seed,
            params={"edge_probability": AVERAGE_DEGREE / (NODES - 1)},
        ),
        workload=WorkloadSpec(
            kind="mixed_churn", num_changes=CHANGES_PER_SESSION, seed=workload_seed
        ),
        backend=BackendSpec(runner="sequential", engine="fast"),
        batch_size=BATCH_SIZE,
    )


def _drive_slice(address: str, names: List[str], failures: List[BaseException]) -> None:
    """One client thread: its own connection, its slice of the fleet.

    Round-robins ``apply_batch`` over its sessions (one batch per request)
    until every workload is exhausted -- the per-request shape a
    change-stream ingester would produce.
    """
    try:
        with ServiceClient(address) as client:
            pending = list(names)
            while pending:
                still_running = []
                for name in pending:
                    if not client.apply_batch(name, steps=1)["done"]:
                        still_running.append(name)
                pending = still_running
    except BaseException as failure:  # noqa: BLE001 - re-raised by the driver
        failures.append(failure)


def _saturate(shards: int, specs: List[ScenarioSpec], spool_dir: str) -> Dict:
    """Drive the whole fleet to exhaustion on one daemon; measure the rate."""
    config = ServiceConfig(
        spool_dir=spool_dir, shards=shards, max_live=NUM_SESSIONS, bind="tcp:127.0.0.1:0"
    )
    with MISService(config) as service:
        names = [spec.name for spec in specs]
        with ServiceClient(service.address) as client:
            for spec in specs:
                client.create(spec.name, spec.to_dict())
        slices = [names[index::NUM_CLIENT_THREADS] for index in range(NUM_CLIENT_THREADS)]
        failures: List[BaseException] = []
        threads = [
            threading.Thread(target=_drive_slice, args=(service.address, piece, failures))
            for piece in slices
        ]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        if failures:
            raise failures[0]
        with ServiceClient(service.address) as client:
            stats = client.stats()
            for name in names:  # the daemon agrees every workload is done
                assert client.query(name)["done"], name
                client.close_session(name)
    total_changes = NUM_SESSIONS * CHANGES_PER_SESSION
    assert stats["applied"] == total_changes // BATCH_SIZE  # units, not changes
    return {
        "shards": shards,
        "elapsed_s": elapsed,
        "changes_per_sec": total_changes / elapsed,
        "requests": stats["ops"],
    }


def _service_tax(spec: ScenarioSpec, spool_dir: str) -> Dict:
    """Single session: daemon-path rate vs in-process rate, plus spool cycle."""
    session = Session(spec)
    start = time.perf_counter()
    while session.step() is not None:
        pass
    inprocess_s = time.perf_counter() - start
    config = ServiceConfig(spool_dir=spool_dir, shards=1, bind="tcp:127.0.0.1:0")
    with MISService(config) as service, ServiceClient(service.address) as client:
        client.create("tax", spec.to_dict())
        units = CHANGES_PER_SESSION // BATCH_SIZE
        start = time.perf_counter()
        for _ in range(units):
            client.apply_batch("tax", steps=1)
        service_s = time.perf_counter() - start
        start = time.perf_counter()
        client.evict("tax")
        client.query("tax")  # transparent rehydration
        spool_cycle_s = time.perf_counter() - start
    return {
        "inprocess_changes_per_sec": CHANGES_PER_SESSION / inprocess_s,
        "service_changes_per_sec": CHANGES_PER_SESSION / service_s,
        "service_overhead_ratio": service_s / inprocess_s,
        "spool_cycle_ms": spool_cycle_s * 1e3,
    }


def run_experiment(master_seed: int = MASTER_SEED) -> Dict:
    import tempfile

    graph_seed, workload_seed = benchmark_seeds(master_seed, 2)
    specs = [
        _fleet_spec(f"a6-fleet-{index:02d}", graph_seed, workload_seed + index)
        for index in range(NUM_SESSIONS)
    ]
    series: List[Dict] = []
    for shards in SHARD_COUNTS:
        with tempfile.TemporaryDirectory(prefix="a6-spool-") as spool_dir:
            point = _saturate(shards, specs, spool_dir)
        if series:
            point["speedup"] = round(
                point["changes_per_sec"] / series[0]["changes_per_sec"], 3
            )
        point["elapsed_s"] = round(point["elapsed_s"], 4)
        point["changes_per_sec"] = round(point["changes_per_sec"], 1)
        series.append(point)
    with tempfile.TemporaryDirectory(prefix="a6-tax-") as spool_dir:
        tax = _service_tax(specs[0], spool_dir)
    return {
        "series": series,
        "tax": {key: round(value, 3) for key, value in tax.items()},
        "sessions": NUM_SESSIONS,
        "changes_per_session": CHANGES_PER_SESSION,
        "batch_size": BATCH_SIZE,
        "nodes": NODES,
        "client_threads": NUM_CLIENT_THREADS,
        "cpus": os.cpu_count() or 1,
        "speedup_at_max_shards": series[-1]["speedup"],
        "python": sys.version.split()[0],
        "master_seed": master_seed,
    }


def _payload(results: Dict) -> Dict:
    return {key: results[key] for key in (
        "series", "tax", "sessions", "changes_per_session", "batch_size",
        "nodes", "client_threads", "cpus", "master_seed", "python",
    )}


def test_a6_service_saturation(benchmark):
    results = run_once(benchmark, run_experiment)
    emit_table(
        f"A6: daemon saturation, {NUM_SESSIONS} sessions x {CHANGES_PER_SESSION} "
        f"changes (batch={BATCH_SIZE}, n={NODES}, {NUM_CLIENT_THREADS} client threads)",
        ["shards", "changes/sec", "wall s", "speedup vs 1 shard"],
        [
            [
                point["shards"],
                f"{point['changes_per_sec']:.0f}",
                f"{point['elapsed_s']:.2f}",
                f"{point.get('speedup', 1.0):.2f}x",
            ]
            for point in results["series"]
        ],
    )
    tax = results["tax"]
    emit_table(
        "A6b: service-path tax, single session (socket + JSON + shard pipe)",
        ["path", "changes/sec"],
        [
            ["in-process Session.step", f"{tax['inprocess_changes_per_sec']:.0f}"],
            ["through the daemon", f"{tax['service_changes_per_sec']:.0f}"],
            ["evict -> rehydrate cycle", f"{tax['spool_cycle_ms']:.1f} ms"],
        ],
    )
    emit(
        "A6: sharded service saturation",
        [
            {
                "row": f"ingestion scaling at {SHARD_COUNTS[-1]} shards",
                "paper": f">= {MIN_SPEEDUP_AT_MAX_SHARDS}x of 1 shard (floor)",
                "measured": f"{results['speedup_at_max_shards']:.2f}x",
                "verdict": "pass"
                if results["speedup_at_max_shards"] >= MIN_SPEEDUP_AT_MAX_SHARDS
                else "CHECK",
            },
            {
                "row": "every session's workload fully ingested, every shard count",
                "paper": "exact",
                "measured": "exact (asserted)",
                "verdict": "pass",
            },
        ],
    )
    emit_json("a6_service", _payload(results))
    assert results["speedup_at_max_shards"] >= MIN_SPEEDUP_AT_MAX_SHARDS
    assert tax["spool_cycle_ms"] < 60_000  # a spool cycle is not free, but sane


if __name__ == "__main__":
    outcome = run_experiment()
    emit_json("a6_service", _payload(outcome))
    for point in outcome["series"]:
        print(point)
    print(outcome["tax"])
