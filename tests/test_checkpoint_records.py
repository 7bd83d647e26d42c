"""Pinned checkpoint records and the fast snapshot's edge list.

The spool's speed depends on how :mod:`repro.scenario.checkpoint_io`
encodes a checkpoint and on how the array-backed cores list their edges,
but a checkpoint must keep decoding to the same thing.  These tests pin
:func:`~repro.scenario.checkpoint_io.checkpoint_to_dict` with SHA-256
digests over a grid of graph families, backends and workloads, plus one
``fast`` engine over mixed label types (ints, floats, strings, tuples,
nested tuples -- the ``repr`` fallback of
:func:`~repro.graph.dynamic_graph.canonical_edge`).  They also check
:meth:`~repro.core.fast_engine.FastGraphView.edges` against a
:class:`~repro.graph.dynamic_graph.DynamicGraph` replaying the same churn.

The wall-clock ``elapsed_s`` is dropped from a record before hashing.  The
digests were computed from the ``repro-checkpoint-v2`` records the writer
produced before checkpoints held totals, folded into ``repro-checkpoint-v3``
records (per-change rows summed into count/sum/max per kind, no ``journal``
key): the writer's totals must equal the fold of the old per-change rows.

The same digests pin the legacy *delta* checkpoint files under
``tests/data/legacy_delta_checkpoints/``: each was written by a session that
recorded a delta journal from a resumed base, and each must decode to the
full checkpoint that run had at the same position.  Three full protocol
checkpoints under ``tests/data/full_protocol_checkpoints/``, written when
records still stored each node's knowledge, and three v2 files under
``tests/data/v2_checkpoints/`` (a sequential, a batched and an asynchronous
protocol session, all with per-change rows) must resume to the
uninterrupted run.  The record-format checks (fixed size in the session's
age, v1 decode, unknown formats, the recursive key codecs, the atomic
``save_checkpoint``) close the file.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.core.engine_api import BATCH_REPORT_FIELDS, BatchUpdateReport
from repro.core.fast_engine import FastEngine
from repro.distributed.metrics import ChangeMetrics, MetricsAggregator
from repro.distributed.network_api import create_network
from repro.graph import generators
from repro.graph.dynamic_graph import DynamicGraph
from repro.scenario.checkpoint_io import (
    FORMAT_V1,
    FORMAT_V2,
    CheckpointFormatError,
    _decode_key,
    _decode_state_tree,
    _encode_key,
    _encode_state_tree,
    checkpoint_from_dict,
    checkpoint_to_dict,
    load_checkpoint,
    save_checkpoint,
)
from repro.scenario.session import Session, SessionCheckpoint
from repro.scenario.spec import BackendSpec, GraphSpec, ScenarioSpec, WorkloadSpec
from repro.testing.differential import REPORT_FIELDS
from repro.workloads.changes import EdgeDeletion, EdgeInsertion, NodeDeletion
from repro.workloads.sequences import mixed_churn_sequence, replay_on_graph

_BACKENDS = {
    "fast": (BackendSpec(engine="fast"), 0),
    "fast-batch4": (BackendSpec(engine="fast"), 4),
    "template": (BackendSpec(engine="template"), 0),
    "direct-fast": (BackendSpec(runner="protocol", protocol="direct", network="fast"), 0),
    "direct-dict": (BackendSpec(runner="protocol", protocol="direct", network="dict"), 0),
}
_WORKLOADS = ("mixed_churn", "node_churn")


def _grid_spec(family: str, backend: str, workload: str) -> ScenarioSpec:
    backend_spec, batch_size = _BACKENDS[backend]
    return ScenarioSpec(
        name=f"records-{family}-{backend}-{workload}",
        seed=11,
        graph=GraphSpec(family=family, nodes=40, seed=5),
        workload=WorkloadSpec(kind=workload, num_changes=24, seed=7),
        backend=backend_spec,
        batch_size=batch_size,
    )


def _record_digest(checkpoint: SessionCheckpoint) -> str:
    record = checkpoint_to_dict(checkpoint)
    del record["elapsed_s"]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def _row(record):
    """A per-unit record a session returned, as a comparable plain value."""
    if isinstance(record, ChangeMetrics):
        return dict(record.as_dict(), adjusted=sorted(record.adjusted_nodes, key=repr))
    if isinstance(record, BatchUpdateReport):
        return {name: getattr(record, name) for name in BATCH_REPORT_FIELDS}
    return {name: getattr(record, name) for name in REPORT_FIELDS}


def _finish(session: Session) -> list:
    """Step ``session`` to its end; the rows of the records it returned."""
    return [_row(record) for record in session]


def _totals(session: Session):
    """A session's running totals: statistics or metric totals."""
    if session.maintainer is not None:
        return session.maintainer.statistics
    return session.network.metrics.totals


def _grid_digests():
    digests = {}
    for family in generators.FAMILY_NAMES:
        for backend in _BACKENDS:
            for workload in _WORKLOADS:
                session = Session(_grid_spec(family, backend, workload))
                for _ in range(3):
                    session.step()
                digests[f"{family}/{backend}/{workload}"] = _record_digest(session.checkpoint())
    return digests


def _labelled_graph() -> DynamicGraph:
    """Mixed label types; ints against strings or tuples only order by ``repr``."""
    nodes = [0, 1, 2, 7, 2.5, -3.25, "a", "b10", "b9", (0, 1), (1, "x"), ((0, 1), 2), ("z", (3,))]
    edges = [
        (0, 1),
        (1, 2),
        (2, 2.5),
        (0, -3.25),
        (7, "a"),
        ("a", "b10"),
        ("b9", "b10"),
        ((0, 1), 0),
        ((0, 1), (1, "x")),
        ((1, "x"), "a"),
        (((0, 1), 2), (0, 1)),
        (((0, 1), 2), 2.5),
        (("z", (3,)), "b9"),
        (("z", (3,)), 7),
        (-3.25, (1, "x")),
    ]
    return DynamicGraph(nodes=nodes, edges=edges)


def _labelled_checkpoint(snapshot) -> SessionCheckpoint:
    return SessionCheckpoint(spec=ScenarioSpec(name="labelled"), position=0, snapshot=snapshot)


def _labelled_engine_digest() -> str:
    maintainer = DynamicMIS(engine=FastEngine(seed=3, initial_graph=_labelled_graph()))
    for change in mixed_churn_sequence(_labelled_graph(), 30, seed=2):
        maintainer.apply(change)
    return _record_digest(_labelled_checkpoint(maintainer.engine.snapshot()))


_GRID_DIGESTS = {
    "cycle/direct-dict/mixed_churn": "59975cf4eff65f93e8b690125568ba855c96d449fe08c217b34127c3cd47853e",
    "cycle/direct-dict/node_churn": "fd6c34570fc515f6ac580338291a9a41db44edd10a4f6eb8dc12f875d643d3a3",
    "cycle/direct-fast/mixed_churn": "84a30252533b902d4a1019141b0ea017107d17c48c0172bab9c06dcd17137983",
    "cycle/direct-fast/node_churn": "feafcd8fe843e6711b74c28e8551fcdb5040ac1f356976e3be6684a6a840dc7f",
    "cycle/fast-batch4/mixed_churn": "ef30f3c717b10827977d3a56bf9a8631c2db8bf00e24da81602d52d00237b2a3",
    "cycle/fast-batch4/node_churn": "94bf8dee878a171b4ba775e5db46dd5344caae44c2b024f025115317ab8731e4",
    "cycle/fast/mixed_churn": "574a2378207747596bf206af0cd0cc12b24730d5d41a5f7404ea6729412f7681",
    "cycle/fast/node_churn": "fa99d7e12d8a31a5a4862cd218ed4495fdd1457bff84e03ce1a4db62c37fc109",
    "cycle/template/mixed_churn": "545bdf17bf51541c5bdbe046bcb0d2449f40173ec3028d18ad21c789b16f9f9f",
    "cycle/template/node_churn": "e02b082c936434e635e509e84df88fab79abff8e6f5aec40e10d8d4c87903d6e",
    "erdos_renyi/direct-dict/mixed_churn": "15a13e4c3a95677e720cdbb9e8db9a5fdb376dd2c6ec08162f86ff5a09f3e00d",
    "erdos_renyi/direct-dict/node_churn": "bd571303cef2ba29b3da38e90b3d59668dcd6552cd75803473fdcf420a2df9b6",
    "erdos_renyi/direct-fast/mixed_churn": "853078566d0603572f9c9ab188354719cba24bf9dd58805d631e95253a2b3c1c",
    "erdos_renyi/direct-fast/node_churn": "40e0d9bad5bbc45c03dcfebff50de6cd2038944a018fc7daa51f642ddb2b69ff",
    "erdos_renyi/fast-batch4/mixed_churn": "2e65481cbc26212423a50e45e20dea2574ebab64982ced7011d61bc3fcfc5c58",
    "erdos_renyi/fast-batch4/node_churn": "b6583364bb1bb10c5377dca7374c80b5863284c60c0a40e58b1e89e64236a407",
    "erdos_renyi/fast/mixed_churn": "829fcba9c7d44b88e30686df233a3b6825db7bc82d26c088072c9c2e064252bf",
    "erdos_renyi/fast/node_churn": "70d9ebda5105c0f842b708fd3dc3f6771227d8eae6cadb056c518447c1e9bd79",
    "erdos_renyi/template/mixed_churn": "51d45d1ba753fa78876ac0799ebd27552d2dc8ee69a1af2ddad8a70952767175",
    "erdos_renyi/template/node_churn": "87abaa0b6301af0c45fc94f582fbac0287a737f2972a7ca09198861b6c8d7872",
    "geometric/direct-dict/mixed_churn": "ddc8a7e3ae147ab391b62b0c5b83a5ae53c834d2dbc2543d716bbbccc8a8f4d5",
    "geometric/direct-dict/node_churn": "45f823a5d1952b0c3bca513acd76909247692fe4c4a1440087c95d1c6911e7f6",
    "geometric/direct-fast/mixed_churn": "10fa2951c26d762d1f717da9a287c627b66c86dcdad00d4d42391bdcbca478da",
    "geometric/direct-fast/node_churn": "bad5997b01a70524344b3632153ee6d7ebdebe53dccb2f520b4381dfb4daae5e",
    "geometric/fast-batch4/mixed_churn": "2802b420d9b9b8c077de431ae7ce5e03d4ae760ad4e0db38031a261d08e39034",
    "geometric/fast-batch4/node_churn": "b9b9a0edc3e1b6417fbe71b2b267947ee15f13d39f2f8f4028e6b70b12c10e9b",
    "geometric/fast/mixed_churn": "e290d017eb75436284c78405f582585755d879e0118c9d4b02a8f179d4eea694",
    "geometric/fast/node_churn": "6e5d94dfb3ac001139c470b287a4f76a83bfbec38251a1b7b8d3be9de1e739ce",
    "geometric/template/mixed_churn": "da198a51e1c3b3a1234bc4a1b21f16af482a239f85ebb0f5c5dce58db7e41d5a",
    "geometric/template/node_churn": "35d028f9c2c52022973946499d5f47b23317f989f8ebb754baa903cab45e786c",
    "near_regular/direct-dict/mixed_churn": "559da8d145c47873cf9f26aa58e86c07491beba82880f99a3d53898131a4de15",
    "near_regular/direct-dict/node_churn": "8029414eeb0b20cafe2171cddfca4e18897a91d81c962ff400b03c99b32c530c",
    "near_regular/direct-fast/mixed_churn": "5b2b3c2e09784d430ee3bf7a512d938ae7d5a6813936d177ec051a3a1a95b0be",
    "near_regular/direct-fast/node_churn": "66a2fcd1e1164188d1e4014ca56afae2253ff9ef379b6e99fbc8e8af3a325340",
    "near_regular/fast-batch4/mixed_churn": "4711fcada00caaf866985fedeed8ebfc5034056c41bc562e0c9b47b02303f94a",
    "near_regular/fast-batch4/node_churn": "7c4b93caa303b424cf4697e6447252472d3c9e4e465bb2f83441af301a5da025",
    "near_regular/fast/mixed_churn": "c10582adea004fa66a01a28e3c505c07c5035fc31776d002102550ca77d0667e",
    "near_regular/fast/node_churn": "f5c6733e8a3761ef747ffa9f3d7f7e03420148af2701bf6e9da4fb92895c2357",
    "near_regular/template/mixed_churn": "057c8518408ded73260dc106c47c9761b899014bcea260e0fd0485e6acada86e",
    "near_regular/template/node_churn": "4445528825522e1dd5d425a7c32915c449fc7686175011b06e2e3af9e5340c5c",
    "path/direct-dict/mixed_churn": "487fd0c83d92d610d52cf002016300275dccfc8c98c6c53585ab3914efd76e73",
    "path/direct-dict/node_churn": "95778bf4480c47bb97c0735fcf4f1ea781cf6e78cb5ebbb4835277f6e85b0aa7",
    "path/direct-fast/mixed_churn": "c483f1868f3914751c9843fadb0da518ac4d664a5bd429e4b02c16924a6bd486",
    "path/direct-fast/node_churn": "57288de75799e1b0081514963e83f432e42781edbc0edb55ac69d2190e5db96c",
    "path/fast-batch4/mixed_churn": "ee2d220d63ff5b89b71c49ca438ce67cf0099c31ba6cfc8450cbe4a6ef6d6389",
    "path/fast-batch4/node_churn": "2abba1698d7234ceb65a61e79ae17ef69c8b1a168d7d79dbce3a4c6322f22368",
    "path/fast/mixed_churn": "c5b92c79b5c2ff9a1248ed76b5c176e2b74027887457ef552a0121f7e9bf9566",
    "path/fast/node_churn": "8bf9bb1581b656050879c61f6fe8220d382bf2dc41d0a260d3b052b247b4344b",
    "path/template/mixed_churn": "5f2c1f581ebfe5c3e7b74a156349feec8ab430f12abce03696ca641717e323c0",
    "path/template/node_churn": "d8c8bdc1620c5305e01aee5b90f70b71f708df55e7b8e186b63abc62836e7309",
    "preferential/direct-dict/mixed_churn": "e418d4835870f439febdfd6322be669e5751cb34e56552d218655b20b5bb8f9a",
    "preferential/direct-dict/node_churn": "cdf1d5cf4819fa0e72c4d07ce6a1e7742dbcba01620528febfe135bd0472c603",
    "preferential/direct-fast/mixed_churn": "2deb43fb58481c3c524e607eeceb18aa299a99c6033f1bd9715411edb6741c0b",
    "preferential/direct-fast/node_churn": "dac16a4c8b52db94efbcfd9304ede458aa902b1c5c3d3e01460e043bfeb68779",
    "preferential/fast-batch4/mixed_churn": "2010b67f20e02b1280103ee3108b67f261e4ca33cbb9d6b70832091cccffa20b",
    "preferential/fast-batch4/node_churn": "788087db9418eea6624bb9b2c13ac9070c55a899ca56ee0da02783d2a97be245",
    "preferential/fast/mixed_churn": "a1c685fa4e077460f59e41279f93d26cef10a01d4227f2f7917d03e7b3cfb28d",
    "preferential/fast/node_churn": "b68369710f701a700914a26106c312f1c72098f1491d169ed5c0bdcf35ffed20",
    "preferential/template/mixed_churn": "84425c8b9f57b975138cb93a012bfffb970c9da0584c1bdd10a174da4813b2f0",
    "preferential/template/node_churn": "966e28a32b6b9d62dc708782aa79e01a7a3ed6253b85fa3abc0dc3c5d0b933fa",
    "sparse/direct-dict/mixed_churn": "d1db612ebf1587bd072ef962dfb7f9a0edda5a62a8a47ab286d0e4a639567625",
    "sparse/direct-dict/node_churn": "382c048d8b274edbba0cc0b9d670f671747a43f3b264f2a79b8b591064c233c1",
    "sparse/direct-fast/mixed_churn": "714dbc6ed8c1b9e1220881eda70f40fe640915c1339ab6150f5d110efceaaa59",
    "sparse/direct-fast/node_churn": "bec30ccdb15e7dd1b89e55d936eb4e6a73b49feb7453ae72d7ff458a5b1b045a",
    "sparse/fast-batch4/mixed_churn": "0d83b0b117f30ee5b36d804e34a827a699f0296dcd6fcb5c0a024278a0f80f8e",
    "sparse/fast-batch4/node_churn": "4c2629fc94782099783cacb2daf5b698a5891d11fc584f9a2cb52e768184b530",
    "sparse/fast/mixed_churn": "c4213f65be1908efc631e73155596019dcf3dc316d5fbee2753a49c2747d2a67",
    "sparse/fast/node_churn": "4f38a630fbf47e1b58dc45c026b6995295e82b14dd5e3fc58970cb8ca03a713e",
    "sparse/template/mixed_churn": "0bf49085d939b0f796ae7e87fff56190d703a33766747593f1e5dbae124b07f2",
    "sparse/template/node_churn": "55fe719a2508ddd715e28f9054cd6b738850a6bbd3ccdace7f78f48cd2e0c8f9",
    "star/direct-dict/mixed_churn": "981d454ec6da48e1da9906c3e3b255bddad695397fb5b2f7636ce2792443e611",
    "star/direct-dict/node_churn": "f9b550546c72e8feae4e8c615c2a2bbb92d7579ec33b55b9b420258b883204f5",
    "star/direct-fast/mixed_churn": "53917578478eeee91b74cd5505112a8b2b1178ede0ce5d99d0d35cd4226f5f74",
    "star/direct-fast/node_churn": "dc48eabc67cbfe1c35e80e2d1cd0d029101b114aa4a2496e79b1649ea38cfb0c",
    "star/fast-batch4/mixed_churn": "555a7f85fddbf147bbc49f394b6d843ca624ddf1b4876fd5dc8a961453b5f4ef",
    "star/fast-batch4/node_churn": "c51d622acf55a931e8a09addfd2a2587784ab4c461936d41aa8b45f874c6e782",
    "star/fast/mixed_churn": "dbe00ce3afde3827b7a9bf6ad02c0260e1dfb39225017f797aec0d8dbbcf7836",
    "star/fast/node_churn": "5df3f8b8119d7707a724b43183bba0cd7c7e298150f6ea68d560164f94614dba",
    "star/template/mixed_churn": "b655b54e52a55433cb8d8cf93a1ad3a28d1c91b2a60f00c9c4b91315b502d2ba",
    "star/template/node_churn": "babd906f69495745dc3b0e22899aa46b0c5427839128fd8269a185a8ac070452",
}

_LABELLED_DIGEST = "1d8c5c4f9d00a0814545cc7705c33dc1f69b79d7996f386a7b263e14848fddb1"


class TestPinnedCheckpointRecords:
    def test_grid_records_match_the_recorded_digests(self):
        assert _grid_digests() == _GRID_DIGESTS

    def test_mixed_label_record_matches_the_recorded_digest(self):
        assert _labelled_engine_digest() == _LABELLED_DIGEST


class TestLabelDecoding:
    """Scalar labels decode as themselves, tuples from their tags, bare lists fail."""

    @pytest.mark.parametrize("runner", ["engine", "network"])
    def test_mixed_labels_round_trip_through_json(self, runner):
        graph = _labelled_graph()
        if runner == "engine":
            snapshot = FastEngine(seed=3, initial_graph=graph).snapshot()
        else:
            network = create_network("direct", network="fast", seed=3, initial_graph=graph)
            snapshot = network.snapshot()
        record = json.loads(json.dumps(checkpoint_to_dict(_labelled_checkpoint(snapshot))))
        assert checkpoint_from_dict(record).snapshot == snapshot

    @pytest.mark.parametrize(
        "backend, field",
        [
            ("fast", "nodes"),
            ("fast", "edges"),
            ("fast", "priority_keys"),
            ("fast", "states"),
            ("direct-dict", "nodes"),
            ("direct-dict", "edges"),
            ("direct-dict", "priority_keys"),
            ("direct-dict", "states"),
        ],
    )
    def test_bare_list_labels_are_rejected(self, backend, field):
        session = Session(_grid_spec("path", backend, "mixed_churn"))
        session.step()
        record = checkpoint_to_dict(session.checkpoint())
        rows = record["snapshot"][field]
        if field == "nodes":
            rows[0] = [rows[0]]
        else:
            rows[0][0] = [rows[0][0]]
        with pytest.raises(CheckpointFormatError, match="bare lists"):
            checkpoint_from_dict(record)


class TestFastEdgeList:
    """``FastGraphView.edges()`` equals a dict graph's after random churn."""

    @pytest.mark.parametrize("core", ["engine", "network"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_edges_match_a_replayed_dict_graph(self, core, seed):
        graph = _labelled_graph()
        changes = mixed_churn_sequence(graph, 80, seed=seed)
        if core == "engine":
            runner = DynamicMIS(engine=FastEngine(seed=seed, initial_graph=graph))
            backend = runner.engine
        else:
            runner = create_network("direct", network="fast", seed=seed, initial_graph=graph)
            backend = runner
        for count, change in enumerate(changes, start=1):
            runner.apply(change)
            if count % 10 == 0:
                expected = replay_on_graph(graph, changes[:count]).edges()
                assert backend.graph.edges() == expected
                assert backend.snapshot().edges == tuple(expected)


# ----------------------------------------------------------------------
# Legacy delta checkpoints decode to the full checkpoint at their position
# ----------------------------------------------------------------------
_LEGACY_DIR = pathlib.Path(__file__).parent / "data" / "legacy_delta_checkpoints"

#: Digest of ``checkpoint(full=True)`` at each file's position, taken by the
#: run that wrote the file.  The three backends are the ``fast`` engine,
#: ``direct`` on ``fast`` and ``async-direct`` on ``dict`` with a ``random``
#: scheduler; every journal starts at base position 5.
_LEGACY_DELTA_DIGESTS = {
    "async-dict-random-adaptive.json": "8a1dd09c5ff36f868ff7653ec6aeec77d1653d61c5103e22b6a95172a6d6e7c7",
    "async-dict-random-mixed_churn.json": "bbce128acf5c4c2876b1e53f6711164839b8e2c4f02cdb16be1031c4fc2639a4",
    "direct-fast-adaptive.json": "6dfe039c2cc3c87b95b090ac918a1d5df88299da3e1f1f7dd03b90b7cc228769",
    "direct-fast-mixed_churn.json": "d4231bc6f70c0f33714119aee46189f85238d6e7c46b3dd30f5d3aebb0b8420d",
    "fast-adaptive.json": "2bd54f89195dec4248c779f216d8ce9814d064b9a92810a07a83782358881570",
    "fast-mixed_churn.json": "de49f102e486b912553813f0c9075240cc4ccaa98d6b75b21bea2897f9c82643",
}


class TestLegacyDeltaCheckpoints:
    @pytest.mark.parametrize("name", sorted(_LEGACY_DELTA_DIGESTS))
    def test_files_load_to_the_full_checkpoint_digest(self, name):
        record = json.loads((_LEGACY_DIR / name).read_text())
        assert record["journal"]["base_position"] == 5 < record["position"]
        checkpoint = load_checkpoint(_LEGACY_DIR / name)
        assert checkpoint.position == record["position"]
        assert _record_digest(checkpoint) == _LEGACY_DELTA_DIGESTS[name]

    @pytest.mark.parametrize(
        "base_position", [None, -1, 18, "5"], ids=["missing", "negative", "above", "string"]
    )
    def test_bad_base_positions_are_rejected(self, base_position):
        record = json.loads((_LEGACY_DIR / "fast-mixed_churn.json").read_text())
        if base_position is None:
            del record["journal"]["base_position"]
        else:
            record["journal"]["base_position"] = base_position
        with pytest.raises(CheckpointFormatError, match="base_position"):
            checkpoint_from_dict(record)


# ----------------------------------------------------------------------
# Full protocol checkpoints written with stored knowledge rows
# ----------------------------------------------------------------------
_FULL_DIR = pathlib.Path(__file__).parent / "data" / "full_protocol_checkpoints"


class TestFullProtocolCheckpoints:
    """Files from the writer that still stored ``knowledge`` rows resume exactly.

    Each was saved at position 15 of 30 (n=40) by a writer that stored a
    knowledge row per directed edge; the decoder ignores the rows, and
    restore derives the knowledge from the states.
    """

    @pytest.mark.parametrize("name", ["async-fast-random", "buffered-fast", "direct-dict"])
    def test_files_resume_to_the_uninterrupted_run(self, name):
        path = _FULL_DIR / f"{name}.json"
        assert "knowledge" in json.loads(path.read_text())["snapshot"]
        checkpoint = load_checkpoint(path)
        assert checkpoint.position == 15
        resumed = Session.resume(checkpoint)
        resumed_rows = _finish(resumed)
        uninterrupted = Session(checkpoint.spec)
        uninterrupted_rows = _finish(uninterrupted)
        assert resumed.position == uninterrupted.position == 30
        assert resumed.states() == uninterrupted.states()
        assert resumed_rows == uninterrupted_rows[15:]
        assert resumed.network.metrics == uninterrupted.network.metrics
        assert resumed.metrics_summary() == uninterrupted.metrics_summary()


# ----------------------------------------------------------------------
# v2 files with per-change rows fold into the totals of the same run
# ----------------------------------------------------------------------
_V2_DIR = pathlib.Path(__file__).parent / "data" / "v2_checkpoints"


class TestV2Checkpoints:
    """Files written when checkpoints stored one row per applied change.

    Each was saved at position 15 of 30 (n=24, ``mixed_churn``); its
    statistics lists or metric records fold into the totals an
    uninterrupted run has at 15, and it resumes to that run's end.
    """

    @pytest.mark.parametrize(
        "name", ["sequential-fast", "batched-template", "async-dict-adversarial"]
    )
    def test_files_load_to_the_totals_of_the_uninterrupted_run(self, name):
        path = _V2_DIR / f"{name}.json"
        record = json.loads(path.read_text())
        assert record["format"] == FORMAT_V2
        checkpoint = load_checkpoint(path)
        assert checkpoint.position == 15
        uninterrupted = Session(checkpoint.spec)
        while uninterrupted.position < 15:
            uninterrupted.step()
        at_15 = uninterrupted.checkpoint()
        assert checkpoint.statistics == at_15.statistics
        assert getattr(checkpoint.snapshot, "metrics", None) == getattr(
            at_15.snapshot, "metrics", None
        )
        resumed = Session.resume(checkpoint)
        assert _finish(resumed) == _finish(uninterrupted)
        assert resumed.states() == uninterrupted.states()
        assert _totals(resumed) == _totals(uninterrupted)
        assert resumed.metrics_summary() == uninterrupted.metrics_summary()
        assert resumed.position == uninterrupted.position == 30


# ----------------------------------------------------------------------
# Record formats and codecs
# ----------------------------------------------------------------------
def _network_spec(num_changes: int = 40, seed: int = 11) -> ScenarioSpec:
    return ScenarioSpec(
        name="records-buffered-fast",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=seed + 1),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=num_changes, seed=seed + 2),
        backend=BackendSpec(runner="protocol", network="fast", protocol="buffered"),
    )


def _engine_spec(num_changes: int = 40, seed: int = 11) -> ScenarioSpec:
    return ScenarioSpec(
        name="records-fast",
        seed=seed,
        graph=GraphSpec(family="erdos_renyi", nodes=24, seed=seed + 1),
        workload=WorkloadSpec(kind="mixed_churn", num_changes=num_changes, seed=seed + 2),
        backend=BackendSpec(runner="sequential", engine="fast"),
    )


def _shape(value):
    """A JSON value with every scalar replaced by its type name."""
    if isinstance(value, dict):
        return {key: _shape(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_shape(item) for item in value]
    return type(value).__name__


def _kind(record) -> str:
    if isinstance(record, ChangeMetrics):
        return record.change_kind
    if isinstance(record, BatchUpdateReport):
        return "batch"
    return record.change_type


class TestCheckpointFormats:
    @pytest.mark.parametrize("backend", ["fast", "fast-batch4", "direct-dict"])
    def test_totals_do_not_grow_with_the_position(self, backend):
        """Once every change kind has appeared, the statistics and the
        snapshot metrics keep one shape: no array grows with the position."""
        backend_spec, batch_size = _BACKENDS[backend]
        spec = ScenarioSpec(
            name="records-shape",
            seed=11,
            graph=GraphSpec(family="erdos_renyi", nodes=40, seed=5),
            workload=WorkloadSpec(kind="mixed_churn", num_changes=64, seed=7),
            backend=backend_spec,
            batch_size=batch_size,
        )
        session = Session(spec)
        kinds, seen = set(), {}
        for record in session:
            kinds.add(_kind(record))
            if session.position in (32, 64):
                saved = checkpoint_to_dict(session.checkpoint())
                parts = [saved["statistics"], saved["snapshot"].get("metrics")]
                seen[session.position] = (frozenset(kinds), _shape(parts))
        assert seen[32][0] == seen[64][0]  # the same kinds, so the same rows
        assert seen[32][1] == seen[64][1]

    def test_kinds_keep_first_appearance_order_through_a_file(self, tmp_path):
        """``save_checkpoint`` sorts object keys; per-kind totals are a list."""
        graph = _labelled_graph()
        maintainer = DynamicMIS(engine=FastEngine(seed=3, initial_graph=graph))
        network = create_network("direct", network="fast", seed=3, initial_graph=graph)
        changes = [NodeDeletion("a"), EdgeInsertion(0, 2), EdgeDeletion(0, 1), NodeDeletion(7)]
        for change in changes:
            maintainer.apply(change)
            network.apply(change)
        order = ["node_deletion", "edge_insertion", "edge_deletion"]
        assert network.metrics.change_kinds() == maintainer.statistics.changes.kinds() == order
        path = tmp_path / "kinds.json"
        checkpoint = dataclasses.replace(
            _labelled_checkpoint(network.snapshot()), statistics=maintainer.statistics
        )
        save_checkpoint(path, checkpoint)
        loaded = load_checkpoint(path)
        assert MetricsAggregator(loaded.snapshot.metrics).change_kinds() == order
        assert loaded.statistics.changes.kinds() == order
        assert loaded.statistics == maintainer.statistics

    def test_v1_records_still_decode(self):
        """A pre-journal checkpoint file (v1 format, no scheduler_state, no
        journal key, one metric row per change) must keep loading -- the new
        fields default to None and the rows fold into the same totals."""
        session = Session(_network_spec(num_changes=20))
        returned = [session.step() for _ in range(6)]
        v1 = checkpoint_to_dict(session.checkpoint())
        v1["format"] = FORMAT_V1
        v1["snapshot"].pop("scheduler_state", None)
        v1["snapshot"]["metrics"] = [
            dict(
                metric.as_dict(),
                adjusted_nodes=sorted(metric.adjusted_nodes),
                async_causal_depth=metric.async_causal_depth,
            )
            for metric in returned
        ]
        checkpoint = checkpoint_from_dict(v1)
        assert checkpoint.snapshot.scheduler_state is None
        assert checkpoint.snapshot.metrics == session.network.metrics.totals
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
        session = Session(_engine_spec(num_changes=10))
        for _ in range(4):
            session.step()
        target = tmp_path / "checkpoint.json"
        save_checkpoint(target, session.checkpoint())
        loaded = load_checkpoint(target)
        assert loaded.position == 4
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
