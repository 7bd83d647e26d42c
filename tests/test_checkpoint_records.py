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

The wall-clock ``elapsed_s`` is dropped from a record before hashing.

The same digests pin the legacy *delta* checkpoint files under
``tests/data/legacy_delta_checkpoints/``: each was written by a session that
recorded a delta journal from a resumed base, and each must decode to the
full checkpoint that run had at the same position.  Three full protocol
checkpoints under ``tests/data/full_protocol_checkpoints/``, written when
records still stored each node's knowledge, must resume to the
uninterrupted run.  The record-format checks (v1 decode, unknown formats,
the recursive key codecs, the atomic ``save_checkpoint``) close the file.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pathlib

import pytest

from repro.core.dynamic_mis import DynamicMIS
from repro.core.fast_engine import FastEngine
from repro.distributed.network_api import create_network
from repro.graph import generators
from repro.graph.dynamic_graph import DynamicGraph
from repro.scenario.checkpoint_io import (
    FORMAT_V1,
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
    "cycle/direct-dict/mixed_churn": "3eecfb89e83d488baa7327736f95722d6d3aa89e35789ffd1de49b6fefee619c",
    "cycle/direct-dict/node_churn": "9faf29d53feadebd456f3e4441e1f5972929314d1648697531fa4817b4030522",
    "cycle/direct-fast/mixed_churn": "c7c25a8306c3b5777dc06089d48146d2e53c321c1253cce555f94da77e11a55b",
    "cycle/direct-fast/node_churn": "a733118d91001c0ea1ee676bd450136b411ad40ee9e55a5d5f4074026aab6a0c",
    "cycle/fast-batch4/mixed_churn": "b575f69f9f9c2cec6681ffc44784309d0e92f387d89ebc166db62da5b22e2b5e",
    "cycle/fast-batch4/node_churn": "ba906f8ef286a7470aba102e9f172cced5fc2b086c277af851654f4faec1c512",
    "cycle/fast/mixed_churn": "4cb4ad35915302b3059f55c1ec07647678ccf4987df0ef4a250587e70c984f55",
    "cycle/fast/node_churn": "c90b4b1345ed45a2a23e1dae73f7ca84805895ed93e4216924099b63532bd73d",
    "cycle/template/mixed_churn": "995b65b6a262c19adb8a60fe6d0b3c67d2c61fa7c73cb6f17617b35a4019d0ae",
    "cycle/template/node_churn": "8c29c5bf0567eccafedf45305a90e6c844e1183f9a9491c840d2e9e62ef415a1",
    "erdos_renyi/direct-dict/mixed_churn": "d97b66294c30672744bfdf894ac582939d29f7ed83da7b3026279a0a30e3cd06",
    "erdos_renyi/direct-dict/node_churn": "142ab0a4837213416901ff429c15b13174c65cdcc2aadb8b1a3e3003c662c8b6",
    "erdos_renyi/direct-fast/mixed_churn": "e7f5dbef0c4a2bdbba52240e3ceed3394e4f8ca7be66183ce2c2ccb11a429e04",
    "erdos_renyi/direct-fast/node_churn": "fa6a69cc91b9ac889e828e450db2e53fa6cf985bc83c912e6818037341d389f3",
    "erdos_renyi/fast-batch4/mixed_churn": "bcb79ff497e541d9779696c84f0a0c62adb30db709681ce50139b3529ce00fdd",
    "erdos_renyi/fast-batch4/node_churn": "a9f1fcc9f9671160c2654d5ddcadaf2b719bad20dd2d4a3e5350bf3af2859497",
    "erdos_renyi/fast/mixed_churn": "cbac5ac0dc5576da2e36303f84f83bb87e83030316e99011c4e058f76a9d70b8",
    "erdos_renyi/fast/node_churn": "9a1fe2d7ac9097ccc8c7f1441306266d42fa7ab2a521d54f37eeb0485bc33826",
    "erdos_renyi/template/mixed_churn": "d4d30f35d00163e592764857a7afd7670bfe19f63ab53bea3405d5c7ede9db7d",
    "erdos_renyi/template/node_churn": "e790608134e7c1ee4f9fec8912a643767986b98b22be789a4991a483f573742c",
    "geometric/direct-dict/mixed_churn": "1260a3f00921ea7a067330b5b8cefd143f3c9863bc65d9b2b058bd618a003b25",
    "geometric/direct-dict/node_churn": "5e2be9815e1de6d2c2216379de0bebf08a7a0c06ab00c281a027e4dbceed5431",
    "geometric/direct-fast/mixed_churn": "835ad265420bb9371f07156490955ff432abd541750434cbe5fe462956e686ea",
    "geometric/direct-fast/node_churn": "4d57a45c63465559b4496764ad552252f2326c1788433d6e8a2953d64f958263",
    "geometric/fast-batch4/mixed_churn": "b2317781d54e608f039c58581f9a0b31935a3d69f8e4fd8e8b5776eb0b741b8e",
    "geometric/fast-batch4/node_churn": "bbddb419cc4b0d35a6c956ea11377c3c2b6774a642a9708247bec69fe4880443",
    "geometric/fast/mixed_churn": "e9ea2da1788c99868455fc8952c6eca0750f4fb272042ddce1eecee4f406272b",
    "geometric/fast/node_churn": "ef941d09fe2ae866a51ef446711a9e400988123e074acef22f969e266bb5dbf6",
    "geometric/template/mixed_churn": "dfd1d4abcd67b15bf89681d94a2ef8e14bdf785c4c1687ba8098a76c85b37a0a",
    "geometric/template/node_churn": "74844d964498f887005cca3dd973cf7fa87db8ed8927d6f7240651d6454a163f",
    "near_regular/direct-dict/mixed_churn": "92fcb57f32cad0cc28db681ac82b34fe1066147929def33de18b68fbe4e3ed43",
    "near_regular/direct-dict/node_churn": "6c291440c519ded028981c610e7a15bca10db2722a7a8b6af3e83d48ef80a9a8",
    "near_regular/direct-fast/mixed_churn": "9712e937148b42cfd15e4c9f3a4bfd6caa9be4340ab272453e2762be5716597d",
    "near_regular/direct-fast/node_churn": "e65cb11ea0dce8a3359789eb673ca238737fc1272ed78e66af5e793a8aa7cf97",
    "near_regular/fast-batch4/mixed_churn": "a882e1e973575264c51521e3ee1bc13ec29aef1a7e36742f28ad6e0c68eef836",
    "near_regular/fast-batch4/node_churn": "bac1060bc531fcd3ba621707c387506aac46d7734d5ec3ceaa135abc8b3f6cfd",
    "near_regular/fast/mixed_churn": "1dd548bc25e6e80ca6653a0d001a34dc428c0912f836558de903ca85d94e3cff",
    "near_regular/fast/node_churn": "a35534c07cda9559dda83a8bd618c4cdd8a00989044f7754f28cd90ff4cf0aec",
    "near_regular/template/mixed_churn": "cc0a0f2482ab6456f136bc3baf21516bb738032e3bbdf31872b68baf0ca62589",
    "near_regular/template/node_churn": "4b2a535f484b72fb9f423007982246d3c4e8134f126f1e201b7f666e4584effd",
    "path/direct-dict/mixed_churn": "0b8d0da316f316a39b188e77841a5a0f61c8b152c59c056f09b6b0ddb4d98fff",
    "path/direct-dict/node_churn": "5b5d70a7d93888b6e8075413c053e9c16110fd1e264b830cfb56ba6d1324edcf",
    "path/direct-fast/mixed_churn": "9d06cf6da0562879442dcd5ae01d622a6f10c8220174c730e895c743601c7f0b",
    "path/direct-fast/node_churn": "97f09a0ccb33ef33620a572e45a2726c32f9b1af36b21b51fa66815836611f30",
    "path/fast-batch4/mixed_churn": "e5fbd178950ad9eb586607e8bbee70070fc647af57e3a3cf6a4af99fd0b5d048",
    "path/fast-batch4/node_churn": "7ed61c3d4814eb094393e49ddf1470f5e483c6d7d21f1f517c3153abc65be66f",
    "path/fast/mixed_churn": "7a97ba19de4170cb341a2f275682cea1718290dfc1a8fad696b48120be289fb6",
    "path/fast/node_churn": "e66fc979bf9a3decb5a523703d5b1ff8d19073728cf306cc6a3d649d23953ed7",
    "path/template/mixed_churn": "ddc43877be46ed22518bca1868549e07e80ec55a21b9d0b35003ec481680f1dc",
    "path/template/node_churn": "6d9761764a260b013eef55fcea50cd2897d10070fb69717064af8c248c1b0854",
    "preferential/direct-dict/mixed_churn": "e75c343a789e8dcacbebdb70b794ccd2232fff269592914e01a48937bcfa5c60",
    "preferential/direct-dict/node_churn": "3a972cb169395f5555271b3b496b7c997c41859ed836f2f364a9a9effd6dd391",
    "preferential/direct-fast/mixed_churn": "b9b83df642c561ce826955667db9481d0f4f16877b4c53ded795f730a4a2f498",
    "preferential/direct-fast/node_churn": "de7994e7e874ced569cec849ee21519049d6ad323a336dda1664fc08918506eb",
    "preferential/fast-batch4/mixed_churn": "535d4cdb1967f18dd18f6e12f0e2eaff6a197c54abe9fdd7a39b722505687200",
    "preferential/fast-batch4/node_churn": "b2afa7cb3dba5fb26cae689b1c36568ef536fa1bf32c27c481e5939762b64441",
    "preferential/fast/mixed_churn": "8bf8a5464a872b54f26904c17bc49e2d3ff00b085cf634b16c8f0c1e499d4f86",
    "preferential/fast/node_churn": "495cc3f46e1eadadeb466cb7e255cefe2641855cb3a3bc6f5e2e588a5fcf3109",
    "preferential/template/mixed_churn": "68e1ed123b88875a0ff905e2e7d846924946f94ada37f40ead2dec4810de90e5",
    "preferential/template/node_churn": "3a9fbe0b24ea3611aa7d716762b11c737aeaeb1ba2b64ebdfaab71d1f3012a2d",
    "sparse/direct-dict/mixed_churn": "be9fe9b75d2ee9aa7c17f1a5c558105cf1dd44721c64325ff5280b85dab22069",
    "sparse/direct-dict/node_churn": "4abef30e2a01959860c0ec457f01cad6d69423a229c5bbb0bf827c4dc98e5a2a",
    "sparse/direct-fast/mixed_churn": "8fc792095275328815a662ee2a56a353c21892927c2c8c0c596d47238b14edf0",
    "sparse/direct-fast/node_churn": "6a748f2ee2dfb36a2856bb5b19abcd5176e0daa8651e1e456e136fddef56f640",
    "sparse/fast-batch4/mixed_churn": "91df064b77b3092b52f254a587493c6c206d87b68dadf1ed9d55688c3a9ba40f",
    "sparse/fast-batch4/node_churn": "8311c776e4c40e8e769b48a2cf483208589490d2798790076747b1e8c79aefe2",
    "sparse/fast/mixed_churn": "6b61ac390f4eea866cbe21e46e20cc77682f34662816be60111381b7706bbcff",
    "sparse/fast/node_churn": "b69e357e89b43cb2b84b284a24b8d16bf7e9a64419bd4f69cf5c2e5758e7b97f",
    "sparse/template/mixed_churn": "eabdb378d765f39076fd8753bb3298e157835d44a7338bc208d72edd0bbf3065",
    "sparse/template/node_churn": "bdfdaf573552d91848437a8cdda906dd8d94d47f3481d92bca48ab53a29c7259",
    "star/direct-dict/mixed_churn": "5b7d2827e7b344222bca334504a7a485c3e88d89a4a065bc04c1ce9687445bae",
    "star/direct-dict/node_churn": "4f3d6228ceed216dcf7326becc5b8754e5270e07208d6a7a6671f745ef009afb",
    "star/direct-fast/mixed_churn": "246bcb723e3ddf8dce823e72e989d991e5dfb0249d33f54dc9ea28d1371fc728",
    "star/direct-fast/node_churn": "7e98f7fbfe69935a88bd966a2b9ecc17e6d9eeacb8b2e9d0449ffc762e11d407",
    "star/fast-batch4/mixed_churn": "4aa8efdc35952453c1c64a3fe3292e12d2993f74b8252f9e47914554943a728e",
    "star/fast-batch4/node_churn": "05271d2d3489b0238019d08aa789d15a3b2802c9f7b39da4d0ca18f77635ae8b",
    "star/fast/mixed_churn": "7d3ee16b66935845059dc012eb26661eab0a987e37c72daf6274b2ae3b1a1149",
    "star/fast/node_churn": "ed047e91854f2210a1e715a9865be6c011c7c84d7f1c3bfdbd70a3a42ec4f831",
    "star/template/mixed_churn": "54a8ee1c51e4058fde6c1087baeb7400349b9af164f9a07593ca21af864df0a2",
    "star/template/node_churn": "7e15e270b6050f6ed2fabf4e399241f32034aa5cdfc10a672dd772c2defbae50",
}

_LABELLED_DIGEST = "a078426e8e2e8b677f143e0b3932f7f75b3b587b17b434d8c0263f913835632a"


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
    "async-dict-random-adaptive.json": "e73aa762950fda52f2558afa992df7076054693a576c82fe45117ba61494fccf",
    "async-dict-random-mixed_churn.json": "3594f6b8f73d828a49c7bde1c1ccfd406f890cf5c5444b59a14fb1625966edc0",
    "direct-fast-adaptive.json": "f33e15fc436d7591a92394bf17f689e8aa790b8044523f8b415c332919928e58",
    "direct-fast-mixed_churn.json": "d9f29068c8cca6a4890ed04f57d53816eaf7cf60c8b0d7f03451a303cc9cba66",
    "fast-adaptive.json": "f859414ed38aa335df3603d6487034bdf78c9fdd900e55cf53ef312cf167db82",
    "fast-mixed_churn.json": "903e1a0c628502b5f0acfecaa49adada12b921dd39391a570e74c82897761b51",
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
        resumed.run()
        uninterrupted = Session(checkpoint.spec)
        uninterrupted.run()
        assert resumed.position == uninterrupted.position == 30
        assert resumed.states() == uninterrupted.states()
        assert resumed.network.metrics.records == uninterrupted.network.metrics.records
        assert resumed.metrics_summary() == uninterrupted.metrics_summary()


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


class TestCheckpointFormats:
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
