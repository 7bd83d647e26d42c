"""Unit tests for the workload sequence generators."""

from __future__ import annotations

import bisect
import hashlib
import itertools
import random

import pytest

from repro.graph import generators
from repro.graph.dynamic_graph import DynamicGraph, canonical_edge
from repro.workloads import sequences
from repro.workloads.changes import EdgeInsertion, NodeInsertion
from repro.workloads.sequences import (
    alternative_histories,
    build_sequence,
    detour_build_sequence,
    edge_churn_sequence,
    incremental_build_sequence,
    mixed_churn_sequence,
    node_churn_sequence,
    replay_on_graph,
    sliding_window_sequence,
    teardown_sequence,
)


class TestBuildSequences:
    def test_build_sequence_reconstructs_graph(self, small_random_graph):
        changes = build_sequence(small_random_graph)
        rebuilt = replay_on_graph(DynamicGraph(), changes)
        assert rebuilt == small_random_graph

    def test_build_sequence_shuffled_still_reconstructs(self, small_random_graph):
        changes = build_sequence(small_random_graph, seed=13)
        rebuilt = replay_on_graph(DynamicGraph(), changes)
        assert rebuilt == small_random_graph

    def test_incremental_build_reconstructs(self, small_random_graph):
        changes = incremental_build_sequence(small_random_graph, seed=5)
        rebuilt = replay_on_graph(DynamicGraph(), changes)
        assert rebuilt == small_random_graph
        assert all(isinstance(change, NodeInsertion) for change in changes)

    def test_detour_build_reconstructs_and_detours(self, small_random_graph):
        changes = detour_build_sequence(small_random_graph, num_detours=4, seed=3)
        rebuilt = replay_on_graph(DynamicGraph(), changes)
        assert rebuilt == small_random_graph
        plain = build_sequence(small_random_graph, seed=3)
        assert len(changes) == len(plain) + 8  # four inserted + four removed

    def test_teardown_sequence_empties_graph(self, small_random_graph):
        changes = teardown_sequence(small_random_graph, seed=2)
        emptied = replay_on_graph(small_random_graph, changes)
        assert emptied.num_nodes() == 0

    def test_alternative_histories_reach_same_graph(self, small_random_graph):
        histories = alternative_histories(small_random_graph, num_histories=5, seed=1)
        assert len(histories) == 5
        for history in histories:
            assert replay_on_graph(DynamicGraph(), history) == small_random_graph
        # The histories themselves genuinely differ.
        assert len({tuple(map(repr, history)) for history in histories}) > 1


class TestChurnSequences:
    def test_edge_churn_is_applicable(self, small_random_graph):
        changes = edge_churn_sequence(small_random_graph, 80, seed=4)
        assert len(changes) == 80
        replay_on_graph(small_random_graph, changes)  # raises if any change is invalid

    def test_edge_churn_preserves_node_set(self, small_random_graph):
        changes = edge_churn_sequence(small_random_graph, 50, seed=5)
        final = replay_on_graph(small_random_graph, changes)
        assert set(final.nodes()) == set(small_random_graph.nodes())

    def test_edge_churn_needs_two_nodes(self):
        with pytest.raises(ValueError):
            edge_churn_sequence(generators.empty_graph(1), 5)

    def test_edge_churn_insert_bias(self, small_random_graph):
        mostly_insert = edge_churn_sequence(
            small_random_graph, 60, seed=6, insert_probability=0.95
        )
        inserts = sum(1 for change in mostly_insert if isinstance(change, EdgeInsertion))
        assert inserts > 40

    def test_node_churn_is_applicable(self, small_random_graph):
        changes = node_churn_sequence(small_random_graph, 40, seed=7)
        assert len(changes) == 40
        replay_on_graph(small_random_graph, changes)

    def test_mixed_churn_is_applicable(self, medium_random_graph):
        changes = mixed_churn_sequence(medium_random_graph, 100, seed=8)
        assert len(changes) == 100
        replay_on_graph(medium_random_graph, changes)

    def test_churn_is_reproducible(self, small_random_graph):
        first = mixed_churn_sequence(small_random_graph, 30, seed=9)
        second = mixed_churn_sequence(small_random_graph, 30, seed=9)
        assert list(map(repr, first)) == list(map(repr, second))

    def test_churn_does_not_mutate_input_graph(self, small_random_graph):
        before = small_random_graph.copy()
        mixed_churn_sequence(small_random_graph, 30, seed=10)
        assert small_random_graph == before


class TestSlidingWindow:
    def test_sequence_is_applicable_and_respects_window(self):
        changes = sliding_window_sequence(num_nodes=15, window_size=10, num_changes=60, seed=3)
        graph = replay_on_graph(generators.empty_graph(15), changes)
        assert graph.num_edges() <= 10

    def test_requested_length(self):
        changes = sliding_window_sequence(num_nodes=10, window_size=5, num_changes=40, seed=4)
        assert len(changes) == 40


# ----------------------------------------------------------------------
# Pinned churn streams
# ----------------------------------------------------------------------
# Committed trajectory points, conformance seeds and spool files depend on
# the exact change streams of the churn generators, so any rewrite of their
# working-graph bookkeeping must reproduce them bit for bit.  The digests
# below are SHA-256 of ``repr(changes)``, recorded before the generators
# kept their sorted node and edge lists incrementally.

_CHURN_GENERATORS = {
    "edge": edge_churn_sequence,
    "node": node_churn_sequence,
    "mixed": mixed_churn_sequence,
}

#: Default params first, then non-default ones that push each generator
#: into its corner cases (no edge left, no missing edge, <= 2 nodes).
_CHURN_PARAMS = {
    "edge": ({}, {"insert_probability": 0.9}, {"insert_probability": 0.1}),
    "node": (
        {},
        {"insert_probability": 0.25, "attachment_probability": 0.6, "graceful_probability": 0.1},
        {"insert_probability": 0.75, "attachment_probability": 0.05, "graceful_probability": 0.9},
    ),
    "mixed": ({}, {"edge_change_probability": 0.3}, {"edge_change_probability": 1.0}),
}


def _labelled_graph() -> DynamicGraph:
    """Mixed label types, including labels the fresh-label loops must skip."""
    return DynamicGraph(
        nodes=["n1", "n2", "m1", "m3", 0, 1, 2, 10, (0, 1), "a"],
        edges=[("n1", 0), ("n1", "m1"), (0, 1), (1, 2), (2, 10), ((0, 1), "a"), ("m3", 10)],
    )


def _pinned_graphs():
    """``name -> (graph, workload seed, num_changes)`` for the pinned grid."""
    graphs = {}
    for family in generators.FAMILY_NAMES:
        for nodes, seed, num_changes in ((12, 0, 150), (48, 1, 100)):
            graph = generators.random_graph_family(family, nodes, seed=seed)
            graphs[f"{family}-{nodes}"] = (graph, seed + 3, num_changes)
    graphs["labelled"] = (_labelled_graph(), 5, 150)
    graphs["complete-5"] = (generators.complete_graph(5), 6, 150)
    graphs["empty-3"] = (generators.empty_graph(3), 7, 150)
    return graphs


def _stream_digest(changes) -> str:
    return hashlib.sha256(repr(changes).encode()).hexdigest()


def _pinned_cases():
    for name, (graph, seed, num_changes) in _pinned_graphs().items():
        for kind, generator in _CHURN_GENERATORS.items():
            for variant, params in enumerate(_CHURN_PARAMS[kind]):
                yield f"{kind}/{name}/{variant}", generator, graph, num_changes, seed, params


def _lifecycle_graph() -> DynamicGraph:
    """The ``lifecycle`` benchmark spec's starting graph."""
    return generators.erdos_renyi_graph(1500, 8 / 1499, seed=1426715050)


_PINNED_DIGESTS = {
    "edge/erdos_renyi-12/0": "4c6536b8384967f74a7603df409d3c625eef5524ddc54d0141125c51cf147d80",
    "edge/erdos_renyi-12/1": "037a662f6866f0e9a1295710ef1325fe9423a5a9df26dc62cb24265c16a8ed83",
    "edge/erdos_renyi-12/2": "3725632e71a1a43a219662950928cb54a153a8e4896df406d441566adfec523b",
    "node/erdos_renyi-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/erdos_renyi-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/erdos_renyi-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/erdos_renyi-12/0": "fe75171b7b836d213582dde224199e93d64a50152db06310dd9d4665534c6a8d",
    "mixed/erdos_renyi-12/1": "fb7a11f7beaddb13646db02a9c4e5118f64cf813c1c63fee03693df6710dfd29",
    "mixed/erdos_renyi-12/2": "1577f6270e526bad7789cb13c8748513f8927f4fc9979001194926d58250ab24",
    "edge/erdos_renyi-48/0": "8db2f5ce8d49a0bbb8fc1960d8acebb0e67d9cab771823ac8449e7a8a49eb656",
    "edge/erdos_renyi-48/1": "6277d07db33cb7229f575a92f169a223af9ee34eae960d5fac057a349b4d85d3",
    "edge/erdos_renyi-48/2": "b66906532e3007833842629e060395123977b1f37a5fc53dff40c4deb1eabb19",
    "node/erdos_renyi-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/erdos_renyi-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/erdos_renyi-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/erdos_renyi-48/0": "337fef313b35bd4bad38c976385ab56d4c8288f75bd41400dde7c986f6b77fcc",
    "mixed/erdos_renyi-48/1": "89ddaf4c0573796a53c0ae992848d611e45ece4fc344331984c69ab6ada77739",
    "mixed/erdos_renyi-48/2": "ae0f31cdaa5925d3cf9e624bad0987e34cbd5cc10a24e9327eab4cd442dd2a56",
    "edge/sparse-12/0": "498cd027415f814f0ef09f7015529ea42690dc48198d8ba6355a691a9eae846f",
    "edge/sparse-12/1": "0f5af6066810098f05eb4c1a217d0daaa92db14f1ff0a59df444797fe1090af6",
    "edge/sparse-12/2": "7cbb4831e49afbc872db83cd4c6cbb0668cd474ddd3ae9ebb51facc5d14ee4e0",
    "node/sparse-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/sparse-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/sparse-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/sparse-12/0": "9db08671af20e5c0bf376f3375fb56f5778d87d5101c7965d4a3b8ec4280cc10",
    "mixed/sparse-12/1": "6f1d3d50391a78cc483d21da0d2bbf6f81d1da33f3049c808ce6d7cc65766542",
    "mixed/sparse-12/2": "e9e65bed7a301be74cfc62c3bed4ab2ae3b044387785844afef18b06f3640d16",
    "edge/sparse-48/0": "f7a08711277ad7f9f3f8fa7b5e8e78de7caeccbde4c9f187636b429a9c61e34d",
    "edge/sparse-48/1": "bde92a854d941c4e3175278f76fb1c15c8a22c84cd2079ee189b62311f7ee0c0",
    "edge/sparse-48/2": "f808e0b62a29753bcbfe0fcd2d1041575a5936050df982e102a5681b5e4850d6",
    "node/sparse-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/sparse-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/sparse-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/sparse-48/0": "e1370bac625e870d6581cac187ac5f458e4fc6f5bfe73b4c0fd38c04939c54ce",
    "mixed/sparse-48/1": "4d70da094b95bc9a8c952fe7a2370f35788a838bc7b23695d9e7baa4be953d4a",
    "mixed/sparse-48/2": "06addb1596b53364d8930ca720b82c8f18bd4becd26bdd49220a2c4f4c0534d2",
    "edge/preferential-12/0": "411957d9bd74654c9725d028fe1dd72c0d3e4a4b94c2ac9a0ba68cfd42fff2ad",
    "edge/preferential-12/1": "69f96d179a643788ca9d0f985732a3422949c17db2c56395d0ff7f398057f584",
    "edge/preferential-12/2": "75c5437af581c11518f2a53680107e468eba1af31888c436109a2fb1540aa81f",
    "node/preferential-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/preferential-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/preferential-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/preferential-12/0": "3c782a373ddc376a1a4d9e69199cdc4f972c8b2422752a89d5e8873bd198b115",
    "mixed/preferential-12/1": "2a034da029b3d65f4c4bfc1b321f45168ead207f44e26a1a32159a83da8d7712",
    "mixed/preferential-12/2": "f2d37d2409fc706812b5a81aae51f8b01a6456953f8af9b19a5617c3cfb08f8c",
    "edge/preferential-48/0": "d832786b5816df64a212d75861b05a467b4549cd26c1783f0fb8f00a922b3b18",
    "edge/preferential-48/1": "c1c7bac80d49b72cfc5972e759ff2798d1f74c52451ea4db99c1bc903b51fa37",
    "edge/preferential-48/2": "f8b3ba339a21a956d2337868fd1a92e25334b53d60c7924a270b2d055f0a297c",
    "node/preferential-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/preferential-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/preferential-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/preferential-48/0": "2140b1ef659f23b1b0a7c9d4ecc04b8518df8d427ce6fe5cb9dff24c4ef601cf",
    "mixed/preferential-48/1": "d0fb13882c9d1deb8cb03c893593116843f55b8d7bbc83c296b930d486515110",
    "mixed/preferential-48/2": "4fec438052bee4ff1799f5f3fcfc3b935de3cc80e947c0d38fb7f183eb3211a8",
    "edge/geometric-12/0": "cdd420e786a11023115c05a409ae051419ecae4a38bcbe1290da3d2a1d26d9a3",
    "edge/geometric-12/1": "edfb7c076ad39f1af079ddcd5995eaa360f27f623dd7f6037f5ce1cbc46ace39",
    "edge/geometric-12/2": "d96266357bc8431eacdea313619073663e2f3712e598f615abd87d960d46413e",
    "node/geometric-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/geometric-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/geometric-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/geometric-12/0": "105940f009bbd876131369a41558ad75028bc4c05354dc0899a173b2aaa3e59a",
    "mixed/geometric-12/1": "72820b209ab46d0e3467d51ee275070e0c24fedb08b00fe763175e0643b244e0",
    "mixed/geometric-12/2": "80fe0511e817a86840d2b52a19757cecd254f7d974ed52ad6b621766efaff317",
    "edge/geometric-48/0": "d366fbe7bc051b7d92650ade1921a27064148b554722300a2a211e172c5d0b56",
    "edge/geometric-48/1": "ad46afbe2ef4d3e6ef0c5fcb01a33f020af09ad460ab345105408817938c7060",
    "edge/geometric-48/2": "d06316aaf0a46d3a298f03076f17906d29f629781c3630fcde4aa3ec08d1e8f2",
    "node/geometric-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/geometric-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/geometric-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/geometric-48/0": "8535dcb29f74e0b2457c2a5ab1edb4b54b3d4be2e0cef043c68d19e060b00e49",
    "mixed/geometric-48/1": "a2715d8d30156e981b97f4e8e42391e5cd615167ff5fa6557d9b6a2a74e40664",
    "mixed/geometric-48/2": "f30e7661440a21d41821c8d42637ed9802842b50057845d0ba49a149ce2a7619",
    "edge/near_regular-12/0": "b192da4aa187db09f9c479a19b12d4e16280483dc4fcb6738f629f6fd34200ae",
    "edge/near_regular-12/1": "dab036af3e7b5ba678f645110c366ff716401217597530b9e0ef1fb20ed750a1",
    "edge/near_regular-12/2": "7fe3eb7cb347744068386c252a29e53269aeb9becbaa5b25d4fbae03d38b0747",
    "node/near_regular-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/near_regular-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/near_regular-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/near_regular-12/0": "22188936bbc464225af34ebf6f5fa017ab01ac86d44654e0c7c852939209647e",
    "mixed/near_regular-12/1": "ea7eac122d6ae5f9c68207b993148626f497ab8848e0de867f68f95aac7dd642",
    "mixed/near_regular-12/2": "789ca7cb5db328a73b2867c2230fe5081394b47fa6163617a309b17936cf55d5",
    "edge/near_regular-48/0": "915dac2c97ade270a4382930c138c62f2c866ca4f0a3459f3d6d3252d3ed65f8",
    "edge/near_regular-48/1": "6f167a777507e0118d0f8dad0ce58400f7e3829ed348b90ed0d14d21ad6cde3c",
    "edge/near_regular-48/2": "3974c324250492a4e60f4181340fee652236d8a60c3ec1d6771aa102bbfba5c0",
    "node/near_regular-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/near_regular-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/near_regular-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/near_regular-48/0": "3143c3ef881ab5a00f8606d9bc8b74ba6d8ee8f3e138e1e88523645a67e099b9",
    "mixed/near_regular-48/1": "6c1c5a807d84ee0805fafc5fc3d365dea8179e5fb7dff4c5b5b2130eb01577f6",
    "mixed/near_regular-48/2": "e93e023dfa7f475508c42afd90fbaea4885fe971d78341ac292aeec307dd43a1",
    "edge/star-12/0": "90cfe21faa662e867278072e46c07c98307c1cde25ab41c2d40c8914b304e7b8",
    "edge/star-12/1": "84b5539a5fef8bbc2e32712db49308d7b9d0085e7d70a6f4a7fe193e9cbfaefc",
    "edge/star-12/2": "995547449d940d9e274a0d91faa5ef8e6a880420f30d76b8ad9edd0f4985927c",
    "node/star-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/star-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/star-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/star-12/0": "82db040e378a031b6a2f3c4dd59dae95ac0380163cbc06345c64245da331136d",
    "mixed/star-12/1": "76e9862284fa4f78fd045c4057aa5db5385cf50be5aa11c1376e83d1ea906a13",
    "mixed/star-12/2": "07e53f01ac1ebfd528a415364b18dcb431269652517c2f9faf631f00ea6b3190",
    "edge/star-48/0": "832e114fea467307c33908010dc1c4da56c72bd1fdcb368ed71b1b19a0c6beb5",
    "edge/star-48/1": "61f843a34c2b5cc8478d1923c0f0446d89f9ffbef87fafb75114a02fe5905f95",
    "edge/star-48/2": "70d3c8ee449913b0c311735c1cb2c94d8c82700dfb55ebb0eb557d3a174512e3",
    "node/star-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/star-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/star-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/star-48/0": "fe238d12fdc1d7467c5b505e9ab9ee7be85ed97f735cadc7df7ffa2a295d0768",
    "mixed/star-48/1": "c163108483577bdf965f447d5b94d041d06accfab7b37ccaa92dccf991102ae6",
    "mixed/star-48/2": "51e9c6660a41b65cf59e325f01dd44299de15b1300635d088cb933ec486d5833",
    "edge/path-12/0": "0e995e5f1ae0bc108006f39250c39ad6c97e3264f15626cc32294c9899935344",
    "edge/path-12/1": "eff43bae659a4c612788e47df5badd2aff30ef9073f1075079f3ae10f0bbfa40",
    "edge/path-12/2": "31ddc54ba1e5a6f0cb0206518122da4bf66b5021a825439f3d89915b2eac9fd6",
    "node/path-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/path-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/path-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/path-12/0": "77c629d59ac9f26bb8c11dddf56422525a2b688ddd288730e6bb535a25c9c23a",
    "mixed/path-12/1": "85019b7c9b3d28e97164339d09a9e1e0bc194756936cf486faf0b42a18a3bb48",
    "mixed/path-12/2": "cd0f52334fbb99c9ffe89b87c4f371699ff79bfeafca525069b714a8b725966c",
    "edge/path-48/0": "b737233f274a1150137e01e937db7b0bb229ca80cf62ca2e8c0200cc95f7db90",
    "edge/path-48/1": "5c62c5042fe3aa02992ab26439a86d2880799c16ce71bed7e5c3b5a932c8e9da",
    "edge/path-48/2": "d785f686d47c4c3ff749ef8365fef5591dedfe56a67861f743d330bafcd3a82e",
    "node/path-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/path-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/path-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/path-48/0": "2caf3ae80de0bc828c2b734446ba36c4614f45b1b99d112a01ecc07df8a8ee3f",
    "mixed/path-48/1": "5ac2fa3dba15e1243b5c441fc54f03fb69e4ced29596806b798a7763499e9e1e",
    "mixed/path-48/2": "dc0a1b3a3cc6da26226f12ba384b95543cfe32907d464a2d7a4902bd5190fbee",
    "edge/cycle-12/0": "f51220968ba4943ce58baa084a39abc27bfd39155ac77102aa2d79d27d378e0d",
    "edge/cycle-12/1": "14dbeda0917f3fd5774135390e195a1234c22346394e50f3bfb77ba8938f259b",
    "edge/cycle-12/2": "d501b5d49558ae4978eb03af3ee56e7f14fd229323b19f3318eadb289a86605e",
    "node/cycle-12/0": "9ab38fc6675dfb37648b7648507a5bd358013ca6cadd61e1edb62056b7f575dc",
    "node/cycle-12/1": "eccce759d1c0152bed6a558ef835216401bfa597e042c46315cb09ff7afaab78",
    "node/cycle-12/2": "ee58df095e9fa0ac0b7bdcbea77d1372dc7113cdd1d6d5674c43a9bae9a08b5a",
    "mixed/cycle-12/0": "fee3b32fc56c3dd64db1784537a58dda378a8e6bf8085c0b9577b1e6d780d36a",
    "mixed/cycle-12/1": "7bb434f3c73d330476832af8dff261d8225ab8f263cf45a5408c8cdbf94f7ef5",
    "mixed/cycle-12/2": "e8952e2ef2ed9b707b2fd7356eacfd15da27202922e0e6a62bc63fb4e915d961",
    "edge/cycle-48/0": "28da3dbe8cb4d1c6d6da5afdbe5849e39b670ba3bd4a939970392653ed6b7a5e",
    "edge/cycle-48/1": "98fe6a6b3378ddc09e2e07838e1e929f7f9f353f1d137725b3d23da3b872d574",
    "edge/cycle-48/2": "b50784474e8975432df576f5f2de9095d1b94cbc7e06a283b9dc3da6fe8e248e",
    "node/cycle-48/0": "434b81d14100148b139a4c231da25c7c6839ce85c26d0ec87d0d325859689f41",
    "node/cycle-48/1": "bc0b5c6a78983b5f964a93fe9785003d8f1d54c88ce51b9c088be9a3c2eb209d",
    "node/cycle-48/2": "37b44bfc2848d705a0a583ab34dcea8aebc94110e537f1e2c041476f54ec59cb",
    "mixed/cycle-48/0": "32fd1ea888eb5b47b222789728b692dcb6cfb410c94a022af17debc8ac8d1d8d",
    "mixed/cycle-48/1": "5ac2fa3dba15e1243b5c441fc54f03fb69e4ced29596806b798a7763499e9e1e",
    "mixed/cycle-48/2": "2ad3cfadd7da11cee5cab08456711a629a1625e2a6d861469eb5fb8a5135e754",
    "edge/labelled/0": "55422bd90739a2a4bad2ef77e99557f8ca78130695d206430dc3b80ff406500a",
    "edge/labelled/1": "d3555808b44cf7086ca575c4e76631dbb7d293eeedaadeb849c8febe1fd70c94",
    "edge/labelled/2": "f42e18d085bba921e9a4ff861a4db2cf1fe4ad53f0d14d06cc13f712d3d524f4",
    "node/labelled/0": "a775e3b2df73f2c3f90ee91cd5516b7f8363f882c59d11a1b68f483152f20653",
    "node/labelled/1": "4d60a00ed7dd9bd330d08268046cf72a086e5cf4ef9afbac9f2767d9795ec908",
    "node/labelled/2": "8660a7e4b0b85997c1d5c5d69387cd8045ec7d3162f68d2e6aab8ac6bcf5d272",
    "mixed/labelled/0": "b6e2598872a33ced4e625656bca06a29571602f3fbee51a5513f43620f80d462",
    "mixed/labelled/1": "933a627b4bdb00a6c66a668165d60103508ae9e5c5311d991b962c9793c14bbe",
    "mixed/labelled/2": "1764c30def28771d2a8d9fddb8a21b70e0fc77982c60e754f5ca4945b27df875",
    "edge/complete-5/0": "db391e4dc83fada0446658e8f8a7e69df1ee3683716be1a9627f150ce84e6950",
    "edge/complete-5/1": "8f72bf52ac826dd549fdd7e4656f12760e83fbb22378113f29fcfd68c514a3b5",
    "edge/complete-5/2": "6a338aea71af98d2760179feaa32230dff87aa9937760412103eae1e4e4133bd",
    "node/complete-5/0": "f0b9bc1a9c2265aaed10fe052304723fd9b39ea69435ff71a10b9782731f5a1a",
    "node/complete-5/1": "9b84eaca166a0f2ced3a3b250002df73a4a5e1cef19aa5818a8331cc38d6f8c8",
    "node/complete-5/2": "e411d25e1ac91c7501e9a2b897e62b3c62055020876fd6b30ccc5aebe9b941e9",
    "mixed/complete-5/0": "83780e9435da8b9f4e1a471ea6b2080d4a52034541bb3241caef0002d923f1ba",
    "mixed/complete-5/1": "490f5a023a55f42116b1718fb7541a10a493ef12d96549e5976266df3edb3a6f",
    "mixed/complete-5/2": "b10a6a805713315ea4a4f1e4b0e11a1044acaaf7e60394e299469167f42aca03",
    "edge/empty-3/0": "098e08ad5f3aa0b5b17c0177e87ab5beb8184d80fb3f4e4c1a79ae195a27b2f0",
    "edge/empty-3/1": "78fb61dee0cce3caa2093cb59d9c4786c50aa2bcdee172f237c4490aa8701e72",
    "edge/empty-3/2": "ac3aa512af9ff0041f86e3932a00f6fd859760d9a314c9fff791c5b3c8a57155",
    "node/empty-3/0": "3cc7077d6e6fae47e7823bd1102008be1fea7e61783e5fae8c592fd4c40d95f6",
    "node/empty-3/1": "037a13c583804594b2f1f855f2f4a6e3693533b4b8720b0ead16e0f234306ca3",
    "node/empty-3/2": "79717a08f1c9cea2a1cdad9dddab726a082ce9269c4ee7d6c3dd67cd630f6dac",
    "mixed/empty-3/0": "5a10d0968203894a9ec94ed723048cf312961c857acdc9d448a253cac1e40b78",
    "mixed/empty-3/1": "03b07ab94cfcab0b0af600c5e7a0415f0f981d3760d39c145dbeff4b52e16dfb",
    "mixed/empty-3/2": "f163c53b318331b4163c8e99c338163bb2a7118b2c8b9ce7c06fde28b9c72d1c",
}

#: ``(num_nodes, window_size, num_changes, seed)`` -> digest: a window that
#: fills, one that never fills and runs out of attempts, and a large window.
#: Recorded while the generator's FIFO was still a list popped at index 0.
_SLIDING_WINDOW_DIGESTS = {
    (30, 10, 300, 8): "e090940d3228b164a27f85cca342cf63e8f122e0864e1336e30e15d503637ed4",
    (6, 40, 200, 9): "be9a975db5a74b5db95ccea4ad60ac241277a1fba4db0cc62efe9f31bbd02d08",
    (2000, 5000, 12000, 10): "11d4aa80da186b8e85bc374751033e62ced865311e11cf61af7a0a553487b9ef",
}

_LIFECYCLE_DIGESTS = {
    "edge": "497c9ae961d40188b485cc05481e6062dd26fa00446ab0efd45f069543aeab1e",
    "mixed": "de96385b8c26521c3ca1e9a40964d33752d792977566e35d41f0fdd1963862cf",
    "node": "d634a6fc56065d2a57ca6d21db0307bca3059743c4d114f5d9efdb6e9c34ee87",
}


class TestPinnedChurnStreams:
    def test_grid_streams_match_the_recorded_digests(self):
        digests = {
            key: _stream_digest(generator(graph, num_changes, seed=seed, **params))
            for key, generator, graph, num_changes, seed, params in _pinned_cases()
        }
        assert digests == _PINNED_DIGESTS

    @pytest.mark.parametrize("kind", sorted(_CHURN_GENERATORS))
    def test_lifecycle_streams_match_the_recorded_digests(self, kind):
        changes = _CHURN_GENERATORS[kind](_lifecycle_graph(), 384, seed=1334079250)
        assert _stream_digest(changes) == _LIFECYCLE_DIGESTS[kind]

    @pytest.mark.parametrize("kind", ["edge", "mixed"])
    def test_generators_list_the_edges_at_most_once(self, kind, monkeypatch):
        calls = []
        edges = DynamicGraph.edges

        def counting_edges(graph):
            calls.append(graph)
            return edges(graph)

        monkeypatch.setattr(DynamicGraph, "edges", counting_edges)
        graph = generators.erdos_renyi_graph(60, 0.1, seed=2)
        changes = _CHURN_GENERATORS[kind](graph, 200, seed=4)
        assert len(changes) == 200
        assert len(calls) <= 1

    @pytest.mark.parametrize("params", sorted(_SLIDING_WINDOW_DIGESTS))
    def test_sliding_window_streams_match_the_recorded_digests(self, params):
        num_nodes, window_size, num_changes, seed = params
        changes = sliding_window_sequence(num_nodes, window_size, num_changes, seed=seed)
        assert _stream_digest(changes) == _SLIDING_WINDOW_DIGESTS[params]


# ----------------------------------------------------------------------
# The churn generators' edge index
# ----------------------------------------------------------------------
class _Twin:
    """Distinct objects that compare unequal but share one ``repr``."""

    def __repr__(self) -> str:
        return "twin"


def _index_contents(index) -> list:
    return [index[k] for k in range(len(index))]


def _check_blocks(index) -> None:
    assert all(0 < len(block) <= 2 * sequences._BLOCK for block in index._blocks)
    assert index._keys == [[repr(item) for item in block] for block in index._blocks]
    assert index._maxes == [keys[-1] for keys in index._keys]


class TestReprIndex:
    """``_ReprIndex`` against a list kept with ``insort(key=repr)`` and ``_remove_sorted``."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_a_repr_sorted_list(self, seed, monkeypatch):
        # Blocks of at most 8 entries, so the run splits and empties blocks.
        monkeypatch.setattr(sequences, "_BLOCK", 4)
        rng = random.Random(seed)
        nodes = list(_labelled_graph().nodes()) + [_Twin(), _Twin()]
        pool = [canonical_edge(u, v) for u, v in itertools.combinations(nodes, 2)]
        present = rng.sample(pool, rng.randrange(len(pool) // 2))
        reference = sorted(present, key=repr)
        index = sequences._ReprIndex(list(reference))
        for step in range(1500):
            # Phases of mostly inserts and mostly removes fill and drain it.
            fill = (step // 150) % 2 == 0
            missing = [edge for edge in pool if edge not in present]
            if missing and (not present or rng.random() < (0.8 if fill else 0.2)):
                edge = rng.choice(missing)
                present.append(edge)
                bisect.insort(reference, edge, key=repr)
                index.insert(edge)
            elif present:
                edge = present.pop(rng.randrange(len(present)))
                sequences._remove_sorted(reference, edge)
                index.remove(edge)
            assert len(index) == len(reference)
            assert _index_contents(index) == reference
            _check_blocks(index)
            if reference:
                draw = rng.getrandbits(32)
                chosen = random.Random(draw).choice(index)
                assert chosen is random.Random(draw).choice(reference)
        # The repr of a pool edge, but equal to no item: both scan on and raise.
        stranger = (_Twin(), _Twin())
        with pytest.raises(ValueError):
            sequences._remove_sorted(reference, stranger)
        with pytest.raises(ValueError):
            index.remove(stranger)
