"""Positive/negative fixture tests for the ``repro-mis lint`` checker suite.

Each checker gets at least one fixture tree that must produce a finding and
one that must stay clean, exercising exactly the contract the checker's
docstring states.  The fixtures are tiny synthetic projects written under
``tmp_path`` with the real layout (``src/repro/...``, ``benchmarks/``,
``examples/``) so path-scoped rules fire the same way they do on the repo.

The repo's own tree is covered too: ``test_repo_tree_is_clean`` runs the full
suite over the real checkout and requires zero non-baselined findings, which
is the invariant CI enforces.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

import pytest

from repro.analysis.lint import (
    Finding,
    available_checkers,
    parse_suppressions,
    run_lint,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_project(root: Path, files: dict) -> Path:
    for rel, content in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(content))
    return root


def findings_for(root: Path, checker: str):
    return run_lint(root, select=[checker]).findings


class TestDeterminism:
    def test_unseeded_and_global_random_are_flagged(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/rand.py": """
                import random

                def draw(items):
                    rng = random.Random()
                    random.shuffle(items)
                    return rng
                """
            },
        )
        messages = [f.message for f in findings_for(tmp_path, "determinism")]
        assert any("random.Random() without a seed" in m for m in messages)
        assert any("random.shuffle" in m for m in messages)

    def test_seeded_rng_is_clean(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/rand.py": """
                import random

                def draw(seed):
                    return random.Random(seed).random()
                """
            },
        )
        assert findings_for(tmp_path, "determinism") == []

    def test_wall_clock_in_core_is_flagged_but_not_in_benchmarks(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/clock.py": """
                import time

                def stamp():
                    return time.time()
                """,
                "benchmarks/bench_timing.py": """
                import time

                def measure():
                    return time.perf_counter()
                """,
            },
        )
        found = findings_for(tmp_path, "determinism")
        assert len(found) == 1
        assert found[0].path == "src/repro/core/clock.py"
        assert "[wall-clock]" in found[0].message

    def test_set_iteration_flagged_and_sorted_or_reduced_clean(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/iters.py": """
                def bad(mapping):
                    out = []
                    for value in mapping.values():
                        out.append(value)
                    return out

                def sorted_is_fine(mapping):
                    return [v for v in sorted(mapping.values())]

                def reducer_is_fine(mapping):
                    return sum(v for v in mapping.values())
                """
            },
        )
        found = findings_for(tmp_path, "determinism")
        assert len(found) == 1
        assert found[0].symbol == "bad"
        assert "[set-iteration]" in found[0].message

    def test_bare_set_expression_iteration_is_flagged(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/distributed/sets.py": """
                def bad(a, b):
                    for node in set(a) | set(b):
                        yield node
                """
            },
        )
        found = findings_for(tmp_path, "determinism")
        assert len(found) == 1
        assert "bare set expression" in found[0].message

    def test_float_eq_on_priorities_without_key_escape_is_flagged(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/ties.py": """
                def bad(prio, u, v):
                    if prio[u] == prio[v]:
                        return u
                    return v
                """
            },
        )
        found = findings_for(tmp_path, "determinism")
        assert len(found) == 1
        assert "[float-eq]" in found[0].message

    def test_float_eq_escaping_to_full_keys_is_sanctioned(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/ties.py": """
                def good(prio, keys, u, v):
                    if prio[u] < prio[v] or (prio[u] == prio[v] and keys[u] < keys[v]):
                        return u
                    return v

                def invariant(self, nid):
                    assert self._prio[nid] == self._keys[nid][0]
                """
            },
        )
        assert findings_for(tmp_path, "determinism") == []

    def test_float_eq_stored_in_a_variable_is_flagged_whatever_its_name(self, tmp_path):
        # A stored float compare never consults the key, so no target name
        # (``ties``, or ``priorities``, which merely contains "tie") sanctions it.
        make_project(
            tmp_path,
            {
                "src/repro/core/ties.py": """
                def mask(prio_np, a, b):
                    ties = prio_np[a] == prio_np[b]
                    return ties

                def branch(prio, u, v):
                    priorities = prio[u] == prio[v]
                    if priorities:
                        return u
                    return v
                """
            },
        )
        found = findings_for(tmp_path, "determinism")
        assert sorted(finding.symbol for finding in found) == ["branch", "mask"]
        assert all("[float-eq]" in finding.message for finding in found)


class TestCheckpointParity:
    def test_restore_dropping_a_networksnapshot_field_is_flagged(self, tmp_path):
        # A near-copy of the simulators' NetworkSnapshot restore shape with
        # one field deliberately dropped from restore(): the acceptance
        # scenario for this checker.
        make_project(
            tmp_path,
            {
                "src/repro/distributed/mini.py": """
                class MiniNetwork:
                    def __init__(self):
                        self._states = {}
                        self._knowledge = {}
                        self._metrics = []

                    def snapshot(self):
                        return {
                            "states": dict(self._states),
                            "knowledge": dict(self._knowledge),
                            "metrics": list(self._metrics),
                        }

                    def restore(self, snapshot):
                        self._states = dict(snapshot["states"])
                        self._knowledge = dict(snapshot["knowledge"])
                        # _metrics deliberately dropped
                """
            },
        )
        found = findings_for(tmp_path, "checkpoint-parity")
        assert len(found) == 1
        assert found[0].symbol == "MiniNetwork._metrics"
        assert "never written by restore()" in found[0].message
        assert "never read by snapshot()" not in found[0].message

    def test_full_coverage_is_clean(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/distributed/mini.py": """
                class MiniNetwork:
                    def __init__(self):
                        self._states = {}

                    def snapshot(self):
                        return dict(self._states)

                    def restore(self, snapshot):
                        self._states = dict(snapshot)
                """
            },
        )
        assert findings_for(tmp_path, "checkpoint-parity") == []

    def test_transient_waiver_silences_the_attribute(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/distributed/mini.py": """
                class MiniNetwork:
                    def __init__(self):
                        self._states = {}
                        self._cache = {}  # repro-lint: transient -- derived, rebuilt lazily

                    def snapshot(self):
                        return dict(self._states)

                    def restore(self, snapshot):
                        self._states = dict(snapshot)
                """
            },
        )
        report = run_lint(tmp_path, select=["checkpoint-parity"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_coverage_through_self_method_closure_counts(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/distributed/mini.py": """
                class MiniNetwork:
                    def __init__(self):
                        self._states = {}

                    def _collect(self):
                        return dict(self._states)

                    def snapshot(self):
                        return self._collect()

                    def restore(self, snapshot):
                        self._states = dict(snapshot)
                """
            },
        )
        assert findings_for(tmp_path, "checkpoint-parity") == []

    STORE_FIXTURE = {
        "src/repro/core/store.py": """
        class Store:
            def _build(self, rows):
                self._rows = list(rows)
                self._count = len(self._rows){waiver}
        """,
        "src/repro/distributed/mini.py": """
        from repro.core.store import Store


        class MiniNetwork(Store):
            def __init__(self):
                self._states = {{}}
                self._build(())

            def snapshot(self):
                return {{"states": dict(self._states), "rows": list(self._rows)}}

            def restore(self, snapshot):
                self._states = dict(snapshot["states"])
                self._build(snapshot["rows"])
        """,
    }

    def store_fixture(self, waiver: str = "") -> dict:
        return {rel: text.format(waiver=waiver) for rel, text in self.STORE_FIXTURE.items()}

    def test_attribute_a_base_class_build_assigns_is_checked(self, tmp_path):
        # The subclass's __init__ reaches the base's build method through a
        # self call; the attribute it assigns there is part of the state.
        make_project(tmp_path, self.store_fixture())
        found = findings_for(tmp_path, "checkpoint-parity")
        assert len(found) == 1
        assert found[0].symbol == "MiniNetwork._count"
        assert found[0].path == "src/repro/core/store.py"
        assert found[0].line == 5
        assert "never read by snapshot()" in found[0].message
        assert "never written by restore()" not in found[0].message

    def test_waiver_on_a_base_class_assignment_is_honoured(self, tmp_path):
        make_project(
            tmp_path, self.store_fixture("  # repro-lint: transient -- derived from _rows")
        )
        report = run_lint(tmp_path, select=["checkpoint-parity"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_subclass_inheriting_the_pair_is_checked_once_per_assignment(self, tmp_path):
        # Neither subclass defines snapshot() or restore(); both inherit the
        # base's pair, so the attribute the first one's __init__ adds is
        # state the pair never covers -- reported once, not once per class.
        make_project(
            tmp_path,
            {
                "src/repro/distributed/mini.py": """
                class MiniCore:
                    def __init__(self):
                        self._states = {}

                    def snapshot(self):
                        return dict(self._states)

                    def restore(self, snapshot):
                        self._states = dict(snapshot)


                class MiniAsync(MiniCore):
                    def __init__(self):
                        self._cursor = 0
                        super().__init__()


                class MiniAsyncTweak(MiniAsync):
                    pass
                """
            },
        )
        found = findings_for(tmp_path, "checkpoint-parity")
        assert len(found) == 1
        assert found[0].symbol == "MiniAsync._cursor"
        assert found[0].line == 15
        assert "never read by snapshot() and never written by restore()" in found[0].message

    def test_super_init_is_part_of_the_init_closure(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/distributed/mini.py": """
                class Rows:
                    def __init__(self):
                        self._rows = []


                class MiniNetwork(Rows):
                    def __init__(self):
                        super().__init__()
                        self._states = {}

                    def snapshot(self):
                        return dict(self._states)

                    def restore(self, snapshot):
                        self._states = dict(snapshot)
                """
            },
        )
        found = findings_for(tmp_path, "checkpoint-parity")
        assert [finding.symbol for finding in found] == ["MiniNetwork._rows"]

    VIEW_FIXTURE = {
        "src/repro/distributed/mini.py": """
        class RowsView:
            def __init__(self, store):
                self._store = store

            def rows(self):
                store = self._store
                return list(store._rows)


        class MiniNetwork:
            def __init__(self):
                self._rows = []
                self._count = 0

            @property
            def graph(self):
                return RowsView(self)

            def snapshot(self):
                return self.graph.rows()

            def restore(self, snapshot):
                self._rows = list(snapshot)
                self._count = len(self._rows)
        """,
    }

    def test_reads_through_a_view_built_with_self_count(self, tmp_path):
        # The snapshot reaches _rows only through a view that keeps the
        # instance in a field; _count it never reads at all.
        make_project(tmp_path, self.VIEW_FIXTURE)
        found = findings_for(tmp_path, "checkpoint-parity")
        assert [finding.symbol for finding in found] == ["MiniNetwork._count"]
        assert "never read by snapshot()" in found[0].message

    SHARED_BUILD_FIXTURE = {
        "src/repro/core/store.py": """
        class Store:
            def _build(self, rows):
                self._rows = list(rows)
                self._keys = [row * 2 for row in self._rows]
        """,
        "src/repro/core/engine.py": """
        from repro.core.store import Store


        class MiniEngine(Store):
            _keys: list  # repro-lint: transient -- copy of what _rows captures

            def __init__(self):
                self._build(())

            def snapshot(self):
                return list(self._rows)

            def restore(self, snapshot):
                self._build(snapshot)
        """,
        "src/repro/distributed/mini.py": """
        from repro.core.store import Store


        class MiniNetwork(Store):
            def __init__(self):
                self._build(())

            def snapshot(self):
                return {{"rows": list(self._rows), "keys": {keys}}}

            def restore(self, snapshot):
                self._build(snapshot["rows"])
        """,
    }

    def shared_build_fixture(self, keys: str) -> dict:
        files = dict(self.SHARED_BUILD_FIXTURE)
        rel = "src/repro/distributed/mini.py"
        files[rel] = files[rel].format(keys=keys)
        return files

    def test_a_bare_declaration_scopes_a_waiver_to_its_class(self, tmp_path):
        # Both classes inherit the store's assignment of _keys.  The engine
        # waives it at its own declaration; the network still has to read it.
        make_project(tmp_path, self.shared_build_fixture("list(self._keys)"))
        report = run_lint(tmp_path, select=["checkpoint-parity"])
        assert report.findings == []
        assert report.suppressed == 1

    def test_the_engine_waiver_does_not_cover_a_sibling_class(self, tmp_path):
        make_project(tmp_path, self.shared_build_fixture("[]"))
        found = findings_for(tmp_path, "checkpoint-parity")
        assert [finding.symbol for finding in found] == ["MiniNetwork._keys"]
        assert (found[0].path, found[0].line) == ("src/repro/core/store.py", 5)
        assert "never read by snapshot()" in found[0].message

    def test_fast_network_snapshot_must_read_the_store_keys(self, tmp_path):
        # Mutation check on a copy of the real sources: a fast network core
        # whose snapshot() drops the priority keys is flagged at the shared
        # store's assignment, which FastEngine's own waiver does not cover.
        shutil.copytree(REPO_ROOT / "src" / "repro", tmp_path / "src" / "repro")
        network = tmp_path / "src" / "repro" / "distributed" / "fast_network.py"
        text = network.read_text()
        for old, new in (
            ("state, keys = self._state, self._keys", "state = self._state"),
            (
                "priority_keys={label: keys[nid] for label, nid in self._id_of.items()}",
                "priority_keys={}",
            ),
        ):
            assert text.count(old) == 1
            text = text.replace(old, new)
        network.write_text(text)
        found = findings_for(tmp_path, "checkpoint-parity")
        store_text = (tmp_path / "src" / "repro" / "core" / "fast_engine.py").read_text()
        keys_line = next(
            number
            for number, line in enumerate(store_text.splitlines(), start=1)
            if line.lstrip().startswith("self._keys: List")
        )
        assert [(f.symbol, f.path, f.line) for f in found] == [
            ("FastNetworkCore._keys", "src/repro/core/fast_engine.py", keys_line)
        ]

    def test_protocol_stubs_are_skipped(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/api.py": """
                class Checkpointable:
                    def __init__(self):
                        self._anything = 1

                    def snapshot(self):
                        raise NotImplementedError

                    def restore(self, snapshot):
                        raise NotImplementedError
                """
            },
        )
        assert findings_for(tmp_path, "checkpoint-parity") == []


class TestRegistryDiscipline:
    FIXTURE = {
        "src/repro/distributed/scheduler.py": """
        class FancyScheduler:
            def __init__(self, seed=0):
                self.seed = seed

        def register_scheduler(name, factory, params=()):
            pass

        register_scheduler("fancy", FancyScheduler, ("seed",))

        def _default():
            return FancyScheduler(0)
        """,
    }

    def test_direct_construction_in_benchmarks_is_flagged(self, tmp_path):
        make_project(
            tmp_path,
            {
                **self.FIXTURE,
                "benchmarks/bench_sched.py": """
                from repro.distributed.scheduler import FancyScheduler

                def run():
                    return FancyScheduler(3)
                """,
            },
        )
        found = findings_for(tmp_path, "registry-discipline")
        assert len(found) == 1
        assert found[0].path == "benchmarks/bench_sched.py"
        assert "create_scheduler" in found[0].message

    def test_defining_module_and_front_door_call_are_clean(self, tmp_path):
        make_project(
            tmp_path,
            {
                **self.FIXTURE,
                "benchmarks/bench_sched.py": """
                from repro.distributed.scheduler import create_scheduler

                def run():
                    return create_scheduler("fancy", seed=3)
                """,
            },
        )
        assert findings_for(tmp_path, "registry-discipline") == []

    def test_factory_registered_backends_are_discovered(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/impl.py": """
                class ImplEngine:
                    pass
                """,
                "src/repro/core/api.py": """
                def register_engine(name, factory):
                    pass

                def _impl_factory(priorities=None, initial_graph=None):
                    from repro.core.impl import ImplEngine

                    return ImplEngine()

                register_engine("impl", _impl_factory)
                """,
                "examples/use.py": """
                from repro.core.impl import ImplEngine

                engine = ImplEngine()
                """,
            },
        )
        found = findings_for(tmp_path, "registry-discipline")
        assert len(found) == 1
        assert found[0].path == "examples/use.py"
        assert "create_engine" in found[0].message

    def test_constructor_dispatch_earns_no_exemption(self, tmp_path):
        # create_network is the one way to pick a backend: a class whose
        # __new__ dispatches through the registry is still a backend class.
        make_project(
            tmp_path,
            {
                "src/repro/distributed/network.py": """
                def resolve_network(name, protocol):
                    pass

                def register_network(name, thing):
                    pass

                class FrontDoor:
                    def __new__(cls, **kwargs):
                        factory = resolve_network("dict", "buffered")
                        return factory(**kwargs)

                class SubDoor(FrontDoor):
                    pass

                register_network("front", FrontDoor)
                register_network("sub", SubDoor)
                """,
                "examples/use.py": """
                from repro.distributed.network import FrontDoor, SubDoor

                a = FrontDoor(seed=1)
                b = SubDoor(seed=2)
                """,
            },
        )
        found = findings_for(tmp_path, "registry-discipline")
        assert [(finding.path, finding.line) for finding in found] == [
            ("examples/use.py", 4),
            ("examples/use.py", 5),
        ]
        assert all("create_network" in finding.message for finding in found)


class TestWireProtocol:
    BROKEN = {
        "src/repro/service/protocol.py": """
        ERROR_KINDS = ("bad-request", "not-found")
        """,
        "src/repro/service/client.py": """
        class ServiceClientError(Exception):
            def __init__(self, message, kind="protocol"):
                self.kind = kind

        class ServiceClient:
            def request(self, op, **payload):
                pass

            def ping(self):
                return self.request("ping")

            def boom(self):
                return self.request("boom")

            def shutdown(self):
                return self.request("shutdown")

            def _fail(self):
                raise ServiceClientError("unreachable", kind="connection")
        """,
        "src/repro/service/host.py": """
        class SessionHost:
            OPS = {"ping": "_op_ping", "zombie": "_op_zombie", "ghost": "_op_missing"}

            def _op_ping(self, payload):
                pass

            def _op_zombie(self, payload):
                pass
        """,
        "src/repro/service/daemon.py": """
        from repro.service import protocol

        def dispatch(op):
            if op == "shutdown":
                return protocol.error("going down", "bogus")
        """,
    }

    def test_drifted_surface_produces_each_finding_kind(self, tmp_path):
        make_project(tmp_path, self.BROKEN)
        messages = [f.message for f in findings_for(tmp_path, "wire-protocol")]
        assert any("'boom'" in m and "neither SessionHost.OPS" in m for m in messages)
        assert any("'_op_missing'" in m for m in messages)
        assert any("'zombie'" in m and "dead wire surface" in m for m in messages)
        assert any("'bogus'" in m and "ERROR_KINDS" in m for m in messages)
        # the client-only transport kind never counts as drift
        assert not any("'connection'" in m for m in messages)

    def test_consistent_surface_is_clean(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/service/protocol.py": """
                ERROR_KINDS = ("bad-request", "not-found")
                """,
                "src/repro/service/client.py": """
                class ServiceClient:
                    def request(self, op, **payload):
                        pass

                    def ping(self):
                        return self.request("ping")

                    def shutdown(self):
                        return self.request("shutdown")
                """,
                "src/repro/service/host.py": """
                class SessionHost:
                    OPS = {"ping": "_op_ping"}

                    def _op_ping(self, payload):
                        pass
                """,
                "src/repro/service/daemon.py": """
                from repro.service import protocol

                def dispatch(op):
                    if op == "shutdown":
                        return protocol.error("going down", "bad-request")
                """,
            },
        )
        assert findings_for(tmp_path, "wire-protocol") == []

    def test_trees_without_the_service_layer_are_skipped(self, tmp_path):
        make_project(
            tmp_path,
            {"src/repro/core/thing.py": "X = 1\n"},
        )
        assert findings_for(tmp_path, "wire-protocol") == []


class TestSuppressionsAndFingerprints:
    def test_parse_suppressions_grammar(self):
        source = (
            "x = 1  # repro-lint: determinism -- accepted\n"
            "y = 2  # repro-lint: determinism, registry-discipline\n"
            "z = 3  # repro-lint: all\n"
        )
        suppressions = parse_suppressions(source)
        assert suppressions[1].covers("determinism")
        assert not suppressions[1].covers("registry-discipline")
        assert suppressions[2].covers("registry-discipline")
        assert suppressions[3].covers("wire-protocol")

    def test_transient_alias_maps_to_checkpoint_parity(self):
        suppressions = parse_suppressions("a = 1  # repro-lint: transient -- scratch\n")
        assert suppressions[1].covers("checkpoint-parity")
        assert not suppressions[1].covers("determinism")

    def test_fingerprint_ignores_the_line_number(self):
        one = Finding(check="determinism", path="a.py", line=3, col=0, message="m", symbol="f")
        two = Finding(check="determinism", path="a.py", line=90, col=4, message="m", symbol="f")
        other = Finding(check="determinism", path="a.py", line=3, col=0, message="n", symbol="f")
        assert one.fingerprint == two.fingerprint
        assert one.fingerprint != other.fingerprint

    def test_suppression_is_counted_not_dropped(self, tmp_path):
        make_project(
            tmp_path,
            {
                "src/repro/core/rand.py": """
                import random

                def draw(items):
                    random.shuffle(items)  # repro-lint: determinism -- fixture
                """
            },
        )
        report = run_lint(tmp_path, select=["determinism"])
        assert report.findings == []
        assert report.suppressed == 1


class TestRepoSelfCheck:
    def test_all_four_checkers_are_registered(self):
        assert set(available_checkers()) >= {
            "determinism",
            "checkpoint-parity",
            "registry-discipline",
            "wire-protocol",
        }

    @pytest.mark.slow
    def test_repo_tree_is_clean(self):
        report = run_lint(REPO_ROOT)
        rendered = "\n".join(f.render() for f in report.findings)
        assert report.findings == [], f"lint findings on the repo tree:\n{rendered}"

    def test_syntax_errors_become_findings(self, tmp_path):
        make_project(tmp_path, {"src/repro/core/broken.py": "def f(:\n"})
        report = run_lint(tmp_path)
        assert [f.check for f in report.findings] == ["syntax"]
