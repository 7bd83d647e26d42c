"""``determinism``: hazards that break seeded bit-identical replay.

The reproduction's whole conformance story (differential replay, checkpoint
resume, protocol round parity) assumes a run is a pure function of its seed.
This checker flags the four hazard shapes that historically break that
assumption, each tagged inside the message so one check name covers the
family while the report stays precise:

* ``[unseeded-random]`` -- ``random.Random()`` with no seed argument, or any
  module-level ``random.*`` call (the process-global RNG: shared stream,
  unseeded unless someone else seeded it) anywhere in the scanned tree;
* ``[wall-clock]`` -- ``time.time()`` / ``perf_counter()`` / ``monotonic()``
  inside ``repro/core/`` or ``repro/distributed/``, where a timestamp can
  only flow into algorithm state (benchmarks and the scenario layer measure
  wall time legitimately and are out of scope);
* ``[set-iteration]`` -- a ``for`` loop or ordered comprehension iterating a
  bare set expression or a ``.values()`` / ``.keys()`` view in the
  ``repro/core/`` or ``repro/distributed/`` hot paths without ``sorted()``,
  unless the iteration feeds an order-insensitive reducer
  (``sum``/``len``/``min``/``max``/``all``/``any``/``set``/...);
* ``[float-eq]`` -- ``==`` / ``!=`` on priority-like operands (``pi``,
  ``prio*``, ``priority*``, ``pm``/``pf``) outside a sanctioned *tie-escape
  site*.  Escapes are recognized structurally: an equality whose enclosing
  boolean expression also compares the full key tuple (``prio[m] == p and
  keys[m] < key``), or an ``assert`` invariant.  A bare ``if prio[a] ==
  prio[b]:`` that branches without consulting the key is the hazard, and
  so is a float compare stored in a variable for later use.

Suppress an accepted site with ``# repro-lint: determinism -- reason``.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Optional, Tuple

from repro.analysis.lint.base import (
    Finding,
    ProjectIndex,
    SourceFile,
    build_parents,
    call_name,
    dotted_name,
    register_checker,
)

CHECK = "determinism"

#: Module-level ``random.*`` functions that draw from the process-global RNG.
_GLOBAL_RNG_FUNCS = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "uniform",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "getrandbits",
        "gauss",
        "normalvariate",
        "betavariate",
        "expovariate",
        "triangular",
        "vonmisesvariate",
    }
)

#: Wall-clock sources that must not feed algorithm state.
_WALL_CLOCK_FUNCS = frozenset(
    {"time.time", "time.perf_counter", "time.monotonic", "time.time_ns",
     "time.perf_counter_ns", "time.monotonic_ns"}
)

#: Scope of the wall-clock rule: directories holding algorithm state.
_STATE_SCOPES = ("src/repro/core/", "src/repro/distributed/")

#: Scope of the set-iteration and float-eq rules: the replayed hot paths.
_HOT_SCOPES = ("src/repro/core/", "src/repro/distributed/")

#: Consumers for which iteration order cannot be observed.
_ORDER_INSENSITIVE = frozenset(
    {"sum", "len", "min", "max", "all", "any", "set", "frozenset", "sorted",
     "dict", "Counter", "collections.Counter"}
)

#: Set-returning methods (iterating their result is order-hazardous).
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)

_PRIORITY_NAME_RE = re.compile(r"(^|_)(pi|prio|priorities|priority|pm|pf|pkey)($|_)")

#: Names that mark the full-key side of a sanctioned tie escape.
_KEY_NAME_RE = re.compile(r"key", re.IGNORECASE)


def _is_set_like(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = call_name(node)
        if name in ("set", "frozenset"):
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.Sub, ast.BitXor)
    ):
        return _is_set_like(node.left) or _is_set_like(node.right)
    return False


def _is_view_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("values", "keys")
        and not node.args
        and not node.keywords
    )


def _priority_like(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        return _priority_like(node.value)
    name: Optional[str] = None
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    return name is not None and _PRIORITY_NAME_RE.search(name) is not None


def _finding(file: SourceFile, node: ast.AST, message: str) -> Finding:
    return Finding(
        check=CHECK,
        path=file.rel,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0),
        message=message,
        symbol=file.symbol_at(node),
    )


def _check_random_and_clock(file: SourceFile) -> Iterator[Finding]:
    assert file.tree is not None
    in_state_scope = file.rel.startswith(_STATE_SCOPES)
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Call):
            continue
        name = call_name(node)
        if name is None:
            continue
        if name == "random.Random" and not node.args and not node.keywords:
            yield _finding(
                file,
                node,
                "[unseeded-random] random.Random() without a seed breaks seeded "
                "replay; thread an explicit seed (see repro.core.rng)",
            )
        elif name.startswith("random.") and name.split(".", 1)[1] in _GLOBAL_RNG_FUNCS:
            yield _finding(
                file,
                node,
                f"[unseeded-random] {name}() uses the process-global RNG stream; "
                "use a seeded random.Random instance instead",
            )
        elif in_state_scope and name in _WALL_CLOCK_FUNCS:
            yield _finding(
                file,
                node,
                f"[wall-clock] {name}() in algorithm code can leak wall-clock "
                "time into replayed state; measure time outside repro.core / "
                "repro.distributed",
            )


def _iter_hazard_iterables(
    tree: ast.Module,
) -> Iterator[Tuple[ast.AST, ast.AST, str]]:
    """Yield ``(report_node, iterable, kind)`` for order-hazardous iterations.

    ``for`` statements always count; among comprehensions only the *ordered*
    ones (list / generator) do -- a ``SetComp`` forgets order again, and a
    comprehension consumed by an order-insensitive reducer is skipped by the
    caller via the parent map.
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.For):
            yield node, node.iter, "for"
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            for generator in node.generators:
                yield node, generator.iter, "comprehension"


def _check_set_iteration(file: SourceFile) -> Iterator[Finding]:
    assert file.tree is not None
    parents = build_parents(file.tree)
    for report_node, iterable, kind in _iter_hazard_iterables(file.tree):
        hazard: Optional[str] = None
        if _is_set_like(iterable):
            hazard = "a bare set expression"
        elif _is_view_call(iterable):
            assert isinstance(iterable, ast.Call)
            assert isinstance(iterable.func, ast.Attribute)
            hazard = f"a .{iterable.func.attr}() view"
        if hazard is None:
            continue
        if kind == "comprehension":
            parent = parents.get(id(report_node))
            if (
                isinstance(parent, ast.Call)
                and call_name(parent) in _ORDER_INSENSITIVE
                and report_node in parent.args
            ):
                continue
        yield _finding(
            file,
            iterable,
            f"[set-iteration] iterating {hazard} without sorted() makes the "
            "visit order hash/insertion dependent; wrap the iterable in "
            "sorted() or reduce order-insensitively",
        )


def _mentions_key(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and _KEY_NAME_RE.search(sub.id):
            return True
        if isinstance(sub, ast.Attribute) and _KEY_NAME_RE.search(sub.attr):
            return True
    return False


def _sanctioned_tie_escape(node: ast.Compare, parents) -> bool:
    """Whether this equality is part of a recognized tie-escape idiom.

    Climbing from the compare to its statement: a sibling operand of an
    enclosing ``BoolOp`` that consults the key tuple sanctions the compare
    (``prio[m] == p and keys[m] < key`` -- the tie escapes to the full
    key); so does an ``assert`` (an invariant check cannot steer replayed
    control flow -- it can only abort).
    """
    child: ast.AST = node
    current = parents.get(id(node))
    while current is not None:
        if isinstance(current, ast.BoolOp) and any(
            operand is not child and _mentions_key(operand)
            for operand in current.values
        ):
            return True
        if isinstance(current, ast.Assert):
            return True
        if isinstance(current, ast.stmt):
            break
        child = current
        current = parents.get(id(current))
    return False


def _check_float_eq(file: SourceFile) -> Iterator[Finding]:
    assert file.tree is not None
    parents = build_parents(file.tree)
    for node in ast.walk(file.tree):
        if not isinstance(node, ast.Compare):
            continue
        operands: List[ast.AST] = [node.left, *node.comparators]
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if _priority_like(left) or _priority_like(right):
                if _sanctioned_tie_escape(node, parents):
                    continue
                left_text = dotted_name(left) or ast.unparse(left)
                yield _finding(
                    file,
                    node,
                    f"[float-eq] equality on priority-like value {left_text!r} "
                    "without escaping to the full key tuple: exact float ties "
                    "must resolve via keys (compare `prio[m] == p and "
                    "keys[m] < key`), not branch on the float alone",
                )


def check_determinism(index: ProjectIndex) -> Iterator[Finding]:
    """Run the four determinism hazard rules over their respective scopes."""
    for file in index.iter_files("src/repro/", "benchmarks/", "examples/"):
        yield from _check_random_and_clock(file)
    for file in index.iter_files(*_HOT_SCOPES):
        yield from _check_set_iteration(file)
        yield from _check_float_eq(file)


register_checker(
    CHECK,
    check_determinism,
    "unseeded RNGs, wall-clock reads, unsorted set iteration and float "
    "priority equality in the replayed hot paths",
)
