"""``checkpoint-parity``: ``snapshot()`` / ``restore()`` must cover ``__init__``.

The :class:`~repro.core.state_api.Checkpointable` contract says a restored
object is observably identical to the snapshotted one.  The PR 6 resume bug
(a scheduler field added to ``__init__`` but never captured) is the exact
failure mode this checker makes structural: for every class that defines
**both** ``snapshot`` and ``restore`` in its own body, every ``self.*``
attribute assigned in the ``__init__`` call closure must be

* *read* somewhere in the ``snapshot()`` call closure, and
* *mentioned* (written, or read for in-place restoration) in the
  ``restore()`` call closure,

unless its assignment line carries ``# repro-lint: transient -- reason``
(caches, per-change scratch, observability toggles -- state the snapshot
contract deliberately excludes).  The finding, and so the waiver, sits at
the attribute's first assignment in the closure, in whichever file defines
it -- a base class's build method included.

A closure follows ``self.method()`` calls and ``self.prop`` accesses into
the methods the class defines or inherits from classes defined in the
project (bases named in the file or imported with ``from ... import``,
searched depth-first, left to right; ``super()`` calls are not followed),
and -- because the simulators delegate to the shared builders in
:mod:`repro.distributed.state` -- also module-level helper calls that
receive ``self`` as an argument, resolved through ``from ... import``
across the project index (bounded depth, cycle-safe).
Purely dynamic delegation (``getattr``, dict-driven dispatch) is invisible
to the AST; such attributes take the ``transient`` waiver with a reason.

Classes whose ``snapshot`` *and* ``restore`` are both stubs (protocol
definitions, ABCs raising ``NotImplementedError``) are skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.base import (
    Finding,
    ProjectIndex,
    SourceFile,
    register_checker,
)

CHECK = "checkpoint-parity"

#: How deep helper-call resolution recurses (self methods + module helpers).
_MAX_DEPTH = 6


def _is_stub(fn: ast.FunctionDef) -> bool:
    """Whether a method body is a protocol/ABC stub (docstring, ``...``, raise)."""
    body = list(fn.body)
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]  # docstring
    if not body:
        return True
    if len(body) == 1:
        only = body[0]
        if isinstance(only, ast.Expr) and isinstance(only.value, ast.Constant):
            return True  # bare ``...``
        if isinstance(only, (ast.Raise, ast.Pass)):
            return True
    return False


#: A method together with the file that defines it.
Method = Tuple[SourceFile, ast.FunctionDef]


def _class_methods(cls: ast.ClassDef) -> Dict[str, ast.FunctionDef]:
    return {
        item.name: item for item in cls.body if isinstance(item, ast.FunctionDef)
    }


def _resolve_base(
    index: ProjectIndex, file: SourceFile, base: ast.expr
) -> Optional[Tuple[SourceFile, ast.ClassDef]]:
    """The project class a base-class name of ``file`` refers to, if any.

    A base resolves when ``file`` defines it or imports it with
    ``from module import Name``.
    """
    if not isinstance(base, ast.Name):
        return None
    source_module = _imported_from(file, base.id)
    for candidate_file, cls in index.classes.get(base.id, []):
        if candidate_file is file or (
            source_module is not None and candidate_file.module == source_module
        ):
            return candidate_file, cls
    return None


def _inherited_methods(
    index: ProjectIndex, file: SourceFile, cls: ast.ClassDef
) -> Dict[str, Method]:
    """Methods of ``cls`` and its project bases; the first definition wins."""
    methods: Dict[str, Method] = {}
    seen: Set[Tuple[str, str]] = set()

    def visit(owner_file: SourceFile, owner: ast.ClassDef) -> None:
        if (owner_file.rel, owner.name) in seen:
            return
        seen.add((owner_file.rel, owner.name))
        for name, fn in _class_methods(owner).items():
            methods.setdefault(name, (owner_file, fn))
        for base in owner.bases:
            resolved = _resolve_base(index, owner_file, base)
            if resolved is not None:
                visit(*resolved)

    visit(file, cls)
    return methods


class _SelfAccessCollector(ast.NodeVisitor):
    """Collect ``<self>.attr`` loads/stores and outgoing call edges of one body.

    ``self_name`` is the parameter playing the role of ``self`` -- the real
    ``self`` in methods, or whichever parameter a module-level helper bound
    the instance to when it was called with ``self`` as an argument.
    """

    def __init__(self, self_name: str) -> None:
        self.self_name = self_name
        self.loads: Dict[str, int] = {}
        self.stores: Dict[str, int] = {}
        #: self-method / self-property names touched (call-closure edges),
        #: in source order so closures are walked deterministically.
        self.self_calls: Dict[str, None] = {}
        #: (helper name, argument position the self object was passed at).
        self.helper_calls: Dict[Tuple[str, int], None] = {}

    def _is_self(self, node: ast.AST) -> bool:
        return isinstance(node, ast.Name) and node.id == self.self_name

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if self._is_self(node.value):
            bucket = self.stores if isinstance(node.ctx, ast.Store) else self.loads
            bucket.setdefault(node.attr, node.lineno)
            # Any attribute access may be a property/method of the class; the
            # closure filter keeps only names that resolve to real methods.
            if isinstance(node.ctx, ast.Load):
                self.self_calls.setdefault(node.attr)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name):
            for position, argument in enumerate(node.args):
                if self._is_self(argument):
                    self.helper_calls.setdefault((node.func.id, position))
        self.generic_visit(node)


def _module_functions(file: SourceFile) -> Dict[str, ast.FunctionDef]:
    assert file.tree is not None
    return {
        node.name: node
        for node in file.tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _imported_from(file: SourceFile, name: str) -> Optional[str]:
    """The source module of ``from M import name`` anywhere in ``file``."""
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return node.module
    return None


def _resolve_helper(
    index: ProjectIndex, file: SourceFile, name: str
) -> Optional[Tuple[SourceFile, ast.FunctionDef]]:
    """Find the module-level helper ``name`` called from ``file``."""
    local = _module_functions(file).get(name)
    if local is not None:
        return file, local
    source_module = _imported_from(file, name)
    if source_module is None:
        return None
    source_file = index.by_module.get(source_module)
    if source_file is None or source_file.tree is None:
        return None
    helper = _module_functions(source_file).get(name)
    if helper is None:
        return None
    return source_file, helper


def _closure_accesses(
    index: ProjectIndex, methods: Dict[str, Method], entry: str
) -> Tuple[Set[str], Dict[str, Tuple[SourceFile, int]]]:
    """``self.*`` loads and stores over the call closure rooted at ``entry``.

    Stores map each attribute to its first assignment (file, line) in a
    depth-first walk in source order, so the entry's own lines come first.
    """
    loads: Set[str] = set()
    stores: Dict[str, Tuple[SourceFile, int]] = {}
    visited: Set[Tuple[str, str, str]] = set()

    def walk_body(
        body_file: SourceFile, fn: ast.FunctionDef, self_name: str, depth: int
    ) -> None:
        key = (body_file.rel, fn.name, self_name)
        if key in visited or depth > _MAX_DEPTH:
            return
        visited.add(key)
        collector = _SelfAccessCollector(self_name)
        collector.visit(fn)
        loads.update(collector.loads)
        for attr, line in collector.stores.items():
            stores.setdefault(attr, (body_file, line))
        for attr in collector.self_calls:
            resolved = methods.get(attr)
            if resolved is not None and resolved[1].args.args:
                method_file, method = resolved
                walk_body(method_file, method, method.args.args[0].arg, depth + 1)
        for helper_name, position in collector.helper_calls:
            helper_resolved = _resolve_helper(index, body_file, helper_name)
            if helper_resolved is None:
                continue
            helper_file, helper = helper_resolved
            if position < len(helper.args.args):
                walk_body(helper_file, helper, helper.args.args[position].arg, depth + 1)

    root = methods.get(entry)
    if root is not None and root[1].args.args:
        walk_body(root[0], root[1], root[1].args.args[0].arg, 0)
    return loads, stores


def check_checkpoint_parity(index: ProjectIndex) -> Iterator[Finding]:
    """Compare the ``__init__`` closure's state against snapshot/restore."""
    for file in index.iter_files("src/repro/"):
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            own = _class_methods(node)
            snapshot = own.get("snapshot")
            restore = own.get("restore")
            if snapshot is None or restore is None:
                continue
            if _is_stub(snapshot) and _is_stub(restore):
                continue  # protocol / ABC definition, not an implementation
            methods = _inherited_methods(index, file, node)
            _, attributes = _closure_accesses(index, methods, "__init__")
            if not attributes:
                continue
            snapshot_loads, snapshot_stores = _closure_accesses(index, methods, "snapshot")
            snapshot_mentions = snapshot_loads | set(snapshot_stores)
            restore_loads, restore_stores = _closure_accesses(index, methods, "restore")
            restore_mentions = restore_loads | set(restore_stores)
            for attr, (assigned_in, line) in attributes.items():
                missing: List[str] = []
                if attr not in snapshot_mentions:
                    missing.append("never read by snapshot()")
                if attr not in restore_mentions:
                    missing.append("never written by restore()")
                if not missing:
                    continue
                yield Finding(
                    check=CHECK,
                    path=assigned_in.rel,
                    line=line,
                    col=0,
                    message=(
                        f"self.{attr} is assigned in the __init__ closure but "
                        f"{' and '.join(missing)}; capture it, restore it, or "
                        "mark the assignment '# repro-lint: transient -- reason'"
                    ),
                    symbol=f"{node.name}.{attr}",
                )


register_checker(
    CHECK,
    check_checkpoint_parity,
    "every attribute the __init__ closure of a Checkpointable class assigns is "
    "captured by snapshot() and re-established by restore() (or waived as transient)",
)
