"""``checkpoint-parity``: ``snapshot()`` / ``restore()`` must cover ``__init__``.

The :class:`~repro.core.state_api.Checkpointable` contract says a restored
object is observably identical to the snapshotted one.  The PR 6 resume bug
(a scheduler field added to ``__init__`` but never captured) is the exact
failure mode this checker makes structural: for every class that defines
or inherits **both** ``snapshot`` and ``restore``, every ``self.*``
attribute assigned in the ``__init__`` call closure must be

* *read* somewhere in the ``snapshot()`` call closure, and
* *mentioned* (written, or read for in-place restoration) in the
  ``restore()`` call closure,

unless the line its finding sits on carries ``# repro-lint: transient --
reason`` (caches, per-change scratch, observability toggles -- state the
snapshot contract deliberately excludes).  The finding, and so the waiver,
sits at the attribute's first assignment in the closure, in whichever file
defines it -- a base class's build method included.  Subclasses inherit
that assignment, so each (file, line, attribute) is reported once, under
the first class examined.  A class that inherits the assignment can
declare the attribute bare in its own body (``_keys: List[Tuple]``); its
finding then sits at that declaration, so a waiver there covers that class
and its subclasses, not the other classes sharing the assignment.

A closure follows ``self.method()`` calls and ``self.prop`` accesses into
the methods the class defines or inherits from classes defined in the
project (bases named in the file or imported with ``from ... import``,
searched depth-first, left to right), ``super().method()`` calls into the
next definition after the calling method's class in that order, and calls
that pass ``self`` positionally to a module-level function or class the
file defines or imports (bounded depth, cycle-safe): a helper's parameter
stands for ``self``; in every method of a class built around the instance
(a view such as ``FastGraphView(self)``), any field of the view does.
Local names assigned the instance (``store = self._store``) stand for it
too.  Purely dynamic delegation (``getattr``, dict-driven dispatch) is
invisible to the AST; such attributes take the ``transient`` waiver with a
reason.

Classes whose resolved ``snapshot`` *and* ``restore`` are both stubs
(protocol definitions, ABCs raising ``NotImplementedError``) are skipped.
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


def _resolve(
    index: ProjectIndex, file: SourceFile, name: str
) -> Optional[Tuple[SourceFile, ast.stmt]]:
    """The module-level function or class ``name`` refers to in ``file``.

    ``file`` defines it, or imports it with ``from module import name``.
    """
    for source in (file, index.by_module.get(_imported_from(file, name) or "")):
        if source is not None and source.tree is not None:
            for node in source.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
                    return source, node
    return None


#: A class together with the file that defines it.
ClassRef = Tuple[SourceFile, ast.ClassDef]


def _base_order(index: ProjectIndex, file: SourceFile, cls: ast.ClassDef) -> List[ClassRef]:
    """``cls`` and its project bases, depth-first, left to right, each once."""
    order: List[ClassRef] = []
    seen: Set[Tuple[str, str]] = set()

    def visit(owner_file: SourceFile, owner: ast.ClassDef) -> None:
        if (owner_file.rel, owner.name) in seen:
            return
        seen.add((owner_file.rel, owner.name))
        order.append((owner_file, owner))
        for base in owner.bases:
            resolved = _resolve(index, owner_file, base.id) if isinstance(base, ast.Name) else None
            if resolved is not None and isinstance(resolved[1], ast.ClassDef):
                visit(resolved[0], resolved[1])

    visit(file, cls)
    return order


def _inherited_methods(classes: List[ClassRef]) -> Dict[str, Method]:
    """Methods of a base order's classes; the first definition wins."""
    methods: Dict[str, Method] = {}
    for owner_file, owner in classes:
        for name, fn in _class_methods(owner).items():
            methods.setdefault(name, (owner_file, fn))
    return methods


class _SelfAccessCollector(ast.NodeVisitor):
    """Collect ``<self>.attr`` loads/stores and outgoing call edges of one body.

    ``self_name`` is the parameter playing the role of ``self`` -- the real
    ``self`` in methods, or whichever parameter a module-level helper bound
    the instance to when it was called with ``self`` as an argument.  In a
    method of a ``view`` built around the instance, the instance is any
    field of ``self_name`` instead.  Local names assigned the instance stand
    for it too.
    """

    def __init__(self, self_name: str, view: bool = False) -> None:
        self.self_name = self_name
        self.view = view
        self.names: Set[str] = set() if view else {self_name}
        self.loads: Dict[str, int] = {}
        self.stores: Dict[str, int] = {}
        #: self-method / self-property names touched (call-closure edges),
        #: in source order so closures are walked deterministically.
        self.self_calls: Dict[str, None] = {}
        #: (function or class name, argument position self was passed at).
        self.helper_calls: Dict[Tuple[str, int], None] = {}
        #: ``super().name`` accesses, resolved past the calling method's class.
        self.super_calls: Dict[str, None] = {}

    def _is_self(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return node.id in self.names
        return (
            self.view
            and isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == self.self_name
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        self.generic_visit(node)
        if self._is_self(node.value):
            self.names.update(target.id for target in node.targets if isinstance(target, ast.Name))

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "super"
        ):
            self.super_calls.setdefault(node.attr)
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


def _imported_from(file: SourceFile, name: str) -> Optional[str]:
    """The source module of ``from M import name`` anywhere in ``file``."""
    assert file.tree is not None
    for node in ast.walk(file.tree):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                if (alias.asname or alias.name) == name:
                    return node.module
    return None


def _next_definition(classes: List[ClassRef], caller: int, name: str) -> Optional[Method]:
    """What ``super().name`` in a method of ``classes[caller]`` resolves to."""
    for owner_file, owner in classes[caller + 1 :]:
        fn = _class_methods(owner).get(name)
        if fn is not None:
            return owner_file, fn
    return None


def _closure_accesses(
    index: ProjectIndex, classes: List[ClassRef], entry: str
) -> Tuple[Set[str], Dict[str, Tuple[SourceFile, int, int]]]:
    """``self.*`` loads and stores over the call closure rooted at ``entry``.

    Stores map each attribute to its first assignment in a depth-first walk
    in source order (the entry's own lines first): file, line and the
    base-order position of the assigning class (``len(classes)`` if none).
    """
    methods = _inherited_methods(classes)
    loads: Set[str] = set()
    stores: Dict[str, Tuple[SourceFile, int, int]] = {}
    visited: Set[Tuple[str, int, str, bool]] = set()

    def walk_body(
        body_file: SourceFile,
        fn: ast.FunctionDef,
        self_name: str,
        depth: int,
        view: bool = False,
    ) -> None:
        key = (body_file.rel, fn.lineno, self_name, view)
        if key in visited or depth > _MAX_DEPTH:
            return
        visited.add(key)
        collector = _SelfAccessCollector(self_name, view)
        collector.visit(fn)
        loads.update(collector.loads)
        owner = next(
            (position for position, (_, cls) in enumerate(classes) if fn in cls.body),
            len(classes),
        )
        for attr, line in collector.stores.items():
            stores.setdefault(attr, (body_file, line, owner))
        resolved_calls = [methods.get(attr) for attr in collector.self_calls]
        resolved_calls += [
            _next_definition(classes, owner, attr) for attr in collector.super_calls
        ]
        for resolved in resolved_calls:
            if resolved is not None and resolved[1].args.args:
                method_file, method = resolved
                walk_body(method_file, method, method.args.args[0].arg, depth + 1)
        for callee, position in collector.helper_calls:
            target = _resolve(index, body_file, callee)
            if target is None:
                continue
            target_file, found = target
            if isinstance(found, ast.ClassDef):  # a view: any method may read the instance
                for method in _class_methods(found).values():
                    if method.args.args:
                        walk_body(target_file, method, method.args.args[0].arg, depth + 1, True)
            elif isinstance(found, ast.FunctionDef) and position < len(found.args.args):
                walk_body(target_file, found, found.args.args[position].arg, depth + 1)

    root = methods.get(entry)
    if root is not None and root[1].args.args:
        walk_body(root[0], root[1], root[1].args.args[0].arg, 0)
    return loads, stores


def check_checkpoint_parity(index: ProjectIndex) -> Iterator[Finding]:
    """Compare the ``__init__`` closure's state against snapshot/restore."""
    reported: Set[Tuple[str, int, str]] = set()
    for file in index.iter_files("src/repro/"):
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            classes = _base_order(index, file, node)
            methods = _inherited_methods(classes)
            snapshot = methods.get("snapshot")
            restore = methods.get("restore")
            if snapshot is None or restore is None:
                continue
            if _is_stub(snapshot[1]) and _is_stub(restore[1]):
                continue  # protocol / ABC definition, not an implementation
            _, attributes = _closure_accesses(index, classes, "__init__")
            if not attributes:
                continue
            snapshot_loads, snapshot_stores = _closure_accesses(index, classes, "snapshot")
            snapshot_mentions = snapshot_loads | set(snapshot_stores)
            restore_loads, restore_stores = _closure_accesses(index, classes, "restore")
            restore_mentions = restore_loads | set(restore_stores)
            for attr, (site, line, owner) in attributes.items():
                declared = [  # in a class before the assigning one: its own site
                    (declaring_file, item.lineno)
                    for declaring_file, declaring in classes[:owner]
                    for item in declaring.body
                    if isinstance(item, ast.AnnAssign)
                    and item.value is None
                    and isinstance(item.target, ast.Name)
                    and item.target.id == attr
                ]
                site, line = declared[0] if declared else (site, line)
                missing: List[str] = []
                if attr not in snapshot_mentions:
                    missing.append("never read by snapshot()")
                if attr not in restore_mentions:
                    missing.append("never written by restore()")
                if not missing or (site.rel, line, attr) in reported:
                    continue
                reported.add((site.rel, line, attr))
                yield Finding(
                    check=CHECK,
                    path=site.rel,
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
