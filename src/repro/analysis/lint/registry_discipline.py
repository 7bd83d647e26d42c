"""``registry-discipline``: backends are built through the registries.

PR 2-8 funnel every backend family through one front door --
``create_engine`` / ``create_network`` / ``create_sink`` /
``create_scheduler`` -- so selectors, scenario specs, the service layer and
the differential harnesses all see the same construction path.  A direct
``FastEngine(...)`` in a benchmark silently skips that path: it keeps
working when the registration breaks, pins the concrete class where a spec
string belongs, and drifts from what ``repro-mis run`` would build.

The checker discovers the protected classes *from the registrations
themselves* (no hand-maintained list to drift):

* ``register_scheduler("fixed", FixedDelayScheduler, ...)`` -- the class is
  the argument;
* ``register_engine("fast", _fast_factory)`` -- the factory's body is
  scanned for ``return ClassName(...)`` (and the ``from ... import`` inside
  it names the defining module);
* ``register_network("dict", {"buffered": _dict_buffered, ...})`` -- dict
  values resolve like factories.

A construction is then flagged unless it happens in the class's defining
module or the registering module (where the factories live).  A class
whose constructor dispatches through the registry itself earns no
exemption: ``create_network`` / ``create_engine`` are the one way to pick
a backend.  ``tests/`` are outside the lint scope by default: tests
construct concrete backends on purpose.

Suppress an intentional site (e.g. a simulator's internal default scheduler)
with ``# repro-lint: registry-discipline -- reason``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.base import (
    Finding,
    ProjectIndex,
    SourceFile,
    call_name,
    register_checker,
)

CHECK = "registry-discipline"

#: register_* entry point -> the front-door builder to recommend.
_REGISTRARS = {
    "register_engine": "create_engine",
    "register_network": "create_network",
    "register_sink": "create_sink",
    "register_scheduler": "create_scheduler",
}

@dataclass(frozen=True)
class _Backend:
    """One registered backend class and where constructing it is sanctioned."""

    class_name: str
    front_door: str  # the create_* builder to recommend
    sanctioned_rels: Tuple[str, ...]  # defining + registering module paths


def _factory_classes(
    index: ProjectIndex, file: SourceFile, factory: ast.FunctionDef
) -> Iterator[Tuple[str, Optional[str]]]:
    """``(class name, defining module)`` for classes a factory constructs.

    The built-in factories follow one idiom: a local ``from M import C``
    (lazy import, no circularity) followed by ``return C(...)``.  The local
    import names the defining module directly; otherwise the project-wide
    class index resolves it.
    """
    local_imports: Dict[str, str] = {}
    for node in ast.walk(factory):
        if isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                local_imports[alias.asname or alias.name] = node.module
    for node in ast.walk(factory):
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Call):
            callee = node.value.func
            if isinstance(callee, ast.Name) and callee.id[:1].isupper():
                yield callee.id, local_imports.get(callee.id)


def _resolve_registration_arg(
    index: ProjectIndex, file: SourceFile, node: ast.AST
) -> Iterator[Tuple[str, Optional[str]]]:
    """Backend ``(class name, defining module)`` pairs named by one argument."""
    assert file.tree is not None
    if isinstance(node, ast.Dict):
        for value in node.values:
            yield from _resolve_registration_arg(index, file, value)
        return
    if not isinstance(node, ast.Name):
        return
    for top in file.tree.body:
        if isinstance(top, ast.ClassDef) and top.name == node.id:
            yield node.id, file.module
            return
        if isinstance(top, ast.FunctionDef) and top.name == node.id:
            yield from _factory_classes(index, file, top)
            return
    # An imported class registered directly: the class index finds its home.
    if node.id[:1].isupper():
        yield node.id, None


def _collect_backends(index: ProjectIndex) -> List[_Backend]:
    backends: Dict[str, _Backend] = {}
    for file in index.iter_files("src/repro/"):
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            name = call_name(node)
            registrar = name.rsplit(".", 1)[-1] if name else None
            if registrar not in _REGISTRARS or len(node.args) < 2:
                continue
            for class_name, defining_module in _resolve_registration_arg(
                index, file, node.args[1]
            ):
                sanctioned: Set[str] = {file.rel}
                if defining_module is not None:
                    defining = index.by_module.get(defining_module)
                    if defining is not None:
                        sanctioned.add(defining.rel)
                else:
                    defining = index.defining_file(class_name)
                    if defining is not None:
                        sanctioned.add(defining.rel)
                backends[class_name] = _Backend(
                    class_name=class_name,
                    front_door=_REGISTRARS[registrar],
                    sanctioned_rels=tuple(sorted(sanctioned)),
                )
    return list(backends.values())


def check_registry_discipline(index: ProjectIndex) -> Iterator[Finding]:
    """Flag direct constructions of registered backend classes."""
    backends = {b.class_name: b for b in _collect_backends(index)}
    if not backends:
        return
    for file in index.iter_files():
        assert file.tree is not None
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = call_name(node)
            if callee is None:
                continue
            terminal = callee.rsplit(".", 1)[-1]
            backend = backends.get(terminal)
            if backend is None:
                continue
            if file.rel in backend.sanctioned_rels:
                continue
            yield Finding(
                check=CHECK,
                path=file.rel,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"direct construction of registered backend "
                    f"{backend.class_name}; build it through "
                    f"{backend.front_door}(...) so selectors, specs and the "
                    "service layer stay interchangeable"
                ),
                symbol=file.symbol_at(node),
            )


register_checker(
    CHECK,
    check_registry_discipline,
    "registered backend classes are constructed via create_engine / "
    "create_network / create_sink / create_scheduler, not directly",
)
