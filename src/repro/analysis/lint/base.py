"""Core types of the ``repro-mis lint`` static-analysis framework.

The framework is stdlib-only: every checker works on :mod:`ast` trees of the
project sources, so the whole suite runs in milliseconds with no third-party
dependency.  This module holds the pieces the checkers share:

* :class:`Finding` -- one diagnostic, with a line-number-free ``fingerprint``
  so a committed baseline survives unrelated edits;
* :class:`SourceFile` -- a parsed source file with its dotted module name,
  per-line ``# repro-lint:`` suppressions and an enclosing-symbol table;
* :class:`ProjectIndex` -- the parsed project (file list, module lookup,
  project-wide class index) handed to every checker;
* the checker registry (:func:`register_checker` /
  :func:`available_checkers`), built on :class:`repro.registry.Registry`
  exactly like the engine / network / sink / scheduler registries;
* small AST helpers (:func:`dotted_name`, :func:`call_name`) used by most
  checkers.

Suppression grammar (one physical line, same line as the flagged node)::

    x = hazard()  # repro-lint: determinism -- reason the hazard is accepted
    self._cache = {}  # repro-lint: transient -- derived, rebuilt on restore

``transient`` is an alias accepted by the ``checkpoint-parity`` checker for
attributes that are deliberately not part of the snapshot contract.  A bare
``# repro-lint: all`` silences every checker on that line (use sparingly; a
named check plus a reason is the reviewable form).
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.registry import LiveNames, Registry, UnknownNameError

#: Suppression alias consumed by the checkpoint-parity checker.
TRANSIENT = "transient"

_SUPPRESSION_RE = re.compile(
    r"#\s*repro-lint:\s*(?P<names>[A-Za-z0-9_,\- ]+?)\s*(?:--\s*(?P<reason>.*))?$"
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic produced by a checker.

    ``symbol`` is the enclosing dotted context (``Class.method`` or an
    attribute like ``Class._field``); together with ``check``, ``path`` and
    the message it forms the *fingerprint* -- deliberately excluding the line
    number, so baselined findings survive edits elsewhere in the file.
    """

    check: str
    path: str  # posix path relative to the lint root
    line: int
    col: int
    message: str
    symbol: str = ""

    @property
    def fingerprint(self) -> str:
        payload = f"{self.check}|{self.path}|{self.symbol}|{self.message}"
        return hashlib.sha1(payload.encode("utf-8")).hexdigest()[:16]

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.check)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "check": self.check,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
            "fingerprint": self.fingerprint,
        }

    def render(self) -> str:
        context = f" [{self.symbol}]" if self.symbol else ""
        return f"{self.path}:{self.line}:{self.col}: {self.check}: {self.message}{context}"


@dataclass(frozen=True)
class Suppression:
    """One parsed ``# repro-lint:`` comment (check names + optional reason)."""

    names: Tuple[str, ...]
    reason: Optional[str]

    def covers(self, check: str) -> bool:
        if "all" in self.names:
            return True
        if check in self.names:
            return True
        # ``transient`` is the documented alias for checkpoint-parity waivers.
        return TRANSIENT in self.names and check == "checkpoint-parity"


def parse_suppressions(text: str) -> Dict[int, Suppression]:
    """Per-line ``# repro-lint:`` comments of ``text`` (1-based line numbers).

    The scan is purely lexical (a regex per physical line), which keeps it
    robust on files the AST parser rejects; a suppression inside a string
    literal would be honored, the documented price of staying tokenizer-free.
    """
    suppressions: Dict[int, Suppression] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        match = _SUPPRESSION_RE.search(line)
        if match is None:
            continue
        names = tuple(
            name.strip() for name in match.group("names").split(",") if name.strip()
        )
        if names:
            suppressions[lineno] = Suppression(names=names, reason=match.group("reason"))
    return suppressions


class SourceFile:
    """One parsed project source file.

    Parameters
    ----------
    path:
        Absolute filesystem path.
    rel:
        Posix path relative to the lint root (the identity used in findings,
        baselines and suppression lookups).
    text:
        The file contents (kept so checkers can quote source lines).
    """

    def __init__(self, path: Path, rel: str, text: str) -> None:
        self.path = path
        self.rel = rel
        self.text = text
        self.tree: Optional[ast.Module] = None
        self.parse_error: Optional[SyntaxError] = None
        try:
            self.tree = ast.parse(text, filename=rel)
        except SyntaxError as error:
            self.parse_error = error
        self.suppressions = parse_suppressions(text)
        self.module = module_name_for(rel)
        self._symbols: Optional[Dict[int, str]] = None

    @classmethod
    def from_path(cls, path: Path, root: Path) -> "SourceFile":
        rel = path.relative_to(root).as_posix()
        return cls(path, rel, path.read_text(encoding="utf-8"))

    # -- symbol context ------------------------------------------------
    def symbol_at(self, node: ast.AST) -> str:
        """Dotted enclosing class/function context of ``node`` ("" at module level)."""
        if self._symbols is None:
            self._symbols = self._build_symbol_table()
        return self._symbols.get(id(node), "")

    def _build_symbol_table(self) -> Dict[int, str]:
        table: Dict[int, str] = {}
        if self.tree is None:
            return table

        def visit(node: ast.AST, context: str) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    inner = f"{context}.{child.name}" if context else child.name
                else:
                    inner = context
                table[id(child)] = inner
                visit(child, inner)

        table[id(self.tree)] = ""
        visit(self.tree, "")
        return table

    def suppressed(self, check: str, line: int) -> bool:
        suppression = self.suppressions.get(line)
        return suppression is not None and suppression.covers(check)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SourceFile({self.rel!r})"


def module_name_for(rel: str) -> Optional[str]:
    """Dotted module name of a ``src/``-rooted file (None outside ``src/``)."""
    if not rel.startswith("src/") or not rel.endswith(".py"):
        return None
    dotted = rel[len("src/") : -len(".py")].replace("/", ".")
    if dotted.endswith(".__init__"):
        dotted = dotted[: -len(".__init__")]
    return dotted


class ProjectIndex:
    """The parsed project handed to every checker.

    Checkers are project-wide functions (``checker(index) -> findings``), not
    per-file visitors, because three of the four shipped checks are
    cross-file by nature: registry discipline matches constructions against
    registrations elsewhere, the wire check matches the client against the
    daemon, and checkpoint parity follows snapshot helpers across modules.
    """

    def __init__(self, root: Path, files: Sequence[SourceFile]) -> None:
        self.root = root
        self.files: Tuple[SourceFile, ...] = tuple(files)
        self.by_rel: Dict[str, SourceFile] = {f.rel: f for f in self.files}
        self.by_module: Dict[str, SourceFile] = {
            f.module: f for f in self.files if f.module is not None
        }
        self._classes: Optional[Dict[str, List[Tuple[SourceFile, ast.ClassDef]]]] = None

    def iter_files(self, *prefixes: str) -> Iterator[SourceFile]:
        """Parsed files whose relative path starts with any prefix (all if none)."""
        for file in self.files:
            if file.tree is None:
                continue
            if not prefixes or any(file.rel.startswith(p) for p in prefixes):
                yield file

    @property
    def classes(self) -> Dict[str, List[Tuple[SourceFile, ast.ClassDef]]]:
        """Project-wide class index: class name -> [(file, ClassDef), ...]."""
        if self._classes is None:
            index: Dict[str, List[Tuple[SourceFile, ast.ClassDef]]] = {}
            for file in self.iter_files():
                assert file.tree is not None
                for node in ast.walk(file.tree):
                    if isinstance(node, ast.ClassDef):
                        index.setdefault(node.name, []).append((file, node))
            self._classes = index
        return self._classes

    def defining_file(self, class_name: str) -> Optional[SourceFile]:
        """The file defining ``class_name`` (None if absent or ambiguous)."""
        entries = self.classes.get(class_name, [])
        files = {file.rel for file, _ in entries}
        if len(files) == 1:
            return entries[0][0]
        return None


# ----------------------------------------------------------------------
# Checker registry (same mechanism as the backend registries)
# ----------------------------------------------------------------------
class UnknownCheckerError(UnknownNameError):
    """``--select`` / ``--ignore`` named a check that is not registered."""

    def __init__(self, name: str, known: Sequence[str]) -> None:
        super().__init__("checker", name, known)


@dataclass(frozen=True)
class CheckerSpec:
    """A registered checker: the callable plus its one-line description."""

    name: str
    checker: Callable[[ProjectIndex], Iterable[Finding]]
    description: str


def _check_checker_entry(name: str, value: Any) -> None:
    if not isinstance(value, CheckerSpec) or not callable(value.checker):
        raise TypeError(
            f"checker {name!r} must register a callable taking a ProjectIndex, "
            f"got {value!r}"
        )


_REGISTRY = Registry("checker", error=UnknownCheckerError, check_value=_check_checker_entry)


def register_checker(
    name: str,
    checker: Callable[[ProjectIndex], Iterable[Finding]],
    description: str = "",
    overwrite: bool = False,
) -> None:
    """Register ``checker`` under ``name`` (``checker(index) -> findings``).

    Third-party extensions use exactly this entry point; ``repro-mis lint``
    picks every registered checker up without further wiring, and
    ``--select`` / ``--ignore`` accept the new name immediately.
    """
    _REGISTRY.register(name, CheckerSpec(name, checker, description), overwrite=overwrite)


def unregister_checker(name: str) -> None:
    """Remove ``name`` from the registry (no-op if absent; mainly for tests)."""
    _REGISTRY.unregister(name)


def available_checkers() -> Tuple[str, ...]:
    """The registered checker names, in registration order."""
    return _REGISTRY.names()


def get_checker(name: str) -> CheckerSpec:
    """The :class:`CheckerSpec` for ``name`` (raises with a did-you-mean hint)."""
    return _REGISTRY.get(name)


#: Live view of the registered checker names.
CHECKER_NAMES = LiveNames(_REGISTRY)


# ----------------------------------------------------------------------
# Shared AST helpers
# ----------------------------------------------------------------------
def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def call_name(node: ast.Call) -> Optional[str]:
    """The dotted callee name of a Call (None for computed callees)."""
    return dotted_name(node.func)


def str_constant(node: ast.AST) -> Optional[str]:
    """The value of a string-literal node, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def build_parents(tree: ast.AST) -> Dict[int, ast.AST]:
    """Map ``id(child) -> parent`` for every node (consumer-context lookups)."""
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents
