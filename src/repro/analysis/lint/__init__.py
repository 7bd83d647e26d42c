"""``repro-mis lint``: AST-based contract checkers for the reproduction.

The dynamic correctness story (seeded differential replay, checkpoint/resume
differentials, wire-level service tests) only catches a contract violation
when a seed happens to hit it.  This package is the static rung underneath:
four stdlib-:mod:`ast` checkers that flag the violation *at lint time*, in
milliseconds, on every PR:

============================  ====================================================
``determinism``               unseeded RNGs, wall-clock reads, unsorted set
                              iteration, float priority equality
``checkpoint-parity``         ``snapshot()`` / ``restore()`` cover every
                              ``__init__``-assigned attribute (or it is waived
                              ``transient``)
``registry-discipline``       backends are built via ``create_engine`` /
                              ``create_network`` / ``create_sink`` /
                              ``create_scheduler``
``wire-protocol``             service client verbs, daemon dispatch tables and
                              typed error kinds stay consistent
============================  ====================================================

Extend with :func:`register_checker` -- the registry is the same mechanism
(:class:`repro.registry.Registry`) behind the engine / network / sink /
scheduler registries, so ``repro-mis lint --select my-check`` works the
moment a third-party module registers ``my-check``.

Suppress one line with ``# repro-lint: <check> -- reason``; accept existing
findings wholesale via the committed ``lint-baseline.json`` (see
:mod:`repro.analysis.lint.runner`).
"""

from repro.analysis.lint.base import (
    CHECKER_NAMES,
    CheckerSpec,
    Finding,
    ProjectIndex,
    SourceFile,
    Suppression,
    UnknownCheckerError,
    available_checkers,
    get_checker,
    parse_suppressions,
    register_checker,
    unregister_checker,
)
from repro.analysis.lint.runner import (
    BASELINE_FILENAME,
    DEFAULT_PATHS,
    BaselineError,
    LintReport,
    build_index,
    load_baseline,
    render_json,
    render_text,
    run_lint,
    run_lint_command,
    split_by_baseline,
    write_baseline,
)

__all__ = [
    "BASELINE_FILENAME",
    "BaselineError",
    "CHECKER_NAMES",
    "CheckerSpec",
    "DEFAULT_PATHS",
    "Finding",
    "LintReport",
    "ProjectIndex",
    "SourceFile",
    "Suppression",
    "UnknownCheckerError",
    "available_checkers",
    "build_index",
    "get_checker",
    "load_baseline",
    "parse_suppressions",
    "register_checker",
    "render_json",
    "render_text",
    "run_lint",
    "run_lint_command",
    "split_by_baseline",
    "unregister_checker",
    "write_baseline",
]
