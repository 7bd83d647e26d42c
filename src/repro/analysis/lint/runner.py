"""Discovery, execution, baseline and output of ``repro-mis lint``.

The runner parses the project once into a :class:`ProjectIndex`, hands it to
every selected checker, filters ``# repro-lint:`` suppressions, and diffs
the surviving findings against the committed baseline file.  All diagnostic
chatter goes to *stderr*; ``--format json`` keeps stdout machine-pure so
``repro-mis lint --format json | jq ...`` works (regression-tested).

Baseline semantics mirror the usual lint-gate recipe: a finding whose
fingerprint (line-number free, see :class:`~repro.analysis.lint.base.Finding`)
is listed in the baseline is *accepted* -- reported to stderr as baselined,
not failing the run.  New findings fail with exit code 1.  Baseline entries
that no longer match anything are reported as stale (fix committed or code
gone) without failing, so the file can be pruned opportunistically with
``--write-baseline``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, TextIO, Tuple

from repro.analysis.lint.base import (
    CheckerSpec,
    Finding,
    ProjectIndex,
    SourceFile,
    available_checkers,
    get_checker,
)

# Importing the checker modules registers the built-in suite.
from repro.analysis.lint import (  # noqa: F401  (registration side effects)
    checkpoint_parity as _checkpoint_parity,
    determinism as _determinism,
    registry_discipline as _registry_discipline,
    wire_protocol as _wire_protocol,
)

#: Default lint scope (tests construct hazards on purpose and are excluded).
DEFAULT_PATHS: Tuple[str, ...] = ("src/repro", "benchmarks", "examples")

#: Default committed-baseline filename, resolved against the lint root.
BASELINE_FILENAME = "lint-baseline.json"

_BASELINE_VERSION = 1


@dataclass
class LintReport:
    """Everything one lint run produced, before baseline application."""

    root: Path
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    checked_files: int = 0
    checkers: Tuple[str, ...] = ()


def build_index(root: Path, paths: Sequence[str] = DEFAULT_PATHS) -> ProjectIndex:
    """Parse every ``*.py`` under ``root``/``paths`` into a project index."""
    root = root.resolve()
    seen: Set[Path] = set()
    files: List[SourceFile] = []
    for entry in paths:
        base = (root / entry).resolve()
        if base.is_file() and base.suffix == ".py":
            candidates = [base]
        elif base.is_dir():
            candidates = sorted(base.rglob("*.py"))
        else:
            continue
        for path in candidates:
            if "__pycache__" in path.parts or path in seen:
                continue
            seen.add(path)
            files.append(SourceFile.from_path(path, root))
    files.sort(key=lambda f: f.rel)
    return ProjectIndex(root, files)


def select_checkers(
    select: Optional[Sequence[str]] = None, ignore: Optional[Sequence[str]] = None
) -> List[CheckerSpec]:
    """The checkers to run; unknown names raise with a did-you-mean hint."""
    names = list(select) if select else list(available_checkers())
    for name in list(names) + list(ignore or ()):
        get_checker(name)  # raises UnknownCheckerError with a hint
    ignored = set(ignore or ())
    return [get_checker(name) for name in names if name not in ignored]


def run_lint(
    root: Path,
    paths: Sequence[str] = DEFAULT_PATHS,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    index: Optional[ProjectIndex] = None,
) -> LintReport:
    """Run the selected checkers over ``root`` and apply suppressions."""
    if index is None:
        index = build_index(root, paths)
    checkers = select_checkers(select, ignore)
    report = LintReport(
        root=index.root,
        checked_files=len(index.files),
        checkers=tuple(spec.name for spec in checkers),
    )
    # Unparseable files are findings, not crashes: the linter runs in CI
    # where a syntax error should point at the file, like any other finding.
    for file in index.files:
        if file.parse_error is not None:
            report.findings.append(
                Finding(
                    check="syntax",
                    path=file.rel,
                    line=file.parse_error.lineno or 1,
                    col=(file.parse_error.offset or 1) - 1,
                    message=f"file does not parse: {file.parse_error.msg}",
                )
            )
    for spec in checkers:
        for finding in spec.checker(index):
            source = index.by_rel.get(finding.path)
            if source is not None and source.suppressed(finding.check, finding.line):
                report.suppressed += 1
                continue
            report.findings.append(finding)
    report.findings.sort(key=lambda f: f.sort_key)
    return report


# ----------------------------------------------------------------------
# Baseline
# ----------------------------------------------------------------------
class BaselineError(ValueError):
    """The baseline file exists but is not a valid baseline document."""


def load_baseline(path: Path) -> Set[str]:
    """The accepted fingerprints of a committed baseline file."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as error:
        raise BaselineError(f"baseline {path} is not valid JSON: {error}") from None
    if (
        not isinstance(document, dict)
        or document.get("version") != _BASELINE_VERSION
        or not isinstance(document.get("findings"), list)
    ):
        raise BaselineError(
            f"baseline {path} must be "
            f'{{"version": {_BASELINE_VERSION}, "findings": [...]}}'
        )
    fingerprints: Set[str] = set()
    for entry in document["findings"]:
        if not isinstance(entry, dict) or "fingerprint" not in entry:
            raise BaselineError(f"baseline {path}: every finding needs a fingerprint")
        fingerprints.add(entry["fingerprint"])
    return fingerprints


def write_baseline(path: Path, findings: Sequence[Finding]) -> None:
    """Write ``findings`` as the new accepted baseline (sorted, stable)."""
    document = {
        "version": _BASELINE_VERSION,
        "findings": [f.to_dict() for f in sorted(findings, key=lambda f: f.sort_key)],
    }
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


def split_by_baseline(
    findings: Sequence[Finding], accepted: Set[str]
) -> Tuple[List[Finding], List[Finding], Set[str]]:
    """``(new, baselined, stale fingerprints)`` of one run vs the baseline."""
    new: List[Finding] = []
    baselined: List[Finding] = []
    seen: Set[str] = set()
    for finding in findings:
        if finding.fingerprint in accepted:
            baselined.append(finding)
            seen.add(finding.fingerprint)
        else:
            new.append(finding)
    return new, baselined, accepted - seen


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def render_text(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Set[str],
    report: LintReport,
) -> str:
    """Human-readable result block (stdout in text mode)."""
    lines: List[str] = [finding.render() for finding in new]
    summary = (
        f"{len(new)} finding(s) ({len(baselined)} baselined, "
        f"{report.suppressed} suppressed) across {report.checked_files} files; "
        f"checkers: {', '.join(report.checkers)}"
    )
    if stale:
        summary += f"; {len(stale)} stale baseline entr{'y' if len(stale) == 1 else 'ies'}"
    lines.append(summary)
    return "\n".join(lines)


def render_json(
    new: Sequence[Finding],
    baselined: Sequence[Finding],
    stale: Set[str],
    report: LintReport,
) -> Dict:
    """Machine document (stdout in ``--format json``; stable key order)."""
    return {
        "version": _BASELINE_VERSION,
        "root": str(report.root),
        "checkers": list(report.checkers),
        "checked_files": report.checked_files,
        "suppressed": report.suppressed,
        "findings": [f.to_dict() for f in new],
        "baselined": [f.to_dict() for f in baselined],
        "stale_baseline": sorted(stale),
    }


def run_lint_command(
    root: Path,
    paths: Sequence[str] = DEFAULT_PATHS,
    output_format: str = "text",
    baseline_path: Optional[Path] = None,
    no_baseline: bool = False,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
    write_baseline_path: Optional[Path] = None,
    stdout: Optional[TextIO] = None,
    stderr: Optional[TextIO] = None,
) -> int:
    """The full ``repro-mis lint`` command; returns the process exit code.

    Exit codes: 0 clean (modulo baseline), 1 new findings, 2 usage/baseline
    problems.  Machine output (text findings or the JSON document) goes to
    ``stdout``; every diagnostic goes to ``stderr``.
    """
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    root = root.resolve()
    report = run_lint(root, paths=paths, select=select, ignore=ignore)

    accepted: Set[str] = set()
    resolved_baseline = baseline_path
    if not no_baseline:
        if resolved_baseline is None:
            default = root / BASELINE_FILENAME
            if default.is_file():
                resolved_baseline = default
        if resolved_baseline is not None:
            accepted = load_baseline(resolved_baseline)
            print(
                f"baseline: {resolved_baseline} ({len(accepted)} accepted)",
                file=err,
            )
    new, baselined, stale = split_by_baseline(report.findings, accepted)

    if write_baseline_path is not None:
        write_baseline(write_baseline_path, report.findings)
        print(
            f"wrote baseline {write_baseline_path} "
            f"({len(report.findings)} finding(s))",
            file=err,
        )

    if output_format == "json":
        json.dump(render_json(new, baselined, stale, report), out, indent=2)
        out.write("\n")
    else:
        out.write(render_text(new, baselined, stale, report) + "\n")
    for fingerprint in sorted(stale):
        print(f"stale baseline entry (no longer matches): {fingerprint}", file=err)
    return 1 if new else 0
