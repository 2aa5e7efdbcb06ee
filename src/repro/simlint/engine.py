"""Lint driver: walk files, parse, run rules, apply suppressions.

The engine is what ``repro lint`` (and the CI gate) calls::

    violations = lint_paths(["src/repro"])
    sys.exit(1 if violations else 0)

Escape hatches keep the gate honest rather than noisy:

* the **clock allowlist** — files under an ``obs``/``benchmarks``
  directory (or named ``bench*``) may read the wall clock, because
  measuring wall time is their job; SIM101 is informational there.
* **suppression comments** (``# simlint: disable=SIM101``) — for the
  handful of intentional violations elsewhere.  Suppressions are part
  of the diff, so every exception is reviewed like any other code.
* **baselines** (``--baseline findings.json``) — a versioned-JSON
  snapshot of pre-existing findings so a new rule can land strict
  without a big-bang cleanup; see :mod:`repro.simlint.reporting`.
* ``--diff BASE`` — lint only files changed against a git ref, the
  pre-commit fast path.
"""

from __future__ import annotations

import ast
import os
import subprocess
from typing import Iterable, List, Optional, Sequence

# importing the check modules fills the rule registry
import repro.simlint.checks  # noqa: F401  # simlint: disable=SIM108
from repro.simlint.rules import (
    CheckContext,
    Violation,
    all_codes,
    filter_codes,
    parse_suppressions,
)

#: path components whose files measure wall time on purpose
CLOCK_ALLOWLIST_DIRS = ("obs", "benchmarks")


def in_clock_allowlist(path: str) -> bool:
    """True for files whose job is wall-time measurement (SIM101 off)."""
    parts = os.path.normpath(path).split(os.sep)
    if any(part in CLOCK_ALLOWLIST_DIRS for part in parts[:-1]):
        return True
    return os.path.basename(path).startswith("bench")


def lint_source(
    source: str,
    path: str = "<string>",
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint one module's source text; returns unsuppressed violations."""
    codes = filter_codes(all_codes(), select=select, ignore=ignore)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation(path=path, line=exc.lineno or 0,
                          col=exc.offset or 0, code="SIM100",
                          message=f"syntax error: {exc.msg}")]
    ctx = CheckContext(path, source, in_clock_allowlist=in_clock_allowlist(path))
    from repro.simlint.checks import run_checks

    run_checks(tree, ctx, codes)
    suppressions = parse_suppressions(source)
    kept = [
        violation for violation in ctx.violations
        if not suppressions.suppressed(violation.line, violation.code)
    ]
    kept.sort(key=lambda violation: (violation.line, violation.col, violation.code))
    return kept


def iter_python_files(paths: Iterable[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames.sort()
                dirnames[:] = [name for name in dirnames
                               if name not in ("__pycache__", ".git")]
                out.extend(
                    os.path.join(dirpath, name)
                    for name in sorted(filenames) if name.endswith(".py")
                )
        else:
            out.append(path)
    return out


def lint_paths(
    paths: Iterable[str],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Violation]:
    """Lint every ``.py`` file under ``paths`` (deterministic order)."""
    violations: List[Violation] = []
    for filename in iter_python_files(paths):
        with open(filename, encoding="utf-8") as handle:
            source = handle.read()
        violations.extend(
            lint_source(source, path=filename, select=select, ignore=ignore)
        )
    return violations


# ----------------------------------------------------------------------
# --diff: restrict the walk to files changed against a git ref
# ----------------------------------------------------------------------
def changed_python_files(base: str, paths: Iterable[str]) -> List[str]:
    """The subset of ``paths``' python files changed vs git ref ``base``.

    Deleted files drop out naturally (they no longer exist on disk).
    Raises ``RuntimeError`` when git cannot resolve the ref — a silent
    empty list would make the pre-commit hook vacuously green.
    """
    proc = subprocess.run(
        ["git", "diff", "--name-only", "-z", base, "--"],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"git diff against {base!r} failed: {proc.stderr.strip()}"
        )
    root_proc = subprocess.run(
        ["git", "rev-parse", "--show-toplevel"],
        capture_output=True, text=True,
    )
    root = root_proc.stdout.strip() or os.getcwd()
    changed = {
        os.path.abspath(os.path.join(root, name))
        for name in proc.stdout.split("\0")
        if name.endswith(".py")
    }
    return [
        filename for filename in iter_python_files(paths)
        if os.path.abspath(filename) in changed and os.path.exists(filename)
    ]
