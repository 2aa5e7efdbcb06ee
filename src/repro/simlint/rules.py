"""Rule registry and violation model for the determinism linter.

Every check the linter can make is a :class:`Rule` with a stable
``SIM1xx`` code (codes are API: suppression comments, ``--select`` /
``--ignore``, CI logs, and the DESIGN.md contract table all reference
them).  Checks register themselves with :func:`rule`; the engine runs
every registered check unless the caller narrows the set.

Suppression is comment-driven, per line or per file::

    t0 = time.perf_counter()          # simlint: disable=SIM101
    # simlint: file-disable=SIM102,SIM105   (anywhere in the file)

``disable=all`` suppresses every rule for that line (or file).
"""

from __future__ import annotations

import io
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple


@dataclass(frozen=True)
class Rule:
    """One registered determinism check."""

    code: str          # stable "SIM1xx" identifier
    name: str          # short kebab-case slug, e.g. "wall-clock"
    summary: str       # one-line contract statement
    check: Callable    # check(tree, ctx) -> None; reports via ctx.report()


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, and what to do about it."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Violation":
        return cls(
            path=data["path"],
            line=int(data["line"]),
            col=int(data["col"]),
            code=data["code"],
            message=data["message"],
        )


#: every registered rule, keyed by code (populated by repro.simlint.checks)
REGISTRY: Dict[str, Rule] = {}


def rule(code: str, name: str, summary: str):
    """Decorator: register ``check(tree, ctx)`` under a SIM1xx code."""
    def register(check: Callable) -> Callable:
        if code in REGISTRY:
            raise ValueError(f"duplicate rule code {code}")
        REGISTRY[code] = Rule(code=code, name=name, summary=summary, check=check)
        return check
    return register


def all_codes() -> List[str]:
    return sorted(REGISTRY)


# ----------------------------------------------------------------------
# Suppression comments
# ----------------------------------------------------------------------
_DIRECTIVE = "simlint:"


def _parse_directive(comment: str) -> Optional[Tuple[str, Set[str]]]:
    """``(kind, codes)`` from one comment, or None.

    ``kind`` is ``"line"`` or ``"file"``; ``codes`` is the set of
    suppressed SIM codes, or ``{"all"}``.
    """
    text = comment.lstrip("#").strip()
    # the directive may trail another comment: `# noqa  # simlint: ...`
    marker = text.find(_DIRECTIVE)
    if marker == -1:
        return None
    text = text[marker + len(_DIRECTIVE):].strip()
    for prefix, kind in (("file-disable=", "file"), ("disable=", "line")):
        if text.startswith(prefix):
            spec = text[len(prefix):].split()[0] if text[len(prefix):] else ""
            codes = {code.strip() for code in spec.split(",") if code.strip()}
            return (kind, codes) if codes else None
    return None


@dataclass
class Suppressions:
    """Per-file suppression state parsed from comments."""

    file_codes: Set[str] = field(default_factory=set)
    line_codes: Dict[int, Set[str]] = field(default_factory=dict)

    def suppressed(self, line: int, code: str) -> bool:
        if "all" in self.file_codes or code in self.file_codes:
            return True
        codes = self.line_codes.get(line)
        return codes is not None and ("all" in codes or code in codes)


def parse_suppressions(source: str) -> Suppressions:
    """Scan the token stream for ``# simlint:`` directives."""
    out = Suppressions()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for token in tokens:
            if token.type != tokenize.COMMENT:
                continue
            parsed = _parse_directive(token.string)
            if parsed is None:
                continue
            kind, codes = parsed
            if kind == "file":
                out.file_codes |= codes
            else:
                out.line_codes.setdefault(token.start[0], set()).update(codes)
    except tokenize.TokenError:
        pass  # a truncated stream still yields the directives before it
    return out


# ----------------------------------------------------------------------
# Check context
# ----------------------------------------------------------------------
class CheckContext:
    """What a check sees: the file's identity and a report sink.

    ``in_clock_allowlist`` marks files where wall-clock reads are the
    point (the ``obs`` instrumentation package, benchmark harnesses) so
    SIM101 stays quiet there without per-line noise.
    """

    def __init__(self, path: str, source: str,
                 in_clock_allowlist: bool = False):
        self.path = path
        self.source = source
        self.in_clock_allowlist = in_clock_allowlist
        self.violations: List[Violation] = []

    def report(self, node, code: str, message: str) -> None:
        self.violations.append(Violation(
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0),
            code=code,
            message=message,
        ))


def filter_codes(codes: Iterable[str],
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None) -> List[str]:
    """The enabled rule codes after ``--select`` / ``--ignore``.

    Entries match exactly or by prefix: ``--select SIM10`` enables
    SIM101..SIM109, ``--ignore SIM10`` drops them.
    """
    chosen = list(codes)
    if select:
        wanted = set(select)
        unknown = {
            entry for entry in wanted
            if not any(code.startswith(entry) for code in chosen)
        }
        if unknown:
            raise ValueError(f"unknown rule code(s): {sorted(unknown)}")
        chosen = [code for code in chosen
                  if any(code.startswith(entry) for entry in wanted)]
    if ignore:
        dropped = set(ignore)
        chosen = [code for code in chosen
                  if not any(code.startswith(entry) for entry in dropped)]
    return chosen
