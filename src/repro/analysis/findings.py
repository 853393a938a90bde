"""Structured findings and the ``# repro: allow(<rule>)`` suppression
syntax shared by every analysis pass.

A finding is (rule id, file, line, message).  A finding is *suppressed*
when the offending line — or a standalone comment on the line directly
above it — carries ``# repro: allow(rule)`` naming its rule (several
rules may be comma-separated).  Only a real comment counts:
:func:`allow_comments` reads them with the tokenizer, once per file, for
both :func:`apply_suppressions` and :func:`dead_suppressions`.
Suppressed findings are still reported, separately, so the EXPERIMENTS
table can count what was waived and CI output shows where.
"""

from __future__ import annotations

import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import NamedTuple

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\(([^)]*)\)")


@dataclass
class Finding:
    """One rule violation at a source location."""

    rule: str
    path: str          # repo-relative path
    line: int          # 1-based
    message: str
    suppressed: bool = False

    def render(self) -> str:
        tag = " (suppressed)" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.rule}: {self.message}{tag}"


@dataclass
class AnalysisReport:
    """Findings accumulated across passes, with per-pass statistics."""

    findings: list[Finding] = field(default_factory=list)
    stats: dict[str, dict] = field(default_factory=dict)

    def extend(self, findings) -> None:
        self.findings.extend(findings)

    @property
    def active(self) -> list[Finding]:
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> list[Finding]:
        return [f for f in self.findings if f.suppressed]

    def by_rule(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for f in self.active:
            counts[f.rule] = counts.get(f.rule, 0) + 1
        return counts

    @property
    def clean(self) -> bool:
        return not self.active

    def summary_lines(self) -> list[str]:
        lines = []
        for name in sorted(self.stats):
            detail = ", ".join(f"{k}={v}" for k, v in self.stats[name].items())
            lines.append(f"{name}: {detail}")
        counts = self.by_rule()
        if counts:
            lines.append("violations by rule: " + ", ".join(
                f"{rule}={n}" for rule, n in sorted(counts.items())))
        lines.append(f"{len(self.active)} violations, "
                     f"{len(self.suppressed)} suppressed")
        return lines


class Allow(NamedTuple):
    """One ``# repro: allow(...)`` comment."""

    line: int
    covers: tuple[int, ...]   # its line; the next too if it stands alone
    rules: tuple[str, ...]


def allow_comments(source: str) -> list[Allow]:
    """Every allow comment of a file, read by the tokenizer: a string or
    docstring that merely contains the syntax waives nothing."""
    if not _ALLOW_RE.search(source):
        return []   # no comment can match: skip tokenizing
    allows = []
    try:
        for token in tokenize.generate_tokens(io.StringIO(source).readline):
            match = _ALLOW_RE.search(token.string) \
                if token.type == tokenize.COMMENT else None
            if not match:
                continue
            line = token.start[0]
            own_line = not token.line[:token.start[1]].strip()
            allows.append(Allow(
                line=line,
                covers=(line, line + 1) if own_line else (line,),
                rules=tuple(rule.strip() for rule in
                            match.group(1).split(",") if rule.strip())))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        pass  # unparsable files are the parse-error rule's business
    return allows


def apply_suppressions(findings: list[Finding],
                       allows_by_path: dict[str, list[Allow]]) -> None:
    """Mark findings whose location carries a matching allow comment."""
    for finding in findings:
        if any(finding.line in allow.covers and finding.rule in allow.rules
               for allow in allows_by_path.get(finding.path, ())):
            finding.suppressed = True


def dead_suppressions(findings: list[Finding],
                      allows_by_path: dict[str, list[Allow]]) -> list[Finding]:
    """Findings for ``allow`` comments that no longer suppress anything.

    Run *after* :func:`apply_suppressions` over the full finding set: a
    ``# repro: allow(rule)`` comment is *dead* when no (now-suppressed)
    finding of that rule sits on a line the comment covers — the waiver
    outlived the violation it was written for and should be deleted.
    Only meaningful when every pass that could produce the rule actually
    ran, so the caller gates this on an un-skipped run.
    """
    dead: list[Finding] = []
    for path in sorted(allows_by_path):
        matched = {(f.rule, f.line) for f in findings
                   if f.path == path and f.suppressed}
        for allow in allows_by_path[path]:
            for rule in allow.rules:
                if not any((rule, line) in matched for line in allow.covers):
                    dead.append(Finding(
                        rule="suppression.dead", path=path, line=allow.line,
                        message=f"'# repro: allow({rule})' suppresses "
                                f"nothing — the finding it waived is "
                                f"gone; delete the comment"))
    return dead
