"""Issue and report data model of the static-analysis subsystem.

Every checker emits :class:`Issue` objects; the :class:`AnalyzerRunner`
aggregates them into a :class:`Report` that renders either as compiler-style
text (``file:line:col: severity: [checker] message``) or as JSON with a
stable, versioned schema (see ``ANALYSIS.md``).  The JSON form is the
interchange format: ``Report.from_dict(report.to_dict())`` is a fixpoint and
the planted-defect scenario round-trips every report through it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

__all__ = ["Issue", "Report", "ReportError", "SCHEMA_VERSION", "Severity"]

#: Version of the JSON report schema; bump on breaking layout changes.
SCHEMA_VERSION = 1


class ReportError(ValueError):
    """Raised when a serialized report does not match the schema."""


class Severity(Enum):
    """How bad a finding is.  Orderable: ``ERROR > WARNING > INFO``."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return {"error": 2, "warning": 1, "info": 0}[self.value]

    def __lt__(self, other: "Severity") -> bool:
        return self.rank < other.rank

    def __le__(self, other: "Severity") -> bool:
        return self.rank <= other.rank

    def __gt__(self, other: "Severity") -> bool:
        return self.rank > other.rank

    def __ge__(self, other: "Severity") -> bool:
        return self.rank >= other.rank


@dataclass(frozen=True)
class Issue:
    """One finding of one checker, anchored to a source location."""

    checker: str                 # registered checker name (or "frontend")
    severity: Severity
    message: str
    file: str = "<source>"
    line: int = 0
    column: int = 0
    function: str = ""           # enclosing function name, when known
    variable: str = ""           # primary variable/array the finding is about
    fix_hint: str = ""           # actionable suggestion, free text

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Compiler-style one-line rendering."""
        anchor = f"{self.file}:{self.line}:{self.column}"
        text = f"{anchor}: {self.severity.value}: [{self.checker}] {self.message}"
        if self.fix_hint:
            text += f" (hint: {self.fix_hint})"
        return text

    def to_dict(self) -> Dict[str, object]:
        return {
            "checker": self.checker,
            "severity": self.severity.value,
            "message": self.message,
            "file": self.file,
            "line": self.line,
            "column": self.column,
            "function": self.function,
            "variable": self.variable,
            "fix_hint": self.fix_hint,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Issue":
        try:
            severity = Severity(str(payload["severity"]))
        except (KeyError, ValueError) as error:
            raise ReportError(f"issue has a bad 'severity' field: {error}")
        missing = [key for key in ("checker", "message") if key not in payload]
        if missing:
            raise ReportError(f"issue is missing required fields {missing}")
        return cls(
            checker=str(payload["checker"]),
            severity=severity,
            message=str(payload["message"]),
            file=str(payload.get("file", "<source>")),
            line=int(payload.get("line", 0)),
            column=int(payload.get("column", 0)),
            function=str(payload.get("function", "")),
            variable=str(payload.get("variable", "")),
            fix_hint=str(payload.get("fix_hint", "")),
        )

    def sort_key(self) -> Tuple:
        return (self.file, self.line, self.column, -self.severity.rank,
                self.checker, self.message)


@dataclass(frozen=True)
class Report:
    """Aggregated findings of one analyzer run over one or more files."""

    issues: Tuple[Issue, ...] = ()
    files: Tuple[str, ...] = ()
    checkers: Tuple[str, ...] = ()

    # ------------------------------------------------------------------ #
    @property
    def ok(self) -> bool:
        """True when no issue reaches error severity."""
        return not any(i.severity is Severity.ERROR for i in self.issues)

    def count(self, severity: Optional[Severity] = None) -> int:
        if severity is None:
            return len(self.issues)
        return sum(1 for issue in self.issues if issue.severity is severity)

    def by_checker(self) -> Dict[str, List[Issue]]:
        grouped: Dict[str, List[Issue]] = {}
        for issue in self.issues:
            grouped.setdefault(issue.checker, []).append(issue)
        return grouped

    def merged(self, other: "Report") -> "Report":
        """Combine two reports (multi-file CLI runs)."""
        checkers = tuple(dict.fromkeys(self.checkers + other.checkers))
        return Report(
            issues=tuple(sorted(self.issues + other.issues,
                                key=Issue.sort_key)),
            files=tuple(dict.fromkeys(self.files + other.files)),
            checkers=checkers,
        )

    # ------------------------------------------------------------------ #
    def render(self) -> str:
        """Human-readable multi-line report."""
        lines = [issue.render() for issue in self.issues]
        by_sev = {sev.value: self.count(sev) for sev in Severity}
        summary = ", ".join(f"{count} {name}{'s' if count != 1 else ''}"
                            for name, count in by_sev.items() if count)
        lines.append(
            f"{len(self.files)} file{'s' if len(self.files) != 1 else ''} "
            f"analyzed, {len(self.issues)} issue"
            f"{'s' if len(self.issues) != 1 else ''}"
            + (f" ({summary})" if summary else ""))
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "generator": "repro.analysis",
            "files": list(self.files),
            "checkers": list(self.checkers),
            "issues": [issue.to_dict() for issue in self.issues],
            "summary": {
                "total": len(self.issues),
                "by_severity": {sev.value: self.count(sev) for sev in Severity},
                "by_checker": {name: len(found)
                               for name, found in sorted(self.by_checker().items())},
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Report":
        if not isinstance(payload, Mapping):
            raise ReportError(f"report payload must be a mapping, got {type(payload).__name__}")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ReportError(
                f"unsupported report schema_version {version!r} "
                f"(this build reads version {SCHEMA_VERSION})")
        raw_issues = payload.get("issues", [])
        if not isinstance(raw_issues, Sequence) or isinstance(raw_issues, str):
            raise ReportError("report 'issues' must be a list")
        issues = tuple(Issue.from_dict(item) for item in raw_issues)
        return cls(
            issues=issues,
            files=tuple(str(f) for f in payload.get("files", [])),
            checkers=tuple(str(c) for c in payload.get("checkers", [])),
        )

    @classmethod
    def from_json(cls, text: str) -> "Report":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as error:
            raise ReportError(f"report is not valid JSON: {error}")
        return cls.from_dict(payload)
