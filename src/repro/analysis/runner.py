"""The :class:`AnalyzerRunner` — parse once, fan out to every checker.

The runner owns the per-translation-unit pipeline (lex → parse, which
links parents → ``resolve_references``), computes the shared
:class:`~repro.analysis.dataflow.FunctionFacts` once per function, then
hands the same :class:`~repro.analysis.base.AnalysisContext` to each
selected checker.  Frontend failures (lexer, parser, pragma errors) never
raise out of the analysis API: they surface as ``checker="frontend"``
issues of error severity, so batch runs over a directory always produce a
report.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Mapping, Optional, Sequence, Union

from ..clang.ast_nodes import FunctionDecl
from ..clang.lexer import LexError
from ..clang.parser import ParseError, parse_source
from ..clang.pragmas import PragmaError
from ..clang.semantics import ConstantEnvironment, resolve_references
from .base import AnalysisContext, Checker, make_checkers
from .dataflow import collect_function_facts
from .issues import Issue, Report, Severity

__all__ = ["AnalyzerRunner"]

#: Pseudo-checker name carried by parse-failure issues.
FRONTEND = "frontend"


class AnalyzerRunner:
    """Run a set of checkers over C/OpenMP sources.

    Parameters
    ----------
    checkers:
        Checker names to run (default: every registered checker), or
        ready-made :class:`Checker` instances.
    env:
        Optional mapping of problem-size names to values (``{"N": 256}``)
        folded into trip counts and array extents, mirroring how the
        advisor seeds its loop analysis.
    """

    def __init__(
        self,
        checkers: Optional[Sequence[Union[str, Checker]]] = None,
        env: Optional[Union[ConstantEnvironment, Mapping[str, int]]] = None,
    ) -> None:
        if checkers is not None and any(isinstance(c, Checker) for c in checkers):
            self.checkers: List[Checker] = [
                c if isinstance(c, Checker) else make_checkers([c])[0]
                for c in checkers
            ]
        else:
            self.checkers = make_checkers(checkers)  # type: ignore[arg-type]
        if env is None:
            self.env = ConstantEnvironment()
        elif isinstance(env, ConstantEnvironment):
            self.env = env
        else:
            self.env = ConstantEnvironment(dict(env))

    @property
    def checker_names(self) -> List[str]:
        return [checker.name for checker in self.checkers]

    # ------------------------------------------------------------------ #
    def analyze_source(self, source: str, file: str = "<source>") -> Report:
        """Analyze one translation unit given as a string."""
        try:
            tu = parse_source(source, filename=file)
        except (LexError, ParseError, PragmaError) as error:
            issue = Issue(
                checker=FRONTEND,
                severity=Severity.ERROR,
                message=f"{type(error).__name__}: {error}",
                file=file,
            )
            return Report(issues=(issue,), files=(file,),
                          checkers=tuple(self.checker_names))
        resolve_references(tu, strict=False)
        issues: List[Issue] = []
        for function in tu.children:
            if not isinstance(function, FunctionDecl) or function.body is None:
                continue
            facts = collect_function_facts(function)
            ctx = AnalysisContext(tu=tu, function=function, facts=facts,
                                  file=file, env=self.env)
            for checker in self.checkers:
                issues.extend(checker.check(ctx))
        return Report(
            issues=tuple(sorted(issues, key=Issue.sort_key)),
            files=(file,),
            checkers=tuple(self.checker_names),
        )

    def analyze_file(self, path: Union[str, os.PathLike]) -> Report:
        """Analyze one file on disk; unreadable files become frontend issues."""
        name = os.fspath(path)
        try:
            with open(name, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as error:
            issue = Issue(checker=FRONTEND, severity=Severity.ERROR,
                          message=f"cannot read file: {error}", file=name)
            return Report(issues=(issue,), files=(name,),
                          checkers=tuple(self.checker_names))
        return self.analyze_source(source, file=name)

    def analyze_paths(self, paths: Iterable[Union[str, os.PathLike]]) -> Report:
        """Analyze several files and merge their reports."""
        merged = Report(checkers=tuple(self.checker_names))
        for path in paths:
            merged = merged.merged(self.analyze_file(path))
        return merged
