"""File loading, suppression parsing, and rule orchestration.

The analyzer is deliberately self-contained: stdlib ``ast`` + ``re`` only,
no third-party parser, so it runs in any environment the package itself
runs in (CI images, contributor laptops, the test suite).

Suppressions
------------
A finding is suppressed by a trailing comment on the *reported* line::

    rng = np.random.default_rng()  # reprolint: disable=RNG001 -- seeded upstream

Multiple codes separate with commas (``disable=RNG001,NUM001``). Everything
after the code list is the justification; rules never see it, reviewers
do. An inline suppression is the only way to accept a finding, so every
accepted finding sits next to its reason.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.devtools.findings import Finding

__all__ = [
    "AnalyzedModule",
    "analyze_paths",
    "collect_files",
    "load_module",
]

#: ``# reprolint: disable=CODE[,CODE...] [justification]``
_SUPPRESSION = re.compile(
    r"#\s*reprolint:\s*disable=(?P<codes>[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)

#: Directory names whose contents are never analyzed.
_SKIP_DIRS = frozenset({".git", "__pycache__", ".venv", "build", "dist", ".eggs"})


def _parse_suppressions(lines: Sequence[str]) -> dict[int, frozenset[str]]:
    """Map 1-based line number -> rule codes disabled on that line."""
    out: dict[int, frozenset[str]] = {}
    for lineno, text in enumerate(lines, start=1):
        if "reprolint" not in text:
            continue
        match = _SUPPRESSION.search(text)
        if match is not None:
            codes = frozenset(
                code.strip() for code in match.group("codes").split(",")
            )
            out[lineno] = codes
    return out


@dataclass
class AnalyzedModule:
    """One parsed source file plus the per-line suppressions."""

    rel: str
    tree: ast.Module
    suppressions: dict[int, frozenset[str]] = field(repr=False)

    @property
    def is_test(self) -> bool:
        """Test/fixture files are exempt from the production-only rules."""
        parts = Path(self.rel).parts
        name = Path(self.rel).name
        return (
            "tests" in parts
            or "fixtures" in parts
            or name.startswith("test_")
            or name == "conftest.py"
        )

    def finding(self, node: ast.AST, rule: str, message: str) -> Finding:
        return Finding(
            path=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule=rule,
            message=message,
        )

    def is_suppressed(self, finding: Finding) -> bool:
        codes = self.suppressions.get(finding.line)
        return codes is not None and finding.rule in codes


def load_module(path: Path, root: Path) -> AnalyzedModule:
    """Parse one file into an :class:`AnalyzedModule`.

    Raises ``SyntaxError`` for unparseable sources; :func:`analyze_paths`
    converts that into a ``PARSE`` finding so a broken file fails the lint
    run instead of silently escaping every rule.
    """
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    try:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = path.as_posix()
    return AnalyzedModule(
        rel=rel, tree=tree, suppressions=_parse_suppressions(source.splitlines())
    )


def collect_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen: dict[Path, None] = {}
    for path in paths:
        if path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if not _SKIP_DIRS.intersection(candidate.parts):
                    seen.setdefault(candidate, None)
        elif path.suffix == ".py":
            seen.setdefault(path, None)
    return list(seen)


def analyze_paths(
    paths: Sequence[Path], *, root: Path
) -> tuple[list[Finding], list[Finding]]:
    """Run every rule in :data:`repro.devtools.rules.RULES` over ``paths``.

    Returns ``(findings, suppressed)`` — both sorted — where ``findings``
    excludes anything silenced by an inline suppression.
    """
    from repro.devtools.rules import RULES

    findings: list[Finding] = []
    suppressed: list[Finding] = []
    for path in collect_files(paths):
        try:
            module = load_module(path, root)
        except SyntaxError as exc:
            findings.append(
                Finding(
                    path=path.as_posix(),
                    line=exc.lineno or 1,
                    col=(exc.offset or 1) - 1,
                    rule="PARSE",
                    message=f"file does not parse: {exc.msg}",
                )
            )
            continue
        for rule in RULES:
            for finding in rule.check_module(module):
                if module.is_suppressed(finding):
                    suppressed.append(finding)
                else:
                    findings.append(finding)
    return sorted(findings), sorted(suppressed)
