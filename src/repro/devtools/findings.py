"""The one record type every rule emits."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding"]


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    Attributes
    ----------
    path:
        Project-relative POSIX path of the offending file.
    line / col:
        1-based line and 0-based column, ruff-style.
    rule:
        Rule code (e.g. ``"RNG001"``).
    message:
        Human-readable explanation, one line.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        """``path:line:col RULE message`` — the CLI output line."""
        return f"{self.path}:{self.line}:{self.col} {self.rule} {self.message}"
