"""``python -m repro.devtools.lint`` — the reprolint command line.

Usage::

    python -m repro.devtools.lint [paths ...] [--list-rules] [--quiet]

Paths default to ``src tests``. Output is ruff-style
``path:line:col RULE message``, one finding per line. A finding is
accepted only by an inline ``# reprolint: disable=CODE -- reason`` on the
reported line (see :mod:`repro.devtools.analyzer`). Exit codes:

* ``0`` — no findings,
* ``1`` — findings,
* ``2`` — usage errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.devtools.analyzer import analyze_paths
from repro.devtools.rules import rule_catalog

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Privacy- and numerics-aware static analysis for repro.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the summary line (findings still print)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for code, summary in rule_catalog():
            print(f"{code}  {summary}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {missing[0]}", file=sys.stderr)
        return 2

    findings, suppressed = analyze_paths(paths, root=Path.cwd())
    for finding in findings:
        print(finding.render())
    if not args.quiet:
        summary = f"{len(findings)} finding{'s' if len(findings) != 1 else ''}"
        if suppressed:
            summary += f", {len(suppressed)} suppressed inline"
        print(f"reprolint: {summary}")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
