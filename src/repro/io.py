"""Persistence helpers: values, tables and histograms.

File formats are deliberately plain:

* values — one float per line (the CLI's input format);
* histograms — CSV with ``bucket,left,right,mass`` rows, so the estimate is
  directly consumable by spreadsheets and plotting tools.

Estimators persist through ``Estimator.to_state``/``from_state``, which
cover every family's parameters and aggregation state.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

__all__ = [
    "read_values",
    "write_values",
    "read_table",
    "read_histogram_csv",
    "write_histogram_csv",
]


def read_values(path: str | Path) -> np.ndarray:
    """Read one float per line; blank lines and ``#`` comments are skipped."""
    out: list[float] = []
    with Path(path).open() as handle:
        for line_no, line in enumerate(handle, start=1):
            text = line.strip()
            if not text or text.startswith("#"):
                continue
            try:
                out.append(float(text))
            except ValueError:
                raise ValueError(f"{path}:{line_no}: not a number: {text!r}") from None
    if not out:
        raise ValueError(f"{path}: no values found")
    return np.asarray(out, dtype=np.float64)


def write_values(values: np.ndarray, path: str | Path) -> Path:
    """Write one float per line."""
    path = Path(path)
    arr = np.asarray(values, dtype=np.float64)
    path.write_text("\n".join(f"{v:.12g}" for v in arr) + "\n")
    return path


def read_table(path: str | Path) -> dict[str, np.ndarray]:
    """Read a headed CSV into one float column per attribute.

    The input format of the CLI's ``analyze`` subcommand: a header row of
    attribute names, then one row per user. Every column is returned as a
    float array; all columns share the user axis by construction. A UTF-8
    BOM (Excel's default UTF-8 export) is tolerated.
    """
    with Path(path).open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = [name.strip() for name in next(reader)]
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        if not header or any(not name for name in header):
            raise ValueError(f"{path}: header must name every column")
        if len(set(header)) != len(header):
            raise ValueError(f"{path}: duplicate column names in header")
        columns: list[list[float]] = [[] for _ in header]
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}:{row_no}: expected {len(header)} columns, got {len(row)}"
                )
            for column, cell in zip(columns, row, strict=True):
                try:
                    column.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}:{row_no}: not a number: {cell.strip()!r}"
                    ) from None
    if not columns[0]:
        raise ValueError(f"{path}: no data rows found")
    return {
        name: np.asarray(column, dtype=np.float64)
        for name, column in zip(header, columns, strict=True)
    }


def write_histogram_csv(histogram: np.ndarray, path: str | Path) -> Path:
    """Write ``bucket,left,right,mass`` rows over the unit domain."""
    arr = np.asarray(histogram, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("histogram must be a non-empty 1-d array")
    path = Path(path)
    d = arr.size
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["bucket", "left", "right", "mass"])
        for i, mass in enumerate(arr):
            writer.writerow([i, f"{i / d:.10g}", f"{(i + 1) / d:.10g}", f"{mass:.10g}"])
    return path


def read_histogram_csv(path: str | Path) -> np.ndarray:
    """Read a histogram written by :func:`write_histogram_csv`."""
    masses: list[float] = []
    with Path(path).open() as handle:
        for row in csv.DictReader(handle):
            masses.append(float(row["mass"]))
    if not masses:
        raise ValueError(f"{path}: no histogram rows found")
    return np.asarray(masses, dtype=np.float64)
