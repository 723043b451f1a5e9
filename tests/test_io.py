"""Tests for file I/O helpers."""

import numpy as np
import pytest

from repro.io import (
    read_histogram_csv,
    read_table,
    read_values,
    write_histogram_csv,
    write_values,
)


class TestValuesIO:
    def test_roundtrip(self, tmp_path, rng):
        values = rng.random(100)
        path = write_values(values, tmp_path / "v.txt")
        np.testing.assert_allclose(read_values(path), values, rtol=1e-10)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# header\n0.5\n\n0.25\n")
        np.testing.assert_allclose(read_values(path), [0.5, 0.25])

    def test_bad_line_reported_with_location(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("0.5\nbanana\n")
        with pytest.raises(ValueError, match=":2:"):
            read_values(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "v.txt"
        path.write_text("# nothing\n")
        with pytest.raises(ValueError, match="no values"):
            read_values(path)


class TestHistogramIO:
    def test_roundtrip(self, tmp_path, rng):
        hist = rng.dirichlet(np.ones(16))
        path = write_histogram_csv(hist, tmp_path / "h.csv")
        np.testing.assert_allclose(read_histogram_csv(path), hist, rtol=1e-9)

    def test_edges_cover_unit_interval(self, tmp_path):
        path = write_histogram_csv(np.array([0.5, 0.5]), tmp_path / "h.csv")
        text = path.read_text().splitlines()
        assert text[1].startswith("0,0,0.5,")
        assert text[2].startswith("1,0.5,1,")

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_histogram_csv(np.array([]), tmp_path / "h.csv")


class TestTableIO:
    def test_reads_columns_by_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("income,age\n100.5,30\n200.25,45\n")
        table = read_table(path)
        assert set(table) == {"income", "age"}
        np.testing.assert_allclose(table["income"], [100.5, 200.25])
        np.testing.assert_allclose(table["age"], [30.0, 45.0])

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("x\n1.0\n\n2.0\n")
        np.testing.assert_allclose(read_table(path)["x"], [1.0, 2.0])

    def test_utf8_bom_tolerated(self, tmp_path):
        """Excel's default UTF-8 export prefixes a BOM; the first column
        name must not absorb it."""
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfincome,age\n1.0,2.0\n")
        assert set(read_table(path)) == {"income", "age"}

    def test_ragged_row_reported_with_location(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n1.0\n")
        with pytest.raises(ValueError, match=":2"):
            read_table(path)

    def test_non_numeric_cell_reported(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a\nhello\n")
        with pytest.raises(ValueError, match="not a number"):
            read_table(path)

    def test_duplicate_header_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,a\n1,2\n")
        with pytest.raises(ValueError, match="duplicate"):
            read_table(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            read_table(path)

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("a,b\n")
        with pytest.raises(ValueError, match="no data rows"):
            read_table(path)
