"""Unit tests for text-table rendering."""

from __future__ import annotations

from repro.report import format_series, format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        out = format_table(["x"], [[1]], title="My Table")
        assert out.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        out = format_table(["v"], [[0.123456], [12345.6], [0.0]])
        assert "0.123" in out
        assert "0" in out

    def test_empty_rows(self):
        out = format_table(["h1", "h2"], [])
        assert "h1" in out


class TestFormatSeries:
    def test_columns(self):
        out = format_series(
            "Nproc", [1, 2], {"sfc": [1.0, 2.0], "rb": [1.0, 1.9]}
        )
        header = out.splitlines()[0].split()
        assert header == ["Nproc", "sfc", "rb"]
        assert out.splitlines()[2].split()[0] == "1"
