"""Unit tests for plain-text table rendering."""

from repro.metrics.report import fmt_seconds, render_table


class TestRenderTable:
    def test_alignment(self):
        text = render_table(("a", "bb"), [("1", "2"), ("333", "4")])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "333" in lines[-1]

    def test_title_underlined(self):
        text = render_table(("x",), [("1",)], title="My Table")
        lines = text.splitlines()
        assert lines[0] == "My Table"
        assert lines[1] == "=" * len("My Table")

    def test_non_string_cells(self):
        text = render_table(("n", "f"), [(1, 2.5)])
        assert "2.5" in text

    def test_empty_rows(self):
        text = render_table(("h",), [])
        assert "h" in text


class TestFormatters:
    def test_fmt_seconds_milliseconds(self):
        assert fmt_seconds(0.0123) == "12.3ms"

    def test_fmt_seconds_seconds(self):
        assert fmt_seconds(2.345) == "2.35s"
