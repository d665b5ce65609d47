"""Tests for report formatting and paper ground-truth constants."""

from repro.report import paper_values
from repro.report.tables import format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert lines[0].endswith("value")
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_title(self):
        out = format_table(["x"], [[1]], title="Table 9")
        assert out.splitlines()[0] == "Table 9"

    def test_float_formatting(self):
        out = format_table(["v"], [[0.0028], [0.5], [1234.0], [0]])
        assert "0.0028" in out
        assert "0.500" in out
        assert "1,234" in out

    def test_non_finite_rendered_as_dash(self):
        """NaN/±inf are "no data", not numbers, and must not leak
        "nan"/"inf" strings into a rendered table."""
        out = format_table(
            ["v"], [[float("nan")], [float("inf")], [float("-inf")]]
        )
        assert "nan" not in out and "inf" not in out
        assert out.count("—") == 3

    def test_none_rendered_as_dash(self):
        assert "—" in format_table(["v"], [[None]])

    def test_negative_precision_matches_positive(self):
        """Precision keys off abs(cell): a negative value renders with
        exactly the digits of its positive counterpart."""
        for value in (0.0028, 0.5, 1234.5, 12.0):
            positive = format_table(["v"], [[value]]).splitlines()[-1].strip()
            negative = format_table(["v"], [[-value]]).splitlines()[-1].strip()
            assert negative == f"-{positive}", (value, positive, negative)

    def test_negative_zero_is_zero(self):
        assert format_table(["v"], [[-0.0]]).splitlines()[-1].strip() == "0"


class TestPaperValues:
    def test_table2_keys(self):
        assert sorted(paper_values.TABLE2_FEINTING) == [1, 2, 3, 4, 5]

    def test_table7_complete(self):
        assert len(paper_values.TABLE7_SLOWDOWN) == 9
        assert len(paper_values.TABLE7_SAFE_TRH) == 9
        assert sorted(paper_values.TABLE7_SLOWDOWN) == sorted(
            paper_values.TABLE7_SAFE_TRH
        )
        assert paper_values.TABLE7_SLOWDOWN[(64, 1)] == 0.0028
        assert paper_values.TABLE7_SAFE_TRH[(64, 1)] == 99

    def test_headline_constants(self):
        assert paper_values.JAILBREAK_DETERMINISTIC_ACTS == 1152
        assert paper_values.POSTPONEMENT_ACTS == 328
        assert paper_values.FIG10_SAFE_TRH[64] == 99
        assert paper_values.MOAT_SRAM_BYTES_PER_BANK[1] == 7
        assert paper_values.TSA_LOSS[17] == 0.52
