"""Tests for the utility helpers (RNG, table rendering)."""

from repro.utils import derive_seed, make_rng, render_series, render_table


class TestRng:
    def test_make_rng_passthrough(self):
        rng = make_rng(5)
        assert make_rng(rng) is rng

    def test_make_rng_seeds(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_derive_seed_is_stable_and_label_sensitive(self):
        assert derive_seed(1, "AC", 0.5) == derive_seed(1, "AC", 0.5)
        assert derive_seed(1, "AC", 0.5) != derive_seed(1, "WC", 0.5)
        assert derive_seed(1, "AC", 0.5) != derive_seed(2, "AC", 0.5)


class TestRenderTable:
    def test_alignment_and_separator(self):
        text = render_table(["name", "n"], [["x", 1], ["longer", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", "+"}
        widths = {len(line) for line in lines}
        assert len(widths) == 1  # rectangular

    def test_title_prepended(self):
        text = render_table(["a"], [[1]], title="My Table")
        assert text.splitlines()[0] == "My Table"

    def test_float_formatting(self):
        text = render_table(["v"], [[0.123456], [123.456], [0]])
        assert "0.1235" in text
        assert "123.5" in text

    def test_render_series(self):
        text = render_series({"alg1": [1, 2], "alg2": [3, 4]},
                             "b", [5, 10])
        lines = text.splitlines()
        assert lines[0].split("|")[0].strip() == "b"
        assert "alg1" in lines[0] and "alg2" in lines[0]
        assert lines[2].startswith("5")

    def test_render_series_with_short_series(self):
        text = render_series({"a": [1]}, "x", [1, 2])
        assert text  # missing cells render empty, no crash
