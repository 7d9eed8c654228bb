"""Small shared utilities: deterministic RNG, text rendering."""

from repro.utils.ascii_chart import bar_chart, sparkline
from repro.utils.rng import DEFAULT_SEED, derive_seed, make_rng
from repro.utils.tables import render_series, render_table

__all__ = [
    "DEFAULT_SEED",
    "bar_chart",
    "derive_seed",
    "make_rng",
    "render_series",
    "sparkline",
    "render_table",
]
