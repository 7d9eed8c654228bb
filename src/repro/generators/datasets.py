"""Surrogate registry for the paper's 17 datasets (Table II).

The original experiments use 15 KONECT datasets, the Taobao user-behaviour
dataset and a 1.9-billion-edge GTgraph synthetic — none of which can be
downloaded here (offline environment), and the largest of which are far
beyond what pure Python peels in reasonable time.  Per the substitution rule
in DESIGN.md §5, each dataset gets a *scaled-down synthetic surrogate* that
preserves what the algorithms are sensitive to:

* the upper:lower vertex ratio and the average degrees of both layers;
* a heavy-tailed (power-law) degree distribution for the real datasets and a
  uniform (Erdős–Rényi) one for the synthetic SN dataset;
* monotone ordering of surrogate sizes matching the ordering of the original
  sizes, so cross-dataset runtime comparisons (Fig. 8) keep their shape.

``load_dataset("WC")`` returns the surrogate at its default size;
``scale`` multiplies the default edge count for quick tests (``scale=0.1``)
or more faithful runs (``scale=10``).  If the real KONECT file is available
on disk, pass it to :func:`repro.bigraph.read_edge_list` instead — every
algorithm works on either.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.bigraph.graph import BipartiteGraph
from repro.exceptions import DatasetError
from repro.generators.powerlaw import chung_lu_bipartite
from repro.generators.random_bipartite import erdos_renyi_bipartite
from repro.utils.rng import derive_seed

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_codes"]


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata for one paper dataset and its surrogate parameters.

    ``paper_*`` fields are copied from Table II (K = 10³, M = 10⁶);
    ``surrogate_edges`` is the default size of the synthetic stand-in and
    ``exponent`` tunes its degree-distribution tail (lower = heavier, used
    for the datasets whose reported ``d_max``/δ are extreme).
    """

    code: str
    name: str
    paper_edges: int
    paper_upper: int
    paper_lower: int
    paper_dmax: int
    paper_delta: int
    surrogate_edges: int
    exponent: float = 2.2
    model: str = "powerlaw"  # or "er"
    density_factor: float = 1.0

    def surrogate_shape(self, scale: float) -> Tuple[int, int, int]:
        """(n_upper, n_lower, n_edges) of the surrogate at ``scale``.

        Vertex counts shrink proportionally to the edge count, preserving
        the layer ratio and average degrees.  ``density_factor`` scales the
        vertex counts on top of that: > 1 grows them (lowering the average
        degree, for originals so dense that a faithful small surrogate would
        saturate the biclique), < 1 shrinks them (for originals so sparse
        that a faithful surrogate would have an empty core).
        """
        edges = max(16, int(self.surrogate_edges * scale))
        ratio = edges / self.paper_edges * self.density_factor
        n_upper = max(4, int(self.paper_upper * ratio))
        n_lower = max(4, int(self.paper_lower * ratio))
        edges = min(edges, n_upper * n_lower)
        return n_upper, n_lower, edges


_K = 1_000
_M = 1_000_000

#: Table II, in the paper's order.  Surrogate sizes grow with original sizes.
DATASETS: Dict[str, DatasetSpec] = {spec.code: spec for spec in [
    DatasetSpec("UL", "Unicode", 1260, 870, 250, 141, 4, 1260, 2.0),
    DatasetSpec("AC", "Cond-mat", 58_600, 38_740, 16_730, 116, 8, 4000, 2.2),
    DatasetSpec("WR", "Writers", 144_340, 135_570, 89_360, 246, 6, 5000, 2.2),
    DatasetSpec("PR", "Producers", 207_270, 187_680, 48_830, 512, 6, 6000, 2.1),
    DatasetSpec("ST", "Movies", 281_400, 157_180, 76_100, 321, 7, 7000, 2.2),
    DatasetSpec("BX", "BookCrossing", 1_150_000, 445_800, 105_300, 13_601, 41, 9000, 1.9),
    DatasetSpec("SO", "Stack-Overflow", 1_300_000, 545_200, 96_700, 6_119, 22, 10000, 2.0),
    DatasetSpec("TB", "Taobao", 1_020_000, 5_160_000, 2_015_000, 1_393, 10,
                9500, 2.3, density_factor=0.05),
    DatasetSpec("WC", "Wiki-en", 3_800_000, 2_040_000, 1_850_000, 11_593, 18, 12000, 2.1),
    DatasetSpec("AZ", "Amazon", 5_740_000, 2_150_000, 1_230_000, 12_180, 26, 13000, 2.0),
    DatasetSpec("DB", "DBLP", 8_650_000, 1_430_000, 4_000_000, 951, 10, 14000, 2.3),
    DatasetSpec("ER", "Epinions", 13_670_000, 876_300, 120_500, 162_169, 152, 16000, 1.8),
    DatasetSpec("DE", "Wiki-de", 57_320_000, 3_620_000, 425_800, 278_998, 156, 20000, 1.8),
    DatasetSpec("DUI", "Delicious", 101_800_000, 34_610_000, 833_100, 29_240, 184, 24000, 1.9),
    DatasetSpec("LG", "LiveJournal", 112_310_000, 3_200_000, 7_490_000, 1_053_676, 109, 26000, 1.8),
    DatasetSpec("OG", "Orkut", 327_040_000, 11_510_000, 2_780_000, 318_240, 467, 32000, 1.9),
    DatasetSpec("SN", "Synthetic", 1_919_930_000, 5_000_000, 5_000_000, 36_360,
                359, 40000, 0.0, "er", density_factor=48.0),
]}


def dataset_codes() -> Tuple[str, ...]:
    """All dataset codes in Table-II order."""
    return tuple(DATASETS)


def load_dataset(code: str, scale: float = 1.0,
                 seed: int = 2022) -> BipartiteGraph:
    """Generate the surrogate for dataset ``code`` at the given ``scale``.

    Deterministic for a (code, scale, seed) triple, whatever the scale's
    numeric type: ``4`` and ``4.0`` name one graph.  Raises
    :class:`DatasetError` for unknown codes.
    """
    spec = DATASETS.get(code.upper())
    if spec is None:
        raise DatasetError(
            "unknown dataset %r; known codes: %s"
            % (code, ", ".join(DATASETS)))
    n_upper, n_lower, n_edges = spec.surrogate_shape(scale)
    # The seed hashes the label's repr, so the scale is spelled as a float.
    child_seed = derive_seed(seed, spec.code, float(scale))
    if spec.model == "er":
        return erdos_renyi_bipartite(n_upper, n_lower, n_edges=n_edges,
                                     seed=child_seed)
    return chung_lu_bipartite(n_upper, n_lower, n_edges,
                              exponent_upper=spec.exponent,
                              exponent_lower=spec.exponent,
                              seed=child_seed)
