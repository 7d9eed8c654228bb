"""(α,β)-core substrate: peeling, core numbers, shells, decomposition index."""

from repro.abcore.core_numbers import lower_core_numbers, upper_core_numbers
from repro.abcore.index import CoreIndex
from repro.abcore.decomposition import (
    abcore,
    anchored_abcore,
    delta,
    followers,
    peel_with_order,
)
from repro.abcore.shells import (
    lower_shell,
    potential_followers,
    promising_anchors,
    upper_shell,
)

__all__ = [
    "CoreIndex",
    "abcore",
    "anchored_abcore",
    "delta",
    "followers",
    "lower_core_numbers",
    "lower_shell",
    "peel_with_order",
    "potential_followers",
    "promising_anchors",
    "upper_core_numbers",
    "upper_shell",
]
