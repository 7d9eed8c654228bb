"""Engagement dynamics: the departure-cascade (unraveling) simulator."""

from repro.dynamics.cascade import CascadeResult, resilience_gain, simulate_cascade

__all__ = [
    "CascadeResult",
    "resilience_gain",
    "simulate_cascade",
]
