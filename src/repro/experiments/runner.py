"""Shared plumbing for the per-figure/table experiment drivers.

Centralizes the conventions from Section VI-A of the paper:

* default degree constraints ``α = 0.6δ`` and ``β = 0.4δ`` (computed on the
  actual input graph, so surrogates use their own δ);
* default budgets ``b1 = b2 = 10`` and ``t = 5``;
* a per-run time limit standing in for the paper's 10⁵-second cutoff —
  algorithms that exceed it are reported as ``TIMEOUT`` rather than hanging
  the harness.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.abcore.decomposition import delta
from repro.bigraph.graph import BipartiteGraph
from repro.core.api import ENGINE_METHODS, reinforce
from repro.core.result import AnchoredCoreResult
from repro.exceptions import InvalidParameterError
from repro.generators.datasets import load_dataset
from repro.resilience.faults import fault_site

__all__ = ["ExperimentDefaults", "default_constraints", "run_method",
           "MethodRun"]


@dataclass(frozen=True)
class ExperimentDefaults:
    """Section VI-A defaults, overridable per experiment."""

    b1: int = 10
    b2: int = 10
    t: int = 5
    alpha_fraction: float = 0.6
    beta_fraction: float = 0.4
    time_limit: float = 60.0
    scale: float = 1.0
    seed: int = 2022
    #: Worker processes for engine-method candidate verification, and
    #: section-level threads for the full suite; 1 = fully serial.
    workers: int = 1
    #: Component shards for engine-method campaigns (``None`` = unsharded);
    #: byte-identity-preserving, like ``workers``.
    shards: Optional[int] = None


DEFAULTS = ExperimentDefaults()


def default_constraints(graph: BipartiteGraph,
                        defaults: ExperimentDefaults = DEFAULTS) -> Tuple[int, int]:
    """``(α, β) = (0.6 δ, 0.4 δ)`` with a floor of 2, as in the paper."""
    d = delta(graph)
    alpha = max(2, int(defaults.alpha_fraction * d))
    beta = max(2, int(defaults.beta_fraction * d))
    return alpha, beta


@dataclass
class MethodRun:
    """One (dataset, method) measurement row."""

    dataset: str
    method: str
    alpha: int
    beta: int
    b1: int
    b2: int
    n_followers: int
    elapsed: float
    timed_out: bool
    result: Optional[AnchoredCoreResult]
    #: The run stopped early but gracefully (Ctrl-C / OOM at an iteration
    #: boundary); ``n_followers`` is the verified best-so-far.
    interrupted: bool = False
    #: Full traceback when the method crashed under ``on_error="record"``.
    error: Optional[str] = None

    @property
    def display_time(self) -> str:
        """Runtime cell: seconds, ``TIMEOUT`` past the limit, or ``CRASH``."""
        if self.error is not None:
            return "CRASH"
        if self.timed_out:
            return "TIMEOUT"
        return "%.3f" % self.elapsed


def run_method(
    graph: BipartiteGraph,
    dataset: str,
    method: str,
    alpha: int,
    beta: int,
    b1: int,
    b2: int,
    t: int = 5,
    time_limit: Optional[float] = None,
    seed: Optional[int] = None,
    on_error: str = "raise",
    workers: int = 1,
    shards: Optional[int] = None,
) -> MethodRun:
    """Run one algorithm with timing and timeout accounting.

    ``on_error="record"`` isolates a crashing method: instead of taking the
    whole sweep down, the failure (including ``KeyboardInterrupt`` and
    ``MemoryError`` escaping a non-engine method) is captured as a
    ``CRASH`` row carrying the traceback, and the caller keeps measuring
    the remaining methods.  The default ``"raise"`` propagates as before.

    ``workers`` and ``shards`` are forwarded only to the engine methods
    (baselines have neither a parallel stage nor a sharded substrate);
    results are identical either way, so measurement rows stay comparable
    across worker and shard counts.
    """
    if on_error not in ("raise", "record"):
        raise InvalidParameterError(
            "on_error must be 'raise' or 'record', got %r" % (on_error,))
    method_workers = workers if method in ENGINE_METHODS else 1
    method_shards = shards if method in ENGINE_METHODS else None
    started = time.perf_counter()
    try:
        fault_site("runner.run_method")
        result = reinforce(graph, alpha, beta, b1, b2, method=method, t=t,
                           seed=seed, time_limit=time_limit,
                           workers=method_workers, shards=method_shards)
    except (Exception, KeyboardInterrupt, MemoryError):  # repro: boundary
        if on_error == "raise":
            raise
        return MethodRun(
            dataset=dataset, method=method, alpha=alpha, beta=beta,
            b1=b1, b2=b2, n_followers=-1,
            elapsed=time.perf_counter() - started, timed_out=False,
            result=None, error=traceback.format_exc())
    return MethodRun(
        dataset=dataset, method=method, alpha=alpha, beta=beta,
        b1=b1, b2=b2, n_followers=result.n_followers,
        elapsed=result.elapsed, timed_out=result.timed_out, result=result,
        interrupted=result.interrupted)
