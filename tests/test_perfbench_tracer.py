"""The benchmark tracer's frozen names, checked without running a workload.

``perfbench/tracing.py`` wraps program attributes by name (module
functions such as ``engine.two_hop_filter_cached``, methods such as
``VerificationCache.store_rf``) and reads the cache counters by name.  A
refactor that deletes or renames one of them breaks the benchmark; these
tests catch it in the ordinary suite.  Entering the tracer installs every
wrapper, and leaving it must put every original back.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench.tracing import _CACHE_COUNTERS, Tracer  # noqa: E402

from repro.bigraph import from_edge_list  # noqa: E402
from repro.core.incremental import VerificationCache  # noqa: E402


def test_tracer_installs_and_restores_every_patch():
    originals = {}
    with Tracer() as tracer:
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            originals.setdefault((owner, attr), original)
            assert vars(owner)[attr] is not original, (owner, attr)
    assert not tracer._patches
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, (owner, attr)


def test_cache_exposes_every_counter_the_tracer_reads():
    cache = VerificationCache(from_edge_list([(0, 0), (0, 1), (1, 1)]))
    for counter in _CACHE_COUNTERS:
        assert getattr(cache, counter) == 0, counter
