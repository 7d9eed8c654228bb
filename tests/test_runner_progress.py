"""Tests for the runner defaults and the engine's progress callback."""

import pytest

from repro.core.api import engine_options
from repro.core.engine import EngineOptions, run_engine
from repro.experiments.runner import (
    DEFAULTS,
    ExperimentDefaults,
    MethodRun,
    default_constraints,
)
from repro.generators import load_dataset


class TestDefaults:
    def test_paper_defaults(self):
        assert DEFAULTS.b1 == DEFAULTS.b2 == 10
        assert DEFAULTS.t == 5
        assert DEFAULTS.alpha_fraction == pytest.approx(0.6)
        assert DEFAULTS.beta_fraction == pytest.approx(0.4)

    def test_default_constraints_floor(self):
        from repro.bigraph import from_biadjacency

        # delta = 1 star graph: fractions floor at 2
        g = from_biadjacency([[1, 1, 1]])
        assert default_constraints(g) == (2, 2)

    def test_default_constraints_scale_with_delta(self):
        g = load_dataset("ER", scale=0.3)
        alpha, beta = default_constraints(g)
        assert alpha >= beta >= 2

    def test_method_run_display(self):
        ok = MethodRun("AC", "filver", 3, 2, 5, 5, 7, 0.5, False, None)
        assert ok.display_time == "0.500"
        late = MethodRun("AC", "naive", 3, 2, 5, 5, -1, float("inf"), True,
                         None)
        assert late.display_time == "TIMEOUT"


class TestProgressCallback:
    def test_callback_sees_every_iteration(self, k34_with_periphery):
        seen = []
        result = run_engine(k34_with_periphery, 4, 3, 1, 1,
                            engine_options("filver"), "x",
                            on_iteration=seen.append)
        assert len(seen) == len(result.iterations)
        assert [r.anchors for r in seen] == \
            [r.anchors for r in result.iterations]

    def test_callback_exception_aborts_the_run(self, k34_with_periphery):
        class Abort(RuntimeError):
            pass

        def boom(record):
            raise Abort()

        with pytest.raises(Abort):
            run_engine(k34_with_periphery, 4, 3, 1, 1,
                       engine_options("filver"), "x", on_iteration=boom)

    def test_callback_fires_on_terminal_empty_iteration(self):
        from repro.bigraph import from_biadjacency

        # core covers everything useful; first iteration finds no candidates
        g = from_biadjacency([[1, 1], [1, 1], [0, 0]])
        seen = []
        run_engine(g, 2, 2, 1, 0, engine_options("filver"), "x",
                   on_iteration=seen.append)
        assert len(seen) <= 1  # either nothing (no candidates) or one empty
