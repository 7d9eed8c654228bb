# Convenience targets for the anchored (α,β)-core reproduction.

PYTHON ?= python

.PHONY: install test test-faults test-service-faults soak-service coverage \
	lint sanitize typecheck bench bench-smoke bench-parallel-smoke \
	bench-engine-smoke bench-sharded-smoke bench-batch-smoke \
	perfbench-smoke report examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Deterministic resilience gate: fault injection, checkpoint/resume
# replay-equivalence, crash isolation, seeded fuzzing of every persisted
# artifact and of the edge-list loaders, and the worker-death, abort and
# deadline suite of the process pool.  No sleeps; all randomness is seeded.
test-faults:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_faults.py \
		tests/test_resilience.py tests/test_artifact_fuzz.py \
		tests/test_io_fuzz.py tests/test_parallel_faults.py -q

# Campaign-service gate: functional + deterministic chaos + differential
# byte-identity tests for repro.service (docs/SERVICE.md), then the engine
# SIGTERM test, which fails if a service test left its signal handlers.
test-service-faults:
	PYTHONPATH=src $(PYTHON) -m pytest tests/test_service.py \
		tests/test_service_faults.py tests/test_service_differential.py \
		"tests/test_resilience.py::TestEngineGracefulSigterm" -q

# ~30s soak of the campaign service: repeated submit / drain-kill /
# restart-resume cycles, asserting zero lost jobs and a stable RSS.
soak-service:
	PYTHONPATH=src $(PYTHON) tools/soak_service.py --duration 30

# Coverage gate: total line coverage of src/repro must stay above the
# floor recorded in .coverage-baseline (measured baseline minus one point).
# Prefers pytest-cov (the CI path); falls back to the dependency-free
# stdlib tracer in tools/measure_coverage.py, which is a few times slower.
coverage:
	@GATE=$$(cat .coverage-baseline); \
	if $(PYTHON) -c "import pytest_cov" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m pytest -q -x --cov=repro \
			--cov-fail-under=$$GATE; \
	else \
		echo "pytest-cov not installed; using tools/measure_coverage.py"; \
		PYTHONPATH=src $(PYTHON) tools/measure_coverage.py \
			--fail-under $$GATE -q -x; \
	fi

# Static analysis gate: all ten rules (module + whole-program flow), with
# stale suppression pragmas treated as violations.
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --strict-pragmas src/

# Runtime sanitizer gate: tier-1 under randomized PYTHONHASHSEED with
# warnings-as-errors and SharedMemory/fd leak tracking (docs/ANALYSIS.md).
sanitize:
	PYTHONPATH=src $(PYTHON) -m repro.analysis.sanitize

typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy src/repro \
		|| echo "mypy not installed (pip install -e '.[dev]'); skipping"

bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

# Quick CI gate: scaling shape + CSR-vs-list backend comparison, and the
# order-maintenance ablation (maintained and rebuilt orders give the same
# greedy results; affected graphs stay local).  Timings land in
# bench_scalability.json ($$REPRO_BENCH_JSON to override).
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_scalability.py \
		benchmarks/bench_ablation_order_maintenance.py --benchmark-only -q

# Parallel determinism gate: serial vs workers=2,4 FILVER++ must export
# byte-identical canonical JSON on every host; the 2x workers=4 speedup is
# asserted only on hosts with >= 4 cores.  Timings land in
# bench_parallel.json ($$REPRO_BENCH_PARALLEL_JSON to override).
bench-parallel-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_parallel.py --benchmark-only -q

# Flat-kernel gate: all four engine configurations (memoize x
# flat_kernel; without a context memoize changes nothing) must export
# byte-identical canonical JSON, and the defaults must run the FILVER++
# campaign >= 2x faster than the generic dict/set engine.  Timings land
# in BENCH_engine.json ($$REPRO_BENCH_ENGINE_JSON to override).
bench-engine-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_engine.py --benchmark-only -q

# Component-sharding gate: sharded and memmap-backed campaigns must export
# byte-identical canonical JSON, the sharded run must beat serial >= 1.5x,
# and loading the graph under backend=memmap must peak below in-RAM CSR.
# Numbers land in bench_sharded.json ($$REPRO_BENCH_SHARDED_JSON to
# override).
bench-sharded-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_sharded.py --benchmark-only -q

# Batched-execution gate: an 8-job same-(α,β) batch over one shared
# context must export byte-identical canonical JSON per job vs running
# each alone, beat the eight cold starts >= 2x, and a service restart
# must serve finished jobs from the persisted on-disk cache.  Numbers
# land in bench_batch.json ($$REPRO_BENCH_BATCH_JSON to override).
bench-batch-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/bench_batch.py --benchmark-only -q

# perfbench's own tests at tiny sizes: every workload runs, traced and
# untraced, so a refactor that drops a name the tracer patches fails here.
perfbench-smoke:
	PYTHONPATH=src $(PYTHON) -m pytest perfbench -q

report:
	$(PYTHON) -m repro.experiments report --scale 0.25 --out report.md

examples:
	for ex in examples/*.py; do echo "== $$ex =="; $(PYTHON) $$ex || exit 1; done

clean:
	rm -rf .pytest_cache .hypothesis src/repro.egg-info report.md
	find . -name __pycache__ -type d -exec rm -rf {} +
