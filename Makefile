# Developer entry points for the multiscatter reproduction.

PYTHON ?= python

.PHONY: install test test-fast smoke serve-smoke crash-test bench bench-primitives bench-gateway bench-tables perfbench perf-report examples lint analyze typecheck check clean

install:
	$(PYTHON) -m pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

# Skip multi-process / long-running tests (marked @pytest.mark.slow).
test-fast:
	$(PYTHON) -m pytest tests/ -m "not slow"

# Determinism/dtype AST linter + units/purity dataflow analyzer +
# symbolic shape/dtype verifier + asyncio/concurrency safety analyzer
# (docs/STATIC_ANALYSIS.md).
lint:
	$(PYTHON) -m tools.reprolint src/
	$(PYTHON) -m tools.reproflow src/repro
	$(PYTHON) -m tools.reproshape src/repro
	$(PYTHON) -m tools.reproasync src/repro

# The whole-program analyzers with their JSON reports: the annotated
# call graph (reproflow), the symbolic shape table + batch/scalar
# parity proofs (reproshape), and the async task graph + determinism
# proofs (reproasync) land next to the tree for inspection.
analyze:
	$(PYTHON) -m tools.reproflow src/repro --format=json > reproflow-report.json
	$(PYTHON) -m tools.reproshape src/repro --format=json > reproshape-report.json
	$(PYTHON) -m tools.reproasync src/repro --format=json > reproasync-report.json
	@echo "analyze: wrote reproflow-report.json, reproshape-report.json, and reproasync-report.json"

# mypy (strict on repro.phy/core/channel/sim per pyproject.toml).
# Skips with a notice when mypy is not installed, so `make check`
# stays usable in minimal environments.
typecheck:
	@$(PYTHON) -c "import mypy" 2>/dev/null \
		&& $(PYTHON) -m mypy \
		|| echo "typecheck: mypy not installed, skipping (pip install mypy)"

# The pre-commit gate: what CI runs on every push/PR.
check: lint typecheck test-fast

# Every experiment at quick scale, in parallel, with artifact gating
# (what the CI smoke job runs).
smoke:
	REPRO_WORKERS=2 $(PYTHON) -m repro run-all --preset quick --out runs/smoke
	$(PYTHON) tools/check_artifacts.py runs/smoke --expect-all

# Streaming gateway smoke: 8 tags, 2 subscribers, block policy,
# 2 decode workers (the sharded data plane crosses the executor hop);
# fails on any drop, eviction, consumer error, event-loop lag
# violation, or unclean drain (the CI gateway smoke step).  Runs under
# asyncio debug mode with the loopwatch sanitizer armed.
serve-smoke:
	PYTHONASYNCIODEBUG=1 REPRO_LOOPWATCH=1 \
		$(PYTHON) -m repro serve --tags 8 --subscribers 2 --max-packets 32 \
		--decode-workers 2 --policy block --require-clean

# Crash a run mid-save with the fault-injection harness, resume it,
# and require byte-identity with an undisturbed run
# (docs/ROBUSTNESS.md; this is the CI crash/resume guard).
crash-test:
	$(PYTHON) -m repro run-all --preset quick --out runs/fresh
	REPRO_FAULTS="kill:site=save,name=fig15_occlusion" \
		$(PYTHON) -m repro run-all --preset quick --out runs/crashy || true
	$(PYTHON) -m repro run-all --resume runs/crashy
	diff -r runs/fresh runs/crashy

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Kernel + e2e + gateway benchmarks with their regression gates;
# updates the committed BENCH_*.json baselines.
bench-primitives:
	$(PYTHON) benchmarks/run_benchmarks.py

# Gateway load sweep alone: concurrent tags vs p99 decode latency,
# doubling past the configured points until the budget breaks, plus
# the decode-worker (tags-per-host) sweep (prints the
# BENCH_gateway.json payload without touching baselines).
bench-gateway:
	PYTHONPATH=src $(PYTHON) benchmarks/bench_gateway.py \
		--rounds 3 --max-tags 256

# The gateway benchmark declared in BENCHMARK.json: every workload,
# end-to-end metrics printed by name (perfbench/README.md).  The
# target shares the directory's name, hence .PHONY.
perfbench:
	$(PYTHON) perfbench/run.py --workload all

# Timers/counters/cache hit-rates of one representative experiment.
perf-report:
	REPRO_PERF=1 $(PYTHON) -m repro run fig05_envelope_id

bench-tables:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

examples:
	@for f in examples/*.py; do echo "== $$f"; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks runs
	find . -name __pycache__ -type d -exec rm -rf {} +
