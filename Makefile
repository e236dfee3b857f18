# The local gate — identical commands to .github/workflows/ci.yml and
# .pre-commit-config.yaml, so "make check" reproduces CI exactly.

PYTHON ?= python
export PYTHONPATH := src

.PHONY: lint typecheck sketchlint lint-concurrency lint-sarif \
	sketchlint-baseline bench-sketchlint test test-debug faults chaos \
	bench-ingest bench-checkpoint bench-sharded bench-service \
	bench-kernel benchcheck coverage check

lint:
	ruff check src tools

typecheck:
	mypy

# domain rules SK001-SK206 over the library and the tooling itself,
# modulo the checked-in baseline (.sketchlint-baseline.json)
sketchlint:
	$(PYTHON) -m tools.sketchlint src tools

# the SK2xx concurrency rules alone (lock-order graph, blocking under a
# lock, unguarded shared writes, fork safety, wait loops, recording
# under a lock) — must report zero findings, no baseline entries allowed
lint-concurrency:
	$(PYTHON) -m tools.sketchlint --no-baseline \
		--select SK201,SK202,SK203,SK204,SK205,SK206 src tools

# same gate, emitted as a SARIF 2.1.0 log for GitHub code scanning
lint-sarif:
	$(PYTHON) -m tools.sketchlint src tools --format sarif \
		--output sketchlint.sarif

# refresh the grandfathered-findings baseline; every entry still needs a
# hand-written justification (the repo-gate test rejects blank ones)
sketchlint-baseline:
	$(PYTHON) -m tools.sketchlint src tools --update-baseline

# perf pin: a cold full-repo analysis must stay under 10s (cached < 1s)
bench-sketchlint:
	$(PYTHON) benchmarks/bench_sketchlint.py

test:
	$(PYTHON) -m pytest -x -q

test-debug:
	REPRO_DEBUG_INVARIANTS=1 $(PYTHON) -m pytest tests/core tests/analysis -q

# fault-injection suite: crash recovery, corruption taxonomy and decode
# degradation, all with runtime invariant checks switched on
faults:
	REPRO_DEBUG_INVARIANTS=1 $(PYTHON) -m pytest tests/runtime \
		tests/core/test_degrade.py \
		tests/core/test_serialization_integrity.py -q

# networked fault suite: retries/dedup/breaker/shedding/drain plus the
# chaos-proxy acceptance (convergence under resets, corruption, delays
# and blackholes must be byte-identical with zero duplicate applies),
# all with runtime invariant checks switched on and the hang watchdog
# armed — a wedged socket dumps stacks instead of blocking the gate
chaos:
	REPRO_DEBUG_INVARIANTS=1 REPRO_TEST_WATCHDOG=600 \
		$(PYTHON) -m pytest tests/service tests/runtime/test_stall.py -q

# acceptance benchmark: 1M-item Zipf(1.1) stream, batched path must be
# >= 2x the per-item loop and byte-identical in state
bench-ingest:
	$(PYTHON) benchmarks/bench_ingest.py --min-speedup 2.0

# acceptance benchmark: durable ingestion must stay within 10% of the
# plain batched run at the default cadence, byte-identically
bench-checkpoint:
	$(PYTHON) benchmarks/bench_checkpoint.py --max-overhead 0.10

# acceptance benchmark: 4-shard multiprocess ingestion must be >= 2x the
# single-process run on the 1M-item stream, and the merged sketch must
# be byte-identical to the sequential per-partition fold
bench-sharded:
	$(PYTHON) benchmarks/bench_sharded.py --min-speedup 2.0

# acceptance benchmark: the numpy array kernel must be >= 1.8x the
# object-kernel batched path on the 1M-item stream, byte-identically
bench-kernel:
	$(PYTHON) benchmarks/bench_kernel.py --min-speedup 1.8

# acceptance benchmark: loopback PUSH/QUERY service throughput and
# latency vs the in-process fold; the remote aggregate must stay
# byte-identical to the sequential reference
bench-service:
	$(PYTHON) benchmarks/bench_service.py --max-overhead 0.5

# regression gate: quick benches compared against the committed
# full-scale baselines on their dimensionless metrics (±20% relative by
# default; the speedup floors are absolute because quick workloads batch
# less, and the 100k-item sharded run is dominated by process startup —
# see tools/benchcheck.py).  The 8 KB kernel leg pins the small-memory
# regime (33 frequent-part buckets): the array kernel must never lose to
# the object kernel there.  Fresh reports go to *_fresh.json so the
# baselines are never overwritten.
benchcheck:
	$(PYTHON) benchmarks/bench_ingest.py --quick --min-speedup 1.0 \
		--output BENCH_ingest_fresh.json
	$(PYTHON) benchmarks/bench_checkpoint.py --quick --repeats 2 \
		--max-overhead 1.0 --output BENCH_checkpoint_fresh.json
	$(PYTHON) benchmarks/bench_sharded.py --quick --repeats 2 \
		--output BENCH_sharded_fresh.json
	$(PYTHON) benchmarks/bench_service.py --quick --repeats 2 \
		--output BENCH_service_fresh.json
	$(PYTHON) benchmarks/bench_kernel.py --quick --repeats 2 \
		--min-speedup 1.5 --output BENCH_kernel_fresh.json
	$(PYTHON) benchmarks/bench_kernel.py --quick --repeats 2 --memory-kb 8 \
		--min-speedup 1.0 --output BENCH_kernel_8kb_fresh.json
	$(PYTHON) -m tools.benchcheck BENCH_ingest_fresh.json \
		--baseline BENCH_ingest.json --min speedup=1.4
	$(PYTHON) -m tools.benchcheck BENCH_checkpoint_fresh.json \
		--baseline BENCH_checkpoint.json --max overhead_fraction=0.5
	$(PYTHON) -m tools.benchcheck BENCH_sharded_fresh.json \
		--baseline BENCH_sharded.json --min speedup=0.3
	$(PYTHON) -m tools.benchcheck BENCH_service_fresh.json \
		--baseline BENCH_service.json --max overhead_fraction=0.5
	$(PYTHON) -m tools.benchcheck BENCH_kernel_fresh.json \
		--baseline BENCH_kernel.json --min speedup=1.5
	$(PYTHON) benchmarks/bench_sketchlint.py \
		--output BENCH_sketchlint_fresh.json
	$(PYTHON) -m tools.benchcheck BENCH_sketchlint_fresh.json \
		--baseline BENCH_sketchlint.json \
		--max cold_seconds=10 --max cached_seconds=1

# branch coverage over src/repro with the ratchet-only floor recorded in
# pyproject.toml ([tool.repro] coverage_floor); needs pytest-cov
coverage:
	$(PYTHON) -m pytest -q --cov=repro --cov-branch \
		--cov-report=term-missing:skip-covered --cov-report=html \
		--cov-fail-under=$$($(PYTHON) -c "import tools.covfloor as c; print(c.floor())")

check: lint typecheck sketchlint test
