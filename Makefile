PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint e2e-smoke trace crashtest chaos service-bench cluster-bench ci

test:
	$(PYTHON) -m pytest -x -q

# Prefer ruff when available; otherwise the dependency-free fallback
# (same F401/F841 scope, see src/repro/tools/lint.py).
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		$(PYTHON) -m repro.tools.lint src tests benchmarks; \
	fi

# The end-to-end benchmark (BENCHMARK.json) at smoke scale — every
# workload once, with its output checks — and the benchmark's own
# self-tests.  Gates that it still runs and still checks, not a speed.
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke --output /tmp/e2e_smoke.json
	$(PYTHON) -m pytest benchmarks/e2e -q

# Regenerate the committed trace-attribution report: a seeded
# 16-client serve-sim with full request tracing, decomposed into
# queueing / admission-retry / commit-wait / fs / disk /
# cleaner-throttle (components sum to the measured latency) plus the
# write-amplification ledger.
trace:
	$(PYTHON) -m repro trace --output BENCH_trace.json

# Fixed seed, small trial count: CI asserts zero unhandled exceptions
# (the command exits nonzero if any trial escapes with an untyped
# error), not any particular corruption mix.  The jobs=2 rerun must
# render and export telemetry byte-identically to the serial one.
crashtest:
	$(PYTHON) -m repro crashtest --trials 10 --seed 0 --verbose \
		--telemetry /tmp/crashtest.jsonl > /tmp/crashtest_j1.txt
	mv /tmp/crashtest.jsonl /tmp/crashtest_j1.jsonl
	$(PYTHON) -m repro crashtest --trials 10 --seed 0 --verbose --jobs 2 \
		--telemetry /tmp/crashtest.jsonl > /tmp/crashtest_j2.txt
	diff /tmp/crashtest_j1.txt /tmp/crashtest_j2.txt
	diff /tmp/crashtest_j1.jsonl /tmp/crashtest.jsonl
	@cat /tmp/crashtest_j1.txt

# Crash-under-load campaign: boot the full service rig on a faulty
# device, crash it at adversarial instants, remount, and check the
# durability contract (every acked fsync intact, no torn client state).
# Exits nonzero on any contract violation or unhandled escape; the
# jobs=2 rerun must render byte-identically to the serial one.
chaos:
	$(PYTHON) -m repro chaos --trials 6 --seed 0 --clients 4 \
		--requests-per-client 40 --verbose > /tmp/chaos_j1.txt
	$(PYTHON) -m repro chaos --trials 6 --seed 0 --clients 4 \
		--requests-per-client 40 --verbose --jobs 2 > /tmp/chaos_j2.txt
	diff /tmp/chaos_j1.txt /tmp/chaos_j2.txt
	@cat /tmp/chaos_j1.txt

# Tiny client sweep; exits nonzero if any request is dropped.  The
# full sweep (and the committed BENCH_service.json) comes from
# benchmarks/test_service_scaling.py.
service-bench:
	$(PYTHON) -m repro.service.bench --smoke

# Sharded scale-out smoke: a tiny cluster sweep run twice (serial and
# jobs=2) whose reports must be byte-identical — the shard-group
# merge discipline makes simulated numbers a pure function of the
# seed, so any divergence is a determinism bug, and `repro bench-diff`
# gates the throughput/p99 numbers point by point on top.  The final
# step regenerates the cluster section onto a copy of the committed
# BENCH_service.json and diffs it against the committed file.  Every
# run exits nonzero if any shard image fails verification.
cluster-bench:
	$(PYTHON) -m repro.cluster.bench --smoke \
		--output /tmp/BENCH_cluster_a.json
	$(PYTHON) -m repro.cluster.bench --smoke --jobs 2 \
		--output /tmp/BENCH_cluster_b.json
	diff /tmp/BENCH_cluster_a.json /tmp/BENCH_cluster_b.json
	$(PYTHON) -m repro bench-diff /tmp/BENCH_cluster_a.json \
		/tmp/BENCH_cluster_b.json --max-regression 0.001
	cp BENCH_service.json /tmp/BENCH_service_new.json
	$(PYTHON) -m repro.cluster.bench --smoke \
		--output /tmp/BENCH_service_new.json
	$(PYTHON) -m repro bench-diff BENCH_service.json \
		/tmp/BENCH_service_new.json

ci: lint test e2e-smoke service-bench cluster-bench crashtest chaos
