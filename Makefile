PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint e2e-smoke e2e-digest bench-pairs trace reports crashtest chaos ci

test:
	$(PYTHON) -m pytest -x -q

# The repo's own rules (OBS001/OBS002, FAULT001/FAULT002, SVC001,
# ALLOC001, RIG001, VER001, CACHE001, CLOCK001 and the F401/F841
# subset, see src/repro/tools/lint.py) always run; ruff adds its rules
# (pyproject.toml) when it is installed.
lint:
	$(PYTHON) -m repro.tools.lint src tests benchmarks
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	fi

# The end-to-end benchmark (BENCHMARK.json) at smoke scale — every
# workload once, with its output checks — and the benchmark's own
# self-tests.  Gates that it still runs and still checks, not a speed.
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --smoke --output /tmp/e2e_smoke.json
	$(PYTHON) -m pytest benchmarks/e2e -q

# One md5 of what a full-scale untraced pass simulated (its `sim`,
# `counters`, `images` and `failed` keys) per workload and seed.  A
# change meant only to make the simulator faster leaves every line as
# it was on the parent commit.
E2E_WORKLOADS := smallfile largefile service_clean cluster_migrate crash_recover
E2E_DIGEST := import hashlib, json, sys; r = json.loads(sys.stdin.readlines()[-1]); \
	print(hashlib.md5(json.dumps([r[k] for k in ("sim", "counters", "images", "failed")], \
	sort_keys=True).encode()).hexdigest())
e2e-digest:
	@for w in $(E2E_WORKLOADS); do for s in 0 7; do \
		printf '%-16s %s ' $$w $$s; \
		$(PYTHON) benchmarks/e2e/workloads.py $$w $$s untraced \
			| $(PYTHON) -c '$(E2E_DIGEST)' || exit 1; \
	done; done

# A speed claim, measured: PARENT is checked out into a temporary git
# worktree and `run.py --workload W --seed SEED` alternates between it
# and the working tree N times, each side first in half the pairs.
# Prints each side's median, quartiles and wins of ops_per_wall_s, and
# fails if any simulated number or image hash differs between them.
PARENT ?= HEAD
W ?= service_clean
SEED ?= 0
N ?= 10
bench-pairs:
	$(PYTHON) benchmarks/pairs.py $(PARENT) --workload $(W) --seed $(SEED) \
		--pairs $(N)

# Regenerate the committed trace-attribution report: a seeded
# 16-client serve-sim on a log pre-filled to 0.85 (so the cleaner and
# throttling engage) with full request tracing (`--report`),
# decomposed into queueing / admission-retry / commit-wait / fs / disk
# / cleaner-throttle (components sum to the measured latency) plus the
# write-amplification ledger.
trace:
	$(PYTHON) -m repro serve-sim --clients 16 --fill 0.85 --report BENCH_trace.json

# Regenerate both committed reports in place and fail if either moved:
# the trace report, then BENCH_service.json (`repro sweep`: the service
# and cluster scaling sweeps and the fill curve) serially and again
# with --jobs 2.  The sweep itself exits nonzero on a dropped request,
# a shard image that fails verification, a 4-shard point under the 3x
# scale floor, or a fill at which the default cleaning policy writes
# more than 1.01x greedy's bytes.  A change that moves a simulated
# number commits the regenerated files.
reports: trace
	git diff --exit-code BENCH_trace.json
	$(PYTHON) -m repro sweep
	git diff --exit-code BENCH_service.json
	$(PYTHON) -m repro sweep --jobs 2
	git diff --exit-code BENCH_service.json

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

ci: lint test e2e-smoke reports crashtest chaos
