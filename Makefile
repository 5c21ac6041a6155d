# Developer entry points.  `make check` is the one-stop gate: lint (when
# ruff is installed), tier-1 tests, the transport tests again under
# asyncio debug mode, the smoke-mode micro-benchmark regression check
# (refuses a >20% throughput regression against
# benchmarks/BENCH_micro_coding.json; falls back to the
# machine-independent speedup column on a different host), the simulator
# macro-benchmark gate (events/sec against
# benchmarks/BENCH_sim_eventloop.json on the host that recorded it; it
# passes with a notice anywhere else), the ledger smoke (the frozen
# benchmark of BENCHMARK.json, all six workloads and both passes at 5 s
# each, so a refactor that detaches it from src/ fails here), the
# live-smoke matrix (all three protocols, in-process AND one OS process
# per replica, each committing real requests on localhost TCP), the
# live-vs-sim calibration smoke (one reconciled point per protocol), and
# the chaos smoke (a scripted partition/heal/crash/restart scenario per
# protocol plus one faulted live-vs-sim degradation-gap point), the
# trace smoke (request lifecycles recorded on both backends, exported as
# validated Chrome trace_event JSON), the experiment-service smoke
# (the committed 6-trial matrix through `expt run`, legacy artifacts
# ingested into the longitudinal store, cross-protocol report rendered),
# and the recovery smoke (crash + restart per protocol on both
# deployment modes, gated on verified catch-up and ledger-prefix
# re-convergence; the --processes legs must restore from the durable
# on-disk snapshot).
# Reports land in artifacts/ (CI uploads them on every run).

PYTHON ?= python
export PYTHONPATH := src

LIVE_PROTOCOLS := leopard pbft hotstuff
SMOKE_ARGS := --duration 3 --rate 2000 --bundle-size 100 --clients 1 \
	--min-committed 1
# The crash-recover scenario restarts the victim at t=2.2; it needs a
# longer run than the other smokes to complete a verified catch-up.
RECOVERY_ARGS := --duration 4 --rate 2000 --bundle-size 100 --clients 1 \
	--min-committed 1

.PHONY: lint test transport-debug bench-micro bench-micro-full bench-sim \
	bench-sim-full ledger-smoke live-smoke live-smoke-all calibrate-smoke \
	chaos-smoke calibrate-faulted trace-smoke expt-smoke recovery-smoke \
	golden check

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI enforces it)"; \
	fi

test:
	$(PYTHON) -m pytest -x -q

# The transport tests under asyncio debug mode: sends write to an idle
# peer's socket inline, from inside read callbacks, so a write to a
# closing transport or a leaked socket must fail loudly.
transport-debug:
	PYTHONASYNCIODEBUG=1 $(PYTHON) -X dev -m pytest -q \
		-W error::ResourceWarning \
		-W error::pytest.PytestUnraisableExceptionWarning \
		tests/net/test_transport.py

# Re-record the simulator reports tests/golden/ pins (name each rewritten
# file and the reason in the change description).
golden:
	$(PYTHON) tests/golden/test_golden.py

bench-micro:
	$(PYTHON) benchmarks/run_micro.py --mode smoke --check

bench-micro-full:
	$(PYTHON) benchmarks/run_micro.py --mode full \
		--output benchmarks/BENCH_micro_coding.json

bench-sim:
	$(PYTHON) benchmarks/run_sim_bench.py --mode smoke --check

bench-sim-full:
	$(PYTHON) benchmarks/run_sim_bench.py --mode full \
		--output benchmarks/BENCH_sim_eventloop.json

# benchmarks/ledger/ is frozen and reaches into src/ by name; exit
# status is non-zero when a workload cannot run or a check fails.
ledger-smoke:
	$(PYTHON) benchmarks/ledger/run.py --seed 1 --seconds 5

live-smoke:
	$(PYTHON) -m repro.harness.cli run-live --replicas 4 --clients 1 \
		--duration 5 --rate 4000 --bundle-size 200 --min-committed 1

live-smoke-all:
	@mkdir -p artifacts
	@for proto in $(LIVE_PROTOCOLS); do \
		echo "== live-smoke $$proto (in-process) =="; \
		$(PYTHON) -m repro.harness.cli run-live --protocol $$proto \
			$(SMOKE_ARGS) \
			--output artifacts/live_$${proto}_in-process.json \
			|| exit 1; \
		echo "== live-smoke $$proto (processes) =="; \
		$(PYTHON) -m repro.harness.cli run-live --protocol $$proto \
			--processes $(SMOKE_ARGS) \
			--output artifacts/live_$${proto}_processes.json \
			|| exit 1; \
	done

calibrate-smoke:
	@mkdir -p artifacts
	@for proto in $(LIVE_PROTOCOLS); do \
		echo "== calibrate $$proto =="; \
		$(PYTHON) -m repro.harness.cli calibrate --protocol $$proto \
			--duration 1.5 --warmup 0.25 --rate 2000 \
			--bundle-size 100 --min-committed 1 \
			--output artifacts/calibration_$$proto.json \
			|| exit 1; \
	done

# Chaos smoke: the scripted "smoke" scenario (WAN-shape the leader link,
# partition the victim, heal, crash it, restart it) must still commit
# requests on every protocol, live in-process.  The slow-replica legs
# hot-swap a DelaySend fault in and out of a live replica's core stack
# (the chaos fault/unfault ops).  One extra leg exercises the
# crash/restart path against real OS processes (SIGKILL + respawn).
chaos-smoke:
	@mkdir -p artifacts
	@for proto in $(LIVE_PROTOCOLS); do \
		echo "== chaos-smoke $$proto (in-process) =="; \
		$(PYTHON) -m repro.harness.cli run-live --protocol $$proto \
			--scenario smoke $(SMOKE_ARGS) \
			--output artifacts/chaos_$${proto}_in-process.json \
			|| exit 1; \
		echo "== chaos-smoke $$proto (in-process, slow-replica) =="; \
		$(PYTHON) -m repro.harness.cli run-live --protocol $$proto \
			--scenario slow-replica $(SMOKE_ARGS) \
			--output artifacts/chaos_$${proto}_slow-replica.json \
			|| exit 1; \
	done
	@echo "== chaos-smoke leopard (processes, crash-restart) =="
	@$(PYTHON) -m repro.harness.cli run-live --protocol leopard \
		--processes --scenario crash-restart $(SMOKE_ARGS) \
		--output artifacts/chaos_leopard_processes.json

# Faulted live-vs-sim gate: both backends execute the same crash/restart
# timeline; the degradation ratios (faulted/clean throughput) must agree
# within the gap bound.
calibrate-faulted:
	@mkdir -p artifacts
	$(PYTHON) -m repro.harness.cli calibrate --protocol leopard \
		--scenario crash-restart --duration 1.5 --warmup 0.25 \
		--rate 2000 --bundle-size 100 --min-committed 1 \
		--max-degradation-gap 3.0 \
		--output artifacts/calibration_faulted_leopard.json

# Trace smoke: record request lifecycles on both backends — one
# simulated run and one live run with one OS process per replica — and
# export Chrome trace_event JSON.  --require-request fails the target
# unless at least one committed request produced a complete
# submit->batch->propose->commit lifecycle; the chrome export is
# structurally validated before it is written.
trace-smoke:
	@mkdir -p artifacts
	@echo "== trace-smoke leopard (sim) =="
	$(PYTHON) -m repro.harness.cli trace --backend sim \
		--duration 2 --rate 2000 --bundle-size 100 \
		--require-request \
		--chrome artifacts/trace_leopard_sim.trace.json \
		--output artifacts/trace_leopard_sim.json
	@echo "== trace-smoke leopard (live, processes) =="
	$(PYTHON) -m repro.harness.cli trace --backend live --processes \
		--duration 2 --rate 2000 --bundle-size 100 --clients 1 \
		--require-request \
		--chrome artifacts/trace_leopard_processes.trace.json \
		--output artifacts/trace_leopard_processes.json

# Experiment-service smoke: run the committed 6-trial matrix (3
# protocols x {sim, live}) through `expt run` — parallel, resumable —
# ingest the committed BENCH_*/CALIBRATION_* artifacts into the same
# longitudinal store, and render the cross-protocol report.  Artifacts
# land under artifacts/expt-smoke/ (CI uploads store + report).
expt-smoke:
	@mkdir -p artifacts/expt-smoke
	$(PYTHON) -m repro.harness.cli expt run \
		--config benchmarks/experiments/smoke.yaml \
		--results-dir artifacts/expt-smoke/results \
		--store artifacts/expt-smoke/store.jsonl --retries 1
	$(PYTHON) -m repro.harness.cli expt ingest \
		--store artifacts/expt-smoke/store.jsonl \
		benchmarks/BENCH_micro_coding.json \
		benchmarks/BENCH_sim_eventloop.json \
		benchmarks/CALIBRATION_presets.json
	$(PYTHON) -m repro.harness.cli expt report \
		--store artifacts/expt-smoke/store.jsonl \
		--markdown artifacts/expt-smoke/report.md \
		--html artifacts/expt-smoke/report.html

# Recovery smoke: SIGKILL-equivalent crash + restart per protocol on
# both deployment modes; --require-recovery fails the target unless the
# restarted replica completed a verified catch-up (non-zero ledger
# segments fetched) and its executed prefix re-converged with the
# quorum.  The --processes legs additionally require the respawned
# child to restore from its durable on-disk snapshot rather than
# seed-rebuilding.
recovery-smoke:
	@mkdir -p artifacts
	@for proto in $(LIVE_PROTOCOLS); do \
		echo "== recovery-smoke $$proto (in-process) =="; \
		$(PYTHON) -m repro.harness.cli run-live --protocol $$proto \
			--scenario crash-recover --require-recovery \
			$(RECOVERY_ARGS) \
			--output artifacts/recovery_$${proto}_in-process.json \
			|| exit 1; \
		echo "== recovery-smoke $$proto (processes) =="; \
		$(PYTHON) -m repro.harness.cli run-live --protocol $$proto \
			--processes --scenario crash-recover --require-recovery \
			$(RECOVERY_ARGS) \
			--output artifacts/recovery_$${proto}_processes.json \
			|| exit 1; \
	done

# (n, rate, payload) reconciliation grid; --apply-presets folds the
# combined cost scale back into benchmarks/CALIBRATION_presets.json,
# keyed by this host's fingerprint (commit the file to re-baseline).
calibrate-sweep:
	@mkdir -p artifacts
	$(PYTHON) -m repro.harness.cli calibrate --sweep --apply-presets \
		--duration 1.0 --warmup 0.25 --min-committed 1 \
		--output artifacts/calibration_sweep_leopard.json

check: lint test transport-debug bench-micro bench-sim ledger-smoke \
	live-smoke-all calibrate-smoke chaos-smoke calibrate-faulted \
	trace-smoke expt-smoke recovery-smoke
