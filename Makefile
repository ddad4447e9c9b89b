# Developer entry points. Everything here is plain cargo; the Makefile
# only fixes the flags so CI and local runs agree.

CHAOS_CASES ?= 512
SCALE_BENCH_SCALES ?= 10,100

.PHONY: build test lint lint-baseline clippy chaos chaos-batch chaos-serve experiments experiments-smoke engine-bench batch-bench scale-bench e2ebench-smoke metrics-check slow-tests ci

build:
	cargo build --release

test:
	cargo test -q

# Semantic source analysis (docs/static-analysis.md): the float-eq
# token rule, the metric-registry cross-check, and the interprocedural
# determinism-taint pass over the workspace call graph — ratcheted
# against the committed dcc-lint.baseline (fails on fresh findings AND
# stale entries) and emitting SARIF 2.1.0 for code scanning. Exits
# nonzero on any fresh finding, stale baseline entry, or stale
# suppression.
lint:
	cargo run -q -p dcc-cli --bin dcc -- lint --root . --baseline dcc-lint.baseline --sarif target/dcc-lint.sarif

# Absorb the current findings into dcc-lint.baseline (fresh entries get
# a TODO justification to fill in; fixed entries are dropped).
lint-baseline:
	cargo run -q -p dcc-cli --bin dcc -- lint --root . --baseline dcc-lint.baseline --update-baseline

# `indexing_slicing` is advisory (workspace lint level "warn"): the
# numeric kernels index tight loops on purpose, so it is surfaced in
# editors but not promoted to deny here.
clippy:
	cargo clippy --workspace --all-targets -- -D warnings -A clippy::indexing_slicing

# Chaos pass: the CLI-level batch and serve kill/resume matrices, then
# the whole workspace with elevated property-test iterations, then the
# fault-tolerance integration suite on its own (faulty simulation
# through the engine, determinism, degraded design). See
# docs/robustness.md.
chaos: chaos-batch chaos-serve
	PROPTEST_CASES=$(CHAOS_CASES) cargo test -q --workspace
	PROPTEST_CASES=$(CHAOS_CASES) cargo test -q --test fault_tolerance

# CLI-level crash-recovery matrix for the supervised batch scheduler:
# run a 10-scenario grid to completion — its two mu = -1.0 scenarios
# are quarantined, so failed records travel through the checkpoint too
# — kill checkpointed runs before any work and at about 25/50/75%
# (--kill-at 0/3/5/8), resume each, and require the resumed report to
# be byte-identical to the uninterrupted one.
chaos-batch:
	rm -rf target/chaos-batch && mkdir -p target/chaos-batch
	cargo run --release -q -p dcc-cli --bin dcc -- gen --seed 11 --scale small --out target/chaos-batch/trace
	printf '%s\n' \
	  '{"schema": "dcc-batch/1",' \
	  ' "traces": [{"csv": "target/chaos-batch/trace", "label": "chaos"}],' \
	  ' "mus": [1.8, 1.5, -1.0, 1.2, 1.0],' \
	  ' "budget_fractions": [0.5, 1.0],' \
	  ' "sim": {"rounds": 4, "noise": 0.25, "seed": 7}}' \
	  > target/chaos-batch/grid.json
	cargo run --release -q -p dcc-cli --bin dcc -- batch target/chaos-batch/grid.json --serial --policy skip > target/chaos-batch/full.txt
	grep -q '^quarantine: 2 scenarios$$' target/chaos-batch/full.txt || \
	  { echo "chaos-batch: expected 2 quarantined scenarios"; exit 1; }
	for k in 0 3 5 8; do \
	  rm -f target/chaos-batch/batch.ckpt; \
	  cargo run --release -q -p dcc-cli --bin dcc -- batch target/chaos-batch/grid.json --serial --policy skip \
	    --checkpoint target/chaos-batch/batch.ckpt --kill-at $$k || exit 1; \
	  cargo run --release -q -p dcc-cli --bin dcc -- batch target/chaos-batch/grid.json --serial --policy skip \
	    --checkpoint target/chaos-batch/batch.ckpt --resume > target/chaos-batch/resumed-$$k.txt || exit 1; \
	  cmp target/chaos-batch/full.txt target/chaos-batch/resumed-$$k.txt || \
	    { echo "chaos-batch: resume at kill-at=$$k diverged from the uninterrupted run"; exit 1; }; \
	  echo "chaos-batch: kill-at=$$k resume is byte-identical"; \
	done

# CLI-level crash-recovery matrix for the streaming service: replay the
# seeded small trace (~11k events) to completion, kill checkpointed
# runs at roughly 25/50/75% of the event stream, resume each, and
# require the resumed run's full output — restored rounds re-emitted,
# remaining rounds, summary — to be byte-identical to the uninterrupted
# run. The checkpoint holds counts and fingerprints, never the events,
# so it must stay under 1 KiB after every kill and every resume.
chaos-serve:
	rm -rf target/chaos-serve && mkdir -p target/chaos-serve
	cargo run --release -q -p dcc-cli --bin dcc -- gen --seed 11 --scale small --out target/chaos-serve/trace
	cargo run --release -q -p dcc-cli --bin dcc -- serve --replay target/chaos-serve/trace --pool 2 > target/chaos-serve/full.txt
	for k in 3000 6000 9000; do \
	  rm -f target/chaos-serve/serve.ckpt; \
	  cargo run --release -q -p dcc-cli --bin dcc -- serve --replay target/chaos-serve/trace --pool 2 \
	    --checkpoint target/chaos-serve/serve.ckpt --kill-at $$k > /dev/null || exit 1; \
	  test $$(wc -c < target/chaos-serve/serve.ckpt) -le 1024 || \
	    { echo "chaos-serve: checkpoint after kill-at=$$k exceeds 1 KiB"; exit 1; }; \
	  cargo run --release -q -p dcc-cli --bin dcc -- serve --replay target/chaos-serve/trace --pool 2 \
	    --checkpoint target/chaos-serve/serve.ckpt --resume > target/chaos-serve/resumed-$$k.txt || exit 1; \
	  test $$(wc -c < target/chaos-serve/serve.ckpt) -le 1024 || \
	    { echo "chaos-serve: checkpoint after resuming kill-at=$$k exceeds 1 KiB"; exit 1; }; \
	  cmp target/chaos-serve/full.txt target/chaos-serve/resumed-$$k.txt || \
	    { echo "chaos-serve: resume at kill-at=$$k diverged from the uninterrupted run"; exit 1; }; \
	  echo "chaos-serve: kill-at=$$k resume is byte-identical"; \
	done

# The paper's artifacts E1-E7 at paper scale; add --extensions for E8-E15.
experiments:
	cargo run --release -q -p dcc-cli --bin dcc -- experiment all --scale paper

# Every artifact E1-E15 end to end at small scale: the suite must write
# all fifteen CSVs, and its metrics.json must pass `dcc metrics
# summarize`.
EXPERIMENT_CSVS = fig6 table2 fig7 table3 fig8a fig8b fig8c e8_adaptive e9_sensitivity \
  e10_detection e11_collusion e12_baselines e13_budget e14_risk e15_adversarial
experiments-smoke:
	rm -rf target/experiments-smoke
	cargo run --release -q -p dcc-cli --bin dcc -- experiment all --scale small --extensions \
	  --csv target/experiments-smoke
	for f in $(EXPERIMENT_CSVS); do \
	  test -s target/experiments-smoke/$$f.csv || { echo "experiments-smoke: no $$f.csv"; exit 1; }; \
	done
	cargo run --release -q -p dcc-cli --bin dcc -- metrics summarize target/experiments-smoke/metrics.json

# Sequential vs pooled solve timings plus a printed speedup report
# (bit-identity is asserted separately by dcc-engine's property tests)
# and the observability overhead gate (the solve with a noop recorder
# within 2% of a plain loop over the same two ContractBuilder halves:
# candidates per (omega, psi, delta) key, select per subproblem).
engine-bench:
	cargo bench -p dcc-bench --bench engine

# Cold vs warm batch-grid throughput on a 16-scenario μ-sweep, with the
# printed report gating warm-cache throughput at >= 2x the naive
# per-scenario loop (bit-identity is asserted separately by dcc-batch's
# property tests).
batch-bench:
	cargo bench -p dcc-bench --bench batch

# Million-worker throughput of the columnar trace path: stream a
# synthetic trace into a dcc-trace-col/1 buffer, solve one subproblem
# per worker with solve_subproblems in flat-memory chunks of rows,
# and report workers/sec + peak RSS per scale (multiples of the paper's
# ~19.7k-worker workload; 100x ~= 2M workers). Override the scales with
# SCALE_BENCH_SCALES=10,100,500; set DCC_SCALE_BENCH_MIN_WPS to gate on
# a throughput floor (CI does, at 10x).
scale-bench:
	DCC_SCALE_BENCH_SCALES=$(SCALE_BENCH_SCALES) cargo bench -p dcc-bench --bench scale

# The end-to-end benchmark (e2ebench/, a workspace of its own, so no
# other target builds it) against the current crates: build it, run its
# unit tests, then run each BENCHMARK.json workload once, untraced and
# with no time budget. A run exits 1 when the program's outputs do not
# check out, so an API change that breaks the benchmark fails here.
E2EBENCH = cargo run --release -q --offline --manifest-path e2ebench/Cargo.toml --
e2ebench-smoke:
	cargo build --release --offline --manifest-path e2ebench/Cargo.toml
	cargo test -q --release --offline --manifest-path e2ebench/Cargo.toml
	mkdir -p target/e2ebench-smoke
	for w in design-4x serve-replay sweep-grid; do \
	  $(E2EBENCH) --workload $$w --seed 42 --seconds 0 --trace 0 \
	    --results target/e2ebench-smoke/results.jsonl || exit 1; \
	done

# End-to-end observability check: run a small pipeline with the JSON
# recorder, then validate the emitted document against the dcc-obs/1
# schema (docs/observability.md) and render its per-stage latency table.
metrics-check:
	rm -rf target/metrics-check && mkdir -p target/metrics-check
	cargo run --release -p dcc-cli --bin dcc -- gen --seed 42 --scale small --out target/metrics-check/trace
	cargo run --release -p dcc-cli --bin dcc -- run target/metrics-check/trace --rounds 5 --metrics target/metrics-check/metrics.json
	cargo run --release -p dcc-cli --bin dcc -- metrics summarize target/metrics-check/metrics.json

# Paper-scale stress test (see tests/stress.rs); also run nightly by
# .github/workflows/scheduled.yml.
slow-tests:
	DCC_SLOW_TESTS=1 cargo test --release --test stress

# The local mirror of CI; e2ebench-smoke checks that the benchmark still
# builds against the crates' public types.
ci: build test lint clippy metrics-check experiments-smoke e2ebench-smoke
