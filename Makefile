# Task runner for the selfheal workspace. `make ci` is the full gate the
# repo must keep green: build + every test + lints + docs.

CARGO ?= cargo

.PHONY: all build test test-all bench bench-check bench-baseline bench-regress bench-pair sim-parity sweep-check spec-check family-rank-check serve-check verify-exhaustive lint-custom loom-check loom-check-full doc fmt fmt-check clippy examples figures scale ci clean

## The checked-in perf baseline this PR's trajectory is gated against.
## Convention: one BENCH_<pr>.json per PR that moved performance; the
## newest file is the active gate (see README "perf trajectory").
BENCH_BASELINE ?= BENCH_10.json
BENCH_EXPORT   := target/criterion-export.jsonl

all: build

## Release build of every workspace crate.
build:
	$(CARGO) build --release --workspace

## Tier-1 verification: the exact command the roadmap pins.
test:
	$(CARGO) build --release && $(CARGO) test -q

## Every test in every crate (units, integration, doctests).
test-all:
	$(CARGO) test --workspace -q

## Benchmark suite (offline criterion stand-in: indicative numbers, fast).
bench:
	$(CARGO) bench -p selfheal-bench

## Smoke-run the scenario and scale throughput benches. Each asserts its
## own structure: `scenario` the run-to-empty round counts and the
## steady-state broadcast agreement between the scratch-buffer and
## allocating baselines, `scale_throughput` the chunk pool, the degree
## buckets and the live-rank bitmap behind `Graph`. So a panic here means
## the allocation-free hot loop or one of those structures regressed.
## Offline-safe: the vendored criterion stand-in hard-caps runtimes.
bench-check:
	$(CARGO) bench -p selfheal-bench --bench scenario
	$(CARGO) bench -p selfheal-bench --bench scale_throughput

## Record a new perf baseline: run the whole bench suite with the
## criterion stand-in's JSONL export enabled, then merge every group's
## median/MAD into $(BENCH_BASELINE) at the repo root (check it in).
bench-baseline:
	rm -f $(BENCH_EXPORT)
	CRITERION_EXPORT=$(CURDIR)/$(BENCH_EXPORT) $(CARGO) bench -p selfheal-bench
	$(CARGO) run -q --release -p selfheal-bench --bin baseline -- emit $(BENCH_EXPORT) $(BENCH_BASELINE)

## Perf-regression gate: re-run the suite and compare against the
## checked-in baseline. Fails when any benchmark's median regresses more
## than 10% beyond a 3-MAD noise slack; renamed/removed benches warn.
## A reported regression is re-sampled once before failing: on a shared
## host, transient CPU interference shifts a whole bench run's medians
## by far more than the MAD slack (observed +50..200% on rotating,
## unrelated benches), while a real regression reproduces on the
## second sample. So a retry cannot silently absorb a borderline real
## regression, both samples' full delta tables are echoed and kept
## under target/, and the benches that REGRESSED in sample 1 are
## re-printed with their sample-2 deltas side by side — a reviewer can
## see from the log whether the pass was convincing or marginal.
bench-regress:
	rm -f $(BENCH_EXPORT)
	CRITERION_EXPORT=$(CURDIR)/$(BENCH_EXPORT) $(CARGO) bench -p selfheal-bench
	@$(CARGO) run -q --release -p selfheal-bench --bin baseline -- compare $(BENCH_BASELINE) $(BENCH_EXPORT) > target/bench-compare-1.txt 2>&1; \
	st=$$?; cat target/bench-compare-1.txt; \
	if [ $$st -ne 0 ]; then \
	  echo "bench-regress: re-sampling once to rule out host interference (sample-1 deltas above)"; \
	  mv -f $(BENCH_EXPORT) $(BENCH_EXPORT).sample1; \
	  CRITERION_EXPORT=$(CURDIR)/$(BENCH_EXPORT) $(CARGO) bench -p selfheal-bench; \
	  $(CARGO) run -q --release -p selfheal-bench --bin baseline -- compare $(BENCH_BASELINE) $(BENCH_EXPORT) > target/bench-compare-2.txt 2>&1; \
	  st=$$?; cat target/bench-compare-2.txt; \
	  echo "bench-regress: sample-1 REGRESSED benches, as seen by sample 2:"; \
	  grep '^REGRESSED' target/bench-compare-1.txt | awk '{print $$2}' | while read -r k; do \
	    echo "  sample 1: $$(grep -F -- " $$k " target/bench-compare-1.txt | head -1)"; \
	    s2=$$(grep -F -- " $$k " target/bench-compare-2.txt | head -1); \
	    echo "  sample 2: $${s2:-$$k missing from sample 2}"; \
	  done; \
	  exit $$st; \
	fi

## Paired end-to-end comparison against a base revision:
## `make bench-pair BASE=<rev> PAIRS=10 [WORKLOADS=a,b]`.
## Exports BASE into target/bench-pair/base-src, builds the BENCHMARK.json
## command there and in the working tree, copies each build's executable
## to target/bench-pair/{base,head}/, then alternates runs of the two
## copies (with the command's program arguments) per workload, on
## seeds 11.. plus the held-out seed from healbench/meta.json, and
## prints per metric both medians with quartiles, the head's win count
## and a verdict against the metric's bound. Exits 1 on a regression or
## a failed run. Each run takes about 20 s (BENCHMARK.json's 10 s plus
## set-up), so PAIRS=10 over all four workloads takes about 25 minutes.
BASE     ?= HEAD
PAIRS    ?= 10
bench-pair:
	$(CARGO) run -q --release -p selfheal-bench --bin bench_pair -- \
	  --base $(BASE) --pairs $(PAIRS) --workloads "$(WORKLOADS)"

## Distributed-vs-centralized parity gate: the curated parity suite, the
## randomized parity proptests, and the distributed fabric bench (whose
## self-check asserts exact message-count agreement before timing).
sim-parity:
	$(CARGO) test -q --test distributed_parity
	$(CARGO) test -q --test scenarios distributed_parity
	$(CARGO) bench -p selfheal-bench --bench distributed

## Sweep-fleet gate: the fleet's integration tests (worker-count
## determinism, golden aggregate, stream locks, worst-seed replay) plus a
## real multi-thread sweep with theorem auditors on — any bound violation
## or aggregate divergence fails the run. The sweep bench's structural
## self-check (N-thread aggregate == 1-thread aggregate, byte-for-byte)
## rides along.
sweep-check:
	$(CARGO) test -q --test sweep
	$(CARGO) run -q --release -p selfheal-experiments -- sweep --quick --threads 4
	$(CARGO) bench -p selfheal-bench --bench sweep

## Spec-layer gate: the spec test-suite (round-trip properties, golden
## spec-vs-hand-built equivalence, curated-schedule parity), then parse
## and fully run every checked-in specs/*.scn through the CLI — any
## parse error, invalid configuration, theorem violation or parity
## divergence exits nonzero and fails the gate — and require the
## concatenated run blocks to match the checked-in golden byte for byte.
## If a change is intentional, regenerate with `for f in specs/*.scn; do
## run-experiments run --spec $f; done > goldens/spec_runs.txt` and note
## it in the commit.
spec-check:
	$(CARGO) test -q --test spec
	@set -e; for f in specs/*.scn; do \
	  $(CARGO) run -q --release -p selfheal-experiments -- run --spec $$f; \
	done > target/spec-runs.txt
	diff -u goldens/spec_runs.txt target/spec-runs.txt

## Family-ranking gate (E12): run the full healer registry × the
## adversary library at 1, 2 and 8 worker threads and require all three
## tables to match the checked-in golden byte for byte. Any change to a
## healer's topology decisions, RNG streams, audit findings or the
## ranking key shows up here; if the change is intentional, regenerate
## with `run-experiments family-rank --quick --threads 1 2>/dev/null >
## goldens/family_rank_quick.txt` and note it in the commit.
family-rank-check:
	@set -e; for t in 1 2 8; do \
	  echo "== family-rank --threads $$t"; \
	  $(CARGO) run -q --release -p selfheal-experiments -- family-rank --quick --threads $$t 2>/dev/null \
	    | diff -u goldens/family_rank_quick.txt - ; \
	done

## Serving-layer gate (E13 + smoke): the serve crate's test-suite
## (wire-form proptests, hostile-input handling, the concurrent-reader
## soak, worker-count invariance), then the two-tenant replay smoke and
## the quick serve-bench soak at 1, 2 and 8 workers — every output must
## match its checked-in golden byte for byte (the cluster's determinism
## contract). Regenerate intentionally changed goldens with the two
## commands below, piping stdout over the golden, and note it in the
## commit.
serve-check:
	$(CARGO) test -q -p selfheal-serve
	@set -e; for t in 1 2 8; do \
	  echo "== selfheal-serve --threads $$t (replay smoke)"; \
	  $(CARGO) run -q --release -p selfheal-serve -- \
	    --specs specs --tenants random_churn,epidemic_sdash \
	    --threads $$t --replay specs/serve_smoke.replay \
	    | diff -u goldens/serve_smoke.txt - ; \
	done
	@set -e; for t in 1 2 8; do \
	  echo "== serve-bench --threads $$t"; \
	  $(CARGO) run -q --release -p selfheal-experiments -- serve-bench --quick --threads $$t 2>/dev/null \
	    | diff -u goldens/serve_bench_quick.txt - ; \
	done

## Exhaustive verification gate (E10), bounded to seconds: the
## small-world prover enumerates every connected graph up to n = 6 (the
## census-checked A001349 universe), every deletion order, and
## representative batch partitions for every registered healer, while
## the schedule explorer proves centralized/distributed parity under
## every DPOR class of batch-notification delivery orders. Any theorem
## or parity violation exits nonzero. The n = 7 tier (853 more graphs,
## ~26M runs, minutes not seconds) is opt-in:
## `cargo run --release -p selfheal-experiments -- verify --full`.
verify-exhaustive:
	$(CARGO) run -q --release -p selfheal-experiments -- verify --quick --threads 4

## Workspace invariant linter (crates/lint): deterministic-crate
## collection discipline, relaxed-ordering / unsafe / panic justification
## comments, and the parallel_fold dispatch-loop contract. Runs the
## linter's own test-suite (scanner units, exact-diagnostic fixtures,
## workspace self-check) first, then the CLI over the workspace — any
## finding exits nonzero with `path:line: [rule] message` diagnostics.
lint-custom:
	$(CARGO) test -q -p selfheal-lint
	$(CARGO) run -q --release -p selfheal-lint -- .

## Concurrency model check: build the workspace with `--cfg loom` so the
## graph/bench atomics and channels swap to the vendored model checker,
## then exhaustively enumerate interleavings (DPOR sleep-set pruned) of
## the DegreeIndex hint protocol, parallel_fold's dispatch/fan-in, and
## the CountingAlloc counters. The default tier keeps to 2 threads per
## model (seconds); a separate target dir avoids thrashing the normal
## build cache. Includes the vendored checker's own self-tests.
loom-check:
	RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom $(CARGO) test --release -q -p loom
	RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom $(CARGO) test --release -q -p selfheal-graph --test loom -- --nocapture
	RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom $(CARGO) test --release -q -p selfheal-bench --test loom -- --nocapture

## Opt-in full tier: 3-thread models (tens of thousands of
## interleavings, ~10s).
loom-check-full:
	LOOM_FULL=1 RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom $(CARGO) test --release -q -p selfheal-graph --test loom -- --nocapture
	LOOM_FULL=1 RUSTFLAGS="--cfg loom" CARGO_TARGET_DIR=target/loom $(CARGO) test --release -q -p selfheal-bench --test loom -- --nocapture

## API docs for the workspace crates only. Any rustdoc warning (e.g. a
## link left dangling by a deleted module) fails the build.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

fmt:
	$(CARGO) fmt

fmt-check:
	$(CARGO) fmt --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## Build and run every example (quickstart last so its output is on screen).
examples:
	@set -e; for f in $$(ls examples/*.rs | grep -v '/quickstart\.rs$$') examples/quickstart.rs; do \
	  $(CARGO) run -q --release --example $$(basename $$f .rs); \
	done

## Regenerate the paper's figures (quick scale) with CSV dumps under out/.
figures:
	$(CARGO) run -q --release -p selfheal-experiments -- all --quick --csv out

## E11: million-node healing throughput (both healers, churn + racks).
## Not part of `figures`/`all` — a deliberate, ~half-minute invocation.
scale:
	$(CARGO) run -q --release -p selfheal-experiments -- scale

## The full CI gate.
ci: fmt-check clippy build test-all doc bench-check bench-regress sim-parity sweep-check spec-check family-rank-check serve-check verify-exhaustive lint-custom loom-check
	@echo "ci green"

clean:
	$(CARGO) clean
