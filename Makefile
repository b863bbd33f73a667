GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test check race lint fuzz fuzz-seeds cover bench bench-alloc bench-batch bins serve-smoke serve-bench serve-attack serve-cluster serve-adapt bench-json bench-check

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the CI gate: static analysis plus the full test suite under the
# race detector.  The parallel exploration engine's determinism tests run
# worker pools concurrently here, so data races in the pricing memo, the
# A-D combination memo or the worker pool itself fail the build.
check:
	$(GO) vet ./...
	$(GO) test -race ./...

race: check

# lint enforces formatting and (when installed) staticcheck.  CI installs
# staticcheck explicitly; locally the target degrades to gofmt-only so the
# repo never requires tools the environment lacks.
lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi
	@echo "gofmt: clean"
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./... && echo "staticcheck: clean"; \
	else \
		echo "staticcheck: not installed, skipped (CI runs it)"; fi

# Bursts of the native fuzz targets (differential vs math/big); the
# nightly workflow raises FUZZTIME to 5m per target.  The target list is
# derived from `go test -list` so a new Fuzz* function is picked up here
# and in nightly.yml without editing either.  The checked-in seed corpora
# under testdata/fuzz always run as part of plain `make test`.
fuzz:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for t in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz' || true); do \
			echo "==> $$t ($$pkg)"; \
			$(GO) test -fuzz "^$$t$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# fuzz-seeds replays only the checked-in seed corpora (every Fuzz*
# function once per seed, no fuzzing) — the cheap CI smoke of the
# differential targets.
fuzz-seeds:
	$(GO) test -run '^Fuzz' ./...

# cover runs the tier-1 suite once with coverage and prints the
# per-package summary; CI uploads coverage.out as an artifact.
cover:
	$(GO) test -coverprofile coverage.out -covermode atomic ./...
	$(GO) tool cover -func coverage.out | tail -n 25

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-alloc measures allocation discipline on the steady-state hot
# paths with -benchmem: ModExp/ModMul scratch-arena reuse, the pooled
# record layer (Seal/Open must report 0 allocs/op after warmup), the
# serve record op end to end, the buffer pool itself, the cipher block
# ops (0 allocs/op) and 3DES key set-up (1 alloc) beside their crypto/aes
# and crypto/des comparators, the 64-byte MD5 and SHA-1 digests (0
# allocs/op) beside crypto/md5 and crypto/sha1, and 64-byte wire round
# trips direct and through gwroute, one and 16 in flight, with the frames
# each side packs into one write.  These are the numbers the benchcmp
# allocation gate holds the serving path to.
bench-alloc:
	$(GO) test -bench 'ModExp1024|FixedBase|ModMulMontgomery' -benchmem -run '^$$' ./internal/mpz/
	$(GO) test -bench 'RecordSeal|RecordRoundTrip' -benchmem -run '^$$' ./internal/ssl/
	$(GO) test -bench 'ServeRecordOp|ServeResumedTransaction' -benchmem -run '^$$' ./internal/serve/
	$(GO) test -bench 'WireEncode|WireParse|WireRoundTrip' -benchmem -run '^$$' ./internal/wire/
	$(GO) test -bench 'GetPut' -benchmem -run '^$$' ./internal/bufpool/
	$(GO) test -bench 'CipherBlock|TripleKeySchedule' -benchmem -run '^$$' ./internal/aescipher/ ./internal/descipher/
	$(GO) test -bench 'Digest64' -benchmem -run '^$$' ./internal/hashes/

# bench-batch is the batched-kernel perf gate: measure the
# BenchmarkBatchModExp1024/k={1,2,4,8} family fresh, gate ns/op and
# allocs/op against the checked-in baseline (>25% fails), and require
# k=4 to beat four scalar k=1 calls per lane by the recorded margin
# (see EXPERIMENTS.md).  Refresh the baseline on a quiet machine with:
#   bin/benchcmp -go-bench-current BENCH_batch.txt -go-bench-out bench/BENCH_batch.baseline.json
bench-batch: bins
	$(GO) test -bench 'BenchmarkBatchModExp1024' -benchmem -benchtime 20x -run '^$$' ./internal/mpz/ | tee BENCH_batch.txt
	bin/benchcmp -go-bench-baseline bench/BENCH_batch.baseline.json -go-bench-current BENCH_batch.txt \
		-assert-lane-speedup 'BatchModExp1024/k=4<BatchModExp1024/k=1' -lane-factor 0.85

bins:
	$(GO) build -o bin/wispd ./cmd/wispd
	$(GO) build -o bin/wispgw ./cmd/wispgw
	$(GO) build -o bin/wispload ./cmd/wispload
	$(GO) build -o bin/benchcmp ./cmd/benchcmp

# serve-smoke boots the offload daemon, serves 100 mixed Figure 8
# transactions at 4 concurrent clients through wispload (verifying every
# payload digest end to end), and drains the daemon cleanly.
serve-smoke: bins
	BIN=bin ./scripts/serve_smoke.sh

# serve-bench replays a heterogeneous ssl+record mix with deadlines and
# client retries against a cost-aware wispd (asserting zero payload
# mismatches and zero sheds issued while any shard sat idle), then runs
# the session-resumption A/B: the abbreviated-handshake class's p99 must
# beat the resume-off baseline.  Writes BENCH_serve.json.
serve-bench: bins
	BIN=bin ./scripts/serve_bench.sh

# serve-attack is the adversarial fairness regression gate: an attack-free
# baseline replay (run twice for a noise-resistant reference) followed by
# the same legit workload with all four attack profiles (flood, thrash,
# oversize, slowloris) mixed in.  Asserts zero digest mismatches, zero
# sheds-while-idle, that attackers were throttled, and that legit record
# p99 stays within 1.5x of the attack-free baseline.  Writes
# BENCH_attack.json.
serve-attack: bins
	BIN=bin ./scripts/serve_attack.sh

# serve-cluster is the cluster-scaling gate: the same wire protocol
# workload against one wispd direct and against wispgw routing over three
# wispd backends.  Asserts resumption-rate parity through consistent-hash
# session affinity (within 5 points of single-node, zero ring redirects),
# >=2x single-node throughput under 20 MHz model pacing, and that killing
# one backend mid-run ejects it with zero client-visible failures.
# Writes BENCH_cluster.json (labeled 'cluster').
serve-cluster: bins
	BIN=bin ./scripts/serve_cluster.sh

# serve-adapt is the adaptive-governor A/B gate: the same shifting
# workload (record warmup, then a sustained rsa-decrypt burst) against a
# mis-sized static batch width and against a governed daemon.  Asserts
# the governor logs a width adaptation, the governed metrics show widen
# ticks and batched RSA serving, zero digest mismatches, and >=15%
# throughput recovery over the static run.  Writes BENCH_adapt.json.
serve-adapt: bins
	BIN=bin ./scripts/serve_adapt.sh

# bench-json emits the machine-readable serving benchmark record
# (per-op p50/p99, throughput, cache hit rates) to BENCH_serve.json.
bench-json: serve-bench

# bench-check gates BENCH_serve.json against the checked-in baseline:
# >25% regression on any tracked metric fails.
bench-check: bench-json
	bin/benchcmp -baseline bench/BENCH_serve.baseline.json -current BENCH_serve.json
