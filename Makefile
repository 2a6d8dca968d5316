# mxtasking-go build targets.

GO ?= go

.PHONY: all build vet test race bench ledger chaos stress cluster-chaos steal-stress prefetch-stress interleave-stress pager-stress fuzz ci figures verify dat clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The packages designed to be race-free, listed once: `race` runs them and
# `ci` runs `race`, so the two cannot drift. The optimistic index
# structures intentionally perform validated racy reads (seqlock pattern)
# and are excluded by design; see README "Status". kvstore and wal are
# included: under `-race` the store selects the serialized tree mode
# (internal/kvstore/treemode_race.go), which is data-race-free by
# construction.
RACE_PKGS = ./internal/mxtask ./internal/queue ./internal/latch \
	./internal/alloc ./internal/tbb ./internal/metrics \
	./internal/ycsb ./internal/tpch ./internal/hashjoin ./internal/sim \
	./internal/wal ./internal/kvstore ./internal/faultfs ./internal/linearize \
	./internal/netfault ./internal/repl ./internal/prefetch ./internal/pager \
	./cmd/mxload

# Race-detect RACE_PKGS, re-run the kvstore server/protocol suite behind
# the 4-shard router and behind a thrashing 8-frame paged tier, run the
# Blink-tree scan tests in the two tree modes whose synchronization the
# detector can follow (serialized and rwlock: the leaf cursor under real
# latches, racing real splits) — the first internal/blinktree code under
# -race here; the package's optimistic mode stays out, see RACE_PKGS —
# run the idle protocol's tests (internal/mxtask/idle_test.go) at 1, 2 and
# 4 Ps, and sweep the seeded stress suites.
race:
	$(GO) test -race $(RACE_PKGS)
	MXKV_SHARDS=4 $(GO) test -race -count=1 ./internal/kvstore
	MXKV_PAGED=1 $(GO) test -race -count=1 ./internal/kvstore
	$(GO) test -race -count=1 -run 'TestTaskTreeScan(Basic|Limit)/(serialized|rwlock)|TestTaskTreeScanRacingSplits' ./internal/blinktree
	$(GO) test -race -count=1 -shuffle=on -run 'TestGroup' ./internal/mxtask
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'TestNoLostWakeups|StopBoundedWhileParked' ./internal/mxtask
	$(MAKE) prefetch-stress
	$(MAKE) interleave-stress
	$(MAKE) pager-stress

bench:
	$(GO) test -bench=. -benchmem .

# The benchmark ledger (ROADMAP ground rule "same-session pairs only"):
# check PARENT out beside the working tree, run PAIRS alternating
# parent/PR pairs of all six workloads plus one `-trace 1` pair (its
# document holds the untraced end-to-end numbers and the per-layer ladder),
# leave the traced pair at the repository root as BENCH_<PR>.parent.json /
# BENCH_<PR>.json to be committed, and print `-compare parent pr` for
# every pair (the target fails if any pair has a `worse` row). ~4 min per
# plain pair, ~12 min for the traced one.
#
#	make ledger PR=22                # the PR is HEAD, its parent HEAD~
#	make ledger PR=22 PARENT=HEAD    # the PR is still uncommitted
PARENT ?= HEAD~
PAIRS ?= 3
LEDGER = $(CURDIR)/.bench_build/ledger
ledger:
	@test -n "$(PR)" || { echo "usage: make ledger PR=<n> [PARENT=<rev>] [PAIRS=<n>]"; exit 2; }
	rm -rf $(LEDGER) && mkdir -p $(LEDGER)
	git clone -q . $(LEDGER)/parent && git -C $(LEDGER)/parent checkout -q --detach $(PARENT)
	set -e; for i in $$(seq $(PAIRS)) traced; do \
		trace=0; order="parent pr"; \
		case $$i in traced) trace=1;; *[02468]) order="pr parent";; esac; \
		for side in $$order; do \
			root=$(CURDIR); [ $$side = pr ] || root=$(LEDGER)/parent; \
			bash $$root/benchmark/run.sh -trace $$trace -out $(LEDGER)/$$side.$$i.json; \
		done; \
	done
	cp $(LEDGER)/parent.traced.json BENCH_$(PR).parent.json
	cp $(LEDGER)/pr.traced.json BENCH_$(PR).json
	worse=0; for i in $$(seq $(PAIRS)) traced; do \
		echo "== pair $$i"; \
		bash benchmark/run.sh -compare $(LEDGER)/parent.$$i.json $(LEDGER)/pr.$$i.json || worse=1; \
	done; exit $$worse

# Chaos harness (README "Chaos testing"): crash the durable store at every
# enumerated WAL filesystem operation on the fault-injecting filesystem,
# recover from the crash image, and linearizability-check the merged
# pre/post-crash history; then drive the network fault matrix — the
# netfault proxy injecting latency, blackholes, RSTs, and one-way
# partitions into the client/server path — ten cluster schedules, and the
# scheduler stress. Race-detected; failures print the seed and fault index
# needed to reproduce the exact schedule.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos' -v ./internal/kvstore
	$(GO) test -race -count=1 ./internal/netfault
	$(MAKE) cluster-chaos SEEDS=10
	$(MAKE) steal-stress

# One stress rule: the tests matching RUN in PKG, swept over SEEDS seeds
# (handed to the suite through its own environment variable, SEEDS_VAR)
# under the race detector, shuffled so state cannot leak between tests.
#
#	make stress PKG=./internal/pager RUN=TestPager SEEDS_VAR=MXPG_SEEDS SEEDS=50
#
# The named sweeps below are aliases for it (DESIGN.md section in brackets):
#   steal-stress       [§7]  cross-runtime stealing: adversarial spawn
#                            patterns with exactly-once and mutual-exclusion
#                            ledgers, steal exclusions
#   prefetch-stress    [§8]  learned prefetcher: sequential, strided,
#                            phase-changing, interleaved and random streams
#   cluster-chaos      [§6]  3-node cluster through seeded schedules of
#                            primary/replica crashes and one-way partitions;
#                            per-phase linearizability, acked-write survival,
#                            replica reads checked against the final WAL
#   interleave-stress  [§9]  batched traversals: lockstep invariance, group
#                            descents racing splits and root growth
#   pager-stress       [§10] buffer-pool shape sweep against an oracle under
#                            forced eviction, the paged store's lockstep
#                            invariance and crash-at-every-fs-op suites
SEEDS ?= 20
stress:
	$(SEEDS_VAR)=$(SEEDS) $(GO) test -race -count=1 -shuffle=on -timeout 900s \
		-run '$(RUN)' -v $(PKG)

steal-stress:      ; $(MAKE) stress PKG=./internal/mxtask RUN=TestGroup SEEDS_VAR=MXTASK_STEAL_SEEDS
prefetch-stress:   ; $(MAKE) stress PKG=./internal/prefetch RUN=TestPrefetchPatterns SEEDS_VAR=MXPF_SEEDS
cluster-chaos:     ; $(MAKE) stress PKG=./internal/repl RUN=TestClusterChaosSchedules SEEDS_VAR=MXKV_CLUSTER_SCHEDULES
interleave-stress: ; $(MAKE) stress PKG='./internal/blinktree ./internal/kvstore' RUN='TestInterleave|TestBatchCompletionContract' SEEDS_VAR=MXIL_SEEDS
pager-stress:      ; $(MAKE) stress PKG='./internal/pager ./internal/kvstore' RUN='TestPager|TestPaged|TestChaosPaged' SEEDS_VAR=MXPG_SEEDS

# Fuzz smoke: 10s of coverage-guided input generation per target (`go test`
# allows one fuzz target per invocation).
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeRecord' -fuzztime=10s ./internal/wal
	$(GO) test -run '^$$' -fuzz 'FuzzServerHandle$$' -fuzztime=10s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz 'FuzzServerProtocol' -fuzztime=10s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz 'FuzzLookupBatch' -fuzztime=10s ./internal/kvstore
	$(GO) test -run '^$$' -fuzz 'FuzzThreadTreeOps' -fuzztime=10s ./internal/blinktree
	$(GO) test -run '^$$' -fuzz 'FuzzNodeLowerBound' -fuzztime=10s ./internal/blinktree
	$(GO) test -run '^$$' -fuzz 'FuzzPageCodec' -fuzztime=10s ./internal/pager

# The gate run before merging: vet, full build, an order-shuffled full
# test pass at 1, 2 and 4 Ps (catches tests coupled through shared state
# and tests that only pass when goroutines never truly overlap), the benchmark
# module's own harness tests (it is a separate module, outside ./...),
# everything `race` covers, two sharded/paged benchmark smokes, the chaos
# sweep, and a fuzz smoke pass over every fuzz target.
ci:
	$(GO) vet ./...
	$(GO) build ./...
	$(GO) test -count=1 -shuffle=on -cpu 1,2,4 ./...
	(cd benchmark && $(GO) test ./...)
	$(MAKE) race
	$(GO) test -run '^$$' -bench 'BenchmarkServerSharded' -benchtime 100x .
	$(GO) test -run '^$$' -bench 'BenchmarkServerPagedYCSB' -benchtime 100x .
	$(MAKE) chaos
	$(MAKE) fuzz

figures:
	$(GO) run ./cmd/mxbench

verify:
	$(GO) run ./cmd/mxbench -verify -experiment fig7

dat:
	$(GO) run ./cmd/mxbench -dat out -experiment fig7

clean:
	rm -rf out test_output.txt bench_output.txt
