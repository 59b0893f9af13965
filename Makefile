# gpuckpt build/verify entry points. `make ci` is what a CI job runs:
# formatting, vet, the project's own static-analysis suite (ckptlint),
# build, the full test suite under the race detector (the ckptd server
# and client are required to be race-clean), and a short fuzz pass over
# every untrusted decode surface.

GO ?= go

# Fuzz targets and their packages; fuzz-smoke runs each for
# $(FUZZTIME), fuzz for $(FUZZTIME_LONG). Native fuzzing allows one
# -fuzz target per invocation, hence the loop.
FUZZ_TARGETS = \
	FuzzFrameDecode:./internal/wire \
	FuzzReadFrameSpare:./internal/wire \
	FuzzHandshake:./internal/wire \
	FuzzStreamAck:./internal/wire \
	FuzzPullDecode:./internal/wire \
	FuzzDigestDecode:./internal/wire \
	FuzzDiffDecode:./internal/checkpoint \
	FuzzDecodeBytes:./internal/checkpoint \
	FuzzRestore:./internal/checkpoint \
	FuzzManifestDecode:./internal/checkpoint \
	FuzzSegmentScan:./internal/checkpoint \
	FuzzBlockIndexDecode:./internal/blockstore \
	FuzzPackScan:./internal/blockstore \
	FuzzDecompress:./internal/compress \
	FuzzPack:./internal/compress \
	FuzzSum128x2:./internal/murmur3 \
	FuzzMapModel:./internal/hashmap
FUZZTIME ?= 5s
FUZZTIME_LONG ?= 5m

.PHONY: ci fmt vet lint loc pairs build test race bench-test bench bench-smoke bench-json bench-wire bench-failover bench-heal saturate-smoke failover-smoke heal-smoke paper-smoke fuzz fuzz-smoke chaos-smoke race-chaos

ci: fmt vet lint build race bench-test bench-smoke saturate-smoke failover-smoke heal-smoke paper-smoke fuzz-smoke chaos-smoke

# fmt checks tracked files only: `gofmt -l .` descends into
# dot-directories, so after a `make pairs` it would also judge the
# parent tree unpacked under .bench_build/pairs/<sha>/.
fmt:
	@out="$$(git ls-files -z '*.go' | xargs -0 gofmt -l)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# lint runs the twelve repo-specific checks — noalloc, clockguard,
# closecontract, wireerr, retryable, nowallclock, bufreuse, onewire,
# layering (which also holds the service stratum's 1,000-line file
# gate), and the whole-repo concurrency-contract analyses guardedby,
# lockorder, and goroleak; see internal/lint and
# `go run ./cmd/ckptlint -list`.
# Add -json for machine-readable output.
lint:
	$(GO) run ./cmd/ckptlint .

# loc prints the roadmap's "lines deleted with all gates green" for the
# working tree against BASE (a commit; `make loc BASE=f130f1d`): added,
# deleted and net lines of non-test Go outside bench/ and testdata/.
# New files count once they are staged (`git add -A`).
BASE ?= HEAD
loc:
	@git diff --numstat $(BASE) -- '*.go' ':!*_test.go' ':!bench/' ':!**/testdata/**' | \
		awk '{a += $$1; d += $$2} END {printf "non-test Go outside bench/ and testdata/ vs $(BASE): +%d -%d = %+d\n", a, d, a - d}'

# pairs is the parent-vs-change report every performance claim needs
# (`make pairs BASE=5c2615a WORKLOAD=restore_read N=10`): BASE unpacked
# under .bench_build/pairs/, bench/run.sh on it and on the working tree
# in N alternating pairs (seeds SEED, SEED+1, …), then each side's median
# and quartiles and the win count per gated metric. ARGS goes to
# bench/run.sh on both sides (ARGS='-trace 1' for per-layer metrics),
# ALSO names per_layer metrics of BENCHMARK.json to report beside the
# gated ones, each judged by its declared `better`.
WORKLOAD ?= restore_read
N ?= 10
SEED ?= 1
ALSO ?= restore_ms_p50
pairs:
	$(GO) run ./cmd/benchpairs -base $(BASE) -workload $(WORKLOAD) -n $(N) -seed $(SEED) -also '$(ALSO)' -- $(ARGS)

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-test vets and tests the end-to-end benchmark. bench/ is its
# own nested module, so the root ./... patterns above do not see it:
# without this target an internal-API change that breaks the benchmark
# stays invisible until the benchmark pipeline runs.
bench-test:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench-smoke keeps every benchmark compiling and running (one
# iteration each) so perf-tracking code cannot rot unnoticed; the
# HotPathTreeSparse8M / HotPathTreeDense8M rows are the 1 % and 6 %
# churn chains of bench/ at full size. `bench` is its alias.
bench: bench-smoke
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench-json regenerates BENCH_hotpath.json with full measured runs of
# the HotPath suite (ns/op, B/op, allocs/op, real GB/s per method).
bench-json:
	GPUCKPT_BENCH_JSON=BENCH_hotpath.json $(GO) test -run TestWriteHotPathBenchJSON -v .

# bench-wire regenerates BENCH_wire.json from the loopback saturation
# experiment: streamed (windowed TPushStream) push vs per-diff
# request/response (WriteDiff + Push loop) on the same chain, each
# mode's wall the median of its interleaved reps. The run itself
# enforces the streamed-speedup gate (saturateMinSpeedup, >= 1.3x)
# and fails the target when the stream path regresses. The gate was
# >= 3x while every per-diff push paid a file-per-checkpoint commit;
# with one segment per lineage both modes commit the same way, the
# per-diff baseline is ~1.6x faster, and the ratio left is the
# overlapped round trip (see cmd/ckptbench/saturate.go for the
# re-anchoring runs).
bench-wire:
	$(GO) run ./cmd/ckptbench -exp saturate -chain 256 -json BENCH_wire.json

# saturate-smoke is the CI slice of bench-wire: the same experiment
# and speedup gate at the smallest gated chain, without rewriting the
# checked-in JSON.
saturate-smoke:
	$(GO) run ./cmd/ckptbench -exp saturate -chain 64

# bench-failover regenerates BENCH_failover.json from the hot-standby
# drill: a follower tails a live primary's subscription stream, the
# primary is killed, and the follower promotes. The run enforces the
# byte-exact-state, no-tail-apply-during-promotion and sub-second
# kill->serving gates.
bench-failover:
	$(GO) run ./cmd/ckptbench -exp failover -chain 64 -json BENCH_failover.json

# failover-smoke is the CI slice of bench-failover: same experiment
# and gates on a shorter chain, without rewriting the checked-in JSON.
failover-smoke:
	$(GO) run ./cmd/ckptbench -exp failover -chain 12

# bench-heal regenerates BENCH_heal.json from the anti-entropy drill:
# two peered replicas, a quarter of one replica's diffs bit-rotted on
# disk, background reconcilers healing to convergence. The run
# enforces the converge-within-budget, byte-exact-restore, pull-only
# (healthy peer untouched) and zero-fail-stop gates.
bench-heal:
	$(GO) run ./cmd/ckptbench -exp heal -chain 64 -json BENCH_heal.json

# heal-smoke is the CI slice of bench-heal: same experiment and gates
# on a shorter chain, without rewriting the checked-in JSON.
heal-smoke:
	$(GO) run ./cmd/ckptbench -exp heal -chain 16

# paper-smoke holds the reproduction to the paper: every table and
# figure of `ckptbench -exp all` at 5,000 vertices (Table 1, Figs 4-6,
# overhead, ablation, extensions, adjoint, the headline claims C1-C7,
# compact), diffed against internal/experiments/testdata/paper-5000.golden.
# Ratios are functions of algorithm and data alone, and throughputs and
# I/O times come from the device cost model, so the output is exact —
# but for the compact table's two restore columns, which are wall-clock
# and are masked here with the column padding they set. Any FAIL claim
# fails the target first. A change that moves a row rewrites the golden
# with `make paper-smoke PAPER_UPDATE=1` in the same commit.
PAPER_GOLDEN = internal/experiments/testdata/paper-5000.golden
PAPER_MASK = /^=== /{c = ($$0 == "=== compact ===")} c {gsub(/[0-9.]+(ns|µs|ms|s)/, "-"); gsub(/-+/, "-"); $$1 = $$1} {print}
paper-smoke:
	@raw=$$(mktemp) && out=$$(mktemp) && trap 'rm -f $$raw $$out' EXIT && \
	$(GO) run ./cmd/ckptbench -exp all -vertices 5000 > $$raw && \
	awk '$(PAPER_MASK)' $$raw > $$out && \
	if grep -w FAIL $$out; then echo "paper-smoke: a headline claim fails"; exit 1; fi && \
	if [ -n "$(PAPER_UPDATE)" ]; then cat $$out > $(PAPER_GOLDEN) && echo "paper-smoke: rewrote $(PAPER_GOLDEN)"; \
	else diff -u $(PAPER_GOLDEN) $$out && echo "paper-smoke: output matches $(PAPER_GOLDEN)"; fi

# fuzz-smoke gives each decode-surface fuzz target a short budget on
# top of the checked-in seed corpus; enough to catch regressions in the
# validation paths without stalling CI.
fuzz-smoke:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzz $$name ($(FUZZTIME))"; \
		$(GO) test -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME) $$pkg || exit 1; \
	done

# chaos-smoke runs the seeded fault-injection suite (internal/faults)
# under the race detector, the append ladder and rename commit both
# stores write by (internal/recframe), the crash-point enumeration and
# torn-tail / rot classification tests of the lineage store
# (internal/checkpoint, with the span install that crashes after its
# rename and must leak no block) and of the block store
# (internal/blockstore, over raw and packed blocks alike, with its fsync
# and read budgets, its reads-vs-relocating-GC race, raced and forced,
# GC's mark racing pushes and lineage opens, forced and raced, GC moving
# a packed block as the packed record it is, rot in what a packed record
# stores failing typed, the refusal, writing nothing, of the packs and
# snapshots of the builds that counted references and of an index
# version this build does not know, a raw-only store
# opening unchanged, and the version record that makes the raw-only
# builds refuse a pack holding packed records instead of cutting it),
# the scrub regressions — a scrub writes nothing, not even over a torn
# pack tail (TestScrubIsReadOnly), and no foreign diff is spliced in at a rotten
# id, neither by an append after Scrub (TestScrubLeavesNoHoleToSplice)
# nor by a push after ScrubDir (TestScrubbedRotRefusesForeignPush) —
# the one-writer rule of a root — restoretool -dir leaves a stopped
# root with a torn pack tail byte-identical and refuses to compact it
# (TestDirLeavesStoppedRootAlone), and a standby over a root that
# already holds _blocks mirrors every lineage and promotes each
# byte-exact (TestStandbyRootWithBlocks), a follower whose primary
# turns out divergent, at the mirror's length or past it, fail-stops
# typed and keeps its own verified diff
# (TestFollowerDivergentPrimaryFailStops), one whose primary falls
# behind its mirror keeps the mirror and pulls no span, only digests,
# and reads no mirror diff while the primary's coordinates hold
# (TestFollowerBehindPrimaryWaits), a promotion severs a round blocked
# on a hung primary (TestFollowerPromoteSeversRound), a primary dying
# mid-resync round after round never fail-stops the follower
# (TestChaosFollowerResyncOutlivesDyingPrimary), a reconciler compares
# the common span before it pulls a diverged peer's suffix
# (TestRoundDivergenceBeforeSuffix), counts no transport failure
# toward fail-stop (TestRoundTransportFailureNotCounted), reads each
# replica's span once to find and heal one rotten diff
# (TestRoundReadsEachDiffOnce) and walks a lineage longer than one
# digest window, healing rot and fail-stopping divergence in its second
# (TestRoundWalksWindows), a severed
# client tears its checked-out connections (TestPoolSever), and a
# peer's fold adopted by anti-entropy frees the replaced blocks with no
# compaction of its own (TestChaosAntiEntropyFoldInstallCollectsBlocks) —
# a fold ending its lineage's subscriptions by closing them while a push
# queued across it lands unsent (TestFoldEndsSubscription), the
# subscription's generation pin (TestSubscribeFoldMidBacklog: no diff of
# a folded lineage is relayed) and its rot rule
# (TestSubscribeRotEndsWithoutBarrier: a diff that fails verification
# closes the stream and is not counted as a moved span), the
# reconciler's installs waking the lineage's subscribers
# (TestAntiEntropyWakesSubscribers), a subscriber that reads nothing and
# is never dropped (TestSubscriberNeverShed), the intake's buffer
# handover — a staged frame is the buffer it was read into
# (TestStagedFrameIsTheReadBuffer), a run is bounded by the capacity it
# stages (TestStagedRunCountsCapacity), a request connection takes no
# buffer from the free list (TestRequestConnTakesNoListBuffer) and a
# torn run hands every buffer back once (TestTornRunReturnsBuffers) —
# the pinned frame-type bytes with the retired one unused
# (TestFrameTypeBytes), a heal
# pulling each run of adjacent rotten ids as one span (TestHealPullsRuns),
# plus the TestRace concurrency regression tests guarding the bugs the
# guardedby/lockorder/goroleak analyzers found (Serve worker join,
# parked-handle pruning) and the span stream's lock discipline (a pull
# parked on a reader that is not reading blocks neither a push nor a
# compaction), and the lock-free protocol of the historical record
# (internal/hashmap): concurrent distinct inserts
# (TestConcurrentDistinctInserts), one winner among racing inserts of a
# digest (TestConcurrentRacingInserts), racing updates converging on
# the earliest node (TestConcurrentUpdateConvergesToMinimum), probes
# wrapping past the end of a slot count that is not a power of two
# (TestProbeWraparound) and ErrFull only once every slot is taken
# (TestFullTable). Every
# schedule is deterministic — a failure reproduces by rerunning the
# named test, no flake triage needed.
chaos-smoke:
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/faults
	$(GO) test -race -count=1 -run '^(TestAppendLadder|TestCommit)$$' ./internal/recframe
	$(GO) test -race -count=1 -run '^(TestCrashPoints|TestTornFinalFrame|TestRotIsNotATornTail|TestInstallCrashLeaksNothing|TestScrubLeavesNoHoleToSplice|TestTombstoneReadsAsDamage|TestManifestNamingMissingSegmentFailsOpen)$$' ./internal/checkpoint
	$(GO) test -race -count=1 -run '^(TestScrubIsReadOnly|TestScrubbedRotRefusesForeignPush)$$' .
	$(GO) test -race -count=1 -run '^TestDirLeavesStoppedRootAlone$$' ./cmd/restoretool
	$(GO) test -race -count=1 -run '^TestStandbyRootWithBlocks$$' ./cmd/ckptd
	$(GO) test -race -count=1 -run '^(TestFollowerDivergentPrimaryFailStops|TestFollowerBehindPrimaryWaits|TestFollowerPromoteSeversRound)$$' ./internal/follower
	$(GO) test -race -count=1 -run '^TestPoolSever$$' ./internal/wireclient
	$(GO) test -race -count=1 -run '^(TestCrashPoints|TestTornFinalFrame|TestRotIsNotATornTail|TestFsyncBudget|TestReadBudget|TestReadAcrossRelocation|TestRaceGetInternGC|TestGCMarkThenPush|TestGCMarkThenOpen|TestRaceGCMarkPush|TestCountedPackRefused|TestCountedIndexRefused|TestUnknownIndexVersionRefused|TestGCMovesPackedBlock|TestPackedRecordRot|TestRawStoreOpensUnchanged|TestPackedPackRefusedByRawBuilds)$$' ./internal/blockstore
	$(GO) test -race -count=1 -run '^(TestHealPullsRuns|TestRoundDivergenceBeforeSuffix|TestRoundTransportFailureNotCounted|TestRoundReadsEachDiffOnce|TestRoundWalksWindows)$$' ./internal/antientropy
	$(GO) test -race -count=1 -run '^(TestRace|(TestFoldEndsSubscription|TestSubscribeFoldMidBacklog|TestSubscribeRotEndsWithoutBarrier|TestAntiEntropyWakesSubscribers|TestSubscriberNeverShed|TestStagedFrameIsTheReadBuffer|TestStagedRunCountsCapacity|TestRequestConnTakesNoListBuffer|TestTornRunReturnsBuffers)$$)' ./internal/server
	$(GO) test -race -count=1 -run '^TestRace' ./internal/wireclient
	$(GO) test -race -count=1 -run '^TestFrameTypeBytes$$' ./internal/wire
	$(GO) test -race -count=1 -run '^(TestConcurrentDistinctInserts|TestConcurrentRacingInserts|TestConcurrentUpdateConvergesToMinimum|TestProbeWraparound|TestFullTable)$$' ./internal/hashmap

# race-chaos is the long variant: the same chaos schedules and race
# regression tests, repeated so the scheduler explores more
# interleavings. RACE_COUNT bounds the run; it stays seeded and
# deterministic per iteration.
RACE_COUNT ?= 5
race-chaos:
	$(GO) test -race -count=$(RACE_COUNT) -run '^TestChaos' ./internal/faults
	$(GO) test -race -count=$(RACE_COUNT) -run '^TestRace' \
		./internal/server ./internal/wireclient

fuzz:
	@for t in $(FUZZ_TARGETS); do \
		name=$${t%%:*}; pkg=$${t##*:}; \
		echo "fuzz $$name ($(FUZZTIME_LONG))"; \
		$(GO) test -run='^$$' -fuzz="^$$name$$" -fuzztime=$(FUZZTIME_LONG) $$pkg || exit 1; \
	done
