#!/bin/sh
# Fast correctness gate for the hot paths, organized as named tiers.
#
#   scripts/check.sh            # run every tier
#   scripts/check.sh all        # same
#   scripts/check.sh shards     # run one tier
#   scripts/check.sh vet cancel # run several
#
# Wall-clock budget: `check.sh all` is sized to finish in ~5 minutes on a
# 4-core developer machine. Hammer, torture and crash-sweep tests honour
# -short (smaller logs, sparser sweeps, same shapes and race windows), and
# the tiers below pass it to the heavyweight ones so no single tier exceeds
# ~1 minute. When adding a test to a tier, keep the budget: gate anything
# slower than a few seconds behind testing.Short().
#
# Full unabridged suite: go test ./...
set -eu

cd "$(dirname "$0")/.."

want() {
	# want TIER: true when TIER was requested (or everything was).
	case " $TIERS " in
	*" all "*) return 0 ;;
	*" $1 "*) return 0 ;;
	*) return 1 ;;
	esac
}

TIERS="${*:-all}"

set -x

# Vet tier: static checks, then the query/storage/kvstore suites under the
# race detector (these are the packages with real concurrency: postings
# cache, parallel continuation, WAL).
if want vet; then
	go vet ./...
	if [ -n "$(gofmt -l .)" ]; then
		gofmt -l . >&2
		echo "check: files above are not gofmt-formatted" >&2
		exit 1
	fi
	# One performance instrument: the fleet is measured only by the
	# benchmark module, so no BENCH_*.json results live at the root and the
	# paper reproduction in internal/bench stays single-store.
	if ls BENCH_*.json 2>/dev/null; then
		echo "check: BENCH_*.json at the root; measure the fleet in benchmark/" >&2
		exit 1
	fi
	if grep -lE '"seqlog(/internal/(server|replica|netshard|shard|ingest))?"' internal/bench/*.go |
		grep -v '_test\.go$'; then
		echo "check: internal/bench imports the engine or a fleet package; measure it in benchmark/" >&2
		exit 1
	fi
	# Reproduction code behind a fence: internal/sase, subtree and textsearch
	# are the paper's Tables 6-8 baselines, and index.Builder is the batch
	# reference that Tables 5-6 and the serial-equivalence oracles run. Only
	# internal/bench and tests may import them, so the serving path stays
	# clean and the product has one ingest path, the pipeline. benchmark/ is
	# its own module.
	if grep -rlE '"seqlog/internal/(sase|subtree|textsearch|index)"' --include='*.go' . |
		grep -vE '^\./(internal/bench|benchmark)/|_test\.go$'; then
		echo "check: baseline or index.Builder imported outside internal/bench and tests" >&2
		exit 1
	fi
	# One postings read: the row-returning GetIndex* reads stay deleted.
	if grep -nE '^[[:space:]]+GetIndex[A-Za-z]*\(' internal/storage/backend.go; then
		echo "check: storage.Backend grew a GetIndex* read; use GetPostings or ScanIndex" >&2
		exit 1
	fi
	# LastChecked stays one scalar per pair: no per-trace map, no prune.
	if grep -nE 'PruneLastChecked|map\[model\.TraceID\]model\.Timestamp' internal/storage/backend.go; then
		echo "check: storage.Backend grew a per-trace LastChecked map; the row is one timestamp per pair" >&2
		exit 1
	fi
	# Count is the only count table: predecessors are Count pair reads.
	if grep -n 'ReverseCount' internal/storage/backend.go; then
		echo "check: storage.Backend mentions ReverseCount; take predecessors from Count rows" >&2
		exit 1
	fi
	# Continuation joins the prefix once: verifying a candidate extends the
	# shared frontier (continuation.go) instead of detecting p + cand.
	if grep -n 'q\.Detect(' internal/query/query.go internal/query/explore_insert.go; then
		echo "check: continuation runs a detection per candidate; extend the shared prefix frontier" >&2
		exit 1
	fi
	# Detect reads each block once per query: the join extends its frontier
	# with the one forward cursor, so no per-chain extendRun comes back and
	# only cursor.read searches the skip headers' sort keys.
	if awk '/^func /{fn=$0} /^func extendRun\(/ || /(First|Last)(Trace|TsA)/ && fn !~ /^func \(c \*cursor\) read\(/ {print FILENAME ":" FNR ": " $0; bad=1} END{exit !bad}' \
		$(ls internal/query/*.go | grep -v '_test\.go$'); then
		echo "check: internal/query searches skip headers outside cursor.read; extend the frontier with the cursor" >&2
		exit 1
	fi
	# One option surface: every durable store freezes before it compacts,
	# so Config.Segments is an accepted, ignored name nothing reads; and the
	# ingest in-flight depth is a constant, not an option.
	if grep -rnE '(Config|cfg)\.Segments\b' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . |
		grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
		echo "check: product code reads Config.Segments; durable stores always freeze" >&2
		exit 1
	fi
	if grep -rnE 'IngestInflight|MaxInflight' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark .; then
		echo "check: the ingest in-flight depth is the constant 2, not an option" >&2
		exit 1
	fi
	# One Detect join and no query-tuning options: the trace-intersection
	# planner stays deleted, and the continuation fan-out is GOMAXPROCS.
	if grep -rnE 'DetectPlanned|Planner|QueryWorkers' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark .; then
		echo "check: product code mentions the join planner or QueryWorkers; Detect has one join and no tuning flags" >&2
		exit 1
	fi
	# The flush delta holds index entries only: Count increments are summed
	# from them as they are written, so no per-activity count maps come back.
	if grep -nE 'map\[model\.ActivityID\]map\[model\.ActivityID\]' $(ls internal/ingest/*.go | grep -v '_test\.go$'); then
		echo "check: internal/ingest keeps a count map per activity; derive Count from the delta's entries" >&2
		exit 1
	fi
	# A pair's last completion is read from its postings: no flush writes
	# the lastchecked table, and only DropPeriod (through its helper
	# dropResidualLocked) raises the residual row of the partition it drops.
	if grep -rnE 'MergeLastCompletion\(' --include='*.go' --exclude='*_test.go' . |
		grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
		echo "check: non-test code declares or calls MergeLastCompletion; derive the last completion from the postings" >&2
		exit 1
	fi
	if grep -rn '"lastchecked"' --include='*.go' --exclude='*_test.go' . | grep -v '^\./internal/storage/codec\.go:' ||
		awk '/^func /{fn=$0} /\.(Put|Append|Delete|DropTable)\(tableLast/ && fn !~ /^func \(t \*Tables\) (DropPeriod|dropResidualLocked)\(/ {print FILENAME ":" FNR ": " $0; bad=1} END{exit !bad}' \
			$(ls internal/storage/*.go | grep -v '_test\.go$'); then
		echo "check: the lastchecked table is written outside storage.Tables.DropPeriod" >&2
		exit 1
	fi
	# One writer per flush: a batch reaches the tables only through
	# storage.Backend.Commit. The per-store commit seam and the fan-out
	# group writer stay deleted, and the row writes Commit is made of are
	# called only inside internal/storage and by the netshard server, which
	# applies a remote commit group op by op.
	if grep -rnwE 'ShardedCommits|ShardBatch|groupWriter' --include='*.go' .; then
		echo "check: ShardedCommits, ShardBatch or groupWriter is back; write a batch through Backend.Commit" >&2
		exit 1
	fi
	if grep -rnE '\.(AppendSeq|AppendIndex|MergeCounts)\(' --include='*.go' --exclude='*_test.go' --exclude-dir=benchmark . |
		grep -vE '^\./internal/storage/[^/]+\.go:|^\./internal/netshard/server\.go:' |
		grep -vE '^[^:]+:[0-9]+:[[:space:]]*//'; then
		echo "check: non-test code outside internal/storage calls a row write; commit a storage.Delta instead" >&2
		exit 1
	fi
	go test -race ./internal/query/... ./internal/storage/... ./internal/kvstore/...
fi

# Crash-torture tier: replay every write-path crash point and every
# single-byte corruption through recovery (see DESIGN.md "Durability &
# failure model"). Redundant with the vet tier but kept as an explicit
# gate so a -run filter during debugging can't silently skip it. The
# Builder sweep crashes one Update at every filesystem operation and at a
# stride of bytes, on one store and on three shards: each store recovers
# all of its part of the batch or none.
if want crash; then
	go test -race -run 'Crash|Corrupt' ./internal/kvstore/
	go test -race -short -run 'BuilderCrash' ./internal/index/
fi

# Ingest tier: the per-trace rule's properties (chunked Extend equals the
# one-shot and reference extraction under both orders, over 30-60 activity
# alphabets where most events are new to their trace, and each call reads
# about its new events' gaps, not the stored trace), the ingestion pipeline
# under the race detector, one run of each BenchmarkIngestFlush leg (total
# and partial order) so neither rots, plus the
# serial-equivalence oracles (streamed micro-batches at 1, 2 and 4 ingest
# workers — and 1 vs N sharded stores — must produce exactly the tables of
# one serial Builder.Update, under SC, STNM and partial order, over 4- and
# 40-activity alphabets), the
# group-commit crash sweeps (streamed and one-shot batches, and the sharded
# one: an acked flush is durable on EVERY store it touched, even crashing
# mid-fsync-coalesce), the parallel-flusher regression gates
# (timer hygiene, all-or-nothing admission, producer/Flush/Forget hammer),
# and the engine-lifetime pipeline gates (session eviction and reload stay
# serial-equivalent, an idle pipeline never wakes, Ingest returns beside an
# appender that keeps the queue full, rotate and prune with a stream open,
# counters live after every Appender.Close, a failed pipeline is replaced
# unless its failure poisoned the store), the flush's two store writes
# (the postings cache records generations only for keys a reader began and
# stays coherent under -race; a Count merge matches the decode-map-sort
# reference byte for byte and allocates at most 3 times, with one run of
# BenchmarkMergeCounts so it does not rot), the one writer both paths share
# (Commit writes the WAL bytes and rows of the row writes it replaced, on
# one store and on each of three shards), run explicitly for the same
# reason as above.
if want ingest; then
	go test -race -run 'Extend' ./internal/pairs/
	go test -race -short ./internal/ingest/...
	go test -run XXX -bench IngestFlush -benchtime 1x ./internal/ingest/
	go test -race -short -run 'StreamEqualsSerialBuilder|StreamShardedEqualsSerial|StreamCrash|ShardedStreamCrash' ./internal/ingest/
	go test -race -short -run 'TimerHygiene|Admission|ParallelFlushersRaceHammer' ./internal/ingest/
	go test -race -short -run 'EvictionReloadEqualsSerialBuilder|PartialOrderBoundaryKeptUntilWritten|IdlePipelineNoWakeups' ./internal/ingest/
	go test -race -run 'IngestReturnsBesideBusyAppender|RotateAndPruneWithStreamOpen|StreamInfoAndSharedPipeline|FailedPipelineIsDetached|PoisonedStoreStopsReplacement' .
	go test -race -run 'SealBatch|PipelinedBatch' ./internal/kvstore/
	go test -race -run 'Cache|MergeCount|Invalidate' ./internal/storage/
	go test -run XXX -bench 'MergeCounts$' -benchtime 1x ./internal/storage/
	go test -race -run 'Commit' ./internal/storage/ ./internal/shard/
fi

# Metrics tier: the registry and the whole telemetry path under the race
# detector (parallel queries + live ingest stream + concurrent /metrics
# scrapes), then a real-binary scrape assertion (seqserver -pprof
# -slow-query-ms, curl-style GET /metrics, seqquery metrics verb), then the
# response path: the /detect encoder writes encoding/json's bytes with a
# matching Content-Length for every answer shape, and an answer of ~1,000
# matches allocates about as often as one of ~10, in the engine and in the
# handler (allocation counts are taken without -race, which adds its own).
if want metrics; then
	go test -race ./internal/metrics/
	go test -race -run 'Metrics|Disconnect' ./internal/server/
	go test -run 'Metrics' ./internal/clitest/
	go test -run 'DetectResponseJSON|DetectHandlerAllocsFlat' ./internal/server/
	go test -run 'DetectAnswerIsFlat' .
fi

# Shards tier: the differential oracle (1 vs 4 vs 7 shards must be
# byte-identical for every query family), the routing/codec fuzz targets on
# their seed corpora plus a short live fuzz (the Count merge against its
# reference among them, and the /detect encoder against encoding/json),
# and the concurrency gates — the
# ingest+query+compaction hammer and the one-shard crash-isolation sweep —
# under the race detector.
if want shards; then
	go test -run 'TestShard' .
	go test ./internal/shard/ ./internal/storage/ -run Fuzz
	go test ./internal/shard/ -fuzz FuzzShardRouting -fuzztime 5s
	go test ./internal/storage/ -fuzz FuzzSeqCodec -fuzztime 5s
	go test ./internal/storage/ -fuzz FuzzCountMerge -fuzztime 5s
	go test ./internal/server/ -fuzz FuzzDetectResponseJSON -fuzztime 10s
	go test -race -short -run 'ShardedConcurrentHammer|ShardCrashIsolation' ./internal/shard/
fi

# Segments tier: the block codec and segment-file fuzz targets (seed corpora
# plus a short live fuzz each), the segment differential oracle (in-memory
# row-backed, segment-backed, sharded-segment and compacting engines must be
# byte-identical for every query family, across freezes, reopen and drops),
# the migration of a store that never froze through its first automatic
# compaction, and the freeze crash sweeps — a fault-injected filesystem cut at every
# byte/op of two freezes, recovery must never lose committed data (torn
# segment falls back to WAL replay).
if want segments; then
	go test ./internal/storage/ -fuzz FuzzPostingsBlocks -fuzztime 5s
	go test ./internal/storage/ -fuzz FuzzSegmentFile -fuzztime 5s
	go test -run 'TestSegment' .
	go test -run 'ReadsEachBlockOnce|MatchesReference' ./internal/query/
	go test -race -short -run 'FreezeCrash' ./internal/storage/
fi

# Cancellation tier: the cooperative-cancellation paths under the race
# detector — partial-results subset property, the slow-disk chaos harness
# (bounded cancel latency + zero leaked goroutines), the random-cancellation
# hammer racing flushes/freezes/compactions, and the server zombie-work
# regression (timed-out and disconnected requests stop their workers).
# ctxguard rejects new exported query-path functions without a leading ctx.
if want cancel; then
	go test -race -run 'Partial|Budget|Cancel' ./internal/query/
	go test -race -run 'CancellationBoundedUnderSlowDisk' ./internal/ingest/
	go test -race -short -run 'CancelHammer' ./internal/shard/
	go test -race -run 'TimedOutDetectAborted|DisconnectedDetectStopsWorkers' ./internal/server/
	sh scripts/ctxguard.sh
fi

# Replica tier: the replication subsystem end-to-end under the race
# detector — follower-side atomic apply + crash idempotence (FaultFS sweep),
# the catch-up differential oracle (a caught-up follower answers every query
# family byte-identically to its primary), segment shipping + epoch-bump
# resync, the disconnect/reconnect chaos harness with the goroutine-leak
# gate, router read balancing / write pinning / mid-request failover, and
# the read-only guard (engine ErrReadOnly, HTTP 403, /health/ready 503).
if want replica; then
	go test -race -run 'Replica|Resync' ./internal/storage/
	go test -race ./internal/replica/
	go test -race -run 'GetStream' ./internal/httpclient/
fi

# Netshard tier: the wire protocol and multi-process shard fleet under the
# race detector — the differential oracle (an engine over remote shard
# servers is byte-identical to the local single- and multi-shard engines for
# every query family, including stream-vs-batch ingest and cold reopen), the
# network chaos harness (partitions, stalls, mid-scatter server death; typed
# errors, bounded cancel latency, zero leaked goroutines), the remote
# acked-flush durability sweep, and the frame/request fuzz targets on their
# seed corpora plus a short live fuzz. ctxguard's Rule 3 holds the netshard
# client to the same ctx-first contract as the local backends.
if want netshard; then
	go test -race -count=1 ./internal/netshard/
	go test -race -run 'TestNetShard' .
	go test -race -short -run 'NetshardStreamCrash' ./internal/ingest/
	go test ./internal/netshard/ -run Fuzz
	go test ./internal/netshard/ -fuzz FuzzNetFrame -fuzztime 5s
	go test ./internal/netshard/ -fuzz FuzzNetRequest -fuzztime 5s
	sh scripts/ctxguard.sh
fi

# Bench tier: the end-to-end benchmark's own vet and smoke test (every
# topology on a small log, real binaries, exact-answer oracle), so a product
# change that breaks its build, a flag it passes or its oracle is caught here
# and not by the pipeline that runs it. benchmark/ is its own module.
if want bench; then
	go vet -C benchmark ./...
	go test -C benchmark ./...
fi
