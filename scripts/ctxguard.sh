#!/bin/sh
# ctxguard: vet-style grep gate for the context-first rule of the query
# path (DESIGN.md §11). Cancellation and row budgets flow through
# context.Context; a query-path function that doesn't take ctx as its
# first parameter silently breaks the chain — a canceled request would
# keep computing below it. This guard fails the build when a new exported
# query entry point or storage read forgets the parameter.
#
# Allowlists are for functions that genuinely sit outside the chain
# (setters, topology accessors, point meta reads). Extend them only for
# functions that perform no per-row work on behalf of a query.
set -eu
cd "$(dirname "$0")/.."

status=0

# Rule 1: every exported Processor method is a query entry point and must
# take ctx first. SetWorkers is a configuration setter.
bad=$(grep -nE 'func \([a-zA-Z]+ \*Processor\) [A-Z][A-Za-z0-9]*\(' internal/query/*.go \
	| grep -v '_test.go' \
	| grep -vE '\) SetWorkers\(' \
	| grep -vE '\) [A-Z][A-Za-z0-9]*\((ctx|_) context\.Context' || true)
if [ -n "$bad" ]; then
	echo "ctxguard: exported query methods without a leading ctx context.Context:" >&2
	echo "$bad" >&2
	status=1
fi

# Rule 2: storage reads (Get*/Scan*/Num*/Periods on the backends) carry the
# query's context down to the row iterators. NumShards reports topology,
# GetMeta is a point read of a single meta key.
bad=$(grep -nE 'func \([a-zA-Z]+ \*Tables\) (Get|Scan|Num|Periods)[A-Za-z0-9]*\(' \
	internal/storage/*.go internal/shard/*.go \
	| grep -v '_test' \
	| grep -vE '\) (NumShards|GetMeta)\(' \
	| grep -vE '\((ctx|_) context\.Context' || true)
if [ -n "$bad" ]; then
	echo "ctxguard: storage reads without a leading ctx context.Context:" >&2
	echo "$bad" >&2
	status=1
fi

# Rule 3: the netshard client implements the same Backend read surface over
# the wire; its reads must carry ctx down to the RPC so a canceled query
# stops burning the remote shard server too. NumShards reports topology and
# GetMeta is a context-free point read, per the Backend contract.
bad=$(grep -nE 'func \([a-zA-Z]+ \*Client\) (Get|Scan|Num|Periods)[A-Za-z0-9]*\(' \
	internal/netshard/*.go \
	| grep -v '_test' \
	| grep -vE '\) (NumShards|GetMeta)\(' \
	| grep -vE '\((ctx|_) context\.Context' || true)
if [ -n "$bad" ]; then
	echo "ctxguard: netshard client reads without a leading ctx context.Context:" >&2
	echo "$bad" >&2
	status=1
fi

# Rule 4: the engine has one entry point per query family (Detect, Stats,
# Explore), ctx first. compat.go keeps exactly the four legacy names the
# benchmark module's oracle calls; nothing in this module may call them.
bad=$(grep -nE 'func \([a-zA-Z]+ \*Engine\) (Detect|Stats|Explore)[A-Za-z0-9]*\(' ./*.go \
	| grep -v '_test.go' \
	| grep -vE '\) [A-Za-z0-9]+\((ctx|_) context\.Context' || true)
if [ -n "$bad" ]; then
	echo "ctxguard: engine query methods without a leading ctx context.Context:" >&2
	echo "$bad" >&2
	status=1
fi
compat=$(sed -nE 's/^func (\([^)]*\) )?([A-Za-z0-9_]+).*/\2/p' compat.go | sort | tr '\n' ' ')
if [ "$compat" != "DetectCtx DetectWithinCtx ExploreCtx StatsCtx " ]; then
	echo "ctxguard: compat.go must declare exactly DetectCtx, DetectWithinCtx, ExploreCtx and StatsCtx; it declares: $compat" >&2
	status=1
fi
bad=$(grep -rnE '\.(DetectCtx|DetectWithinCtx|StatsCtx|ExploreCtx)\(' --include='*.go' \
	--exclude='*_test.go' --exclude-dir=benchmark . || true)
if [ -n "$bad" ]; then
	echo "ctxguard: calls of the compat.go entry points (use Detect, Stats or Explore):" >&2
	echo "$bad" >&2
	status=1
fi

exit $status
