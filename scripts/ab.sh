#!/bin/sh
# A/B comparison of the working tree against REF on the end-to-end benchmark.
#
#   scripts/ab.sh REF [-n pairs] [-w workload,...] [-s first-seed]
#
# REF (a commit, usually the parent) is checked out with `git worktree add`
# in a temporary directory, removed on exit. For each workload and each seed
# S .. S+n-1 the script runs
#
#   go run -C benchmark seqlog/benchmark -workload W -seed S
#
# once in each tree, alternating which tree goes first (REF first on the
# first pair), and reads the JSON object on the last line of stdout. It
# prints every run's metrics, every run with correct=false or failed>0, and
# one table per workload: for each end-to-end metric in BENCHMARK.json both
# medians, REF's interquartile range (quartiles as Python's
# statistics.quantiles takes them, the benchmark's -compare rule) and
# min-max, the change's min-max, the share by which the change moved, the
# pairs the change won, and a verdict:
#
#   CLAIM       n >= 10, the change is better in >= 9 of every 10 pairs, and
#               its median is better than REF's by more than REF's IQR
#   worse       the change's median is worse than REF's by more than the
#               metric's bound in BENCHMARK.json
#   unresolved  either side's IQR, as a share of its median, exceeds the
#               bound, so the runs spread too widely to tell
#   flat        none of the above
#
# Defaults: 10 pairs, every workload in BENCHMARK.json, seeds from 1. Runs
# are sequential: one process tree at a time, so the two sides share the
# host evenly. Set TMPDIR to choose where the REF checkout goes.
set -eu

usage() {
	echo "usage: scripts/ab.sh REF [-n pairs] [-w workload,...] [-s first-seed]" >&2
	exit 2
}

[ $# -ge 1 ] || usage
REF=$1
shift
PAIRS=10
WORKLOADS=
SEED=1
while [ $# -gt 0 ]; do
	[ $# -ge 2 ] || usage
	case $1 in
	-n) PAIRS=$2 ;;
	-w) WORKLOADS=$(echo "$2" | tr ',' ' ') ;;
	-s) SEED=$2 ;;
	*) usage ;;
	esac
	shift 2
done

cd "$(dirname "$0")/.."
ROOT=$(pwd)
SPEC=$ROOT/BENCHMARK.json
[ -n "$WORKLOADS" ] ||
	WORKLOADS=$(awk '/"workloads"/{on=1} on && /"name"/{gsub(/[",]/, "", $2); print $2} on && /^  \]/{exit}' "$SPEC")

REFSHA=$(git rev-parse --verify "$REF^{commit}")
HEADSHA=$(git rev-parse HEAD)
DIRTY=
[ -z "$(git status --porcelain --untracked-files=no)" ] || DIRTY=" plus uncommitted changes"

WORK=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
	git -C "$ROOT" worktree remove --force "$WORK/ref" >/dev/null 2>&1 || true
	git -C "$ROOT" worktree prune
	rm -rf "$WORK"
}
trap cleanup EXIT
trap 'exit 130' INT TERM
git worktree add --detach --quiet "$WORK/ref" "$REFSHA"

echo "ab.sh $REF -n $PAIRS -w $(echo $WORKLOADS | tr ' ' ',') -s $SEED"
echo "host: nproc $(nproc), $(go version | cut -d' ' -f3-)"
echo "parent (REF $REF): $REFSHA"
echo "change (working tree): $HEADSHA$DIRTY"
echo "runs: go run -C benchmark seqlog/benchmark -workload W -seed S, one tree at a time"
echo

# run TREE SIDE W S appends one "W S SIDE correct failed name=value..." line
# to $WORK/runs and prints it.
run() {
	if out=$(cd "$1" && go run -C benchmark seqlog/benchmark -workload "$3" -seed "$4" 2>"$WORK/stderr"); then
		line=$(echo "$out" | tail -n 1)
	else
		line=
		echo "# $2 $3 seed $4 exited nonzero; stderr tail:" >&2
		tail -n 5 "$WORK/stderr" >&2
	fi
	correct=$(echo "$line" | sed -n 's/.*"correct":\([a-z]*\).*/\1/p')
	failed=$(echo "$line" | sed -n 's/.*"failed":\([0-9]*\).*/\1/p')
	metrics=$(echo "$line" | grep -o '"[a-z0-9_.]*":{[^{}]*}' |
		sed 's/^"\([^"]*\)":.*"value":\([^,}]*\).*/\1=\2/' | tr '\n' ' ')
	rec="$3 $4 $2 correct=${correct:-false} failed=${failed:--1} $metrics"
	echo "$rec" >>"$WORK/runs"
	echo "run $rec"
}

for w in $WORKLOADS; do
	i=0
	while [ "$i" -lt "$PAIRS" ]; do
		s=$((SEED + i))
		if [ $((i % 2)) -eq 0 ]; then
			run "$WORK/ref" parent "$w" "$s"
			run "$ROOT" change "$w" "$s"
		else
			run "$ROOT" change "$w" "$s"
			run "$WORK/ref" parent "$w" "$s"
		fi
		i=$((i + 1))
	done
done

# The end-to-end metrics as "name better bound" lines.
awk '/"end_to_end"/{on=1} /"per_layer"/{on=0}
	on && /"name"/{gsub(/[",]/, "", $2); n=$2}
	on && /"better"/{gsub(/[",]/, "", $2); b=$2}
	on && /"bound"/{gsub(/[",]/, "", $2); print n, b, $2}' "$SPEC" >"$WORK/spec"

echo
awk -v pairs="$PAIRS" -v first="$SEED" '
function sort(a, n,    i, j, t) {
	for (i = 2; i <= n; i++)
		for (j = i; j > 1 && a[j-1] > a[j]; j--) { t = a[j]; a[j] = a[j-1]; a[j-1] = t }
}
function median(a, n) { return n % 2 ? a[(n+1)/2] : (a[n/2] + a[n/2+1]) / 2 }
# quartile k of sorted a[1..n], the exclusive method of statistics.quantiles.
function quartile(a, n, k,    pos, j) {
	pos = k * (n + 1) / 4
	j = int(pos)
	if (j < 1) return a[1]
	if (j >= n) return a[n]
	return a[j] + (pos - j) * (a[j+1] - a[j])
}
function abs(x) { return x < 0 ? -x : x }
NR == FNR { better[$1] = $2; bound[$1] = $3; order[++nm] = $1; next }
{
	w = $1; s = $2; side = $3
	if (!(w in seen)) { seen[w] = 1; wl[++nw] = w }
	bad = 0
	for (f = 4; f <= NF; f++) {
		split($f, kv, "=")
		if (kv[1] == "correct" && kv[2] != "true") bad = 1
		if (kv[1] == "failed" && kv[2] != "0") bad = 1
		v[w, s, side, kv[1]] = kv[2]
	}
	if (bad) { nbad[w]++; badrun[w] = badrun[w] "    " $0 "\n" }
}
END {
	for (x = 1; x <= nw; x++) {
		w = wl[x]
		printf "%s: %d alternating pairs (seeds %d-%d), runs with correct=false or failed>0: %d\n", \
			w, pairs, first, first + pairs - 1, nbad[w] + 0
		printf "%s", badrun[w]
		printf "  %-22s %12s %10s %23s %12s %23s %8s %6s  %s\n", "metric", "parent med", "parent IQR", \
			"parent min-max", "change med", "change min-max", "delta", "wins", "verdict"
		for (y = 1; y <= nm; y++) {
			m = order[y]
			na = nb = won = n = 0
			for (s = first; s < first + pairs; s++) {
				ha = ((w, s, "parent", m) in v); hb = ((w, s, "change", m) in v)
				if (ha) pa[++na] = v[w, s, "parent", m] + 0
				if (hb) pb[++nb] = v[w, s, "change", m] + 0
				if (!ha || !hb) continue
				n++
				d = v[w, s, "change", m] - v[w, s, "parent", m]
				if (better[m] == "higher" ? d > 0 : d < 0) won++
			}
			if (na == 0 || nb == 0) continue
			sort(pa, na); sort(pb, nb)
			ma = median(pa, na); mb = median(pb, nb)
			iqra = quartile(pa, na, 3) - quartile(pa, na, 1)
			iqrb = quartile(pb, nb, 3) - quartile(pb, nb, 1)
			gain = better[m] == "higher" ? mb - ma : ma - mb
			worse = ma != 0 ? -gain / abs(ma) : 0
			verdict = "flat"
			if (worse > bound[m])
				verdict = "worse"
			else if (n >= 10 && won * 10 >= 9 * n && gain > iqra)
				verdict = "CLAIM"
			else if (ma != 0 && iqra / abs(ma) > bound[m] || mb != 0 && iqrb / abs(mb) > bound[m])
				verdict = "unresolved"
			printf "  %-22s %12.4f %10.4f %11.4f-%-11.4f %12.4f %11.4f-%-11.4f %+7.1f%% %3d/%-2d  %s\n", \
				m, ma, iqra, pa[1], pa[na], mb, pb[1], pb[nb], ma != 0 ? 100 * (mb - ma) / abs(ma) : 0, \
				won, n, verdict
		}
		print ""
	}
}' "$WORK/spec" "$WORK/runs"
