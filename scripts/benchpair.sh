#!/usr/bin/env bash
# benchpair.sh <git-ref> <workload[,workload...]> [pairs=10] [seed0=1] [bench flag...]:
# is this tree's benchmark better or worse than <git-ref>'s on <workload>?
# A comma-separated list runs the workloads one after another on the same two
# binaries and prints one table each.
#
# Builds ./bench from <git-ref> (exported with `git archive` into a
# temporary directory outside the checkout, as simdiff.sh does) and from
# the working tree, then runs the two binaries alternately on <workload>
# with `--seconds 6 --trace 0`: pair i uses seed seed0+i on both sides, and
# the side that goes first swaps every pair, because host noise on the
# bench machine comes in minutes-long regimes that a single run, or
# all-of-one-side-then-the-other, cannot tell from a change. Any further
# arguments go to both binaries unchanged (e.g. -graph-seed 500214).
#
# Prints, per end-to-end metric of BENCHMARK.json: both medians, both
# quartile ranges, and the pairs each side won in the metric's "better"
# direction (ties count for neither); then whether the two sides' sim-digests
# matched in every pair. A gain is claimable when the tree wins at least
# nine tenths of the pairs and the medians differ by more than the ref's
# quartile range. Touches nothing under bench/.
set -euo pipefail

[ $# -ge 2 ] || { echo "usage: $0 <git-ref> <workload[,workload...]> [pairs=10] [seed0=1] [bench flag...]" >&2; exit 2; }
ref=$1 wls=$2 pairs=${3:-10} seed0=${4:-1}
shift $(($# < 4 ? $# : 4))
cd "$(git rev-parse --show-toplevel)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

(cd "$tmp/ref" && go build -o "$tmp/bench-ref" ./bench)
go build -o "$tmp/bench-tree" ./bench

# run <side> <pair>: one measurement; its metric table goes to samples as
# "<side> <pair> <metric> <value>", its digest to digests as "<side> <pair> <digest>".
run() {
	"$tmp/bench-$1" --workload "$wl" --seed $((seed0 + $2)) --seconds 6 --trace 0 "${@:3}" > "$tmp/out"
	awk -v side="$1" -v pair="$2" -v digests="$tmp/digests" '
		/sim-digest/ { print side, pair, $NF >> digests }
		table && /^\{/ { exit }
		table { print side, pair, $1, $2 }
		$1 == "metric" && $2 == "value" { table = 1 }' "$tmp/out" >> "$tmp/samples"
}

status=0
for wl in ${wls//,/ }; do
	: > "$tmp/samples"
	: > "$tmp/digests"
	for ((i = 0; i < pairs; i++)); do
		if ((i % 2 == 0)); then order=(ref tree); else order=(tree ref); fi
		for side in "${order[@]}"; do
			run "$side" "$i" "$@"
		done
		echo "$wl pair $((i + 1))/$pairs (seed $((seed0 + i)), ${order[0]} first): setup_s $(
			awk -v p="$i" '$2 == p && $3 == "setup_s" { printf "%s %s  ", $1, $4 }' "$tmp/samples")" >&2
	done

	echo "benchpair: $wl, tree vs $ref, $pairs alternating pairs, seeds $seed0..$((seed0 + pairs - 1))${*:+, flags: $*}"
	# The first pass reads each end-to-end metric's "better" direction out of
	# BENCHMARK.json; the second folds the samples.
	awk '
		function quantile(a, n, q,    pos, lo) {
			pos = 1 + (n - 1) * q; lo = int(pos)
			return lo >= n ? a[n] : a[lo] + (pos - lo) * (a[lo + 1] - a[lo])
		}
		function stats(side, m,    a, n, i, j, t) {
			n = 0
			for (i = 0; i < pairs; i++) a[++n] = val[side, i, m]
			for (i = 2; i <= n; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
			med[side] = quantile(a, n, 0.5); q1[side] = quantile(a, n, 0.25); q3[side] = quantile(a, n, 0.75)
		}
		FNR == NR {
			if (/"end_to_end"/) e2e = 1
			else if (/"per_layer"/) e2e = 0
			if (e2e && match($0, /"name": "[^"]+"/)) name = substr($0, RSTART + 9, RLENGTH - 10)
			if (e2e && match($0, /"better": "[^"]+"/)) better[name] = substr($0, RSTART + 11, RLENGTH - 12)
			next
		}
		{
			if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
			val[$1, $2, $3] = $4
			if ($2 + 1 > pairs) pairs = $2 + 1
		}
		END {
			printf "%-20s %-6s %12s %25s %12s %25s %9s\n", "metric", "better", "ref median", "ref q1..q3", "tree median", "tree q1..q3", "tree:ref"
			for (k = 1; k <= metrics; k++) {
				m = order[k]
				stats("ref", m); stats("tree", m)
				won["tree"] = won["ref"] = 0
				for (i = 0; i < pairs; i++) {
					d = val["tree", i, m] - val["ref", i, m]
					if (better[m] == "higher") d = -d
					if (d < 0) won["tree"]++; else if (d > 0) won["ref"]++
				}
				printf "%-20s %-6s %12.6g %25s %12.6g %25s %9s\n", m, better[m],
					med["ref"], sprintf("%.6g..%.6g", q1["ref"], q3["ref"]),
					med["tree"], sprintf("%.6g..%.6g", q1["tree"], q3["tree"]),
					won["tree"] ":" won["ref"]
			}
		}' BENCHMARK.json "$tmp/samples"

	awk '
		{ d[$1, $2] = $3; if ($2 + 1 > pairs) pairs = $2 + 1 }
		END {
			for (i = 0; i < pairs; i++) if (d["ref", i] != d["tree", i]) {
				printf "sim-digests: DIFFER in pair %d (seed offset %d): ref %s, tree %s\n", i + 1, i, d["ref", i], d["tree", i]
				bad = 1
			}
			if (!bad) printf "sim-digests: matched in all %d pairs\n", pairs
			exit bad
		}' "$tmp/digests" || status=1
done
exit $status
