#!/usr/bin/env bash
# simdiff.sh <git-ref>: do the virtual numbers of this tree equal <git-ref>'s?
#
# Builds cmd/analyze from <git-ref> (exported with `git archive` into a
# temporary directory outside the checkout) and from the working tree, runs
#   GOMAXPROCS=1 analyze -exp all -scale 10 -roots 2 -json
# on both, and compares the outputs byte for byte. On a difference it names
# every experiment whose rows differ and exits 1. GOMAXPROCS=1 because
# virtual time is schedule-dependent above it (ROADMAP item 1).
#
# A local tool for refactors that must not move a number; not a CI gate,
# since a PR may move numbers on purpose.
set -euo pipefail

[ $# -eq 1 ] || { echo "usage: $0 <git-ref>" >&2; exit 2; }
ref=$1
cd "$(git rev-parse --show-toplevel)"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git archive "$ref" | tar -x -C "$tmp/ref"

(cd "$tmp/ref" && go build -o "$tmp/analyze-ref" ./cmd/analyze)
go build -o "$tmp/analyze-tree" ./cmd/analyze

args=(-exp all -scale 10 -roots 2 -json)
GOMAXPROCS=1 "$tmp/analyze-ref" "${args[@]}" > "$tmp/ref.json"
GOMAXPROCS=1 "$tmp/analyze-tree" "${args[@]}" > "$tmp/tree.json"

if cmp -s "$tmp/ref.json" "$tmp/tree.json"; then
	echo "simdiff: identical to $ref ($(grep -cE '^  "[^"]+": ' "$tmp/tree.json") experiments, $(wc -c < "$tmp/tree.json") bytes)"
	exit 0
fi
# The JSON is one indented object keyed by experiment name: tag every line
# with the last top-level key at or above it, and name each key that owns a
# differing line.
tagged() {
	awk '/^  "[^"]+": / { k = $1; gsub(/[":]/, "", k) } { print (k == "" ? "<top level>" : k) "\t" $0 }' "$1"
}
keys=$({ diff <(tagged "$tmp/ref.json") <(tagged "$tmp/tree.json") || true; } |
	awk -F'\t' '/^[<>] / { print substr($1, 3) }' | sort -u | paste -sd' ' -)
echo "simdiff: differs from $ref; differing experiments: $keys"
{ diff "$tmp/ref.json" "$tmp/tree.json" || true; } | head -20
exit 1
