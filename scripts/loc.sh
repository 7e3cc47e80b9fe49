#!/usr/bin/env bash
# loc.sh [git-ref]: non-test Go lines per package, as one table.
#
# The count every simplicity issue, ROADMAP item and CHANGES entry quotes:
# for each directory holding Go files, `cat` of its *.go minus *_test.go,
# through `wc -l`. With a git-ref the files are read from that commit
# (`git archive`), so parent and change are counted the same way. bench/ is
# the frozen harness and is left out.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"
if [ $# -gt 1 ]; then
	echo "usage: $0 [git-ref]" >&2
	exit 2
fi
if [ $# -eq 1 ]; then
	tmp=$(mktemp -d)
	trap 'rm -rf "$tmp"' EXIT
	git archive "$1" | tar -x -C "$tmp"
	cd "$tmp"
fi

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
	sort |
	awk '
		{
			dir = $0; sub(/\/[^\/]*$/, "", dir)
			n = 0
			while ((getline line < $0) > 0) n++
			close($0)
			if (!(dir in lines)) order[++dirs] = dir
			lines[dir] += n; files[dir]++; total += n; nfiles++
		}
		END {
			printf "%-28s %5s %7s\n", "package", "files", "lines"
			for (i = 1; i <= dirs; i++)
				printf "%-28s %5d %7d\n", order[i], files[order[i]], lines[order[i]]
			printf "%-28s %5d %7d\n", "total", nfiles, total
		}'
