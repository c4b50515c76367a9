#!/bin/sh
# ab.sh — A/B benchmark harness: the working tree against a git ref.
#
#   make ab REF=<commit> PKG=./internal/sweep BENCH='BenchmarkSweepSerial$' PAIRS=10
#   sh scripts/ab.sh <ref> <pkg> <bench-regex> [pairs]
#
# Checks REF out with `git worktree add` into a temporary directory,
# builds PKG's test binary with `go test -c` in both trees, and runs
# PAIRS interleaved pairs of the benchmarks matching BENCH (-benchmem,
# one run per side per pair), alternating which side goes first so drift
# in machine load falls on both. Each binary runs in its own tree's
# package directory, so testdata resolves per side. For every benchmark
# it prints the median and the min–max over the pairs of the
# change/parent ratio of ns/op and of B/op: below 1 means the working
# tree is faster or allocates less. The worktree is removed on exit.
# Needs only Go and git, and no network.
set -eu

if [ $# -lt 3 ]; then
	echo "usage: $0 <ref> <pkg> <bench-regex> [pairs]" >&2
	exit 2
fi
ref=$1 pkg=$2 bench=$3 pairs=${4:-10}
case $pkg in
./*) ;;
*) pkg=./$pkg ;;
esac

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
cleanup() {
	git -C "$root" worktree remove --force "$tmp/parent" >/dev/null 2>&1 || true
	rm -rf "$tmp"
}
trap cleanup EXIT INT TERM

git -C "$root" worktree add --detach "$tmp/parent" "$ref" >/dev/null
(cd "$tmp/parent" && go test -c -o "$tmp/parent.test" "$pkg")
(cd "$root" && go test -c -o "$tmp/change.test" "$pkg")

run() { # side tree
	echo "## $1"
	(cd "$2/$pkg" && "$tmp/$1.test" -test.run '^$' -test.bench "$bench" \
		-test.benchmem -test.count 1)
}

i=1
while [ "$i" -le "$pairs" ]; do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$tmp/parent"
		run change "$root"
	else
		run change "$root"
		run parent "$tmp/parent"
	fi
	echo "ab: pair $i of $pairs done" >&2
	i=$((i + 1))
done >"$tmp/raw.txt"

awk -v pairs="$pairs" '
/^## / { side = $2; pair[side]++; next }
/^Benchmark/ {
	name = $1
	if (!(name in seen)) { seen[name] = 1; order[++n] = name }
	for (f = 3; f < NF; f++) {
		if ($(f + 1) == "ns/op") ns[side, pair[side], name] = $f
		if ($(f + 1) == "B/op") bytes[side, pair[side], name] = $f
	}
}
function report(name, metric, c, p,    k, m, r, j, t) {
	m = 0
	for (k = 1; k <= pairs; k++)
		if (p[k] > 0) r[++m] = c[k] / p[k]
	if (m == 0) return
	for (k = 2; k <= m; k++) { # insertion sort
		t = r[k]
		for (j = k - 1; j >= 1 && r[j] > t; j--) r[j + 1] = r[j]
		r[j + 1] = t
	}
	med = (m % 2) ? r[(m + 1) / 2] : (r[m / 2] + r[m / 2 + 1]) / 2
	printf "%-44s %-6s %7.3f  %7.3f–%-7.3f %d\n", name, metric, med, r[1], r[m], m
}
END {
	printf "%-44s %-6s %7s  %-15s %s\n", "benchmark", "metric", "median", "min–max", "pairs"
	for (i = 1; i <= n; i++) {
		name = order[i]
		split("", cn); split("", pn); split("", cb); split("", pb)
		for (k = 1; k <= pairs; k++) {
			cn[k] = ns["change", k, name]; pn[k] = ns["parent", k, name]
			cb[k] = bytes["change", k, name]; pb[k] = bytes["parent", k, name]
		}
		report(name, "ns/op", cn, pn)
		report(name, "B/op", cb, pb)
	}
}' "$tmp/raw.txt"
