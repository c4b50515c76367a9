#!/bin/sh
# loc.sh — net Go line count of the working tree against a git ref.
#
#   make loc REF=<commit>
#   sh scripts/loc.sh <ref>
#
# Runs `git diff --numstat` against REF over *.go and prints the lines
# added, removed and net, separately for non-test and _test.go files.
# Renames count as a removal plus an addition. Untracked files are not
# counted: mark new files with `git add -N` first. Needs only git, and
# no network.
set -eu

if [ $# -ne 1 ] || [ -z "$1" ]; then
	echo "usage: $0 <ref>" >&2
	exit 2
fi

git diff --numstat --no-renames "$1" -- '*.go' | awk -F '\t' '
$1 == "-" { next }
{
	k = ($3 ~ /_test\.go$/) ? "test" : "non-test"
	add[k] += $1
	del[k] += $2
}
END {
	printf "%-9s %8s %8s %8s\n", "", "added", "removed", "net"
	split("non-test test", ks, " ")
	for (i = 1; i <= 2; i++) {
		k = ks[i]
		printf "%-9s %8d %8d %+8d\n", k, add[k], del[k], add[k] - del[k]
	}
}'
