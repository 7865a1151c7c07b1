#!/bin/sh
# A/B the repository benchmark: <parent-ref> against this working tree,
# the way every performance claim here is judged (ROADMAP item 7). The
# parent's files are unpacked (git archive) under a temp dir, each side's
# bench binary is built once, and every workload runs `pairs` alternating
# parent/change pairs — who goes first flips every pair, so drift on a
# shared machine lands on both sides — before --compare judges the two
# files, which stay behind as .bench_build/ab.parent.jsonl and
# .bench_build/ab.change.jsonl. Exits with --compare's status: 1 on any
# "worse" row or a risen share of failed ops. A run whose output checks
# fail is still a run: its log is shown, the pairs go on, --compare counts
# its failed ops, and the exit status is 1. CI runs this on pull
# requests. Workloads named after the pair count are the only ones run:
# a claim's ten pairs on one workload need not cost forty runs.
#
#	./ab.sh <parent-ref> [pairs] [workload...]   # pairs defaults to 5; ~45 s a pair and workload
set -eu
cd "$(dirname "$0")"

if [ $# -lt 1 ]; then
	echo "usage: ./ab.sh <parent-ref> [pairs] [workload...]" >&2
	exit 2
fi
ref=$1
pairs=${2:-5}
shift
[ $# -eq 0 ] || shift
[ $# -gt 0 ] || set -- tune-net tune-deep fleet-batch serve-mix

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
out=$PWD/.bench_build
mkdir -p "$out" "$tmp/parent"
rm -f "$out/ab.parent.jsonl" "$out/ab.change.jsonl" # --out appends

git archive "$ref" | tar -x -C "$tmp/parent"
go build -C "$tmp/parent/bench" -o "$tmp/bench.parent" repro/bench
go build -C bench -o "$tmp/bench.change" repro/bench

# run <side> <workload> <seed>: one run of that side's binary from that
# side's checkout (the benchmark finds its root from the working
# directory), appended to ab.<side>.jsonl.
run() {
	case $1 in
	parent) dir=$tmp/parent/bench ;;
	change) dir=$PWD/bench ;;
	esac
	printf '%s %s seed %s\n' "$1" "$2" "$3"
	if ! (cd "$dir" && "$tmp/bench.$1" --workload "$2" --seed "$3" --seconds 20 --trace 0 \
		--out "$out/ab.$1.jsonl") >"$tmp/run.log" 2>&1; then
		cat "$tmp/run.log" >&2
		status=1
	fi
}

status=0
for w in "$@"; do
	k=1
	while [ "$k" -le "$pairs" ]; do
		if [ $((k % 2)) -eq 1 ]; then
			run parent "$w" "$k"
			run change "$w" "$k"
		else
			run change "$w" "$k"
			run parent "$w" "$k"
		fi
		k=$((k + 1))
	done
done

(cd bench && "$tmp/bench.change" --compare "$out/ab.parent.jsonl" "$out/ab.change.jsonl") || status=$?
exit "$status"
