#!/bin/sh
# A/B the repository benchmark: <parent-ref> against this working tree,
# the way every performance claim here is judged (ROADMAP item 7). The
# parent is checked out into a git worktree under a temp dir, each side's
# bench binary is built once, and every workload runs `pairs` alternating
# parent/change pairs — who goes first flips every pair, so drift on a
# shared machine lands on both sides — before --compare judges the two
# files, which stay behind as .bench_build/ab.parent.jsonl and
# .bench_build/ab.change.jsonl. Exits with --compare's status: 1 on any
# "worse" row or a risen share of failed ops. CI runs this on pull
# requests.
#
#	./ab.sh <parent-ref> [pairs]     # pairs defaults to 5; ~1.5 min a pair
set -eu
cd "$(dirname "$0")"

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
	echo "usage: ./ab.sh <parent-ref> [pairs]" >&2
	exit 2
fi
ref=$1
pairs=${2:-5}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
	git worktree remove --force "$tmp/parent" 2>/dev/null || true
	rm -rf "$tmp"
	git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM
out=$PWD/.bench_build
mkdir -p "$out"
rm -f "$out/ab.parent.jsonl" "$out/ab.change.jsonl" # --out appends

git worktree add --quiet --detach "$tmp/parent" "$ref"
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
		exit 1
	fi
}

for w in tune-net tune-deep fleet-batch serve-mix; do
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

status=0
(cd bench && "$tmp/bench.change" --compare "$out/ab.parent.jsonl" "$out/ab.change.jsonl") || status=$?
exit "$status"
