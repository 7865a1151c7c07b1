#!/bin/sh
# Did any trajectory move? Runs the identity probes (TestIdentity in
# identity_test.go: network tuning at Workers 1, 2 and 8, chained
# warm-started single-op tuning, a loopback fleet arm, fresh against
# resumed, short Figure 6 and 10 output, signatures, simulated times
# and features over a corpus sample, the fleet worker's bytes to time,
# and the cost model's fit-boost-fit chain) in <base-ref> and in this
# working tree, and compares their digests probe by probe: the cross-commit half
# of the determinism contract (DESIGN.md). <base-ref> is unpacked with git
# archive under a temp dir and this tree's identity_test.go is copied
# into it, so both sides run the same probes even when the base predates
# some of them. Prints one line per probe, then the verdict; exits 1 if a
# probe moved or the probes failed on either side. verify.sh prints its
# verdict against HEAD, and CI runs it against a pull request's base.
#
#	./identity.sh <base-ref>   # ~1 min, most of it building the base
set -eu
cd "$(dirname "$0")"

if [ $# -ne 1 ]; then
	echo "usage: ./identity.sh <base-ref>" >&2
	exit 2
fi
ref=$1

tmp=$(mktemp -d "${TMPDIR:-/tmp}/identity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM
mkdir "$tmp/base"
git archive "$ref" | tar -x -C "$tmp/base"
cp identity_test.go "$tmp/base/"

# probes <dir> <side>: run the probes in <dir> and keep their
# "<probe> <digest>" lines as $tmp/<side>.txt.
probes() {
	if ! (cd "$1" && go test -count=1 -run '^TestIdentity$' -v .) >"$tmp/$2.log" 2>&1; then
		cat "$tmp/$2.log" >&2
		echo "identity: the probes failed on the $2 side" >&2
		exit 1
	fi
	sed -n 's/.*identity: //p' "$tmp/$2.log" >"$tmp/$2.txt"
}
probes "$tmp/base" base
probes . tree

first=
while read -r name digest; do
	was=$(awk -v n="$name" '$1 == n { print $2 }' "$tmp/base.txt")
	if [ "$digest" = "$was" ]; then
		printf '  same   %s\n' "$name"
	else
		printf '  MOVED  %s (%s -> %s)\n' "$name" "${was:-absent}" "$digest"
		[ -n "$first" ] || first=$name
	fi
done <"$tmp/tree.txt"

if [ -n "$first" ]; then
	echo "identity: $ref -> working tree: probe $first moved first"
	exit 1
fi
echo "identity: $ref -> working tree: all $(wc -l <"$tmp/tree.txt" | tr -d ' ') probes identical"
