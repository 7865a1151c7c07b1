#!/bin/sh
# The gate list: everything that must pass before a change lands. CI runs
# this script as its correctness gate, so green here is green there; on a
# pull request it then runs ./ab.sh against the base commit, which fails
# on a benchmark regression.
set -eu
cd "$(dirname "$0")"

step() { printf '\n== %s\n' "$*"; }

# gated PATTERN PKG [FLAG...] runs go test -run PATTERN over PKG, after
# failing if any |-separated alternative of PATTERN names no test there:
# a later rename or deletion must not silently empty a gate.
gated() {
	pattern=$1 pkg=$2
	shift 2
	ifs=$IFS
	IFS='|'
	for alt in $pattern; do
		if ! go test -list "$alt" "$pkg" | grep -qE '^(Test|Fuzz)'; then
			echo "verify: -run pattern $alt names no test in $pkg" >&2
			exit 1
		fi
	done
	IFS=$ifs
	go test "$@" -run "$pattern" "$pkg"
}

step gofmt
out="$(gofmt -l .)"
if [ -n "$out" ]; then
	echo "files need gofmt:" >&2
	echo "$out" >&2
	exit 1
fi

step go vet
go vet ./...

step go build
go build ./...

step "go test (short)"
go test -short ./...

# The step decoder has two paths — a step's data object read in place
# after its kind, where EncodeSteps writes it, and skipped then rescanned
# for any other key order — and both must agree with the reflection
# oracle in internal/ir/json_test.go, and replaying the bytes as they are
# parsed (ReplayEncoded, the fleet worker's path) with decoding them and
# then replaying, so every run fuzzes them a little.
step "fuzz: step decoder (10 s)"
gated FuzzDecodeSteps ./internal/ir/ -fuzz FuzzDecodeSteps -fuzztime 10s

# The fleet's lease, results, grant, job and status bodies and the record
# lines are written and read by hand on internal/jsonx's shared Reader and
# append primitives, every other layout left to encoding/json; jsonx has
# no fuzz target of its own, so the next three pin it through its two
# callers. The bodies: both halves against the json.Marshal/json.Unmarshal
# calls they replaced, error texts included.
step "fuzz: fleet body codec (10 s)"
gated FuzzWireCodec ./internal/fleet/ -fuzz FuzzWireCodec -fuzztime 10s

# The record lines: both halves against a frozen copy of the reflection
# loops (records, Steps bytes and error texts), and Save∘Load∘Save = Save
# on whatever loads.
step "fuzz: record codec (10 s + 5 s)"
gated FuzzRecordCodec ./internal/measure/ -fuzz FuzzRecordCodec -fuzztime 10s
gated FuzzLogLoad ./internal/measure/ -fuzz FuzzLogLoad -fuzztime 5s

# The cost model's trainer scans and partitions only the columns that can
# still split a node and stops each scan where no split can lie: against
# the per-node-sort reference builder, tree for tree, on rows of few
# distinct values, where ties and columns constant within a node are the
# common case. Most inputs it finds reach new coverage, and minimizing
# each for the default 60 s would spend the ten seconds on the first.
step "fuzz: cost-model trainer (10 s)"
gated FuzzPresortedMatchesReference ./internal/xgb/ -fuzz FuzzPresortedMatchesReference -fuzztime 10s -fuzzminimizetime 1s

# The packages that spawn goroutines, under the race detector: the worker
# pool and everything sharded over it (measurement, evolution, cost-model
# training, scheduler waves), the policy whose rounds drive them,
# internal/obs, whose sinks and registry are shared mutable state updated
# from the search path and scraped concurrently, and internal/session,
# whose teardown stops the publisher and sink goroutines. With them the program
# path those goroutines share read-only — replayed states, their lowered
# forms, the feature cache, the sampler's divisor memo — and its pooled
# scratch.
step "race: concurrent packages (short)"
go test -race -short ./internal/pool/ ./internal/measure/ ./internal/ir/ ./internal/feat/ ./internal/anno/ ./internal/evo/ ./internal/xgb/ ./internal/policy/ ./internal/sched/ ./internal/obs/ ./internal/session/ ./ansor/

# The run-ahead contract (DESIGN.md "The determinism contract", rule 6):
# a proposal is the same whenever it is computed, and the scheduler's
# prepare waves change no decision. Ten times each, because what these
# tests exclude — two calls at once on one task, a result that depends on
# which goroutine finished first — shows up only under some interleavings.
step "race: proposals ahead of picks (x10)"
gated 'TestProposeAheadEqualsSearchRound|TestUncommittedProposalIsInvisible|TestProposalContractViolationsPanic' ./internal/policy/ -race -count=10
gated 'TestPrepareAheadChangesNoDecision|TestZeroGradientTaskIsNeverGuessed' ./internal/sched/ -race -count=10
gated TestTuneNetworkRecordLogsEqualAcrossWorkers ./ansor/ -race -count=10

# One network driver (DESIGN.md "Run assembly"): the library's
# TuneNetwork and the figures' TuneNetworks run policy.NewNetwork and
# must end on the same latency bits and fresh trials at Workers 1 and 2,
# scheduler waves running concurrently. The event streams of a
# single-task tuner and of a two-task network run stay byte-identical
# to their goldens.
step "race: network drivers agree; event-stream goldens"
gated TestLibraryAndFigureDriversAgree ./internal/exp/ -race
gated 'TestGoldenEventStream|TestGoldenNetworkEventStream' ./ansor/

# Borrowed program memory (DESIGN.md "Borrowed memory" and "Program
# memory"): the one free list all of it waits on (pool.FreeList: its
# bound, its books and concurrent borrowers), the lifetime tests
# with freed arena memory — states, loops, step values and their factor
# lists — poisoned and the arenas' books checked at every carve and
# release, among them a proposal's batch clones read after their arenas
# were reused (Clone detaches the steps), the signature tables, whose
# chunks are poisoned on release before a neighbour reuses them while
# the strings read from them live on, the two exit invariants —
# Search.Run returns and Propose leaves no program of an arena — the
# in-process measurer, whose
# goroutines share pooled lowering scratch, and feature extraction, whose
# pooled scratch carries lg's memo from one holder to the next, the
# feature cache's chunks, which concurrent lookups carve and whole runs
# hand from one cache to the next (poisoned in between), evolution's
# tables and the score memos, which the proposals two tasks prepare at
# once borrow from one free list each (poisoned on the way back), the
# recorder, whose goroutines share one line buffer, the cost model's
# trainers, which two models training at once borrow from one free list,
# the random sources samplers and policies reseed, and the fleet's
# request memory — job bodies held by a count, lease and results
# requests, replies — poisoned on the way back under the chaos agents
# and a lease that expires while its grant is still being written.
# Ten times, because an arena, a signature table, a scratch, a chunk, a
# table set, a scorer, a trainer, a source or a buffer handed to two
# goroutines, or read after its release, shows only when another
# borrower has reused it in between.
step "race: borrowed program memory (x10)"
gated TestFreeList ./internal/pool/ -race -count=10
gated 'TestPoisoned|TestArena' ./internal/ir/ -race -count=10
gated 'TestRunReturnsHeapStates|TestReusedTablesMatchFresh' ./internal/evo/ -race -count=10
gated 'TestProposeLeavesBatchOnHeap|TestReusedScorersMatchFresh' ./internal/policy/ -race -count=10
gated TestMeasureBorrowedLoweringAcrossWorkers ./internal/measure/ -race -count=10
gated 'TestExtractConcurrentMatchesSerial|TestCacheConcurrentLookups|TestReusedChunksMatchFresh' ./internal/feat/ -race -count=10
gated TestRecorderConcurrentLinesIntact ./internal/measure/ -race -count=10
gated TestConcurrentTrainingMatchesSerial ./internal/xgb/ -race -count=10
gated TestReusedSourceDrawsAsFresh ./internal/anno/ -race -count=10
gated TestPoisoned ./internal/fleet/ -race -count=10

# The registry service is a shared mutable store serving concurrent
# publishers and readers: its whole suite runs under the race detector,
# together with the sharded registry underneath it. Then the two
# order-independence tests (DESIGN.md "Consistency model": concurrent
# publishers and readers end on exactly the sequential per-key minimum,
# in process and over HTTP) ten times each, because a lost or misordered
# update shows only under some interleavings.
step "race: registry service"
go test -race ./internal/regserver/ ./internal/registry/
gated TestRegistryConcurrentShardedRace ./internal/registry/ -race -count=10
gated TestRegServerConcurrentPublishers ./internal/regserver/ -race -count=10

# Warm start reads registry servers over HTTP, whose handlers run on
# their own goroutines, and hands the records to a policy that trains on
# its worker pool: the warm package's whole suite, and the policy's
# warm-start tests.
step "race: warm start"
go test -race ./internal/warm/
gated TestWarmStart ./internal/policy/ -race

# The measurement fleet is a concurrent broker/worker/client system (lazy
# lease reaping under one mutex, worker goroutines, polling clients): its
# whole suite, including the seeded chaos suite (worker death, lease
# expiry, duplicate/late posts on a fleet measuring avx2 and avx512 jobs
# at once; bit-identity at every seed), plus the ansor-level end-to-end
# bit-identity tests that drive real workers.
step "race: measurement fleet (incl. chaos suite)"
go test -race -count=1 ./internal/fleet/
gated 'TestFleet|TestTunerCloseSurfacesFleetError' ./ansor/ -race -count=1

# The benchmark is a module of its own, so ./... above never reaches it:
# vet it, run its unit tests, and run two short workloads end to end —
# the search with its record log, and the fleet's wire — each of which
# exits non-zero unless every output check passed.
step "bench module"
go vet -C bench .
go test -C bench .
go run -C bench repro/bench --workload tune-deep --seed 1 --seconds 3 --trace 0
go run -C bench repro/bench --workload fleet-batch --seed 1 --seconds 3 --trace 0

printf '\nverify: all gates passed\n'

# Did any trajectory move against HEAD? The identity probes' verdict, for
# CHANGES.md to quote. Not a gate: a change may move trajectories on
# purpose, and then says so and names the probes that moved.
step "identity against HEAD (not a gate)"
./identity.sh HEAD || true

# The numbers ROADMAP tracks for the design-quality leg — non-test Go
# lines; the CLI flag declarations: those in cmd/*/main.go plus,
# counted once, the run flags ansor-tune and ansor-bench both register
# from internal/session/flags.go, through a FlagSet or the flag
# package's globals, in the X( and XVar( forms alike; and the settable
# values of the library's option structs: the exported fields go doc
# lists for each, every name of a multi-name line counted (the
# simplicity guide asks a change to count what can be set before and
# after) — for HEAD (unpacked with git archive, as ab.sh unpacks a
# parent) beside the working tree, so a CHANGES.md entry quotes the
# gate's counts and a simplicity change their difference. Not a gate.
count() {
	(cd "$1" && find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)
}
flags() {
	(cd "$1" && cat cmd/*/main.go $(ls internal/session/flags.go 2>/dev/null) |
		grep -cE '(fs|flag)\.(String|Int|Int64|Bool|Float64|Duration)(Var)?\(')
}
settable() {
	for t in ansor.TuningOptions exp.Config session.Spec policy.Options sched.Options evo.Config xgb.Opts; do
		dir=./internal/${t%.*}
		[ "${t%.*}" != ansor ] || dir=./ansor
		(cd "$1" && go doc "$dir" "${t#*.}")
	done | awk '/^type .* struct \{$/ { f = 1; next }
		/^}/ { f = 0 }
		f && NF && $1 !~ /^\/\// { n++; for (i = 1; $i ~ /,$/; i++) n++ }
		END { print n }'
}
tmp=$(mktemp -d "${TMPDIR:-/tmp}/verify.XXXXXX")
trap 'rm -rf "$tmp"' EXIT
git archive HEAD | tar -x -C "$tmp"
head=$(count "$tmp")
tree=$(count .)
printf 'non-test Go lines outside bench/: %s (HEAD %s, %+d)\n' "$tree" "$head" "$((tree - head))"
head=$(flags "$tmp")
tree=$(flags .)
printf 'CLI flag declarations: %s (HEAD %s, %+d)\n' "$tree" "$head" "$((tree - head))"
head=$(settable "$tmp")
tree=$(settable .)
printf 'settable option fields: %s (HEAD %s, %+d)\n' "$tree" "$head" "$((tree - head))"
