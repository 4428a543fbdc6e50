#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging.
#
# Usage: scripts/ci.sh
#
#   1. bench regression gate  the seven wall-clock figures against the base
#                             commit, built and run in this same run; the
#                             six exact figures (the request ledger's with
#                             each of its layer rows), the adoption
#                             ledger's four, the live-flow and set-up
#                             heap ledgers' totals and rows and a CPU
#                             meter's bytes against BENCH_core.json,
#                             and the long-run heap ledger's slope
#                             against a 1 KB per 10^5 requests ceiling;
#                             then each gated-exactly ledger three
#                             times, every row the same in every run.
#                             First, while the box is cold: behind the race
#                             and fuzz stages the same binaries read 30-60 %
#                             slower
#   2. gofmt -s -l + go vet   formatting and static checks, whole tree
#   3. fast-fail stages       vet + race on the hottest packages, 10 s
#                             each of the HTTP codec's, the scheduler's,
#                             the packet trains', the TCP batch path's
#                             and the memcached session's differential
#                             fuzzers, and the RNG, dead-export,
#                             write-only-state, one-valued-option, spec,
#                             lifecycle-seam and G1′ lints (the spec lint
#                             holds DESIGN.md, EXPERIMENTS.md and
#                             README.md to the tree), and the G1/G3 trace
#                             monitor's catches test
#      coverage ratchet       every function of internal/core and
#                             internal/l4lb runs under its own package's
#                             tests, or is allowlisted with its reason
#   4. go build               everything compiles, including cmd/
#   5. examples               quickstart and secureservice run and print
#                             that their flow survived the instance kill
#   6. figure golden          `yodasim -exp all -seed 1` is
#                             byte-identical to the checked-in 655 lines
#      figure claims, seeds 2-5
#                             TestFigureClaims' verdict on each figure at
#                             seeds 2 to 5, printed per seed
#   7. mflow hybrid           `yodasim -exp mflow -recovery hybrid` (32,768
#                             flows, 2 of 8 instances killed) ends PASS:
#                             every orphan adopted once, and no flow
#                             entry, store record or mux affinity entry
#                             left at settle
#   8. kill schedules         TestKillSchedules over five seeds (go test:
#                             two of drops, one of the other shapes): a
#                             fetch's owner killed after each step, then
#                             each of the 24 packets after the kill
#                             faulted, and each instance killed through a
#                             keep-alive switch and a TLS flow, both
#                             recovery modes; and the checked timelines
#                             of defect (k)'s pins
#   9. go test -race          full suite under the race detector
#  10. benchmarks             every Benchmark* compiles and runs one
#      iteration (the heavy figure benchmarks are excluded by name; run
#      scripts/bench.sh for real numbers)
#  11. bench module smoke     bench/ has its own go.mod; its ~3 s test
#                             compiles yodabench against this tree. Last,
#                             so its failure hides no other stage
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench regression gate (wall clock: median of 5 pairs vs the base commit, >15% fails; exact: >15% vs BENCH_core.json fails, any rise of the round-trip count or of a ledger row) =="
# The box this runs on swings 2x within an hour, so a wall-clock figure
# recorded on another day gates nothing: the parent itself failed such
# gates. The seven wall-clock figures — event loop and 64k-backlog timer
# churn ns/op, mflow events/s (the real stack behind scripted endpoints,
# 32,768 flows), flow fast path ns/op, and TCP bulk MB/s with 64 KiB
# writes (whose array the buffer pool recycles), 256 KiB writes (whose
# array the connection keeps) and a 512 KiB body served in place — are
# measured on this tree and on the base commit, extracted with
# `git archive` and built in this run, in five alternating pairs. A
# figure fails when the median of its five new/base ratios (base/new for
# rates) exceeds 1.15. The base is the commit the tree under test sits
# on: HEAD while the work tree has uncommitted changes, HEAD^ once they
# are committed.
#
# Six figures are exact and stay absolute against BENCH_core.json: the
# 512 KiB static write's B/op (a copy of the body would be 500 times it),
# an idle TCP connection pair's heap, a warm client's 512 KiB fetch's
# B/op (a body array made per response instead of lent from the client's
# pool would be ~280 times it), TCPStore round trips per paper-mode flow
# and allocations per request, in total and in each ledger layer's row
# (counts: any rise fails), and the real stack's heap bytes per mflow flow
# (read off the mflow runs above; the store's items are about a third of
# it). `scripts/bench.sh --only
# tcp_static_512k_B_op,tcp_idle_conn_pair_heap_bytes,client_fetch_512k_B_op,storage_roundtrips_per_flow_paper,request_allocs,mflow_mem_bytes_per_flow`
# (and the adoption ledger's four gated figures, below, with
# `--only adoption_allocs_paper,adoption_allocs_hybrid,adoption_store_cmds_paper,adoption_store_cmds_hybrid`,
# the heap ledgers' with `--only flow_heap_bytes,flow_heap_bytes_again`,
# `--only cluster_heap_bytes`, `--only longrun_heap_bytes_per_1e5_req`
# and `--only storm_heap_bytes` (each with its layer rows), and a CPU
# meter's with `--only cpumeter_bytes_held`) re-records just those after
# an intentional change.
#
# gate <label> <unit> <new> <recorded> lower|higher: fail when new is more
# than 15% worse than recorded in the direction that is better; a field
# the record lacks is not gated.
gate() {
  [[ -z "$4" || "$4" == "null" ]] && return 0
  awk -v label="$1" -v unit="$2" -v new="$3" -v rec="$4" -v better="$5" 'BEGIN{
    if (better == "lower" ? new+0 > rec*1.15 : new+0 < rec/1.15) {
      printf "FAIL: %s %s %s vs recorded %s (>15%% regression)\n", label, new, unit, rec; exit 1 }
    printf "%s %s %s vs recorded %s %s: ok\n", label, new, unit, rec, unit }' || exit 1
}
recorded() { awk -F'[:,]' -v k="\"$1\"" '$1 ~ k {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true; }
BASE=HEAD
[[ -z "$(git status --porcelain --untracked-files=no)" ]] && BASE=HEAD^
GATE_DIR="$(mktemp -d)"
trap 'rm -rf "$GATE_DIR"' EXIT
mkdir -p "$GATE_DIR/tree" "$GATE_DIR/base" "$GATE_DIR/new"
git archive "$BASE" | tar -x -C "$GATE_DIR/tree"
echo "base: $(git rev-parse --short "$BASE") ($BASE)"
for pkg in netsim experiments core tcp; do
  go test -c -o "$GATE_DIR/new/$pkg.test" "./internal/$pkg/"
  (cd "$GATE_DIR/tree" && go test -c -o "$GATE_DIR/base/$pkg.test" "./internal/$pkg/")
done
# Each pair runs every gate benchmark on both sides back to back — base
# first in odd pairs, the tree under test first in even ones — so the two
# halves of a ratio see the box in the same state, and each side counts
# the better of two runs (-test.count 2): interference only ever slows.
GATE_BENCHES=(
  "netsim BenchmarkNetsimEventLoop$"
  "netsim BenchmarkNetsimTimerChurn/backlog=64k"
  "experiments BenchmarkMflowMemPerFlow -test.benchtime 1x"
  "core BenchmarkFlowFastPath$"
  "tcp BenchmarkTCPThroughput$ -test.benchmem"
)
for pair in 1 2 3 4 5; do
  order="base new"
  (( pair % 2 )) || order="new base"
  for spec in "${GATE_BENCHES[@]}"; do
    read -r pkg pattern flags <<< "$spec"
    for side in $order; do
      tree=.
      [[ $side == base ]] && tree="$GATE_DIR/tree"
      (cd "$tree/internal/$pkg" && "$GATE_DIR/$side/$pkg.test" -test.run '^$' -test.bench "$pattern" -test.count 2 $flags) |
        awk -v at="$pair $side" 'function unit(u, i) { for (i = 2; i < NF; i++) if ($(i+1) == u) return $i }
          $1 ~ /^BenchmarkNetsimEventLoop/ { print at, "event_loop_ns/op", $3 }
          $1 ~ /^BenchmarkNetsimTimerChurn\/backlog=64k/ { print at, "timer_churn_64k_ns/op", $3 }
          $1 ~ /^BenchmarkMflowMemPerFlow/ { print at, "mflow_events/s", unit("events/s"); print at, "mflow_B/flow", unit("bytes/flow") }
          $1 ~ /^BenchmarkFlowFastPath/ { print at, "flow_fast_path_ns/op", $3 }
          $1 ~ /^BenchmarkTCPThroughput\/chunk=64k/ { print at, "tcp_64k_MB/s", unit("MB/s") }
          $1 ~ /^BenchmarkTCPThroughput\/chunk=256k/ { print at, "tcp_256k_MB/s", unit("MB/s") }
          $1 ~ /^BenchmarkTCPThroughput\/static=512k/ { print at, "tcp_static_512k_MB/s", unit("MB/s"); print at, "static_B/op", unit("B/op") }' |
        tee -a "$GATE_DIR/runs"
    done
  done
done
# Per figure: the five ratios, worse-is-bigger, and their median.
awk '{ k = $3 SUBSEP $1 SUBSEP $2; rate = $3 ~ /\/s$/
    if (!(k in v) || (rate ? $4+0 > v[k] : $4+0 < v[k])) v[k] = $4+0 }
  END {
    n = split("event_loop_ns/op timer_churn_64k_ns/op mflow_events/s flow_fast_path_ns/op tcp_64k_MB/s tcp_256k_MB/s tcp_static_512k_MB/s", figs, " ")
    bad = 0
    for (k = 1; k <= n; k++) {
      f = figs[k]
      rate = f ~ /\/s$/
      for (i = 1; i <= 5; i++) {
        r[i] = rate ? v[f, i, "base"] / v[f, i, "new"] : v[f, i, "new"] / v[f, i, "base"]
        for (j = i; j > 1 && r[j] < r[j-1]; j--) { t = r[j]; r[j] = r[j-1]; r[j-1] = t }
      }
      verdict = r[3] > 1.15 ? "FAIL" : "ok"
      if (r[3] > 1.15) bad = 1
      printf "%-22s ratios %.3f %.3f %.3f %.3f %.3f  median %.3f: %s\n", f, r[1], r[2], r[3], r[4], r[5], r[3], verdict
    }
    exit bad
  }' "$GATE_DIR/runs"
NEW_TCP_STATIC_B=$(awk '$2 == "new" && $3 == "static_B/op" { if (min == "" || $4+0 < min+0) min = $4 } END { print min }' "$GATE_DIR/runs")
NEW_MFLOW_B=$(awk '$2 == "new" && $3 == "mflow_B/flow" { if (min == "" || $4+0 < min+0) min = $4 } END { print min }' "$GATE_DIR/runs")
NEW_IDLE_B=$(cd internal/tcp && "$GATE_DIR/new/tcp.test" -test.run '^$' -test.bench 'BenchmarkIdleConnHeap$' -test.benchtime 1x |
  awk '$1 ~ /^BenchmarkIdleConnHeap/ { for (i = 1; i < NF; i++) if ($(i+1) == "heap-B/pair") print $i }')
gate "tcp static write, 512 KiB body" B/op "$NEW_TCP_STATIC_B" "$(recorded tcp_static_512k_B_op)" lower
gate "idle tcp conn pair" B "$NEW_IDLE_B" "$(recorded tcp_idle_conn_pair_heap_bytes)" lower
gate "mflow heap per flow" B "$NEW_MFLOW_B" "$(recorded mflow_mem_bytes_per_flow)" lower
go test -c -o "$GATE_DIR/new/httpsim.test" ./internal/httpsim/
NEW_FETCH_B=$(cd internal/httpsim && "$GATE_DIR/new/httpsim.test" -test.run '^$' -test.bench 'BenchmarkClientFetch/512k$' -test.benchmem -test.count 2 |
  awk '$1 ~ /^BenchmarkClientFetch\/512k/ { for (i = 1; i < NF; i++) if ($(i+1) == "B/op" && (min == "" || $i+0 < min+0)) min = $i } END { print min }')
gate "client fetch, 512 KiB body" B/op "$NEW_FETCH_B" "$(recorded client_fetch_512k_B_op)" lower
# The round-trip figure is a deterministic count of the simulation —
# TCPStore round trips per paper-mode flow — so any rise fails, not a 15 %
# one: it moves only when the store path sends more commands per flow.
NEW_RT_PAPER=$(cd internal/core && "$GATE_DIR/new/core.test" -test.run '^$' -test.bench 'BenchmarkStoreRoundTripsPerFlow/mode=paper$' -test.benchtime 1x |
  awk '$1 ~ /^BenchmarkStoreRoundTripsPerFlow\/mode=paper/ { for (i = 1; i < NF; i++) if ($(i+1) == "roundtrips/flow") print $i }')
awk -v new="$NEW_RT_PAPER" -v rec="$(recorded storage_roundtrips_per_flow_paper)" 'BEGIN{
  if (new == "" || new+0 > rec+0) { printf "FAIL: store round trips per paper flow %s vs recorded %s (any rise fails)\n", new, rec; exit 1 }
  printf "store round trips per paper flow %s vs recorded %s: ok\n", new, rec }' || exit 1
# So is the bytes a CPU meter holds: its struct, however long it has
# been charged. Any rise fails: a meter that keeps history again is
# 14 of them in every yodabench cluster.
NEW_CPUMETER_B=$(go test -run '^$' -bench 'BenchmarkCPUMeterCharge$' -benchtime 1000x ./internal/metrics/ |
  awk '$1 ~ /^BenchmarkCPUMeterCharge/ { for (i = 1; i < NF; i++) if ($(i+1) == "B/meter") print $i }')
awk -v new="$NEW_CPUMETER_B" -v rec="$(recorded cpumeter_bytes_held)" 'BEGIN{
  if (new == "" || new+0 > rec+0) { printf "FAIL: CPU meter holds %s B vs recorded %s (any rise fails)\n", new, rec; exit 1 }
  printf "CPU meter holds %s B vs recorded %s: ok\n", new, rec }' || exit 1
# no_rise <log> <field>...: fail when a "ledger <field> <value>" line of
# log is missing or its value is above the field's BENCH_core.json record.
no_rise() {
  local log=$1 field
  shift
  for field; do
    awk -v new="$(awk -v k="$field" '$2 == "ledger" && $3 == k { print $4 }' <<< "$log")" \
        -v rec="$(recorded "$field")" -v label="$field" 'BEGIN{
      if (new == "" || new+0 > rec+0) { printf "FAIL: %s %s vs recorded %s (any rise fails)\n", label, new, rec; exit 1 }
      printf "%s %s vs recorded %s: ok\n", label, new, rec }' || exit 1
  done
}
LAYERS=(netsim l4lb core tcp tcpstore memcache httpsim other)
# So is the request ledger — objects one warm 2 KiB request allocates
# through the real stack (ledger_test.go) — and a rise of its total or of
# any layer's row fails as well, so an allocation that moves between
# layers cannot hide a rise in one of them; the test itself fails unless
# its rows sum to the total.
REQUEST_LOG=$(go test -count=1 -run '^TestRequestAllocLedger$' -v .) ||
  { printf '%s\n' "$REQUEST_LOG"; echo 'FAIL: TestRequestAllocLedger'; exit 1; }
no_rise "$REQUEST_LOG" request_allocs "${LAYERS[@]/#/request_allocs_}"
# And the adoption ledger's (ledger_test.go): objects and store commands
# one adoption costs beyond a no-kill probe, per recovery mode, exact
# counts of the simulation. Any rise fails; the test itself fails unless
# its rows sum to its total and a paper adoption stays within 1 object
# of the flow it creates.
ADOPTION_LOG=$(go test -count=1 -run '^TestAdoptionAllocLedger$' -v .) ||
  { printf '%s\n' "$ADOPTION_LOG"; echo 'FAIL: TestAdoptionAllocLedger'; exit 1; }
no_rise "$ADOPTION_LOG" adoption_allocs_paper adoption_allocs_hybrid adoption_store_cmds_paper adoption_store_cmds_hybrid
# And the heap ledger's (ledger_test.go): heap bytes one idle keep-alive
# flow holds, in total and per layer, after its first request and again
# after a second, which read the same on every run of a tree (the
# repeatability stage below checks it). Any rise fails; the test itself
# fails unless its rows sum to HeapAlloc's growth, less the runtime's own
# allocations, within the slack it states, and unless the second reading
# stays within that slack of the first.
HEAP_LOG=$(go test -count=1 -run '^TestLiveFlowHeapLedger$' -v .) ||
  { printf '%s\n' "$HEAP_LOG"; echo 'FAIL: TestLiveFlowHeapLedger'; exit 1; }
no_rise "$HEAP_LOG" flow_heap_bytes "${LAYERS[@]/#/flow_heap_bytes_}" \
  flow_heap_bytes_again "${LAYERS[@]/#/flow_heap_bytes_again_}"
# And the set-up heap ledger's (ledger_test.go): heap bytes the request
# ledger's testbed holds once warm, in total and per layer. Any rise
# fails; the test itself fails unless its rows sum to HeapAlloc's growth,
# less the runtime's own allocations, within the same slack.
CLUSTER_LOG=$(go test -count=1 -run '^TestClusterHeapLedger$' -v .) ||
  { printf '%s\n' "$CLUSTER_LOG"; echo 'FAIL: TestClusterHeapLedger'; exit 1; }
no_rise "$CLUSTER_LOG" cluster_heap_bytes "${LAYERS[@]/#/cluster_heap_bytes_}"
# And the long-run heap ledger's (ledger_test.go): heap bytes per 10^5
# requests a cluster serving 256 closed-loop clients gains at zero live
# flows over phases 2-6 of six, the slope of five readings. A cluster
# whose heap follows its flows reads near zero, but the buffer pool's
# bins (netsim) and the store clients' spare ops (tcpstore) settle by a
# few KB either way after the first phase's burst: seeds 5-8 read
# -3.1 to -17.4 KB in netsim and -0.6 to +0.9 KB in tcpstore, and a tree
# that moves event order moves them as much. So the total is held to an
# absolute ceiling, not to its recorded value; a leak or a ratchet of
# 1 KB per 10^5 requests fails it. Every other row reads within 512 B of
# zero on all four seeds (memcache 179 at most, l4lb 0 since its
# affinity table shrinks), and is held there.
LONGRUN_LOG=$(go test -count=1 -run '^TestLongRunHeapLedger$' -v .) ||
  { printf '%s\n' "$LONGRUN_LOG"; echo 'FAIL: TestLongRunHeapLedger'; exit 1; }
awk '$2 == "ledger" && $3 == "longrun_heap_bytes_per_1e5_req" { seen = 1
    if ($4 + 0 > 1024) { printf "FAIL: %s %s B, past the ceiling of 1024 B per 10^5 requests\n", $3, $4; exit 1 }
    printf "%s %s B vs ceiling 1024 B per 10^5 requests: ok\n", $3, $4 }
  $2 == "ledger" && $3 ~ /^longrun_heap_bytes_per_1e5_req_(l4lb|core|tcp|memcache|httpsim|other)$/ { rows++
    if ($4 + 0 > 512 || $4 + 0 < -512) { printf "FAIL: %s %s B, past 512 B of zero per 10^5 requests\n", $3, $4; exit 1 }
    printf "%s %s B within 512 B of zero per 10^5 requests: ok\n", $3, $4 }
  END { if (!seen || rows != 6) { print "FAIL: longrun_heap_bytes_per_1e5_req lines missing"; exit 1 } }' <<< "$LONGRUN_LOG" || exit 1
# And the storm heap ledger's (ledger_test.go): heap bytes a failover
# storm of 4,096 keep-alive flows leaves behind at zero live flows. The
# test itself fails past its ceiling (stormHeapCeiling, 2,700,000 B: this
# tree reads 2,635,200; a tree that keeps slab pages, the store index,
# the hosts' connection tables and the flow index at the storm's peak
# reads 6,464,048); any rise of the total or a row over BENCH_core.json
# fails here too.
STORM_LOG=$(go test -count=1 -run '^TestStormHeapLedger$' -v .) ||
  { printf '%s\n' "$STORM_LOG"; echo 'FAIL: TestStormHeapLedger'; exit 1; }
no_rise "$STORM_LOG" storm_heap_bytes "${LAYERS[@]/#/storm_heap_bytes_}"

echo "== ledger repeatability (each ledger 3 times in one process: every row and total the same in every run) =="
# Every "ledger" line counts, the heap ledger's second reading
# (flow_heap_bytes_again) included. The gates above compare one run with
# BENCH_core.json, which is only
# sound if a tree reads the same every time. It does because the packet
# path makes no interface type assertion (the runtime fills its
# assertion caches at random moments) and holds no Go map (whose layout
# follows a per-process hash seed), and the heap ledger leaves out what
# the runtime allocates for itself; a change that brings one back moves
# a row between runs, and fails here.
REPEAT_LOG=$(go test -count=3 -run '^(TestRequestAllocLedger|TestAdoptionAllocLedger|TestLiveFlowHeapLedger|TestClusterHeapLedger|TestStormHeapLedger)$' -v .) ||
  { printf '%s\n' "$REPEAT_LOG"; echo 'FAIL: a ledger test'; exit 1; }
awk '$2 == "ledger" {
    if (($3 in v) && v[$3] != $4) { printf "FAIL: ledger %s read %s and then %s on one tree\n", $3, v[$3], $4; bad = 1 }
    v[$3] = $4; n++ }
  END { if (!bad) printf "%d ledger readings over 3 runs, each row the same in every run: ok\n", n; exit bad }' <<< "$REPEAT_LOG" || exit 1

echo "== format + vet clean sweep (gofmt -s -l, go vet ./...) =="
# Formatting drift and vet findings are the cheapest checks in the file;
# run them before anything that compiles or executes tests.
if unformatted=$(gofmt -s -l *.go cmd examples internal scripts 2>/dev/null); [ -n "$unformatted" ]; then
  echo "FAIL: gofmt -s -l reports unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi
go vet ./...

FASTFAIL_PKGS="./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/controller/ ./internal/stateless/ ./internal/tcp/ ./internal/netsim/ ./internal/metrics/"
echo "== dataplane fast-fail (vet + race on $FASTFAIL_PKGS) =="
# The compact flow-map layer, the compiled rule engine, the request
# parser it reads through, the write-barrier dataplane, the L4 mux
# refactored onto the flow map, its store client, the zero-copy
# memcached protocol+engine under it, the live reconfiguration engine
# and the controller that drives it, the stateless derivation table the
# hybrid recovery mode trusts, the TCP endpoint and event loop every
# packet of every one of them crosses, and the histograms and meters
# every layer records into are where regressions bite hardest; vet and
# race them first so a broken index, barrier, parser, cookie decode, ACK
# or quantile fails in seconds, not after the full suite.
go vet $FASTFAIL_PKGS
go test -race $FASTFAIL_PKGS
# Every client, backend and instance reads HTTP through one streaming
# codec; ten seconds of new-vs-reference fuzzing over fresh inputs is
# cheap next to what a framing bug costs everything downstream.
go test -run '^$' -fuzz 'FuzzHTTPCodecDifferential' -fuzztime 10s -fuzzminimizetime 2s ./internal/httpsim/
# Every layer's timers and every packet go through one timing wheel whose
# contract is the order of a plain (at, seq) heap; ten seconds of random
# schedule/stop/run scripts against that heap, delays from 0 to months.
go test -run '^$' -fuzz 'FuzzSchedulerOrder' -fuzztime 10s -fuzzminimizetime 2s ./internal/netsim/
# Same-instant deliveries ride one record as a packet train, and the
# batch path hands a train's runs to a node in one call; ten seconds
# each of trains against one record per delivery, and of batch TCP
# against per-segment TCP over the same trains.
go test -run '^$' -fuzz 'FuzzBurstDispatch' -fuzztime 10s -fuzzminimizetime 2s ./internal/netsim/
go test -run '^$' -fuzz 'FuzzBatchDispatchDifferential' -fuzztime 10s -fuzzminimizetime 2s ./internal/tcp/
# Every record the dataplane persists goes through one protocol session;
# ten seconds of arbitrary byte streams, arbitrarily chunked, against the
# reference parser: same replies, same engine state.
go test -run '^$' -fuzz 'FuzzMemcacheSessionDifferential' -fuzztime 10s -fuzzminimizetime 2s ./internal/memcache/

echo "== rng + dead-export + write-only-state + one-valued-option + spec + lifecycle-seam + G1′ lints + trace monitor (grep fast-fail; TestNoStrayRNGConstruction, TestNoDeadExports, TestNoWriteOnlyState, TestNoOneValuedOption, TestSpecLint, TestOneLifecycleSeam and TestG1PrimeLint are the test halves; TestMonitorCatches holds the G1/G3 monitor to hand-built traces) =="
# Only netsim (the network's RNG) and the trial-level drivers may construct
# generators; dataplane components must cache Network.Rand at build time.
if grep -rn --include='*.go' 'rand\.New(' cmd examples internal *.go 2>/dev/null \
  | grep -v '_test\.go:' \
  | grep -Ev '^internal/(netsim|trace|experiments)/'; then
  echo "FAIL: rand.New outside the netsim/trace/experiments allowlist" >&2
  exit 1
fi
# Every exported func, method and type under internal/ has a non-test
# caller, every struct field a non-test reader, and every field of a
# component config a second value from non-test code, or an allowlist
# entry that says why it stays (deadlint_test.go). Every test and
# command flag the docs name exists, every guarantee names its tests,
# the module map matches the tree and the figures table quotes the
# golden (speclint_test.go).
go test -run 'TestNoDeadExports|TestNoWriteOnlyState|TestWriteOnlyClassifier|TestNoOneValuedOption|TestOneValuedOptionClassifier|TestNoStrayRNGConstruction|TestSpecLint|TestSpecLintCatches' .
# In core, only setState writes a flow's state and only note increments a
# lifecycle outcome counter; every event has a name of its own in
# eventNames, the name tests count its notes by (internal/core/seam_test.go).
# Beside it, every in.packet call in core names what covers the segment
# under G1′ (barrier, derivation, after commit or no state; g1lint_test.go),
# and the trace monitor the e2e tests and sweeps run under raises exactly
# one breach of each of its rules on a hand-built trace, and none on a
# clean one (internal/core/notes_test.go).
go test -run 'TestOneLifecycleSeam|TestMonitorCatches' ./internal/core/
go test -run 'TestG1PrimeLint' .

echo "== coverage ratchet (no internal/core or internal/l4lb function at 0.0 % under its own package's tests, outside the allowlist) =="
# The dataplane's code paths each have a test that runs them: a function
# no test of its own package reaches lands with one, or here with the
# reason it has none. Entries are "name: reason"; today there are none.
COVER_ALLOW=()
printf '%s\n' "${COVER_ALLOW[@]}" | cut -d: -f1 > "$GATE_DIR/cover_allow"
uncovered=""
for pkg in core l4lb; do
  go test -count=1 -coverprofile="$GATE_DIR/$pkg.cover" "./internal/$pkg/" > /dev/null
  uncovered+="$(go tool cover -func="$GATE_DIR/$pkg.cover" | awk '$NF == "0.0%" { print $2 }')"$'\n'
done
missing=$(grep -vxF -f "$GATE_DIR/cover_allow" <<< "$uncovered" | grep . || true)
if [[ -n "$missing" ]]; then
  echo "FAIL: internal/core or internal/l4lb functions no test of their package runs (add a test, or an allowlist entry with its reason):" >&2
  echo "$missing" >&2
  exit 1
fi
echo "at 0.0 %, allowlisted: $(echo $uncovered)"

echo "== go build =="
go build ./...

echo "== examples (quickstart and secureservice print what the README promises) =="
# Both run a cluster end to end through the public facade and kill an
# instance mid-flow; each must print the lines that say the flow survived.
go run ./examples/quickstart | tee "$GATE_DIR/quickstart"
go run ./examples/secureservice | tee "$GATE_DIR/secureservice"
for want in "quickstart:survived the failure" \
  "quickstart:flows recovered from TCPStore by surviving instances: 1" \
  "secureservice:intact=true" "secureservice:certificate mismatch"; do
  grep -qF "${want#*:}" "$GATE_DIR/${want%%:*}" || { echo "FAIL: ${want%%:*} did not print '${want#*:}'" >&2; exit 1; }
done

echo "== figure golden (yodasim -exp all -seed 1 vs testdata/all_seed1.golden) =="
# Every figure is a seeded virtual-time run, so its printed output is a
# function of the code alone: any diff here is a behaviour change that has
# to be explained, and a re-recorded golden is part of that change.
go run ./cmd/yodasim -exp all -seed 1 | diff - internal/experiments/testdata/all_seed1.golden

echo "== figure claims at seeds 2-5 (TestFigureClaims -claims.output, verdicts printed per seed) =="
# The golden pins seed 1; EXPERIMENTS.md reports every verdict at seeds
# 1-5 and names a verdict that flips between them. Each seed's output is
# judged by the same checks; a check whose line is missing fails, a
# verdict is only printed.
go build -o "$GATE_DIR/yodasim" ./cmd/yodasim
for seed in 2 3 4 5; do
  "$GATE_DIR/yodasim" -exp all -seed "$seed" > "$GATE_DIR/all_seed$seed"
  CLAIMS_LOG=$(go test -count=1 -run '^TestFigureClaims$' -v ./internal/experiments/ -claims.output="$GATE_DIR/all_seed$seed") ||
    { printf '%s\n' "$CLAIMS_LOG"; echo "FAIL: TestFigureClaims at seed $seed"; exit 1; }
  awk -v seed="$seed" '$2 == "verdict" { $1 = $2 = ""; sub(/^ +/, ""); print "seed " seed ": " $0 }' <<< "$CLAIMS_LOG"
done

echo "== mflow hybrid (yodasim -exp mflow -recovery hybrid must end PASS) =="
# Hybrid recovery at scale: every flow of a two-instance storm is adopted
# once, from its record or derived from its one dead head, and the
# cluster returns to baseline — no flow entry, store record, pending
# event or mux affinity entry left. The summary's last line before perf:
# is PASS or a FAIL: list.
go run ./cmd/yodasim -exp mflow -recovery hybrid | tee "$GATE_DIR/mflow_hybrid"
grep -qx '  PASS' "$GATE_DIR/mflow_hybrid" || { echo "FAIL: hybrid mflow did not pass" >&2; exit 1; }

echo "== kill schedules (TestKillSchedules over seeds 11-15; TestDefectTimelines) =="
# The explorer (internal/core/explore_test.go) replays every shape's
# schedules from a fresh bed, both recovery modes: the owner of a fetch
# killed after each step (seeds 11-15 always), then each of the 24
# packets after the kill lost, duplicated, held behind the next, or
# followed by a kill of the tuple's holder or a detach of its store
# server, and each instance killed after every step of a keep-alive
# switch and a TLS flow. go test runs two seeds of drops and one of the
# other shapes; this stage runs five. Every run passes the explorer's
# oracle (breach): the clients' bytes intact, nothing left at settle, and
# no breach of G1 or G3 from its trace monitor, except at the pins of
# defect (k), which must show exactly its breaches. A failing run prints
# its schedule line and timeline. TestDefectTimelines replays each pin.
go test -count=1 -run 'TestKillSchedules|TestDefectTimelines' ./internal/core/ -killdrop.seeds=5

echo "== go test -race =="
go test -race ./...

echo "== benchmarks (1 iteration, smoke) =="
go test -run '^$' -bench '.' -benchtime=1x \
  -skip 'BenchmarkFig10|BenchmarkFig12|BenchmarkFig13' \
  ./... 2>/dev/null | grep -E '^(Benchmark|ok|FAIL)' || true

echo "== bench module smoke (cd bench && go test ./...) =="
# bench/ is a module of its own, so the root `go test ./...` never
# compiles it; without this stage an API break against the frozen
# benchmark would surface only in the pipeline. It runs last: its
# TestRefLoopAllocs fails on some 2-vCPU boxes (ROADMAP), and under
# set -e a failure here must not hide the stages above.
(cd bench && go test ./...)

echo "CI PASS"
