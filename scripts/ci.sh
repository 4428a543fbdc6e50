#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging.
#
# Usage: scripts/ci.sh
#
#   1. bench regression gate  the seven wall-clock figures against the base
#                             commit, built and run in this same run; the
#                             four exact figures against BENCH_core.json.
#                             First, while the box is cold: behind the race
#                             and fuzz stages the same binaries read 30-60 %
#                             slower
#   2. gofmt -s -l + go vet   formatting and static checks, whole tree
#   3. fast-fail stages       vet + race on the hottest packages, 10 s
#                             each of the HTTP codec's, the scheduler's,
#                             the packet trains', the TCP batch path's
#                             and the memcached session's differential
#                             fuzzers, and the RNG, dead-export and
#                             lifecycle-seam lints
#      core coverage ratchet  every function of internal/core runs under
#                             core's own tests, or is allowlisted with
#                             its reason
#   4. go build               everything compiles, including cmd/
#   5. examples               quickstart and secureservice run and print
#                             that their flow survived the instance kill
#   6. bench module smoke     bench/ has its own go.mod; its ~3 s test
#                             compiles yodabench against this tree
#   7. figure golden          `yodasim -exp all -parallel -seed 1` is
#                             byte-identical to the checked-in 655 lines
#   8. mflow hybrid           `yodasim -exp mflow -recovery hybrid` (32,768
#                             flows, 2 of 8 instances killed) ends PASS
#   9. go test -race          full suite under the race detector
#  10. benchmarks             every Benchmark* compiles and runs one
#      iteration (the heavy figure benchmarks are excluded by name; run
#      scripts/bench.sh for real numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench regression gate (wall clock: median of 5 pairs vs the base commit, >15% fails; exact: >15% vs BENCH_core.json fails, any rise of the round-trip count) =="
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
# Four figures are exact and stay absolute against BENCH_core.json: the
# 512 KiB static write's B/op (a copy of the body would be 500 times it),
# an idle TCP connection pair's heap, a warm client's 512 KiB fetch's
# B/op (a body array made per response instead of lent from the client's
# pool would be ~280 times it), and TCPStore round trips per paper-mode
# flow (a count: any rise fails). `scripts/bench.sh --only
# tcp_static_512k_B_op,tcp_idle_conn_pair_heap_bytes,client_fetch_512k_B_op,storage_roundtrips_per_flow_paper`
# re-records just those after an intentional change.
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
          $1 ~ /^BenchmarkMflowMemPerFlow/ { print at, "mflow_events/s", unit("events/s") }
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
NEW_IDLE_B=$(cd internal/tcp && "$GATE_DIR/new/tcp.test" -test.run '^$' -test.bench 'BenchmarkIdleConnHeap$' -test.benchtime 1x |
  awk '$1 ~ /^BenchmarkIdleConnHeap/ { for (i = 1; i < NF; i++) if ($(i+1) == "heap-B/pair") print $i }')
gate "tcp static write, 512 KiB body" B/op "$NEW_TCP_STATIC_B" "$(recorded tcp_static_512k_B_op)" lower
gate "idle tcp conn pair" B "$NEW_IDLE_B" "$(recorded tcp_idle_conn_pair_heap_bytes)" lower
go test -c -o "$GATE_DIR/new/httpsim.test" ./internal/httpsim/
NEW_FETCH_B=$(cd internal/httpsim && "$GATE_DIR/new/httpsim.test" -test.run '^$' -test.bench 'BenchmarkClientFetch/512k$' -test.benchmem -test.count 2 |
  awk '$1 ~ /^BenchmarkClientFetch\/512k/ { for (i = 1; i < NF; i++) if ($(i+1) == "B/op" && (min == "" || $i+0 < min+0)) min = $i } END { print min }')
gate "client fetch, 512 KiB body" B/op "$NEW_FETCH_B" "$(recorded client_fetch_512k_B_op)" lower
# The fourth exact figure is a deterministic count of the simulation —
# TCPStore round trips per paper-mode flow — so any rise fails, not a 15 %
# one: it moves only when the store path sends more commands per flow.
NEW_RT_PAPER=$(cd internal/core && "$GATE_DIR/new/core.test" -test.run '^$' -test.bench 'BenchmarkStoreRoundTripsPerFlow/mode=paper$' -test.benchtime 1x |
  awk '$1 ~ /^BenchmarkStoreRoundTripsPerFlow\/mode=paper/ { for (i = 1; i < NF; i++) if ($(i+1) == "roundtrips/flow") print $i }')
awk -v new="$NEW_RT_PAPER" -v rec="$(recorded storage_roundtrips_per_flow_paper)" 'BEGIN{
  if (new == "" || new+0 > rec+0) { printf "FAIL: store round trips per paper flow %s vs recorded %s (any rise fails)\n", new, rec; exit 1 }
  printf "store round trips per paper flow %s vs recorded %s: ok\n", new, rec }' || exit 1

echo "== format + vet clean sweep (gofmt -s -l, go vet ./...) =="
# Formatting drift and vet findings are the cheapest checks in the file;
# run them before anything that compiles or executes tests.
if unformatted=$(gofmt -s -l *.go cmd examples internal scripts 2>/dev/null); [ -n "$unformatted" ]; then
  echo "FAIL: gofmt -s -l reports unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi
go vet ./...

echo "== dataplane fast-fail (vet + race on flowmap/rules/httpsim/core/l4lb/tcpstore/memcache/reconfig/controller/adminapi/stateless/tcp/netsim) =="
# The compact flow-map layer, the compiled rule engine, the request
# parser it reads through, the write-barrier dataplane, the L4 mux
# refactored onto the flow map, its store client, the zero-copy
# memcached protocol+engine under it, the live reconfiguration engine
# with the controller and admin server that share its single-flight
# state (the server drives it from HTTP goroutines under its lock),
# the stateless derivation table the hybrid recovery mode trusts, and
# the TCP endpoint and event loop every packet of every one of them
# crosses are where regressions bite hardest; vet and race them first
# so a broken index, barrier, parser, cookie decode or ACK fails in
# seconds, not after the full suite.
go vet ./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/controller/ ./internal/adminapi/ ./internal/stateless/ ./internal/tcp/ ./internal/netsim/
go test -race ./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/controller/ ./internal/adminapi/ ./internal/stateless/ ./internal/tcp/ ./internal/netsim/
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

echo "== rng + dead-export + lifecycle-seam lints (grep fast-fail; TestNoStrayRNGConstruction, TestNoDeadExports and TestOneLifecycleSeam are the test halves) =="
# Only netsim (the network's RNG) and the trial-level drivers may construct
# generators; dataplane components must cache Network.Rand at build time.
if grep -rn --include='*.go' 'rand\.New(' cmd examples internal *.go 2>/dev/null \
  | grep -v '_test\.go:' \
  | grep -Ev '^internal/(netsim|trace|experiments)/'; then
  echo "FAIL: rand.New outside the netsim/trace/experiments allowlist" >&2
  exit 1
fi
# Every exported func, method and type under internal/ has a non-test
# caller or an allowlist entry that says why it stays (deadlint_test.go).
go test -run 'TestNoDeadExports|TestNoStrayRNGConstruction' .
# In core, only setState writes a flow's state and only note increments a
# lifecycle outcome counter (internal/core/seam_test.go).
go test -run 'TestOneLifecycleSeam' ./internal/core/

echo "== core coverage ratchet (no internal/core function at 0.0 % under core's own tests, outside the allowlist) =="
# The dataplane's code paths each have a test that runs them: a function
# no test of internal/core reaches lands with one, or here with the
# reason it has none. Entries are "name: reason".
COVER_ALLOW=(
  "hybridKnockConfirm: a client-side orphan that finds its backend's knock already queued needs both halves of one dead owner's flow at one survivor within one store round trip, which is what ROADMAP item 2 builds"
)
go test -count=1 -coverprofile="$GATE_DIR/core.cover" ./internal/core/ > /dev/null
uncovered=$(go tool cover -func="$GATE_DIR/core.cover" | awk '$NF == "0.0%" { print $2 }')
printf '%s\n' "${COVER_ALLOW[@]}" | cut -d: -f1 > "$GATE_DIR/cover_allow"
missing=$(grep -vxF -f "$GATE_DIR/cover_allow" <<< "$uncovered" | grep . || true)
if [[ -n "$missing" ]]; then
  echo "FAIL: internal/core functions no core test runs (add a test, or an allowlist entry with its reason):" >&2
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

echo "== bench module smoke (cd bench && go test ./...) =="
# bench/ is a module of its own, so the root `go test ./...` never
# compiles it; without this stage an API break against the frozen
# benchmark would surface only in the pipeline.
(cd bench && go test ./...)

echo "== figure golden (yodasim -exp all -parallel -seed 1 vs testdata/all_seed1.golden) =="
# Every figure is a seeded virtual-time run, so its printed output is a
# function of the code alone: any diff here is a behaviour change that has
# to be explained, and a re-recorded golden is part of that change.
go run ./cmd/yodasim -exp all -parallel -seed 1 | diff - internal/experiments/testdata/all_seed1.golden

echo "== mflow hybrid (yodasim -exp mflow -recovery hybrid must end PASS) =="
# Hybrid recovery at scale: every flow of a two-instance storm is adopted
# once, from its record or derived from its one dead head, and the
# cluster returns to baseline. The summary's last line before perf: is
# PASS or a FAIL: list.
go run ./cmd/yodasim -exp mflow -recovery hybrid | tee "$GATE_DIR/mflow_hybrid"
grep -qx '  PASS' "$GATE_DIR/mflow_hybrid" || { echo "FAIL: hybrid mflow did not pass" >&2; exit 1; }

echo "== go test -race =="
go test -race ./...

echo "== benchmarks (1 iteration, smoke) =="
go test -run '^$' -bench '.' -benchtime=1x \
  -skip 'BenchmarkFig10|BenchmarkFig12|BenchmarkFig13' \
  ./... 2>/dev/null | grep -E '^(Benchmark|ok|FAIL)' || true

echo "CI PASS"
