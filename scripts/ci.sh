#!/usr/bin/env bash
# ci.sh — the checks a change must pass before merging.
#
#   1. bench regression gate  nine gates against BENCH_core.json, first,
#                             while the box is cold: behind the race and
#                             fuzz stages the same binaries read 30-60 %
#                             slower, on parent and change alike
#   2. gofmt -s -l + go vet   formatting and static checks, whole tree
#   3. fast-fail stages       vet + race on the hottest packages, 10 s
#                             each of the HTTP codec's, the scheduler's,
#                             the packet trains', the TCP batch path's
#                             and the memcached session's differential
#                             fuzzers, and the RNG and dead-export lints
#   4. go build               everything compiles, including cmd/
#   5. bench module smoke     bench/ has its own go.mod; its ~3 s test
#                             compiles yodabench against this tree
#   6. figure golden          `yodasim -exp all -parallel -seed 1` is
#                             byte-identical to the checked-in 609 lines
#   7. go test -race          full suite under the race detector
#   8. benchmarks             every Benchmark* compiles and runs one
#      iteration (the heavy figure benchmarks are excluded by name; run
#      scripts/bench.sh for real numbers)
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== bench regression gate (>15% vs BENCH_core.json fails) =="
# Guard the dataplane's headline numbers: the event-loop, loaded
# timer-churn and flow fast-path microbenchmarks may not regress more
# than 15% over the recorded ns/op, and mflow events/s (the real stack
# behind scripted endpoints, 32,768 flows) plus TCP bulk
# MB/s (64 KiB writes, whose array the buffer pool recycles, 256 KiB
# writes, whose array the connection has to keep, and a 512 KiB body
# served in place on a connection of its own) must stay within 15%
# of the recorded rates, that static write may not allocate more than
# 15% over the recorded B/op (a copy of the body would be 500 times
# that), and an idle TCP
# connection pair may not hold more than 15% over the recorded heap (an
# exact figure: one run). Best-of-3 runs absorb machine noise — best-of-5
# for the two ns/op gates that have read 15-30% high inside a full run on
# parent and change alike — and the section runs first: sixty seconds of
# race detector and fuzzing ahead of it cost the event loop 55 against
# 41 ns/op. After an intentional perf change, re-baseline with
# scripts/bench.sh.
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
REC_EVLOOP_NS=$(awk -F'[:,]' '/"event_loop_ns_op"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_MFLOW_EPS=$(awk -F'[:,]' '/"mflow_events_per_s"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_FLOW_NS=$(awk -F'[:,]' '/"flow_fast_path_ns_op"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_TCP_MBS=$(awk -F'[:,]' '/"tcp_throughput_MB_s"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_TCP_256K_MBS=$(awk -F'[:,]' '/"tcp_throughput_256k_MB_s"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_TCP_STATIC_MBS=$(awk -F'[:,]' '/"tcp_static_512k_MB_s"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_TCP_STATIC_B=$(awk -F'[:,]' '/"tcp_static_512k_B_op"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_TIMER_NS=$(awk -F'[:,]' '/"timer_churn_backlog64k_ns_op"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
REC_IDLE_B=$(awk -F'[:,]' '/"tcp_idle_conn_pair_heap_bytes"/ {gsub(/[ "]/,"",$2); print $2; exit}' BENCH_core.json 2>/dev/null || true)
if [[ -z "${REC_EVLOOP_NS:-}" || "$REC_EVLOOP_NS" == "null" || -z "${REC_MFLOW_EPS:-}" || "$REC_MFLOW_EPS" == "null" ]]; then
  echo "SKIP: BENCH_core.json lacks recorded event_loop_ns_op / mflow_events_per_s"
else
  GATE_LOG="$(mktemp)"
  go test -run '^$' -bench 'BenchmarkNetsimEventLoop$' -count=5 ./internal/netsim/ | tee "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkNetsimTimerChurn/backlog=64k' -count=3 ./internal/netsim/ | tee -a "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkMflowMemPerFlow' -benchtime 1x -count=3 ./internal/experiments/ | tee -a "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkFlowFastPath$' -count=5 ./internal/core/ | tee -a "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkTCPThroughput$' -count=3 ./internal/tcp/ | tee -a "$GATE_LOG"
  go test -run '^$' -bench 'BenchmarkIdleConnHeap$' -benchtime 1x ./internal/tcp/ | tee -a "$GATE_LOG"
  NEW_EVLOOP_NS=$(awk '$1 ~ /^BenchmarkNetsimEventLoop/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
  NEW_TIMER_NS=$(awk '$1 ~ /^BenchmarkNetsimTimerChurn\/backlog=64k/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
  NEW_MFLOW_EPS=$(awk '$1 ~ /^BenchmarkMflowMemPerFlow/ {for(i=1;i<NF;i++) if($(i+1)=="events/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
  NEW_FLOW_NS=$(awk '$1 ~ /^BenchmarkFlowFastPath/ {if (min=="" || $3+0<min+0) min=$3} END{print min}' "$GATE_LOG")
  NEW_TCP_MBS=$(awk '$1 ~ /^BenchmarkTCPThroughput\/chunk=64k/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
  NEW_TCP_256K_MBS=$(awk '$1 ~ /^BenchmarkTCPThroughput\/chunk=256k/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
  NEW_TCP_STATIC_MBS=$(awk '$1 ~ /^BenchmarkTCPThroughput\/static=512k/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s" && $i+0>max+0) max=$i} END{print max}' "$GATE_LOG")
  NEW_TCP_STATIC_B=$(awk '$1 ~ /^BenchmarkTCPThroughput\/static=512k/ {for(i=1;i<NF;i++) if($(i+1)=="B/op" && (min=="" || $i+0<min+0)) min=$i} END{print min}' "$GATE_LOG")
  NEW_IDLE_B=$(awk '$1 ~ /^BenchmarkIdleConnHeap/ {for(i=1;i<NF;i++) if($(i+1)=="heap-B/pair") print $i}' "$GATE_LOG" | head -1)
  rm -f "$GATE_LOG"
  gate "event loop" ns/op "$NEW_EVLOOP_NS" "$REC_EVLOOP_NS" lower
  gate "mflow" events/s "$NEW_MFLOW_EPS" "$REC_MFLOW_EPS" higher
  gate "timer churn, 64k backlog" ns/op "$NEW_TIMER_NS" "${REC_TIMER_NS:-}" lower
  gate "flow fast path" ns/op "$NEW_FLOW_NS" "${REC_FLOW_NS:-}" lower
  gate "tcp throughput" MB/s "$NEW_TCP_MBS" "${REC_TCP_MBS:-}" higher
  gate "tcp throughput, 256 KiB writes" MB/s "$NEW_TCP_256K_MBS" "${REC_TCP_256K_MBS:-}" higher
  gate "tcp static write, 512 KiB body" MB/s "$NEW_TCP_STATIC_MBS" "${REC_TCP_STATIC_MBS:-}" higher
  gate "tcp static write, 512 KiB body" B/op "$NEW_TCP_STATIC_B" "${REC_TCP_STATIC_B:-}" lower
  gate "idle tcp conn pair" B "$NEW_IDLE_B" "${REC_IDLE_B:-}" lower
fi

echo "== format + vet clean sweep (gofmt -s -l, go vet ./...) =="
# Formatting drift and vet findings are the cheapest checks in the file;
# run them before anything that compiles or executes tests.
if unformatted=$(gofmt -s -l *.go cmd examples internal scripts 2>/dev/null); [ -n "$unformatted" ]; then
  echo "FAIL: gofmt -s -l reports unformatted files:" >&2
  echo "$unformatted" >&2
  exit 1
fi
go vet ./...

echo "== dataplane fast-fail (vet + race on flowmap/rules/httpsim/core/l4lb/tcpstore/memcache/reconfig/stateless/tcp/netsim) =="
# The compact flow-map layer, the compiled rule engine, the request
# parser it reads through, the write-barrier dataplane, the L4 mux
# refactored onto the flow map, its store client, the zero-copy
# memcached protocol+engine under it, the live reconfiguration engine,
# the stateless derivation table the hybrid recovery mode trusts, and
# the TCP endpoint and event loop every packet of every one of them
# crosses are where regressions bite hardest; vet and race them first
# so a broken index, barrier, parser, cookie decode or ACK fails in
# seconds, not after the full suite.
go vet ./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/stateless/ ./internal/tcp/ ./internal/netsim/
go test -race ./internal/flowmap/ ./internal/rules/ ./internal/httpsim/ ./internal/core/ ./internal/l4lb/ ./internal/tcpstore/ ./internal/memcache/ ./internal/reconfig/ ./internal/stateless/ ./internal/tcp/ ./internal/netsim/
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

echo "== rng + dead-export lints (grep fast-fail; TestNoStrayRNGConstruction and TestNoDeadExports are the test halves) =="
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

echo "== go build =="
go build ./...

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

echo "== go test -race =="
go test -race ./...

echo "== benchmarks (1 iteration, smoke) =="
go test -run '^$' -bench '.' -benchtime=1x \
  -skip 'BenchmarkFig10|BenchmarkFig12|BenchmarkFig13' \
  ./... 2>/dev/null | grep -E '^(Benchmark|ok|FAIL)' || true

echo "CI PASS"
