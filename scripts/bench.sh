#!/usr/bin/env bash
# bench.sh — run the simulator-core performance suite and emit BENCH_core.json.
#
# Runs the microbenchmarks (event loop, timer churn, TCP throughput, flow
# fast path, whole-sim throughput) at full benchtime plus the three figure
# benchmarks (Fig 10/12/13) at one iteration each, then writes a JSON
# summary comparing against the recorded seed (pre-fast-path) baselines.
#
# Usage: scripts/bench.sh [--only field,field,...] [output.json]
#   FAST=1 scripts/bench.sh   # skip the figure benchmarks (~4 min saved)
#   --only records just the named "current" fields: it runs only the
#   benchmarks behind them and rewrites only their values in the existing
#   output file, leaving every other recorded number as it was.
set -euo pipefail
cd "$(dirname "$0")/.."

ONLY=""
if [[ "${1:-}" == "--only" ]]; then
  ONLY="${2:?--only needs a comma-separated field list}"
  shift 2
fi
OUT="${1:-BENCH_core.json}"
MICRO_LOG="$(mktemp)"
FIG_LOG="$(mktemp)"
NEW_JSON="$(mktemp)"
trap 'rm -f "$MICRO_LOG" "$FIG_LOG" "$NEW_JSON" "$NEW_JSON.out"' EXIT
# want <field>...: whether a stage feeding these fields runs (all do
# without --only).
want() {
  [[ -z "$ONLY" ]] && return 0
  local f
  for f in "$@"; do [[ ",$ONLY," == *",$f,"* ]] && return 0; done
  return 1
}

echo "== micro-benchmarks =="
want event_loop_ns_op event_loop_events_per_sec event_loop_allocs_op timer_churn_ns_op \
  timer_churn_backlog64k_ns_op host_demux_ns_op host_alloc_port_ns_op && go test -run '^$' -bench \
  'BenchmarkNetsimEventLoop|BenchmarkNetsimTimerChurn|BenchmarkHostDemux|BenchmarkHostAllocPort' \
  -benchmem ./internal/netsim/ | tee -a "$MICRO_LOG"
want tcp_throughput_MB_s tcp_throughput_256k_MB_s tcp_static_512k_MB_s tcp_static_512k_B_op \
  tcp_batch_rx_ns_seg tcp_scalar_rx_ns_seg && go test -run '^$' -bench 'BenchmarkTCPThroughput|BenchmarkTCPBatchRx' -benchmem \
  ./internal/tcp/ | tee -a "$MICRO_LOG"
want tcp_idle_conn_pair_heap_bytes && go test -run '^$' -bench 'BenchmarkIdleConnHeap' -benchtime 1x \
  ./internal/tcp/ | tee -a "$MICRO_LOG"
want cpumeter_bytes_per_busy_s && go test -run '^$' -bench 'BenchmarkCPUMeterCharge' \
  ./internal/metrics/ | tee -a "$MICRO_LOG"
want flow_fast_path_ns_op storage_write_ns_op storage_write_allocs_op &&
  go test -run '^$' -bench 'BenchmarkFlowFastPath|BenchmarkStorageWritePath' -benchmem \
  ./internal/core/ | tee -a "$MICRO_LOG"
want storage_roundtrips_per_flow_paper storage_roundtrips_per_flow_hybrid events_per_flow &&
  go test -run '^$' -bench 'BenchmarkStoreRoundTripsPerFlow|BenchmarkEventsPerFlow' -benchtime 1x \
  ./internal/core/ | tee -a "$MICRO_LOG"
want memcache_session_ns_op memcache_session_allocs_op memcache_session_reference_ns_op &&
  go test -run '^$' -bench 'BenchmarkMemcacheSession' -benchmem \
  ./internal/memcache/ | tee -a "$MICRO_LOG"
want simulator_throughput_ns_op && go test -run '^$' -bench 'BenchmarkSimulatorThroughput' -benchmem \
  . | tee -a "$MICRO_LOG"
want storage_b_batched_roundtrips_per_write storage_b_sequential_roundtrips_per_write \
  storage_b_batched_virtual_us storage_b_sequential_virtual_us &&
  go test -run '^$' -bench 'BenchmarkStorageB' -benchtime 2000x \
  ./internal/tcpstore/ | tee -a "$MICRO_LOG"
want rule_select_ns_op rule_select_allocs_op rule_select_reference_ns_op &&
  go test -run '^$' -bench 'BenchmarkRuleSelect(Reference)?/rules=1000$' \
  -benchmem ./internal/rules/ | tee -a "$MICRO_LOG"
want http_parse_request_ns_op http_parse_response_2k_ns_op http_feed_512k_allocs_op http_marshal_512k_bytes_op \
  client_fetch_512k_B_op &&
  go test -run '^$' -bench 'BenchmarkParseRequest|BenchmarkParseResponse2K|BenchmarkFeed512K|BenchmarkMarshal512K|BenchmarkClientFetch' \
  -benchmem ./internal/httpsim/ | tee -a "$MICRO_LOG"
want reconfig_migration_flows_per_s reconfig_drain_virtual_ms &&
  go test -run '^$' -bench 'BenchmarkReconfigMigration' -benchtime 3x \
  ./internal/reconfig/ | tee -a "$MICRO_LOG"
# Best-of-3 for mflow (the real stack at 32,768 flows; `flows` is
# recorded next to it): a single 1x run of a whole-sim benchmark swings
# ±20% with allocator/GC state.
want mflow_flows mflow_mem_bytes_per_flow mflow_events_per_s &&
  go test -run '^$' -bench 'BenchmarkMflowMemPerFlow' -benchtime 1x -count=3 \
  ./internal/experiments/ | tee -a "$MICRO_LOG"
want flowmap_lookup_ns_op flowmap_map_baseline_lookup_ns_op flowmap_lookup_allocs_op flowmap_churn_ns_op &&
  go test -run '^$' -bench 'BenchmarkFlowmapLookup|BenchmarkFlowmapChurn' -benchmem \
  ./internal/flowmap/ | tee -a "$MICRO_LOG"
want flowmap_bytes_per_flow flowmap_map_baseline_bytes_per_flow &&
  go test -run '^$' -bench 'BenchmarkFlowmapMemPerFlow' -benchtime 1x \
  ./internal/flowmap/ | tee -a "$MICRO_LOG"

if [[ "${FAST:-0}" != "1" ]] && want fig10_wall_s fig12_wall_s fig13_wall_s; then
  echo "== figure benchmarks (one run each; Fig13 takes minutes) =="
  go test -run '^$' -bench \
    'BenchmarkFig10TCPStoreLatency|BenchmarkFig12FailureRecovery|BenchmarkFig13Scalability' \
    -benchtime=1x -timeout 30m . | tee "$FIG_LOG"
fi

# pick <log> <BenchmarkName> <field-index-after-name>: extract one numeric
# column from a `go test -bench` output line.
pick() { awk -v b="$2" -v f="$3" '$1 ~ "^"b {print $(f)}' "$1" | head -1; }

EVLOOP_NS="$(pick "$MICRO_LOG" BenchmarkNetsimEventLoop 3)"
EVLOOP_EPS="$(pick "$MICRO_LOG" BenchmarkNetsimEventLoop 5)"
EVLOOP_ALLOCS="$(awk '$1 ~ /^BenchmarkNetsimEventLoop/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
TIMER_NS="$(pick "$MICRO_LOG" 'BenchmarkNetsimTimerChurn/backlog=0' 3)"
TIMER_BACKLOG_NS="$(pick "$MICRO_LOG" 'BenchmarkNetsimTimerChurn/backlog=64k' 3)"
TCP_MBS="$(awk '$1 ~ /^BenchmarkTCPThroughput\/chunk=64k/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s") print $i}' "$MICRO_LOG" | head -1)"
TCP_256K_MBS="$(awk '$1 ~ /^BenchmarkTCPThroughput\/chunk=256k/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s") print $i}' "$MICRO_LOG" | head -1)"
TCP_STATIC_MBS="$(awk '$1 ~ /^BenchmarkTCPThroughput\/static=512k/ {for(i=1;i<NF;i++) if($(i+1)=="MB/s") print $i}' "$MICRO_LOG" | head -1)"
TCP_STATIC_B="$(awk '$1 ~ /^BenchmarkTCPThroughput\/static=512k/ {for(i=1;i<NF;i++) if($(i+1)=="B/op") print $i}' "$MICRO_LOG" | head -1)"
HOST_DEMUX_NS="$(pick "$MICRO_LOG" BenchmarkHostDemux 3)"
HOST_ALLOCPORT_NS="$(pick "$MICRO_LOG" BenchmarkHostAllocPort 3)"
FLOW_NS="$(pick "$MICRO_LOG" BenchmarkFlowFastPath 3)"
SIM_NS="$(pick "$MICRO_LOG" BenchmarkSimulatorThroughput 3)"
STORAGE_NS="$(pick "$MICRO_LOG" BenchmarkStorageWritePath 3)"
STORAGE_ALLOCS="$(awk '$1 ~ /^BenchmarkStorageWritePath/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
MCSESS_NS="$(awk '$1 ~ /^BenchmarkMemcacheSession(-[0-9]+)?$/ {print $3}' "$MICRO_LOG" | head -1)"
MCSESS_ALLOCS="$(awk '$1 ~ /^BenchmarkMemcacheSession(-[0-9]+)?$/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
MCSESS_REF_NS="$(awk '$1 ~ /^BenchmarkMemcacheSessionReference/ {print $3}' "$MICRO_LOG" | head -1)"
# metric <log> <BenchmarkName> <unit>: extract a named custom metric.
metric() { awk -v b="$2" -v u="$3" '$1 ~ "^"b {for(i=1;i<NF;i++) if($(i+1)==u) print $i}' "$1" | head -1; }
TCP_BATCH_NSSEG="$(metric "$MICRO_LOG" 'BenchmarkTCPBatchRx/mode=batch' ns/seg)"
TCP_SCALAR_NSSEG="$(metric "$MICRO_LOG" 'BenchmarkTCPBatchRx/mode=scalar' ns/seg)"
TCP_IDLE_PAIR_B="$(metric "$MICRO_LOG" BenchmarkIdleConnHeap heap-B/pair)"
CPUMETER_BPS="$(metric "$MICRO_LOG" BenchmarkCPUMeterCharge B/busy-s)"
SB_BATCH_RT="$(metric "$MICRO_LOG" BenchmarkStorageBBatched roundtrips/write)"
SB_SEQ_RT="$(metric "$MICRO_LOG" BenchmarkStorageBSequential roundtrips/write)"
SB_BATCH_US="$(metric "$MICRO_LOG" BenchmarkStorageBBatched virtual-µs/write)"
SB_SEQ_US="$(metric "$MICRO_LOG" BenchmarkStorageBSequential virtual-µs/write)"
RECONFIG_TPUT="$(metric "$MICRO_LOG" BenchmarkReconfigMigration migrated_flows/s)"
RECONFIG_DRAIN_MS="$(metric "$MICRO_LOG" BenchmarkReconfigMigration drain_ms/op)"
MFLOW_BPF="$(metric "$MICRO_LOG" BenchmarkMflowMemPerFlow bytes/flow)"
MFLOW_FLOWS="$(metric "$MICRO_LOG" BenchmarkMflowMemPerFlow flows)"
MFLOW_EPS="$(awk '$1 ~ /^BenchmarkMflowMemPerFlow/ {for(i=1;i<NF;i++) if($(i+1)=="events/s" && $i+0>max+0) max=$i} END{print max}' "$MICRO_LOG")"
FM_LOOKUP_NS="$(pick "$MICRO_LOG" 'BenchmarkFlowmapLookup/impl=compact' 3)"
FM_LOOKUP_MAP_NS="$(pick "$MICRO_LOG" 'BenchmarkFlowmapLookup/impl=map' 3)"
FM_LOOKUP_ALLOCS="$(awk '$1 ~ /^BenchmarkFlowmapLookup\/impl=compact/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
FM_CHURN_NS="$(pick "$MICRO_LOG" BenchmarkFlowmapChurn 3)"
FM_BPF="$(metric "$MICRO_LOG" 'BenchmarkFlowmapMemPerFlow/impl=compact' bytes/flow)"
FM_MAP_BPF="$(metric "$MICRO_LOG" 'BenchmarkFlowmapMemPerFlow/impl=map' bytes/flow)"
RT_PAPER="$(metric "$MICRO_LOG" 'BenchmarkStoreRoundTripsPerFlow/mode=paper' roundtrips/flow)"
RT_HYBRID="$(metric "$MICRO_LOG" 'BenchmarkStoreRoundTripsPerFlow/mode=hybrid' roundtrips/flow)"
EPF="$(metric "$MICRO_LOG" BenchmarkEventsPerFlow events/flow)"
RULE_SEL_NS="$(pick "$MICRO_LOG" 'BenchmarkRuleSelect/rules=1000' 3)"
RULE_SEL_ALLOCS="$(awk '$1 ~ /^BenchmarkRuleSelect\/rules=1000/ {for(i=1;i<NF;i++) if($(i+1)=="allocs/op") print $i}' "$MICRO_LOG" | head -1)"
RULE_REF_NS="$(pick "$MICRO_LOG" 'BenchmarkRuleSelectReference/rules=1000' 3)"
HTTP_REQ_NS="$(pick "$MICRO_LOG" BenchmarkParseRequest 3)"
HTTP_RESP_NS="$(pick "$MICRO_LOG" BenchmarkParseResponse2K 3)"
HTTP_FEED_ALLOCS="$(metric "$MICRO_LOG" BenchmarkFeed512K allocs/op)"
HTTP_MARSHAL_B="$(metric "$MICRO_LOG" BenchmarkMarshal512K B/op)"
CLIENT_FETCH_B="$(metric "$MICRO_LOG" 'BenchmarkClientFetch/512k' B/op)"

jsonnum() { [[ -n "${1:-}" ]] && echo "$1" || echo "null"; }

FIG10_S=null; FIG12_S=null; FIG13_S=null
if [[ -s "$FIG_LOG" ]]; then
  f10="$(pick "$FIG_LOG" BenchmarkFig10TCPStoreLatency 3)"
  f12="$(pick "$FIG_LOG" BenchmarkFig12FailureRecovery 3)"
  f13="$(pick "$FIG_LOG" BenchmarkFig13Scalability 3)"
  [[ -n "$f10" ]] && FIG10_S="$(awk -v n="$f10" 'BEGIN{printf "%.2f", n/1e9}')"
  [[ -n "$f12" ]] && FIG12_S="$(awk -v n="$f12" 'BEGIN{printf "%.2f", n/1e9}')"
  [[ -n "$f13" ]] && FIG13_S="$(awk -v n="$f13" 'BEGIN{printf "%.2f", n/1e9}')"
fi

cat > "$NEW_JSON" <<EOF
{
  "seed_baseline": {
    "note": "pre-fast-path: binary event heap, closure Send, per-segment clones",
    "storage_note": "pre-zero-alloc storage dataplane: Sprintf flow keys, per-call record/batch allocation, strings.Fields parser, container/list LRU",
    "storage_write_ns_op": 38564,
    "storage_write_allocs_op": 87,
    "memcache_session_ns_op": 5193,
    "memcache_session_allocs_op": 27,
    "simulator_throughput_ns_op": 213.4,
    "simulator_throughput_B_op": 73,
    "simulator_throughput_allocs_op": 4,
    "event_loop_events_per_sec": 4700000,
    "fig10_wall_s": 23.41,
    "fig12_wall_s": 7.62,
    "fig13_wall_s": 172.2,
    "headline_metrics": {
      "fig10_replication_latency_overhead_pct": 10.29,
      "fig10_replication_cpu_ratio": 2.0,
      "fig10_set_median_40k_ms": 0.311,
      "fig12_yoda_broken_pct": 0,
      "fig12_yoda_max_extra_s": 3.0,
      "fig12_haproxy_noretry_broken_pct": 0.1081,
      "fig12_haproxy_retry_max_s": 30.19,
      "fig13_instances_added": 3,
      "fig13_broken_flows": 0
    }
  },
  "current": {
    "event_loop_ns_op": $(jsonnum "$EVLOOP_NS"),
    "event_loop_events_per_sec": $(jsonnum "$EVLOOP_EPS"),
    "event_loop_allocs_op": $(jsonnum "$EVLOOP_ALLOCS"),
    "timer_churn_ns_op": $(jsonnum "$TIMER_NS"),
    "timer_churn_backlog64k_ns_op": $(jsonnum "$TIMER_BACKLOG_NS"),
    "tcp_throughput_MB_s": $(jsonnum "$TCP_MBS"),
    "tcp_throughput_256k_MB_s": $(jsonnum "$TCP_256K_MBS"),
    "tcp_static_512k_MB_s": $(jsonnum "$TCP_STATIC_MBS"),
    "tcp_static_512k_B_op": $(jsonnum "$TCP_STATIC_B"),
    "tcp_batch_rx_ns_seg": $(jsonnum "$TCP_BATCH_NSSEG"),
    "tcp_scalar_rx_ns_seg": $(jsonnum "$TCP_SCALAR_NSSEG"),
    "tcp_idle_conn_pair_heap_bytes": $(jsonnum "$TCP_IDLE_PAIR_B"),
    "cpumeter_bytes_per_busy_s": $(jsonnum "$CPUMETER_BPS"),
    "host_demux_ns_op": $(jsonnum "$HOST_DEMUX_NS"),
    "host_alloc_port_ns_op": $(jsonnum "$HOST_ALLOCPORT_NS"),
    "flow_fast_path_ns_op": $(jsonnum "$FLOW_NS"),
    "simulator_throughput_ns_op": $(jsonnum "$SIM_NS"),
    "storage_write_ns_op": $(jsonnum "$STORAGE_NS"),
    "storage_write_allocs_op": $(jsonnum "$STORAGE_ALLOCS"),
    "memcache_session_ns_op": $(jsonnum "$MCSESS_NS"),
    "memcache_session_allocs_op": $(jsonnum "$MCSESS_ALLOCS"),
    "memcache_session_reference_ns_op": $(jsonnum "$MCSESS_REF_NS"),
    "storage_b_batched_roundtrips_per_write": $(jsonnum "$SB_BATCH_RT"),
    "storage_b_sequential_roundtrips_per_write": $(jsonnum "$SB_SEQ_RT"),
    "storage_b_batched_virtual_us": $(jsonnum "$SB_BATCH_US"),
    "storage_b_sequential_virtual_us": $(jsonnum "$SB_SEQ_US"),
    "reconfig_migration_flows_per_s": $(jsonnum "$RECONFIG_TPUT"),
    "reconfig_drain_virtual_ms": $(jsonnum "$RECONFIG_DRAIN_MS"),
    "cpu_count": $(nproc),
    "gomaxprocs": ${GOMAXPROCS:-$(nproc)},
    "mflow_flows": $(jsonnum "$MFLOW_FLOWS"),
    "mflow_mem_bytes_per_flow": $(jsonnum "$MFLOW_BPF"),
    "mflow_events_per_s": $(jsonnum "$MFLOW_EPS"),
    "flowmap_bytes_per_flow": $(jsonnum "$FM_BPF"),
    "flowmap_map_baseline_bytes_per_flow": $(jsonnum "$FM_MAP_BPF"),
    "flowmap_lookup_ns_op": $(jsonnum "$FM_LOOKUP_NS"),
    "flowmap_map_baseline_lookup_ns_op": $(jsonnum "$FM_LOOKUP_MAP_NS"),
    "flowmap_lookup_allocs_op": $(jsonnum "$FM_LOOKUP_ALLOCS"),
    "flowmap_churn_ns_op": $(jsonnum "$FM_CHURN_NS"),
    "storage_roundtrips_per_flow_paper": $(jsonnum "$RT_PAPER"),
    "storage_roundtrips_per_flow_hybrid": $(jsonnum "$RT_HYBRID"),
    "events_per_flow": $(jsonnum "$EPF"),
    "rule_select_ns_op": $(jsonnum "$RULE_SEL_NS"),
    "rule_select_allocs_op": $(jsonnum "$RULE_SEL_ALLOCS"),
    "rule_select_reference_ns_op": $(jsonnum "$RULE_REF_NS"),
    "http_parse_request_ns_op": $(jsonnum "$HTTP_REQ_NS"),
    "http_parse_response_2k_ns_op": $(jsonnum "$HTTP_RESP_NS"),
    "http_feed_512k_allocs_op": $(jsonnum "$HTTP_FEED_ALLOCS"),
    "http_marshal_512k_bytes_op": $(jsonnum "$HTTP_MARSHAL_B"),
    "client_fetch_512k_B_op": $(jsonnum "$CLIENT_FETCH_B"),
    "fig10_wall_s": $FIG10_S,
    "fig12_wall_s": $FIG12_S,
    "fig13_wall_s": $FIG13_S
  }
}
EOF
if [[ -z "$ONLY" ]]; then
  cp "$NEW_JSON" "$OUT"
  echo "wrote $OUT"
  exit 0
fi
# --only: copy the named fields' values from the "current" section just
# measured into that of $OUT, leaving its other lines untouched.
awk -v only=",$ONLY," '
  FNR == 1 { cur = 0 }
  /"current": \{/ { cur = 1 }
  cur && match($0, /"[A-Za-z0-9_]+": /) {
    k = substr($0, RSTART + 1, RLENGTH - 4)
    if (index(only, "," k ",")) {
      if (FNR == NR) { val[k] = substr($0, RSTART + RLENGTH); sub(/,$/, "", val[k]); next }
      if (!(k in val)) { print "bench.sh: no measured value for " k > "/dev/stderr"; exit 1 }
      comma = $0 ~ /,$/ ? "," : ""
      $0 = substr($0, 1, RSTART + RLENGTH - 1) val[k] comma
      done[k] = 1
    }
  }
  FNR == NR { next }
  { print }
  END { n = split(substr(only, 2, length(only) - 2), want, ",")
        for (i = 1; i <= n; i++) if (!(want[i] in done)) { print "bench.sh: " want[i] " is no field of " FILENAME > "/dev/stderr"; exit 1 } }
' "$NEW_JSON" "$OUT" > "$NEW_JSON.out"
mv "$NEW_JSON.out" "$OUT"
echo "updated $ONLY in $OUT"
