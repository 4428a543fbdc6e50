// Command bench (yodabench) measures what an HTTP request costs the host
// when it travels the real l4lb → core → tcp → tcpstore path of this
// repository's simulator, and splits that cost by layer. See README.md.
//
//	bash bench/run.sh --workload short-paper --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -seed 1          # every workload, untraced then traced
//	bash bench/run.sh -agree -seed 1   # the full set twice, compared
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"reflect"
	"sort"
)

// metricSet is one run's named values; units come from BENCHMARK.json.
type metricSet map[string]float64

// endToEnd derives the end-to-end metrics from an untraced sample.
//
// The three wall-clock metrics are on the calibrated clock (calib.go):
// host time divided by the run's slowdown against the reference loop.
func endToEnd(o *sample) metricSet {
	reqs, slow := float64(o.reqs), o.slowdown()
	return metricSet{
		"setup_s":                  medianF(o.setups) / slow,
		"req_per_s":                reqs / o.wall.Seconds() * slow,
		"us_per_req_p50":           quantile(o.sliceNs, 0.5) / float64(o.sliceReqs) / 1e3 / slow,
		"allocs_per_req":           float64(o.mem.mallocs) / reqs,
		"alloc_bytes_per_req":      float64(o.mem.bytes) / reqs,
		"live_heap_end_MB":         float64(o.liveHeapEnd) / 1e6,
		"heap_bytes_per_live_flow": medianF(o.heapPerFlow),
	}
}

// counterMetrics derives the per-layer metrics read from exported
// counters of an untraced sample.
func counterMetrics(o *sample) metricSet {
	reqs := float64(o.reqs)
	c := func(name string) float64 { return float64(o.ctr[name]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	m := metricSet{
		"netsim.events_per_req":        c("netsim.events") / reqs,
		"netsim.pkts_per_req":          c("netsim.pkts") / reqs,
		"netsim.batch_hit_ratio":       ratio(c("netsim.batch_runs"), c("netsim.runs")),
		"netsim.train_len_mean":        ratio(c("netsim.train_pkts"), c("netsim.trains")),
		"netsim.pending_events_end":    float64(o.pendingEnd),
		"l4lb.pkts_per_req":            c("l4lb.pkts") / reqs,
		"core.barrier_commits_per_req": c("core.barrier_commits") / reqs,
		"core.conn_ms_p50":             float64(o.connLat.Median()) / 1e6,
		"core.storage_ms_p50":          float64(o.storageLat.Median()) / 1e6,
		"tcpstore.roundtrips_per_req":  c("tcpstore.roundtrips") / reqs,
		"tcpstore.sets_per_req":        c("tcpstore.sets") / reqs,
		"tcpstore.gets_per_req":        c("tcpstore.gets") / reqs,
		"tcpstore.get_hit_ratio":       ratio(c("tcpstore.get_hits"), c("tcpstore.gets")),
		"memcache.ops_per_req":         c("memcache.ops") / reqs,
		"tcp.client_retransmits":       float64(o.retransmits),
		"runtime.gc_cycles":            float64(o.mem.gcCycles),
		"runtime.gc_cpu_fraction":      ratio(o.mem.gcCPU, o.mem.allCPU),
		"driver.us_per_req_p90":        quantile(o.sliceNs, 0.9) / float64(o.sliceReqs) / 1e3,
		"calib.slowdown":               o.slowdown(),
		"sim.req_ms_p50":               quantile(o.simNs, 0.5) / 1e6,
		"sim.req_ms_p99":               quantile(o.simNs, 0.99) / 1e6,
	}
	for _, name := range []string{"core.barrier_degraded", "core.barrier_aborted", "core.barrier_timeouts",
		"core.recovered_store", "core.recovered_derived", "core.lookup_misses", "core.suppressed_orphans",
		"core.snat_exhausted", "tcpstore.timeouts", "tcpstore.replica_errors"} {
		m[name] = c(name)
	}
	for name, v := range o.gauges {
		m[name] = float64(v)
	}
	return m
}

// ledgerMetrics derives the node-interposition metrics of a traced
// sample; untracedWall is the same work's calibrated wall time without
// the wrappers. The ledger itself is in raw host time, so that it sums to
// the traced wall clock; calib.slowdown converts.
func ledgerMetrics(o *sample, untracedWall float64) metricSet {
	reqs := float64(o.reqs)
	m := metricSet{
		"netsim.residual_us_per_req": float64((o.wall - o.led.busy()).Microseconds()) / reqs,
		"trace.overhead_fraction":    o.wall.Seconds()/o.slowdown()/untracedWall - 1,
	}
	for own, a := range o.led.acc {
		m[ownerMetric[own]+"_busy_us_per_req"] = float64(a.busy.Nanoseconds()) / 1e3 / reqs
		m[ownerMetric[own]+"_calls_per_req"] = float64(a.calls) / reqs
	}
	if a := o.led.acc[ownInstance]; a.calls > 0 {
		m["core.node_pkts_per_call"] = float64(a.pkts) / float64(a.calls)
	}
	return m
}

// exact lists what must be identical between two runs of the same
// (workload, seed, seconds): request counts, layer counters, end-state
// sizes and virtual-time latencies.
func exact(o *sample) map[string]uint64 {
	e := map[string]uint64{
		"attempted": uint64(o.attempted), "failed": uint64(o.failed), "requests": uint64(o.reqs),
		"sim_p50_ns": uint64(quantile(o.simNs, 0.5)), "sim_p99_ns": uint64(quantile(o.simNs, 0.99)),
		"netsim.pending_events_end": uint64(o.pendingEnd),
	}
	for k, v := range o.ctr {
		e[k] = v
	}
	for k, v := range o.gauges {
		e[k] = v
	}
	return e
}

// benchFile mirrors BENCHMARK.json.
type benchFile struct {
	RunSeconds float64     `json:"run_seconds"`
	EndToEnd   []metricDef `json:"end_to_end"`
	PerLayer   []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBenchFile reads BENCHMARK.json from the checkout root, whether the
// command was started there or inside bench/.
func loadBenchFile() (*benchFile, string, error) {
	var firstErr error
	for _, root := range []string{".", ".."} {
		raw, err := os.ReadFile(root + "/BENCHMARK.json")
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		var bf benchFile
		if err := json.Unmarshal(raw, &bf); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		return &bf, root, nil
	}
	return nil, "", firstErr
}

// report is the last line of a driver run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// withUnits checks that m holds exactly the metrics defs names, and
// attaches their units.
func withUnits(m metricSet, defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is in BENCHMARK.json but was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range m {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %s was measured but is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// measured is what one driver run hands back: the metrics, the untraced
// sample, — traced — the sample taken behind the node wrappers, and the
// request accounting over both.
type measured struct {
	metrics           metricSet
	o                 *sample
	traced            *sample
	attempted, failed int
}

// measureOnce is one driver run: the end-to-end metrics of an untraced
// run, or — traced — the per-layer metrics: half the run length untraced
// for the counters, the same half again behind the node wrappers for the
// ledger, and the isolated probes. The two halves must agree exactly on
// every counter, or the wrappers changed behaviour.
func measureOnce(s spec, seed int64, seconds float64, traced bool, spansPath string) (*measured, error) {
	if !traced {
		o := runWorkload(s, seed, seconds, false)
		return &measured{metrics: endToEnd(o), o: o, attempted: o.attempted, failed: o.failed}, nil
	}
	u := runWorkload(s, seed, seconds/2, false)
	t := runWorkload(s, seed, seconds/2, true)
	if eu, et := exact(u), exact(t); !u.capped && !t.capped && !reflect.DeepEqual(eu, et) {
		return nil, fmt.Errorf("traced and untraced runs disagree on exact counters:\n%s", diffExact(eu, et))
	}
	if err := t.led.writeSpans(spansPath); err != nil {
		return nil, err
	}
	probes, err := runProbes(1)
	if err != nil {
		return nil, err
	}
	m := counterMetrics(u)
	maps.Copy(m, ledgerMetrics(t, u.wall.Seconds()/u.slowdown()))
	maps.Copy(m, probes)
	return &measured{metrics: m, o: u, traced: t, attempted: u.attempted + t.attempted, failed: u.failed + t.failed}, nil
}

func diffExact(a, b map[string]uint64) string {
	var keys []string
	for k := range a {
		if a[k] != b[k] {
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out += fmt.Sprintf("  %s: %d vs %d\n", k, a[k], b[k])
	}
	return out
}

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print one JSON result line (driver mode)")
		seed         = flag.Int64("seed", 1, "workload seed")
		seconds      = flag.Float64("seconds", 0, "run length; default run_seconds of BENCHMARK.json")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics")
		agree        = flag.Bool("agree", false, "run the full set twice and compare")
	)
	flag.Parse()
	bf, root, err := loadBenchFile()
	if err != nil {
		fmt.Fprintln(os.Stderr, "yodabench:", err)
		os.Exit(2)
	}
	if *seconds <= 0 {
		*seconds = bf.RunSeconds
	}
	if *workloadName == "" {
		os.Exit(runSuite(bf, root, *seed, *seconds, *agree))
	}
	s, ok := specByName(*workloadName)
	if !ok {
		fmt.Fprintf(os.Stderr, "yodabench: unknown workload %q\n", *workloadName)
		os.Exit(2)
	}
	if err := driverRun(os.Stdout, bf, root, s, *seed, *seconds, *trace != 0); err != nil {
		fmt.Fprintln(os.Stderr, "yodabench:", err)
		os.Exit(1)
	}
}

// driverRun is the contract with the benchmark driver: human-readable
// lines first, one JSON object last, and an error unless every response
// was correct.
func driverRun(w io.Writer, bf *benchFile, root string, s spec, seed int64, seconds float64, traced bool) error {
	defs, spans := bf.EndToEnd, ""
	if traced {
		dir := root + "/bench/results"
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		defs, spans = bf.PerLayer, dir+"/"+s.name+".spans.jsonl"
	}
	res, err := measureOnce(s, seed, seconds, traced, spans)
	if err != nil {
		return err
	}
	vals, err := withUnits(res.metrics, defs)
	if err != nil {
		return err
	}
	info, err := json.Marshal(newRunInfo(s, seed, seconds, traced, res.o, res.traced))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s%s\n", infoPrefix, info)
	printTable(w, s.name, vals, defs)
	if res.o.capped {
		fmt.Fprintf(os.Stderr, "yodabench: %s hit the host-time cap and stopped early\n", s.name)
	}
	line, err := json.Marshal(report{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: vals})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d requests failed", s.name, res.failed, res.attempted)
	}
	return nil
}
