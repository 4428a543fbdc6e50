package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"reflect"
	"runtime"
	"strings"
	"time"
)

// runInfo travels from a child run to the suite on a line of its own,
// ahead of the result line: what the run was configured with, how many
// samples stand behind its medians and percentiles, and the exact
// counters two runs of the same seed must agree on.
type runInfo struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Traced    bool              `json:"traced"`
	Params    map[string]any    `json:"params"`
	Samples   map[string]int    `json:"samples"`
	Exact     map[string]uint64 `json:"exact"`
	TracedUS  float64           `json:"traced_us_per_req_mean,omitempty"`
	Capped    bool              `json:"capped"`
	Slowdown  float64           `json:"calib_slowdown"` // wall-clock metrics were divided by this
	GoVersion string            `json:"go_version"`
	CPUs      int               `json:"cpu_count"`
	MaxProcs  int               `json:"gomaxprocs"`
	GOGC      string            `json:"gogc"`
}

const infoPrefix = "run-info "

func newRunInfo(s spec, seed int64, seconds float64, traced bool, o, tracedSample *sample) runInfo {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	mode := "paper"
	if s.hybrid {
		mode = "hybrid"
	}
	work := seconds // a traced run does half the work untraced, the same half traced
	if traced {
		work = seconds / 2
	}
	params := map[string]any{"recovery_mode": mode, "object_bytes": s.objBytes, "rounds": s.rounds(work),
		"instances": nInstances, "store_servers": nStores, "backends": nBackends}
	if s.held {
		params["flows_per_round"], params["client_hosts"] = s.flows, s.hosts
	} else {
		params["clients"] = s.clients
		params["virtual_seconds"] = (time.Duration(work * float64(s.virtPerSec))).Seconds()
		params["warmup_virtual_seconds_per_round"] = s.warmup.Seconds()
		params["client_timeout_seconds"] = clientTimeout.Seconds()
	}
	info := runInfo{Workload: s.name, Seed: seed, Seconds: seconds, Traced: traced, Params: params,
		Samples: map[string]int{"requests": o.reqs, "slices": len(o.sliceNs), "requests_per_slice": o.sliceReqs,
			"sim_latencies": len(o.simNs), "setups": len(o.setups), "heap_per_flow_rounds": len(o.heapPerFlow),
			"probe_batches": probeBatches},
		Exact: exact(o), Capped: o.capped, Slowdown: o.slowdown(),
		GoVersion: runtime.Version(), CPUs: runtime.NumCPU(), MaxProcs: runtime.GOMAXPROCS(0), GOGC: gogc}
	if tracedSample != nil {
		info.TracedUS = float64(tracedSample.wall.Nanoseconds()) / 1e3 / float64(tracedSample.reqs)
	}
	return info
}

func printTable(w io.Writer, workload string, vals map[string]metricValue, defs []metricDef) {
	for _, d := range defs {
		v := vals[d.Name]
		fmt.Fprintf(w, "%-14s %-32s %16.4f %s\n", workload, d.Name, v.Value, v.Unit)
	}
}

// childResult is one child process's parsed output.
type childResult struct {
	info runInfo
	rep  report
}

// runChild re-executes this binary for one workload so every run starts
// from a clean heap, and parses its run-info and result lines.
func runChild(root, workload string, seed int64, seconds float64, trace int) (*childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Dir = root
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	res := &childResult{}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &res.info); err != nil {
				return nil, fmt.Errorf("%s: run-info line: %w", workload, err)
			}
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &res.rep); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	if runErr != nil || !res.rep.Correct {
		return res, fmt.Errorf("%s (trace %d): %d of %d requests failed", workload, trace, res.rep.Failed, res.rep.Attempted)
	}
	return res, nil
}

// setResult is one full set: per workload, the untraced and traced runs.
type setResult map[string][2]*childResult

// runSet runs every workload untraced, then traced, echoing each
// metric as `workload metric value unit` to w.
func runSet(bf *benchFile, root string, seed int64, seconds float64, w io.Writer) (setResult, error) {
	set := setResult{}
	for trace, defs := range [][]metricDef{bf.EndToEnd, bf.PerLayer} {
		for _, s := range specs {
			res, err := runChild(root, s.name, seed, seconds, trace)
			if err != nil {
				return nil, err
			}
			pair := set[s.name]
			pair[trace] = res
			set[s.name] = pair
			printTable(w, s.name, res.rep.Metrics, defs)
			fmt.Fprintf(w, "%-14s %-32s %16.4f %s\n", s.name, "failed_fraction",
				float64(res.rep.Failed)/float64(res.rep.Attempted), "ratio")
		}
	}
	return set, nil
}

// gitCommit names the measured commit when the checkout is a git work tree.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// writeResults records one set under bench/results/, stamped with the
// configuration that produced it.
func writeResults(root string, seed int64, table []byte, set setResult) error {
	dir := root + "/bench/results"
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# yodabench  commit %s  %s\n", gitCommit(root), time.Now().UTC().Format(time.RFC3339))
	for _, s := range specs {
		for _, res := range set[s.name] {
			info, err := json.Marshal(res.info)
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "# %s\n", info)
		}
	}
	buf.Write(table)
	path := fmt.Sprintf("%s/seed%d.txt", dir, seed)
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "yodabench: wrote", path)
	return nil
}

// runSuite is the one-command mode: the full set (twice with -agree),
// printed, recorded and checked.
func runSuite(bf *benchFile, root string, seed int64, seconds float64, agree bool) int {
	var table bytes.Buffer
	first, err := runSet(bf, root, seed, seconds, io.MultiWriter(os.Stdout, &table))
	if err == nil {
		err = writeResults(root, seed, table.Bytes(), first)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "yodabench:", err)
		return 1
	}
	ok := reportLedger(first)
	if agree {
		second, err := runSet(bf, root, seed, seconds, io.Discard)
		if err != nil {
			fmt.Fprintln(os.Stderr, "yodabench:", err)
			return 1
		}
		ok = reportAgreement(bf, first, second) && ok
	}
	if !ok {
		return 1
	}
	return 0
}

// reportLedger prints, per workload, how the traced run's wall time
// splits into node busy time and residual, and what tracing cost. The
// residual is defined as wall − Σ busy, so the ledger closes unless
// spans overlap — which shows as a negative residual.
func reportLedger(set setResult) bool {
	ok := true
	fmt.Println("\nledger (traced run, µs per request):")
	for _, s := range specs {
		res := set[s.name][1]
		m := res.rep.Metrics
		busy := 0.0
		for _, own := range ownerMetric {
			busy += m[own+"_busy_us_per_req"].Value
		}
		residual := m["netsim.residual_us_per_req"].Value
		overhead := m["trace.overhead_fraction"].Value
		closure := (busy + residual) / res.info.TracedUS
		verdict := "ok"
		if residual < 0 || math.Abs(closure-1) > 0.02 {
			verdict, ok = "DOES NOT CLOSE", false
		}
		fmt.Printf("%-14s nodes %10.2f + residual %10.2f = %10.2f of %10.2f traced (%.4f, %s); tracing overhead %+.1f%%\n",
			s.name, busy, residual, busy+residual, res.info.TracedUS, closure, verdict, 100*overhead)
	}
	return ok
}

// reportAgreement compares two sets of the same seed: exact counters must
// be identical and every end-to-end metric within its bound.
func reportAgreement(bf *benchFile, a, b setResult) bool {
	ok := true
	fmt.Println("\nagreement of two full sets (same seed):")
	fmt.Printf("%-14s %-26s %16s %16s %9s %7s\n", "workload", "metric", "first", "second", "rel.diff", "bound")
	for _, s := range specs {
		for _, d := range bf.EndToEnd {
			x, y := a[s.name][0].rep.Metrics[d.Name].Value, b[s.name][0].rep.Metrics[d.Name].Value
			diff := math.Abs(x-y) / math.Min(math.Abs(x), math.Abs(y))
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "  DISAGREE", false
			}
			fmt.Printf("%-14s %-26s %16.4f %16.4f %8.2f%% %6.1f%%%s\n", s.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		for trace := range a[s.name] {
			ea, eb := a[s.name][trace].info.Exact, b[s.name][trace].info.Exact
			if a[s.name][trace].info.Capped || b[s.name][trace].info.Capped {
				fmt.Printf("%-14s exact counters (trace %d): not compared, a run hit the host-time cap\n", s.name, trace)
			} else if !reflect.DeepEqual(ea, eb) {
				ok = false
				fmt.Printf("%-14s exact counters (trace %d) DIFFER:\n%s", s.name, trace, diffExact(ea, eb))
			} else {
				fmt.Printf("%-14s exact counters (trace %d): %d identical\n", s.name, trace, len(ea))
			}
		}
	}
	return ok
}
