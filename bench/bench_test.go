package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smokeSpec shrinks a workload to about 1 % of its benchmark size.
func smokeSpec(s spec) spec {
	if s.held {
		s.flows, s.hosts = 500, 8
		return s
	}
	s.warmup = time.Second
	s.sliceReqs /= 10
	return s
}

const smokeSeconds = 0.2

// TestSmoke runs every workload at about 1 % scale and checks what the
// benchmark promises: every metric BENCHMARK.json names is measured, no
// request fails, runs of one seed agree exactly on every counter —
// traced or not — while another seed differs, and the ledger closes.
func TestSmoke(t *testing.T) {
	bf, _, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	probes, err := runProbes(0.01)
	if err != nil {
		t.Fatal(err)
	}
	for _, full := range specs {
		s := smokeSpec(full)
		t.Run(s.name, func(t *testing.T) {
			plain := runWorkload(s, 1, smokeSeconds, false)
			traced := runWorkload(s, 1, smokeSeconds, true)
			other := runWorkload(s, 2, smokeSeconds, false)
			for _, o := range []*sample{plain, traced, other} {
				if o.failed != 0 || o.attempted == 0 || o.reqs == 0 {
					t.Fatalf("attempted %d, failed %d, timed %d", o.attempted, o.failed, o.reqs)
				}
			}
			if a, b := exact(plain), exact(traced); !reflect.DeepEqual(a, b) {
				t.Errorf("same seed, traced vs untraced, exact counters differ:\n%s", diffExact(a, b))
			}
			if reflect.DeepEqual(exact(plain), exact(other)) {
				t.Error("another seed produced identical counters: the seed does not reach the inputs")
			}

			if _, err := withUnits(endToEnd(plain), bf.EndToEnd); err != nil {
				t.Error(err)
			}
			layer := counterMetrics(plain)
			maps.Copy(layer, ledgerMetrics(traced, plain.wall.Seconds()/plain.slowdown()))
			maps.Copy(layer, probes)
			if _, err := withUnits(layer, bf.PerLayer); err != nil {
				t.Error(err)
			}
			for name, v := range endToEnd(plain) {
				if v <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}

			busy := traced.led.busy()
			if busy <= 0 || busy > traced.wall {
				t.Errorf("ledger does not close: node busy %v of %v traced wall", busy, traced.wall)
			}
			if len(traced.led.spans) == 0 {
				t.Error("no spans recorded for the sampled client host")
			}
		})
	}
}

// TestRefLoopAllocs pins what the calibration loop allocates, because
// exactly that much is taken back out of allocs_per_req and
// alloc_bytes_per_req.
func TestRefLoopAllocs(t *testing.T) {
	refLoop()
	const calls = 50
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		refLoop()
	}
	runtime.ReadMemStats(&m1)
	if got := m1.Mallocs - m0.Mallocs; got != calls*refLoopAllocs {
		t.Errorf("%d allocations per call, want %d", got/calls, refLoopAllocs)
	}
	if got := m1.TotalAlloc - m0.TotalAlloc; got != calls*refLoopBytes {
		t.Errorf("%d bytes per call, want %d", got/calls, refLoopBytes)
	}
}

// TestWorkloadControls checks that the workloads stress what they claim:
// paper mode pays store round trips and hybrid pays none, bulk is
// tunnel-dominated, and held-failover recovers flows from the store.
func TestWorkloadControls(t *testing.T) {
	perReq := func(name, counter string) (float64, *sample) {
		s, _ := specByName(name)
		o := runWorkload(smokeSpec(s), 3, smokeSeconds, false)
		return float64(o.ctr[counter]) / float64(o.reqs), o
	}
	// At smoke scale the window's edges cut into the steady-state 8.97.
	paper, _ := perReq("short-paper", "tcpstore.roundtrips")
	if paper < 6 || paper > 10 {
		t.Errorf("short-paper: %.2f store round trips per request, want about 8.7", paper)
	}
	// Not 0: a flow whose cookie-coded SNAT port is taken still persists.
	if hybrid, _ := perReq("short-hybrid", "tcpstore.roundtrips"); hybrid > paper/4 {
		t.Errorf("short-hybrid: %.2f store round trips per request against %.2f in paper mode", hybrid, paper)
	}
	short, _ := perReq("short-paper", "netsim.events")
	if bulk, _ := perReq("bulk-paper", "netsim.events"); bulk < 20*short {
		t.Errorf("bulk-paper: %.0f events per request, want at least 20x short-paper's %.0f", bulk, short)
	}
	if _, o := perReq("held-failover", "core.recovered_store"); o.ctr["core.recovered_store"] == 0 || o.failed != 0 {
		t.Errorf("held-failover: %d flows recovered from the store, %d failed", o.ctr["core.recovered_store"], o.failed)
	}
}

// TestDriverRun checks the driver contract on one short run: the last
// line is one JSON object with exactly the promised keys, and the
// metrics are the end-to-end set with units.
func TestDriverRun(t *testing.T) {
	bf, _, err := loadBenchFile()
	if err != nil {
		t.Fatal(err)
	}
	s, _ := specByName("short-hybrid")
	var out bytes.Buffer
	if err := driverRun(&out, bf, t.TempDir(), smokeSpec(s), 5, smokeSeconds, false); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(got) != 4 {
		t.Errorf("result keys: %v", got)
	}
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 || len(rep.Metrics) != len(bf.EndToEnd) {
		t.Errorf("report: %+v", rep)
	}
	for _, d := range bf.EndToEnd {
		if rep.Metrics[d.Name].Unit != d.Unit {
			t.Errorf("metric %s: unit %q, want %q", d.Name, rep.Metrics[d.Name].Unit, d.Unit)
		}
	}
}
