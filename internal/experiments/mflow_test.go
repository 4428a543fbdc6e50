package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smallMflowConfig shrinks the headline run to CI scale: 8192 flows,
// same fleet, same storm.
func smallMflowConfig() MflowConfig {
	cfg := DefaultMflowConfig()
	cfg.Flows = 8192
	return cfg
}

// TestMflowInvariants runs the small configuration under the paper's
// protocol and requires every invariant to hold: full ramp, every
// orphaned flow read back from TCPStore exactly once, clean teardown,
// the cluster back at its baseline.
func TestMflowInvariants(t *testing.T) {
	res := RunMflow(smallMflowConfig())
	if !res.Pass() {
		t.Fatalf("mflow invariants failed:\n%s", res.Summary())
	}
	if res.DeadFlows == 0 || res.Recovered != res.DeadFlows {
		t.Fatalf("storm: %d flows orphaned, %d recovered from the store", res.DeadFlows, res.Recovered)
	}
	// The run has to exercise the dispatch path the benchmarks measure:
	// same-instant bursts toward the VIP and the instances go through
	// HandleBatch. Not part of Summary(), which the scalar reference mode
	// must reproduce byte for byte.
	if res.BatchHitRatio <= 0 || res.BatchHitRatio > 1 {
		t.Fatalf("batch hit ratio %v out of (0,1]", res.BatchHitRatio)
	}
}

// TestMflowDeterminism requires byte-identical summaries across repeated
// runs.
func TestMflowDeterminism(t *testing.T) {
	a := RunMflow(smallMflowConfig()).Summary()
	b := RunMflow(smallMflowConfig()).Summary()
	if a != b {
		t.Fatalf("mflow not deterministic:\nrun1:\n%s\n\nrun2:\n%s", a, b)
	}
}

// TestMflowSummaryGolden holds the small configuration's summary, in
// both recovery modes, to the bytes in testdata/.
func TestMflowSummaryGolden(t *testing.T) {
	for _, arm := range []struct{ name, recovery string }{{"paper", ""}, {"hybrid", "hybrid"}} {
		t.Run(arm.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "mflow_small_"+arm.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallMflowConfig()
			cfg.Recovery = arm.recovery
			if got := RunMflow(cfg).Summary() + "\n"; got != string(want) {
				t.Fatalf("summary differs from golden file:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestMflowHybridExactRecovery kills one, two and three instances under
// hybrid recovery. Every unpersisted flow lives on the head of its
// rendezvous chain, so every orphan has at most one dead-owner candidate
// however many instances died, and every one must be adopted exactly
// once — from its record if it was residue, by derivation otherwise —
// with nothing left behind.
func TestMflowHybridExactRecovery(t *testing.T) {
	for kill := 1; kill <= 3; kill++ {
		cfg := smallMflowConfig()
		cfg.Recovery, cfg.StormKill = "hybrid", kill
		res := RunMflow(cfg)
		if !res.Pass() {
			t.Fatalf("storm %d: hybrid mflow invariants failed:\n%s", kill, res.Summary())
		}
		if res.DeadFlows == 0 || res.Derived == 0 || res.Recovered+res.Derived != res.DeadFlows || res.Stranded != 0 {
			t.Fatalf("storm %d: hybrid recovery not exact: deadFlows=%d recovered=%d derived=%d stranded=%d",
				kill, res.DeadFlows, res.Recovered, res.Derived, res.Stranded)
		}
	}
}

// TestMflowSNATCapacity: every instance's SNAT block comes out of one
// VIP's port space, so a fleet has a hard ceiling on backend connections;
// asking for more is reported, not run into cluster.snatBase's panic or a
// ramp of 503s.
func TestMflowSNATCapacity(t *testing.T) {
	cfg := smallMflowConfig()
	cfg.Flows = 40472 + mfClients // 8·⌊45536/9⌋ and one more per client
	res := RunMflow(cfg)
	if res.Pass() || !strings.Contains(res.Failures[0], "SNAT capacity of 8 instances, 40472 backend connections") {
		t.Fatalf("over-capacity run not refused by name:\n%s", res.Summary())
	}
	if res.Executed != 0 {
		t.Fatalf("over-capacity run executed %d events", res.Executed)
	}
}

// BenchmarkMflowMemPerFlow reports the peak heap cost per concurrent
// flow of the default run; bench.sh runs it with -benchtime=1x to
// populate mflow_flows, mflow_mem_bytes_per_flow and mflow_events_per_s
// in BENCH_core.json.
func BenchmarkMflowMemPerFlow(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := RunMflow(DefaultMflowConfig())
		if !res.Pass() {
			b.Fatalf("mflow failed:\n%s", res.Summary())
		}
		b.ReportMetric(float64(res.Cfg.Flows), "flows")
		b.ReportMetric(res.HeapBytesPerFlow, "bytes/flow")
		b.ReportMetric(float64(res.Executed)/res.Wall.Seconds(), "events/s")
	}
}
