package experiments

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallMflowConfig shrinks the headline run to CI scale: 8192 flows,
// same topology shape, same storm fraction.
func smallMflowConfig() MflowConfig {
	return MflowConfig{
		Seed:       1,
		Flows:      8192,
		Drivers:    8,
		Muxes:      4,
		Instances:  8,
		Backends:   8,
		StormKill:  2,
		BatchSize:  64,
		BatchEvery: 2 * time.Millisecond,
		Settle:     150 * time.Millisecond,
	}
}

// TestMflowInvariants runs the small configuration and requires every
// invariant to hold: full ramp, every orphaned flow recovered exactly
// once, clean teardown, quiescent network.
func TestMflowInvariants(t *testing.T) {
	res := RunMflow(smallMflowConfig())
	if !res.Pass() {
		t.Fatalf("mflow invariants failed:\n%s", res.Summary())
	}
	if res.DeadFlows == 0 {
		t.Fatal("storm killed no flows — the recovery path was never exercised")
	}
	// Batch dispatch must actually engage at mflow scale: same-destination
	// bursts (driver→mux, backend→driver) form multi-packet runs that take
	// HandleBatch. These fields are observability-only — deliberately not
	// part of Summary(), which stays byte-identical to the scalar path.
	if res.TrainRuns == 0 {
		t.Fatal("no delivery runs recorded — train dispatch never ran")
	}
	if res.BatchRuns == 0 {
		t.Fatal("no batched runs — multi-packet runs never reached HandleBatch")
	}
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
// each of its three arms, to the bytes in testdata/. The files were
// written while mflow could still run on 1, 2 or 4 event loops and all
// three printed these bytes.
func TestMflowSummaryGolden(t *testing.T) {
	arms := []struct {
		name, recovery string
		tierB          bool
	}{
		{name: "paper"},
		{name: "hybrid", recovery: "hybrid"},
		{name: "tierb", tierB: true},
	}
	for _, arm := range arms {
		t.Run(arm.name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "mflow_small_"+arm.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			cfg := smallMflowConfig()
			cfg.Recovery, cfg.TierB = arm.recovery, arm.tierB
			if got := RunMflow(cfg).Summary() + "\n"; got != string(want) {
				t.Fatalf("summary differs from golden file:\ngot:\n%s\nwant:\n%s", got, want)
			}
		})
	}
}

// TestMflowHybridExactRecovery runs the hybrid arm: stateless-table
// muxes, proof-gated adoption. Every orphan must still be recovered
// exactly once (recovered == deadFlows, zero leaks, zero drops, zero
// pending) and no adoption may ever be rejected for lack of a
// dead-owner proof.
func TestMflowHybridExactRecovery(t *testing.T) {
	cfg := smallMflowConfig()
	cfg.Recovery = "hybrid"
	res := RunMflow(cfg)
	if !res.Pass() {
		t.Fatalf("hybrid mflow invariants failed:\n%s", res.Summary())
	}
	if res.DeadFlows == 0 {
		t.Fatal("storm killed no flows — the hybrid recovery path was never exercised")
	}
	if res.Recovered != res.DeadFlows || res.AdoptRejected != 0 {
		t.Fatalf("hybrid recovery not exact: recovered=%d deadFlows=%d adoptRejected=%d",
			res.Recovered, res.DeadFlows, res.AdoptRejected)
	}
}

// TestMflowTierBInvariants turns the Tier B sideband on: real TCP echo
// connections with delayed ACKs, GSO trains, and idle probes riding the
// run. Every base invariant must still hold (recovery exact, network
// quiescent) and the sideband's own checks must pass — bytes echoed
// intact, connections closed, coalescing actually engaged.
func TestMflowTierBInvariants(t *testing.T) {
	cfg := smallMflowConfig()
	cfg.TierB = true
	res := RunMflow(cfg)
	if !res.Pass() {
		t.Fatalf("tierb mflow invariants failed:\n%s", res.Summary())
	}
	if res.DeadFlows == 0 || res.Recovered != res.DeadFlows {
		t.Fatalf("recovery not exact with tierb on: recovered=%d deadFlows=%d",
			res.Recovered, res.DeadFlows)
	}
	if res.TierBAcksElided == 0 || res.TierBGSOTrains == 0 {
		t.Fatalf("tierb coalescing never engaged: elided=%d trains=%d",
			res.TierBAcksElided, res.TierBGSOTrains)
	}
}

// BenchmarkMflowMemPerFlow reports the peak heap cost per concurrent
// flow; bench.sh runs it with -benchtime=1x to populate mflow_flows,
// mflow_mem_bytes_per_flow and mflow_events_per_s in BENCH_core.json.
func BenchmarkMflowMemPerFlow(b *testing.B) {
	cfg := smallMflowConfig()
	cfg.Flows = 1 << 16
	cfg.Drivers = 16
	for i := 0; i < b.N; i++ {
		res := RunMflow(cfg)
		if !res.Pass() {
			b.Fatalf("mflow failed:\n%s", res.Summary())
		}
		b.ReportMetric(float64(res.Cfg.Flows), "flows")
		b.ReportMetric(res.HeapBytesPerFlow, "bytes/flow")
		b.ReportMetric(float64(res.Executed)/res.Wall.Seconds(), "events/s")
	}
}
