package experiments

import (
	"testing"
	"time"
)

// TestUpgradeExperimentZeroFailures runs a reduced §7.5 experiment: a
// 3-instance fleet under continuous closed-loop load is rolling-upgraded
// with zero failed client requests, and no wave migrates more than δ of
// the live flows.
func TestUpgradeExperimentZeroFailures(t *testing.T) {
	cfg := DefaultUpgradeConfig()
	cfg.Instances = 3
	cfg.VIPs = 2
	cfg.ClientProcs = 6
	cfg.Duration = 35 * time.Second
	cfg.Delta = 0.35

	r := RunUpgrade(cfg)
	if r.Failed != 0 {
		t.Fatalf("%d/%d requests failed (paper §7.5: zero)", r.Failed, r.Requests)
	}
	if r.Requests == 0 {
		t.Fatal("workload never ran")
	}
	up := r.Upgrade
	if up.Running {
		t.Fatalf("upgrade incomplete: %+v", up)
	}
	if up.Upgraded != cfg.Instances || r.RestartsSeen != cfg.Instances {
		t.Fatalf("upgraded=%d restarts=%d, want %d", up.Upgraded, r.RestartsSeen, cfg.Instances)
	}
	if up.BrokenFlows != 0 {
		t.Fatalf("broken flows: %d", up.BrokenFlows)
	}
	if up.MigratedFlows == 0 {
		t.Fatal("nothing migrated — load too thin to exercise the drain")
	}
	if up.MaxWaveMigratedFrac > cfg.Delta+0.1 {
		t.Fatalf("max wave migrated %.3f exceeds δ=%.2f", up.MaxWaveMigratedFrac, cfg.Delta)
	}
}
