package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestFig12bTraceDeterminism is the guardrail for the simulator fast
// path: the Figure 12(b) failover scenario — a traced flow across an
// instance failure, recovery via TCPStore, retransmissions and all —
// must produce a bit-identical event timeline on every run with the same
// seed. Timer-wheel ordering, pooling, or zero-copy bugs that perturb
// event order or RNG draw order show up here first.
func TestFig12bTraceDeterminism(t *testing.T) {
	a := RunFig12b(99)
	b := RunFig12b(99)
	if a.FailAt != b.FailAt {
		t.Fatalf("FailAt differs: %v vs %v", a.FailAt, b.FailAt)
	}
	if a.Recovered != b.Recovered {
		t.Fatalf("Recovered differs: %v vs %v", a.Recovered, b.Recovered)
	}
	if len(a.Events) == 0 {
		t.Fatal("no trace events recorded; scenario did not run")
	}
	if !reflect.DeepEqual(a.Events, b.Events) {
		if len(a.Events) != len(b.Events) {
			t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
		}
		for i := range a.Events {
			if a.Events[i] != b.Events[i] {
				t.Fatalf("event %d differs:\n  run1: %+v\n  run2: %+v", i, a.Events[i], b.Events[i])
			}
		}
	}
}

// TestFig16Determinism holds Figure 16 to the golden's rule: the same
// trace seed prints the same figure. The solver's local search once
// visited instances of equal traffic in map order, so two runs of one
// seed disagreed in the medians.
func TestFig16Determinism(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		if a, b := RunFig16(seed).String(), RunFig16(seed).String(); a != b {
			t.Fatalf("seed %d: two runs differ:\n%s\n---\n%s", seed, a, b)
		}
	}
}

// TestFig12ArmStatsDeterminism runs a scaled-down Figure 12(a) Yoda arm
// twice with the same seed and asserts identical final statistics.
func TestFig12ArmStatsDeterminism(t *testing.T) {
	cfg := DefaultFig12Config()
	cfg.Seed = 7
	cfg.Instances = 4
	cfg.Kill = 1
	cfg.ClientProcs = 6
	cfg.Duration = 10 * time.Second
	cfg.FailAt = 3 * time.Second
	cfg.HTTPTimeout = 10 * time.Second

	a := runFig12Arm(cfg, "yoda", true, 0)
	b := runFig12Arm(cfg, "yoda", true, 0)
	if a.Requests == 0 {
		t.Fatal("no requests completed; scenario did not run")
	}
	if a.Requests != b.Requests || a.Broken != b.Broken ||
		a.Affected != b.Affected || a.AffectedBroken != b.AffectedBroken {
		t.Fatalf("counters differ:\n  run1: %+v\n  run2: %+v", a, b)
	}
	if a.MaxExtra != b.MaxExtra {
		t.Fatalf("MaxExtra differs: %v vs %v", a.MaxExtra, b.MaxExtra)
	}
	if a.Latency.Count() != b.Latency.Count() ||
		a.Latency.Median() != b.Latency.Median() ||
		a.Latency.Max() != b.Latency.Max() {
		t.Fatalf("latency histograms differ: median %v vs %v, max %v vs %v",
			a.Latency.Median(), b.Latency.Median(), a.Latency.Max(), b.Latency.Max())
	}
}
