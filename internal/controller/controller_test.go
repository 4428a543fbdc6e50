package controller_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/testbed"
)

type world struct {
	c   *cluster.Cluster
	ct  *controller.Controller
	vip netsim.IP
}

func newWorld(seed int64, nYoda int) *world {
	return newWorldWith(seed, nYoda, 10*1024, nil)
}

// newWorldWith is 3 backends behind nYoda instances of profile inst (nil:
// the default) with the paper's controller running.
func newWorldWith(seed int64, nYoda, objSize int, inst *core.Config) *world {
	ctCfg := controller.DefaultConfig()
	b := testbed.New(testbed.Config{
		Seed: seed, Objects: map[string][]byte{"/obj": bytes.Repeat([]byte("z"), objSize)},
		Backends: 3, Stores: 3, LBs: nYoda, Instance: inst, Controller: &ctCfg,
	})
	return &world{c: b.C, ct: b.Ctl, vip: b.VIP}
}

func (w *world) fetch(done *int, errs *int) {
	cl := w.c.NewClient(httpsim.DefaultClientConfig())
	cl.Get(netsim.HostPort{IP: w.vip, Port: 80}, "/obj", func(r *httpsim.FetchResult) {
		*done++
		if r.Err != nil {
			*errs++
		}
	})
}

func TestMonitorDetectsFailureWithin600ms(t *testing.T) {
	w := newWorld(1, 3)
	w.c.Net.RunFor(time.Second)
	killedAt := w.c.Net.Now()
	w.c.Yoda[0].Fail()
	// Advance until detection.
	for i := 0; i < 10 && w.ct.Detections == 0; i++ {
		w.c.Net.RunFor(100 * time.Millisecond)
	}
	if w.ct.Detections != 1 {
		t.Fatalf("detections = %d", w.ct.Detections)
	}
	detectDelay := w.c.Net.Now() - killedAt
	if detectDelay > 700*time.Millisecond {
		t.Fatalf("detection took %v, want ≤600ms+ping slop", detectDelay)
	}
	// The dead instance must be out of the L4 mapping.
	for _, ip := range w.c.L4.Mapping(w.vip) {
		if ip == w.c.Yoda[0].IP() {
			t.Fatal("dead instance still mapped")
		}
	}
}

func TestFailureRecoveryWithController(t *testing.T) {
	// Full-loop version of §7.2: controller detects the failure and
	// repairs the mapping; client flows survive without manual plumbing.
	w := newWorld(2, 3)
	done, errs := 0, 0
	const N = 20
	for i := 0; i < N; i++ {
		w.fetch(&done, &errs)
	}
	w.c.Net.RunFor(150 * time.Millisecond) // flows in flight
	for _, in := range w.c.Yoda {
		if in.FlowCount() > 0 {
			in.Fail()
			break
		}
	}
	w.c.Net.RunFor(40 * time.Second)
	if done != N {
		t.Fatalf("done = %d/%d", done, N)
	}
	if errs != 0 {
		t.Fatalf("%d flows broke despite controller-driven recovery", errs)
	}
}

func TestScaleOutUnderLoad(t *testing.T) {
	// Figure 13's shape: load doubles, CPU crosses the threshold, the
	// controller adds instances, utilization falls. The test uses a
	// single-core instance profile so saturation happens at a simulation-
	// friendly request rate.
	slowCfg := core.DefaultConfig()
	slowCfg.Cores = 1
	slowCfg.CPUConnPhase = 5 * time.Millisecond
	slowCfg.CPUPerPacket = 100 * time.Microsecond
	w := newWorldWith(3, 2, 4*1024, &slowCfg)
	// Open-loop load: issue a burst of requests every 100ms.
	stop := false
	gen := 0
	var pump func(gen, rate int)
	done, errs := 0, 0
	pump = func(g, rate int) {
		if stop || g != gen {
			return
		}
		for i := 0; i < rate; i++ {
			w.fetch(&done, &errs)
		}
		w.c.Net.Schedule(100*time.Millisecond, func() { pump(g, rate) })
	}
	pump(gen, 3) // 30 req/s over 2 single-core instances: ~10% CPU
	w.c.Net.RunFor(3 * time.Second)
	before := len(w.c.Yoda)
	// Spike: 280 req/s -> ~140 req/s/instance at ~6ms/req ≈ 85% CPU.
	gen++
	pump(gen, 28)
	w.c.Net.RunFor(6 * time.Second)
	stop = true
	if w.ct.ScaleOuts == 0 {
		t.Fatal("controller never scaled out")
	}
	if len(w.c.Yoda) <= before {
		t.Fatalf("instances: %d -> %d", before, len(w.c.Yoda))
	}
	// New instances must carry the policy and appear in the mapping.
	newcomer := w.c.Yoda[len(w.c.Yoda)-1]
	if !newcomer.HasVIP(w.vip) {
		t.Fatal("newcomer missing VIP rules")
	}
	w.c.Net.RunFor(10 * time.Second)
	if errs != 0 {
		t.Fatalf("%d flows broke during scale-out", errs)
	}
	found := false
	for _, ip := range w.c.L4.Mapping(w.vip) {
		if ip == newcomer.IP() {
			found = true
		}
	}
	if !found {
		t.Fatal("newcomer not in L4 mapping")
	}
}

func TestPolicyUpdateDoesNotBreakFlows(t *testing.T) {
	// Figure 14's make-before-break: change weights mid-run; in-flight
	// flows continue, new flows follow the new split.
	w := newWorld(4, 2)
	done, errs := 0, 0
	for i := 0; i < 10; i++ {
		w.fetch(&done, &errs)
	}
	w.c.Net.RunFor(100 * time.Millisecond)
	// Shift everything to srv-1.
	b1 := w.c.Backends["srv-1"].Rec
	w.ct.UpdatePolicy(w.vip, []rules.Rule{{
		Name: "all-to-1", Priority: 1, Match: rules.Match{URLGlob: "*"},
		Action: rules.Action{Type: rules.ActionSplit, Split: []rules.WeightedBackend{{Backend: b1, Weight: 1}}},
	}})
	before1 := w.c.Backends["srv-1"].Server.Requests
	for i := 0; i < 10; i++ {
		w.fetch(&done, &errs)
	}
	w.c.Net.RunFor(20 * time.Second)
	if done != 20 || errs != 0 {
		t.Fatalf("done=%d errs=%d", done, errs)
	}
	if got := w.c.Backends["srv-1"].Server.Requests - before1; got != 10 {
		t.Fatalf("srv-1 got %d new requests, want all 10", got)
	}
}

func TestBackendFailureMarksHealth(t *testing.T) {
	w := newWorld(5, 1)
	w.c.Backends["srv-2"].Server.Host().Detach()
	w.c.Net.RunFor(time.Second)
	if !w.c.Health.Dead["srv-2"] {
		t.Fatal("dead backend not marked")
	}
	// Traffic avoids the dead backend.
	done, errs := 0, 0
	for i := 0; i < 12; i++ {
		w.fetch(&done, &errs)
	}
	w.c.Net.RunFor(20 * time.Second)
	if errs != 0 {
		t.Fatalf("errs = %d", errs)
	}
	if w.c.Backends["srv-2"].Server.Requests != 0 {
		t.Fatal("dead backend received requests")
	}
	// Recovery: reattach and the monitor clears the mark.
	w.c.Backends["srv-2"].Server.Host().Reattach()
	w.c.Net.RunFor(time.Second)
	if w.c.Health.Dead["srv-2"] {
		t.Fatal("recovered backend still marked dead")
	}
}

func TestStatsAccumulate(t *testing.T) {
	w := newWorld(7, 2)
	done, errs := 0, 0
	for i := 0; i < 5; i++ {
		w.fetch(&done, &errs)
	}
	w.c.Net.RunFor(5 * time.Second)
	if w.ct.Traffic[w.vip] != 5 {
		t.Fatalf("traffic stat = %d, want 5", w.ct.Traffic[w.vip])
	}
}

func TestControllerStop(t *testing.T) {
	w := newWorld(8, 1)
	w.ct.Stop()
	w.c.Yoda[0].Fail()
	w.c.Net.RunFor(5 * time.Second)
	if w.ct.Detections != 0 {
		t.Fatal("stopped controller still monitoring")
	}
}
