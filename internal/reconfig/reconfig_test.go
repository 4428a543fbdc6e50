package reconfig_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/rules"
	"repro/internal/testbed"
)

// migrationWorld is a controller-less testbed: the test owns the
// mappings and drives the reconfig engine directly against the
// dataplane.
type migrationWorld struct {
	c       *cluster.Cluster
	vip     netsim.IP
	rs      []rules.Rule
	mapping map[netsim.IP][]netsim.IP
	exec    *reconfig.Executor

	requests int
	failed   int
}

func newMigrationWorld(t testing.TB, seed int64, nYoda int, opt reconfig.Options) *migrationWorld {
	t.Helper()
	b := testbed.New(testbed.Config{
		Seed: seed, Objects: map[string][]byte{"/obj": bytes.Repeat([]byte("y"), 40*1024)},
		Backends: 3, Stores: 3, LBs: nYoda,
	})
	c := b.C
	w := &migrationWorld{c: c, vip: b.VIP, mapping: map[netsim.IP][]netsim.IP{}}
	w.rs = c.SimpleSplitRules(b.Backends...)
	var all []netsim.IP
	for _, in := range c.Yoda {
		all = append(all, in.IP())
	}
	w.mapping[w.vip] = all
	w.exec = reconfig.NewExecutor(reconfig.Env{
		Net:       c.Net,
		L4:        c.L4,
		Instances: func() []*core.Instance { return c.Yoda },
		RulesFor:  func(netsim.IP) []rules.Rule { return w.rs },
		OnMapping: func(vip netsim.IP, insts []netsim.IP) {
			w.mapping[vip] = append([]netsim.IP(nil), insts...)
		},
	}, opt)
	return w
}

// load starts closed-loop clients that run until the given deadline.
func (w *migrationWorld) load(procs int, until time.Duration) {
	vipHP := netsim.HostPort{IP: w.vip, Port: 80}
	for p := 0; p < procs; p++ {
		cl := w.c.NewClient(httpsim.DefaultClientConfig())
		var loop func()
		loop = func() {
			if w.c.Net.Now() >= until {
				return
			}
			cl.Get(vipHP, "/obj", func(r *httpsim.FetchResult) {
				w.requests++
				if r.Err != nil {
					w.failed++
				}
				loop()
			})
		}
		w.c.Net.Schedule(time.Duration(p)*23*time.Millisecond, loop)
	}
}

func (w *migrationWorld) flowSnapshot() map[netsim.IP]map[netsim.IP]float64 {
	per := map[netsim.IP]float64{}
	for _, in := range w.c.Yoda {
		if n := in.VIPFlowCount(w.vip); n > 0 {
			per[in.IP()] = float64(n)
		}
	}
	return map[netsim.IP]map[netsim.IP]float64{w.vip: per}
}

// TestMigrationRespectsDeltaAndResurrectsFlows is the packet-level
// tentpole test: shrink a VIP from 4 instances to 2 under δ=30% while
// closed-loop clients hammer it. Asserts (a) the measured per-wave
// migrated fraction never exceeds δ, (b) migrated flows complete via
// TCPStore resurrection — zero failed requests and no RST reaches a
// client, (c) the losers end with zero flows and zero rules for the VIP.
func TestMigrationRespectsDeltaAndResurrectsFlows(t *testing.T) {
	opt := reconfig.Options{Delta: 0.3, DrainQuiet: 500 * time.Millisecond, DrainTimeout: 8 * time.Second}
	w := newMigrationWorld(t, 7, 4, opt)

	clientRSTs := 0
	w.c.Net.SetTracer(func(ev netsim.TraceEvent) {
		if p := ev.Packet; p != nil && p.Flags.Has(netsim.FlagRST) && p.Dst.IP>>24 == 100 {
			clientRSTs++
		}
	})

	w.load(10, 12*time.Second)
	w.c.Net.RunFor(2 * time.Second) // build up steady-state flows

	keep := w.mapping[w.vip][:2]
	losers := w.mapping[w.vip][2:]
	st := reconfig.State{
		Current: map[netsim.IP][]netsim.IP{w.vip: w.mapping[w.vip]},
		Target:  map[netsim.IP][]netsim.IP{w.vip: keep},
		Flows:   w.flowSnapshot(),
	}
	plan, err := reconfig.NewPlan(st, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Two losers at ~25% of flows each under δ=30%: one removal per wave.
	if len(plan.Waves) != 2 {
		t.Fatalf("waves = %d, want 2", len(plan.Waves))
	}
	if err := w.exec.Start(plan); err != nil {
		t.Fatal(err)
	}
	w.c.Net.RunFor(40 * time.Second)

	stats := w.exec.Stats()
	if stats.Running {
		t.Fatalf("executor not done: %+v", stats)
	}
	if stats.MaxWaveMigratedFrac > opt.Delta+0.1 {
		t.Fatalf("measured wave migrated fraction %.3f exceeds δ=%.2f", stats.MaxWaveMigratedFrac, opt.Delta)
	}
	if stats.MigratedFlows == 0 {
		t.Fatal("no flows migrated — the test exercised nothing")
	}
	if stats.BrokenFlows != 0 {
		t.Fatalf("broken flows: %d", stats.BrokenFlows)
	}
	if stats.ResurrectedFlows == 0 {
		t.Fatal("no flow resurrected via TCPStore — migration killed them all")
	}
	if w.failed != 0 {
		t.Fatalf("%d/%d client requests failed during migration", w.failed, w.requests)
	}
	if clientRSTs != 0 {
		t.Fatalf("%d RSTs reached clients", clientRSTs)
	}
	byIP := map[netsim.IP]*core.Instance{}
	for _, in := range w.c.Yoda {
		byIP[in.IP()] = in
	}
	for _, lip := range losers {
		l := byIP[lip]
		if l.VIPFlowCount(w.vip) != 0 {
			t.Fatalf("loser %s still holds %d flows", lip, l.VIPFlowCount(w.vip))
		}
		if l.HasVIP(w.vip) {
			t.Fatalf("loser %s still has rules for the VIP", lip)
		}
	}
	if stats.RulesRemoved != len(losers) {
		t.Fatalf("rules removed = %d, want %d", stats.RulesRemoved, len(losers))
	}
	if got := w.mapping[w.vip]; len(got) != len(keep) {
		t.Fatalf("final mapping %v, want %v", got, keep)
	}
}

// TestExecutorRejectsConcurrentStart: the engine is single-flight.
func TestExecutorRejectsConcurrentStart(t *testing.T) {
	opt := reconfig.Options{}
	w := newMigrationWorld(t, 9, 3, opt)
	st := reconfig.State{
		Current: map[netsim.IP][]netsim.IP{w.vip: w.mapping[w.vip]},
		Target:  map[netsim.IP][]netsim.IP{w.vip: w.mapping[w.vip][:2]},
	}
	plan, err := reconfig.NewPlan(st, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.exec.Start(plan); err != nil {
		t.Fatal(err)
	}
	if err := w.exec.Start(plan); err != reconfig.ErrBusy {
		t.Fatalf("second Start = %v, want ErrBusy", err)
	}
	w.c.Net.RunFor(20 * time.Second)
	if w.exec.Stats().Running {
		t.Fatal("first run never finished")
	}
	// After completion a new run is accepted.
	st2 := reconfig.State{
		Current: map[netsim.IP][]netsim.IP{w.vip: w.mapping[w.vip]},
		Target:  map[netsim.IP][]netsim.IP{w.vip: st.Current[w.vip]},
	}
	plan2, err := reconfig.NewPlan(st2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.exec.Start(plan2); err != nil {
		t.Fatalf("restart after done: %v", err)
	}
	w.c.Net.RunFor(20 * time.Second)
}
