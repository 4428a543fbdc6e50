package testbed_test

import (
	"sort"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
	"repro/internal/workload"
)

var objects = map[string][]byte{
	"/obj": workload.SynthBody("/obj", 2048),
	"/big": workload.SynthBody("/big", 100*1024),
}

func quietController() *controller.Config {
	cfg := controller.DefaultConfig()
	cfg.ScaleInterval = 0
	return &cfg
}

// newBed is New with released send buffers poisoned, as in every test bed.
func newBed(cfg testbed.Config) *testbed.Bed {
	b := testbed.New(cfg)
	b.C.Net.PoisonReleasedBufs()
	return b
}

// Shape in, counts out, for both arms; a bed short of backends or of
// instances has no service yet.
func TestShape(t *testing.T) {
	type counts struct {
		backends, stores, yoda, haproxy, mapped int
		controller                              bool
	}
	for _, tc := range []struct {
		name string
		cfg  testbed.Config
		want counts
	}{
		{"yoda", testbed.Config{Backends: 3, Stores: 2, LBs: 4}, counts{3, 2, 4, 0, 4, false}},
		{"yoda+controller", testbed.Config{Backends: 1, Stores: 3, LBs: 2, Controller: quietController()}, counts{1, 3, 2, 0, 2, true}},
		{"haproxy: no stores, no controller", testbed.Config{Backends: 2, Stores: 3, LBs: 3, HAProxy: true, Controller: quietController()}, counts{2, 0, 0, 3, 3, false}},
		{"no backends", testbed.Config{Stores: 3, LBs: 2}, counts{0, 3, 2, 0, 0, false}},
		{"no instances", testbed.Config{Backends: 1}, counts{1, 0, 0, 0, 0, false}},
	} {
		tc.cfg.Objects = objects
		b := newBed(tc.cfg)
		c := b.C
		got := counts{len(c.Backends), len(c.StoreServers), len(c.Yoda), len(c.HAProxy), len(c.L4.Mapping(b.VIP)), b.Ctl != nil}
		if got != tc.want || len(b.Backends) != tc.want.backends || (b.VIP != 0) != (tc.want.mapped > 0) {
			t.Errorf("%s: got %+v (VIP %v, names %v), want %+v", tc.name, got, b.VIP, b.Backends, tc.want)
		}
	}
}

// FailBusiest(1) on a bed with one flow fails the instance that carries
// it and nothing else; the survivor takes the flow over (Yoda) or the
// flow breaks (HAProxy). Without a controller the mapping loses the
// victim exactly one ping interval later; with one the bed schedules
// nothing, the kill stops the timers of the victim's flows, and the
// monitor repairs the mapping within that interval.
func TestFailBusiestAndRepair(t *testing.T) {
	ping := controller.DefaultConfig().PingInterval
	for _, tc := range []struct {
		name string
		cfg  testbed.Config
	}{
		{"yoda", testbed.Config{}},
		{"haproxy", testbed.Config{HAProxy: true}},
		{"yoda+controller", testbed.Config{Controller: quietController()}},
	} {
		tc.cfg.Seed, tc.cfg.Objects, tc.cfg.Backends, tc.cfg.Stores, tc.cfg.LBs = 5, objects, 2, 3, 3
		b := newBed(tc.cfg)
		net := b.C.Net
		var res *httpsim.FetchResult
		b.C.NewClient(httpsim.DefaultClientConfig()).Get(b.Addr, "/big", func(r *httpsim.FetchResult) { res = r.Clone() })
		net.RunFor(200 * time.Millisecond)

		flows := func(i int) int { return b.C.Yoda[i].FlowCount() }
		alive := func(i int) bool { return b.C.Yoda[i].Host().Alive() }
		if tc.cfg.HAProxy {
			flows = func(i int) int { return b.C.HAProxy[i].Active }
			alive = func(i int) bool { return b.C.HAProxy[i].Host().Alive() }
		}
		carrier := -1
		for i := 0; i < 3; i++ {
			if flows(i) > 0 {
				carrier = i
			}
		}
		var repairedAt time.Duration
		net.SetTracer(func(ev netsim.TraceEvent) {
			if ev.Note == "mux remove instance" {
				repairedAt = ev.At
			}
		})
		// Each of the carrier's flows is a tunnel with only its idle timer
		// armed.
		failAt, pending, timers := net.Now(), net.Pending(), 0
		if !tc.cfg.HAProxy {
			timers = b.C.Yoda[carrier].ClientFlowCount()
		}
		failed := b.FailBusiest(1)
		if len(failed) != 1 || failed[0] != carrier {
			t.Fatalf("%s: failed %v, the flow's carrier is %d", tc.name, failed, carrier)
		}
		for i := 0; i < 3; i++ {
			if alive(i) == (i == carrier) {
				t.Fatalf("%s: instance %d alive=%v after failing %d", tc.name, i, alive(i), carrier)
			}
		}
		if tc.cfg.Controller != nil {
			if got := net.Pending(); got != pending-timers {
				t.Fatalf("%s: %d events pending after FailBusiest, want the %d before less the victim's %d idle timers: nothing scheduled beside a running controller",
					tc.name, got, pending, timers)
			}
			net.RunFor(ping)
			if b.Ctl.Detections != 1 || len(b.C.L4.Mapping(b.VIP)) != 2 {
				t.Fatalf("%s: monitor detections=%d mapping=%v", tc.name, b.Ctl.Detections, b.C.L4.Mapping(b.VIP))
			}
		} else {
			net.Run(failAt + ping - time.Nanosecond)
			if len(b.C.L4.Mapping(b.VIP)) != 3 {
				t.Fatalf("%s: victim withdrawn before the ping interval passed", tc.name)
			}
			net.Run(failAt + ping)
			if len(b.C.L4.Mapping(b.VIP)) != 2 || repairedAt != failAt+ping {
				t.Fatalf("%s: mapping %v, repaired at %v, want 2 members at %v", tc.name, b.C.L4.Mapping(b.VIP), repairedAt, failAt+ping)
			}
		}
		net.RunFor(40 * time.Second)
		if res == nil || (res.Err == nil) == tc.cfg.HAProxy {
			t.Fatalf("%s: flow result %+v; Yoda must save it, HAProxy cannot", tc.name, res)
		}
	}
}

// Closed-loop process k starts k×37 ms in, counted across calls: the
// multi-VIP upgrade run starts its processes with one call per VIP.
func TestClosedLoopStaggerAcrossCalls(t *testing.T) {
	b := newBed(testbed.Config{Seed: 1, Objects: objects, Backends: 2, Stores: 3, LBs: 2})
	var starts []time.Duration
	done := func(started time.Duration, r *httpsim.FetchResult) {
		if r.Err != nil {
			t.Errorf("fetch: %v", r.Err)
		}
		starts = append(starts, started)
	}
	// A /big fetch outlasts the window, so each process fetches once.
	b.ClosedLoop(b.VIP, 2, 150*time.Millisecond, httpsim.DefaultClientConfig(), "/big", done)
	b.ClosedLoop(b.AddVIP("second", b.Backends), 3, 150*time.Millisecond, httpsim.DefaultClientConfig(), "/big", done)
	b.C.Net.RunFor(10 * time.Second)
	sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
	if len(starts) != 5 {
		t.Fatalf("%d fetches, want one per process: %v", len(starts), starts)
	}
	for k, s := range starts {
		if s != time.Duration(k)*37*time.Millisecond {
			t.Fatalf("process starts %v, want k×37ms", starts)
		}
	}
}

// OpenLoop reads rate() at every request (fig13's load step), and the
// initial split leaves the backends past Split without traffic.
func TestOpenLoopRateStepAndSplit(t *testing.T) {
	b := newBed(testbed.Config{Seed: 2, Objects: objects, Backends: 3, Split: 2, Stores: 3, LBs: 2})
	rate := func() int {
		if b.C.Net.Now() >= 100*time.Millisecond {
			return 1000
		}
		return 100
	}
	fetched := 0
	b.OpenLoop(4, rate, 200*time.Millisecond, "/obj", func(r *httpsim.FetchResult) {
		if r.Err == nil {
			fetched++
		}
	})
	b.C.Net.RunFor(5 * time.Second)
	// 10 ms apart until 100 ms, 1 ms apart from there to 200 ms.
	if fetched != 10+100 {
		t.Fatalf("fetched %d, want 110", fetched)
	}
	srv := b.C.Backends
	if srv["srv-1"].Server.Requests == 0 || srv["srv-2"].Server.Requests == 0 || srv["srv-3"].Server.Requests != 0 {
		t.Fatalf("requests per backend: %d %d %d, want the first two only",
			srv["srv-1"].Server.Requests, srv["srv-2"].Server.Requests, srv["srv-3"].Server.Requests)
	}
}

// A scale-out provisions instances with the bed's own profiles, not the
// package defaults: here 3-replica store clients on single-core machines.
func TestScaleOutUsesBedProfiles(t *testing.T) {
	inst, store, ctl := core.DefaultConfig(), tcpstore.DefaultConfig(), controller.DefaultConfig()
	inst.Cores = 1
	inst.CPUConnPhase = 600 * time.Microsecond // ~1,500 req/s saturates the core
	store.Replicas = 3
	b := newBed(testbed.Config{
		Seed: 3, Objects: objects, Backends: 2, Stores: 4, LBs: 1,
		Instance: &inst, Store: &store, Controller: &ctl,
	})
	b.OpenLoop(8, func() int { return 1500 }, 1100*time.Millisecond, "/obj", func(*httpsim.FetchResult) {})
	b.C.Net.RunFor(1500 * time.Millisecond)
	if len(b.C.Yoda) < 2 {
		t.Fatalf("no scale-out: %d instance", len(b.C.Yoda))
	}
	for i, in := range b.C.Yoda {
		if in.Store().Replicas() != 3 || in.CPU.Cores != 1 {
			t.Errorf("instance %d: %d store replicas, %d cores; the bed's profile is 3 and 1", i, in.Store().Replicas(), in.CPU.Cores)
		}
	}
}
