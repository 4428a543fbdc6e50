package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/controller"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// Fig12Config parameterizes the failure-recovery experiment (§7.2).
type Fig12Config struct {
	Seed int64
	// Instances is the LB fleet size; Kill of them fail simultaneously.
	Instances int
	Kill      int
	// ClientProcs closed-loop client processes (paper: 20 per client).
	ClientProcs int
	// Duration of the run; the failure hits at FailAt.
	Duration time.Duration
	FailAt   time.Duration
	// HTTPTimeout is the browser timeout (paper: 30 s).
	HTTPTimeout time.Duration
	// ObjectSize per request.
	ObjectSize int
	// Parallel runs the three arms on separate goroutines. Each arm owns
	// an independent cluster seeded from Seed, so results are identical to
	// a sequential run.
	Parallel bool
}

// DefaultFig12Config mirrors §7.2: 10 instances, 2 killed, 20 client
// processes, 30 s HTTP timeout.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{
		Seed:        1,
		Instances:   10,
		Kill:        2,
		ClientProcs: 20,
		Duration:    40 * time.Second,
		FailAt:      5 * time.Second,
		HTTPTimeout: 30 * time.Second,
		ObjectSize:  40 * 1024,
	}
}

// Fig12Arm is one curve of Figure 12(a).
type Fig12Arm struct {
	Name       string
	Requests   int
	Broken     int
	BrokenFrac float64
	Latency    *metrics.DurationHistogram
	// Affected counts requests in flight at the failure instant;
	// AffectedBroken is how many of those broke. This is the denominator
	// the paper's "24% of flows" uses: flows the failure could touch.
	Affected       int
	AffectedBroken int
	// MaxExtra is the largest latency among successful requests minus the
	// no-failure median — how much the failure stretched the tail.
	MaxExtra time.Duration
}

// AffectedBrokenFrac returns AffectedBroken/Affected.
func (a *Fig12Arm) AffectedBrokenFrac() float64 {
	if a.Affected == 0 {
		return 0
	}
	return float64(a.AffectedBroken) / float64(a.Affected)
}

// Fig12Result reproduces Figure 12(a): request-latency CDFs under LB
// failure for Yoda, HAProxy-noretry and HAProxy-retry.
type Fig12Result struct {
	Yoda           Fig12Arm
	HAProxyNoRetry Fig12Arm
	HAProxyRetry   Fig12Arm
}

// RunFig12 runs the three arms, concurrently when cfg.Parallel is set
// (each arm simulates its own cluster from the same seed, so the output
// does not depend on the mode).
func RunFig12(cfg Fig12Config) *Fig12Result {
	res := &Fig12Result{}
	arms := []struct {
		out     *Fig12Arm
		name    string
		yoda    bool
		retries int
	}{
		{&res.Yoda, "yoda", true, 0},
		{&res.HAProxyNoRetry, "haproxy-noretry", false, 0},
		{&res.HAProxyRetry, "haproxy-retry", false, 1},
	}
	if cfg.Parallel {
		var wg sync.WaitGroup
		for _, a := range arms {
			wg.Add(1)
			go func(out *Fig12Arm, name string, yoda bool, retries int) {
				defer wg.Done()
				*out = runFig12Arm(cfg, name, yoda, retries)
			}(a.out, a.name, a.yoda, a.retries)
		}
		wg.Wait()
	} else {
		for _, a := range arms {
			*a.out = runFig12Arm(cfg, a.name, a.yoda, a.retries)
		}
	}
	return res
}

func runFig12Arm(cfg Fig12Config, name string, yoda bool, retries int) Fig12Arm {
	ctCfg := controller.DefaultConfig()
	ctCfg.ScaleInterval = 0 // isolate failure recovery from scaling
	b := testbed.New(testbed.Config{
		Seed: cfg.Seed, Objects: oneObject("/obj", cfg.ObjectSize),
		Backends: 6, Stores: 4, LBs: cfg.Instances, HAProxy: !yoda, Controller: &ctCfg,
	})

	arm := Fig12Arm{Name: name, Latency: metrics.NewDurationHistogram()}
	ccfg := httpsim.DefaultClientConfig()
	ccfg.Timeout = cfg.HTTPTimeout
	ccfg.Retries = retries
	b.ClosedLoop(b.VIP, cfg.ClientProcs, cfg.Duration, ccfg, "/obj", func(started time.Duration, r *httpsim.FetchResult) {
		arm.Requests++
		spansFailure := started <= cfg.FailAt && b.C.Net.Now() > cfg.FailAt
		if spansFailure {
			arm.Affected++
		}
		if r.Err != nil {
			arm.Broken++
			if spansFailure {
				arm.AffectedBroken++
			}
		}
		arm.Latency.Add(r.Elapsed())
	})

	// Kill cfg.Kill instances simultaneously at FailAt. Yoda's monitor
	// repairs the mapping; for HAProxy the bed does, a ping interval later.
	b.C.Net.Schedule(cfg.FailAt, func() { b.FailBusiest(cfg.Kill) })
	b.C.Net.RunFor(cfg.Duration + cfg.HTTPTimeout + 10*time.Second)
	if arm.Requests > 0 {
		arm.BrokenFrac = float64(arm.Broken) / float64(arm.Requests)
	}
	med := arm.Latency.Median()
	if arm.Latency.Count() > 0 {
		arm.MaxExtra = arm.Latency.Max() - med
	}
	return arm
}

// String prints the per-arm summary and CDF knee points.
func (r *Fig12Result) String() string {
	mk := func(a Fig12Arm) []string {
		return []string{
			a.Name,
			fmt.Sprintf("%d", a.Requests),
			fmtPct(a.BrokenFrac),
			fmt.Sprintf("%d/%d", a.AffectedBroken, a.Affected),
			fmtMs(a.Latency.Median()),
			fmtMs(a.Latency.Quantile(0.99)),
			fmtMs(a.Latency.Max()),
		}
	}
	s := "Figure 12(a) — failure recovery: request latency under 2/10 LB failures\n"
	s += table(
		[]string{"arm", "requests", "broken", "broken@failure", "median", "p99", "max"},
		[][]string{mk(r.Yoda), mk(r.HAProxyNoRetry), mk(r.HAProxyRetry)},
	)
	s += fmt.Sprintf("of flows in flight at the failure: yoda broke %s, haproxy-noretry broke %s (paper: 0%% vs 24%%)\n",
		fmtPct(r.Yoda.AffectedBrokenFrac()), fmtPct(r.HAProxyNoRetry.AffectedBrokenFrac()))
	s += fmt.Sprintf("yoda max extra latency=%.1fs (paper: 0.6–3 s); haproxy-retry tail=%.1fs (paper: 30s+)\n",
		r.Yoda.MaxExtra.Seconds(), r.HAProxyRetry.Latency.Max().Seconds())
	return s
}

// Fig12bEvent is one row of the Figure 12(b) packet timeline.
type Fig12bEvent struct {
	At    time.Duration
	Desc  string
	Since time.Duration // relative to the failure instant
}

// Fig12bResult reproduces Figure 12(b): the server-side packet timeline
// of one flow across a Yoda instance failure.
type Fig12bResult struct {
	FailAt    time.Duration
	Events    []Fig12bEvent
	Recovered bool
}

// RunFig12b traces a single flow through an instance failure.
func RunFig12b(seed int64) *Fig12bResult {
	b := testbed.New(testbed.Config{Seed: seed, Objects: oneObject("/big", 300*1024), Backends: 1, Stores: 3, LBs: 2})

	res := &Fig12bResult{}
	serverIP := b.C.Backends["srv-1"].Rec.Addr.IP
	var maxSeqSeen uint32
	haveSeq := false
	b.C.Net.SetTracer(func(ev netsim.TraceEvent) {
		pkt := ev.Packet
		// Watch data packets leaving the backend server, at their first
		// hop only (the VIP); the encapsulated VIP→instance copy of the
		// same packet is skipped so each transmission appears once —
		// except when that copy is dropped at a dead instance, which is
		// exactly the event the figure highlights.
		if pkt.Src.IP != serverIP || len(pkt.Payload) == 0 {
			return
		}
		if pkt.Outer != nil && !ev.Dropped {
			return
		}
		kind := "data"
		if haveSeq && int32(pkt.Seq-maxSeqSeen) <= 0 {
			kind = "retransmission"
		}
		if !haveSeq || int32(pkt.Seq-maxSeqSeen) > 0 {
			maxSeqSeen = pkt.Seq
			haveSeq = true
		}
		// Before the failure the transfer produces thousands of ordinary
		// data events; keep the timeline readable by recording only
		// retransmissions plus post-failure traffic.
		if res.FailAt == 0 && kind == "data" {
			return
		}
		desc := fmt.Sprintf("server %s seq=%d", kind, pkt.Seq)
		if ev.Dropped {
			desc += " (DROPPED: " + ev.Reason + ")"
		}
		res.Events = append(res.Events, Fig12bEvent{At: ev.At, Desc: desc})
	})

	cl := b.C.NewClient(httpsim.DefaultClientConfig())
	var fr *httpsim.FetchResult
	cl.Get(b.Addr, "/big", func(r *httpsim.FetchResult) { fr = r })
	b.C.Net.RunFor(200 * time.Millisecond)
	b.OnRepair = func(netsim.IP) {
		res.Events = append(res.Events, Fig12bEvent{At: b.C.Net.Now(), Desc: "monitor updates L4 mapping"})
	}
	b.FailBusiest(1) // the one instance that carries the flow
	res.FailAt = b.C.Net.Now()
	res.Events = append(res.Events, Fig12bEvent{At: res.FailAt, Desc: "YODA instance fails (point a)"})
	b.C.Net.RunFor(30 * time.Second)
	res.Recovered = fr != nil && fr.Err == nil
	for i := range res.Events {
		res.Events[i].Since = res.Events[i].At - res.FailAt
	}
	return res
}

// String prints the timeline.
func (r *Fig12bResult) String() string {
	s := "Figure 12(b) — server-side packet timeline across a YODA failure\n"
	for _, ev := range r.Events {
		if ev.Since < -50*time.Millisecond || ev.Since > 3*time.Second {
			continue
		}
		s += fmt.Sprintf("  t=%+8.0fms  %s\n", float64(ev.Since)/float64(time.Millisecond), ev.Desc)
	}
	s += fmt.Sprintf("flow recovered without client timeout: %v\n", r.Recovered)
	return s
}
