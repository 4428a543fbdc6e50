package experiments

import (
	"fmt"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/reconfig"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

// UpgradeConfig parameterizes the §7.5 rolling-upgrade experiment: a
// fleet serving a continuous closed-loop workload is upgraded one
// instance at a time — drain through δ-bounded reconfiguration waves,
// restart under a fresh config, re-admit — and every client request must
// still succeed.
type UpgradeConfig struct {
	Seed      int64
	Instances int
	// VIPs is how many services share the fleet; more VIPs means finer
	// migration granularity for the planner.
	VIPs int
	// ClientProcs closed-loop client processes per VIP.
	ClientProcs int
	// Duration of the workload; the upgrade starts at UpgradeAt.
	Duration  time.Duration
	UpgradeAt time.Duration
	// RestartDelay is the simulated per-instance reboot time.
	RestartDelay time.Duration
	// Delta is δ, the per-wave migrated-flow bound (Eq. 6–7).
	Delta float64
	// HTTPTimeout is the browser timeout (paper: 30 s).
	HTTPTimeout time.Duration
	// ObjectSize per request.
	ObjectSize int
}

// DefaultUpgradeConfig upgrades a 4-instance fleet serving 2 VIPs under
// 2×12 closed-loop clients with δ = 25%.
func DefaultUpgradeConfig() UpgradeConfig {
	return UpgradeConfig{
		Seed:         1,
		Instances:    4,
		VIPs:         2,
		ClientProcs:  12,
		Duration:     60 * time.Second,
		UpgradeAt:    5 * time.Second,
		RestartDelay: 2 * time.Second,
		Delta:        0.25,
		HTTPTimeout:  30 * time.Second,
		ObjectSize:   40 * 1024,
	}
}

// UpgradeResult is the outcome of the rolling-upgrade experiment.
type UpgradeResult struct {
	Cfg UpgradeConfig

	// Requests / Failed over the whole run. The paper's claim (§7.5) is
	// Failed == 0.
	Requests int
	Failed   int
	Latency  *metrics.DurationHistogram

	// Upgrade is the executor's final state; its counters sum every drain
	// and re-admission wave.
	Upgrade reconfig.Stats

	// Detections/Revivals are the monitor's view of the restarts.
	Detections int
	Revivals   int

	// RestartsSeen counts instances whose incarnation changed (sanity:
	// must equal Upgraded).
	RestartsSeen int
}

// RunUpgrade executes the experiment.
func RunUpgrade(cfg UpgradeConfig) *UpgradeResult {
	ctCfg := controller.DefaultConfig()
	ctCfg.ScaleInterval = 0 // isolate the upgrade from scaling
	ctCfg.Reconfig = reconfig.Options{
		Delta:        cfg.Delta,
		DrainQuiet:   time.Second,
		DrainTimeout: 10 * time.Second,
	}
	b := testbed.New(testbed.Config{
		Seed: cfg.Seed, Objects: oneObject("/obj", cfg.ObjectSize),
		Backends: 4, Stores: 4, LBs: cfg.Instances, Controller: &ctCfg,
	})
	c, ct := b.C, b.Ctl

	res := &UpgradeResult{Cfg: cfg, Latency: metrics.NewDurationHistogram()}
	ccfg := httpsim.DefaultClientConfig()
	ccfg.Timeout = cfg.HTTPTimeout

	// Closed-loop clients on every VIP (same driver as Figure 12); the
	// VIPs after the bed's own share its backends.
	for v := 0; v < cfg.VIPs; v++ {
		vip := b.VIP
		if v > 0 {
			vip = b.AddVIP(fmt.Sprintf("svc-%d", v+1), b.Backends)
		}
		b.ClosedLoop(vip, cfg.ClientProcs, cfg.Duration, ccfg, "/obj", func(_ time.Duration, r *httpsim.FetchResult) {
			res.Requests++
			if r.Err != nil {
				res.Failed++
			}
			res.Latency.Add(r.Elapsed())
		})
	}

	before := append([]*core.Instance(nil), c.Yoda...)
	c.Net.Schedule(cfg.UpgradeAt, func() {
		if err := ct.StartRollingUpgrade(core.DefaultConfig(), tcpstore.DefaultConfig(), cfg.RestartDelay); err != nil {
			panic(fmt.Sprintf("experiments: upgrade start: %v", err))
		}
	})

	c.Net.RunFor(cfg.Duration + cfg.HTTPTimeout + 10*time.Second)

	res.Upgrade = ct.ReconfigStats()
	if res.Upgrade.Err != "" {
		panic("experiments: upgrade failed: " + res.Upgrade.Err)
	}
	res.Detections = ct.Detections
	res.Revivals = ct.Revivals
	for i, in := range c.Yoda {
		if in != before[i] {
			res.RestartsSeen++
		}
	}
	return res
}

// String prints the §7.5 summary.
func (r *UpgradeResult) String() string {
	up := r.Upgrade
	s := "§7.5 — zero-downtime rolling upgrade under continuous load\n"
	s += table(
		[]string{"instances", "upgraded", "restarts", "waves", "migrated", "resurrected", "broken", "max wave frac", "upgrade time"},
		[][]string{{
			fmt.Sprintf("%d", up.Instances),
			fmt.Sprintf("%d", up.Upgraded),
			fmt.Sprintf("%d", r.RestartsSeen),
			fmt.Sprintf("%d", up.Waves),
			fmt.Sprintf("%d", up.MigratedFlows),
			fmt.Sprintf("%d", up.ResurrectedFlows),
			fmt.Sprintf("%d", up.BrokenFlows),
			fmtPct(up.MaxWaveMigratedFrac),
			fmt.Sprintf("%.1fs", up.Duration.Seconds()),
		}},
	)
	s += fmt.Sprintf("requests=%d failed=%d (paper §7.5: zero failed requests); δ=%s, measured max wave=%s\n",
		r.Requests, r.Failed, fmtPct(r.Cfg.Delta), fmtPct(up.MaxWaveMigratedFrac))
	s += fmt.Sprintf("latency median=%s p99=%s max=%s; monitor detections=%d revivals=%d; rules reclaimed=%d\n",
		fmtMs(r.Latency.Median()), fmtMs(r.Latency.Quantile(0.99)), fmtMs(r.Latency.Max()),
		r.Detections, r.Revivals, up.RulesRemoved)
	return s
}
