// Package controller implements the Yoda controller (§6): the monitor
// that pings instances, Memcached servers and backends every 600 ms and
// repairs the L4 mappings on failure; the traffic-statistics reader; the
// policy (user-interface) component that installs rules; the scaling loop
// that adds instances under CPU pressure (§7.3); and the rolling upgrade
// (§7.5), which drains and re-admits instances through the live
// reconfiguration engine.
package controller

import (
	"slices"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/rules"
	"repro/internal/stateless"
	"repro/internal/tcpstore"
)

// The paper's deployment reads per-VIP traffic counters every
// statsInterval; the scaling policy adds instances when average
// utilization over its interval exceeds cpuHigh, enough to bring it down
// to cpuTarget.
const (
	statsInterval = time.Second
	cpuHigh       = 0.75
	cpuTarget     = 0.60
)

// Config tunes the controller.
type Config struct {
	// PingInterval is the monitor period; failures are detected within at
	// most this delay (600 ms in the paper).
	PingInterval time.Duration
	// ScaleInterval is how often the scaling policy runs; scaling is
	// disabled when it is 0.
	ScaleInterval time.Duration

	// Reconfig tunes the live reconfiguration engine a rolling upgrade
	// drains through (δ migration bound, drain timings). The zero value
	// means single-wave drains with default drain timings.
	Reconfig reconfig.Options
}

// DefaultConfig matches the paper's deployment.
func DefaultConfig() Config {
	return Config{
		PingInterval:  600 * time.Millisecond,
		ScaleInterval: time.Second,
	}
}

// Controller supervises a cluster.
type Controller struct {
	C   *cluster.Cluster
	cfg Config

	// policies is the user-interface state: the installed rule set per
	// VIP, pushed to instances that hold the VIP.
	policies map[netsim.IP][]rules.Rule
	// vipInstances is the current VIP→instance mapping the controller
	// maintains at the L4 LB.
	vipInstances map[netsim.IP][]netsim.IP

	// deadInstances maps a detected-dead instance to the (sorted) VIPs it
	// held at detection time, so a later revival can re-admit it.
	deadInstances map[netsim.IP][]netsim.IP
	timers        [nLoops]netsim.Timer // each loop's one pending tick
	running       bool
	// cpuRead is each instance's CPU reading (BusyBefore) at the last
	// scaling tick, or at Start, by meter: a restarted instance's new
	// incarnation has a meter of its own, which starts from 0.
	cpuRead map[*metrics.CPUMeter]time.Duration

	// exec is the live reconfiguration engine that drives rolling
	// upgrades; upgradeCfg and upgradeStoreCfg are the configs the running
	// upgrade restarts instances under.
	exec            *reconfig.Executor
	upgradeCfg      core.Config
	upgradeStoreCfg tcpstore.Config

	// Provision creates a new Yoda instance when the scaling loop needs
	// one. Defaults to cluster.AddYoda with default configs.
	Provision func() *core.Instance

	// SNATExhausted accumulates dials rejected for lack of SNAT ports
	// across the cluster (from instance stats; a non-zero rate means the
	// per-instance port slices need widening).
	SNATExhausted uint64
	// Detections counts instance failures detected.
	Detections int
	// Revivals counts dead instances detected alive again and re-admitted.
	Revivals int
}

// New creates a controller over a cluster.
func New(c *cluster.Cluster, cfg Config) *Controller {
	ct := &Controller{
		C:             c,
		cfg:           cfg,
		policies:      make(map[netsim.IP][]rules.Rule),
		vipInstances:  make(map[netsim.IP][]netsim.IP),
		deadInstances: make(map[netsim.IP][]netsim.IP),
	}
	ct.Provision = func() *core.Instance {
		return c.AddYoda(core.DefaultConfig(), tcpstore.DefaultConfig())
	}
	ct.exec = reconfig.NewExecutor(reconfig.Env{
		Net:       c.Net,
		L4:        c.L4,
		Instances: func() []*core.Instance { return ct.C.Yoda },
		RulesFor:  func(vip netsim.IP) []rules.Rule { return ct.policies[vip] },
		Mappings:  ct.mappingSnapshot,
		Restart:   ct.restart,
		OnMapping: func(vip netsim.IP, insts []netsim.IP) {
			ct.vipInstances[vip] = append([]netsim.IP(nil), insts...)
		},
		OnWaveStart: ct.hybridWaveStart,
		OnWaveDone:  func() { ct.C.HybridRefresh() },
	}, cfg.Reconfig)
	return ct
}

// SetPolicy installs (or replaces) the rule set for a VIP on the given
// instances (nil = all live instances) and updates the L4 mapping. This
// is the user-interface + assignment-updater path combined for the
// common all-instances case.
func (ct *Controller) SetPolicy(vip netsim.IP, rs []rules.Rule, insts []*core.Instance) {
	ct.policies[vip] = append([]rules.Rule(nil), rs...)
	if insts == nil {
		insts = ct.liveInstances()
	}
	var ips []netsim.IP
	for _, in := range insts {
		ips = append(ips, in.IP())
	}
	ct.vipInstances[vip] = ips
	ct.C.InstallPolicy(vip, rs, insts)
}

// UpdatePolicy changes the rules for a VIP on every instance that holds
// it. Existing connections are untouched: instances apply new policies to
// new connections only (§5.2).
func (ct *Controller) UpdatePolicy(vip netsim.IP, rs []rules.Rule) {
	ct.policies[vip] = append([]rules.Rule(nil), rs...)
	for _, in := range ct.C.Yoda {
		if in.HasVIP(vip) {
			in.InstallRules(vip, rs)
		}
	}
	ct.C.HybridRecordPolicy(vip, rs)
}

// hybridWaveStart re-points the derivation table's entries for the VIPs
// a reconfig wave moves at their TARGET mappings, then bumps the epoch
// and flushes unpersisted flows — before any rule install or mapping
// flip. From that point, flows handled by losing instances fail the
// write-time owner check (the loser is absent from the target entry) and
// stay persisted, so the drain's ReleaseVIPFlows never orphans an
// unpersisted flow; flows landing on target instances after the flip
// derive against the entry they will actually recover under.
func (ct *Controller) hybridWaveStart(moves []reconfig.Move) {
	h := ct.C.Hybrid
	if h == nil {
		return
	}
	for _, mv := range moves {
		if e, ok := h.VIP(mv.VIP); ok {
			h.SetVIP(mv.VIP, stateless.VIPEntry{
				Instances: append([]netsim.IP(nil), mv.To...),
				Pool:      e.Pool,
			})
		}
	}
	ct.C.HybridBumpFlush()
}

// ReconfigStats returns the current (or last finished) rolling upgrade's
// stats.
func (ct *Controller) ReconfigStats() reconfig.Stats { return ct.exec.Stats() }

// StartRollingUpgrade upgrades every currently live instance, one at a
// time: drain through a δ-bounded reconfig plan, restart under the new
// configs after restartDelay (0 = the default 2 s), re-admit. Returns
// reconfig.ErrBusy while an upgrade runs.
func (ct *Controller) StartRollingUpgrade(cfg core.Config, storeCfg tcpstore.Config, restartDelay time.Duration) error {
	if ct.exec.Running() {
		return reconfig.ErrBusy
	}
	ct.upgradeCfg, ct.upgradeStoreCfg = cfg, storeCfg
	var order []netsim.IP
	for _, in := range ct.liveInstances() {
		order = append(order, in.IP())
	}
	return ct.exec.Upgrade(order, restartDelay)
}

// restart reboots the instance at ip under the running upgrade's configs.
func (ct *Controller) restart(ip netsim.IP) {
	for i, in := range ct.C.Yoda {
		if in.IP() == ip {
			ct.C.RestartYoda(i, ct.upgradeCfg, ct.upgradeStoreCfg)
			return
		}
	}
}

// mappingSnapshot copies the controller's VIP→instance view.
func (ct *Controller) mappingSnapshot() map[netsim.IP][]netsim.IP {
	out := make(map[netsim.IP][]netsim.IP, len(ct.vipInstances))
	for vip, ips := range ct.vipInstances {
		out[vip] = append([]netsim.IP(nil), ips...)
	}
	return out
}

func (ct *Controller) liveInstances() []*core.Instance {
	out := make([]*core.Instance, 0, len(ct.C.Yoda)) // never nil: nil means every instance to InstallPolicy
	for _, in := range ct.C.Yoda {
		if in.Host().Alive() {
			out = append(out, in)
		}
	}
	return out
}

// The controller's periodic loops, as indices into Controller.timers.
const (
	loopMonitor = iota
	loopStats
	loopScaling
	nLoops
)

// Start launches the monitor, stats and scaling loops.
func (ct *Controller) Start() {
	if ct.running {
		return
	}
	ct.running = true
	ct.every(loopMonitor, ct.cfg.PingInterval, ct.monitorTick)
	ct.every(loopStats, statsInterval, ct.statsTick)
	if ct.cfg.ScaleInterval > 0 {
		ct.readCPU()
		ct.every(loopScaling, ct.cfg.ScaleInterval, ct.scaleTick)
	}
}

// Stop cancels all loops.
func (ct *Controller) Stop() {
	ct.running = false
	for _, t := range ct.timers {
		ct.C.Net.Stop(t)
	}
}

// every runs tick each interval until Stop, keeping only the handle of
// the tick that is pending: what the controller holds must not grow with
// virtual time.
func (ct *Controller) every(loop int, interval time.Duration, tick func()) {
	if !ct.running {
		return
	}
	ct.timers[loop] = ct.C.Net.Schedule(interval, func() {
		tick()
		ct.every(loop, interval, tick)
	})
}

// monitorTick pings every component and repairs mappings for the dead.
func (ct *Controller) monitorTick() {
	// Yoda instances: a dead instance is removed from all L4 mappings so
	// the underlying LB re-routes its flows to survivors (§4.2). The VIPs
	// it held are remembered so a revival can restore them.
	for _, in := range ct.C.Yoda {
		ip := in.IP()
		_, wasDead := ct.deadInstances[ip]
		alive := in.Host().Alive()
		switch {
		case !alive && !wasDead:
			var held []netsim.IP
			for vip, ips := range ct.vipInstances {
				if containsIP(ips, ip) {
					held = append(held, vip)
					ct.vipInstances[vip] = removeIP(ips, ip)
				}
			}
			sort.Slice(held, func(i, j int) bool { return held[i] < held[j] })
			ct.deadInstances[ip] = held
			ct.Detections++
			ct.C.L4.RemoveInstance(ip)
			// Hybrid: death marks only — no epoch bump, no entry rebuild.
			// The dead instance's unpersisted flows stay derivable under
			// the entry they were established under.
			if ct.C.Hybrid != nil {
				ct.C.Hybrid.MarkDead(ip)
			}
		case alive && wasDead:
			// Revival: the instance (or its restarted incarnation) is back.
			// Re-install the current policies for the VIPs it held at death
			// and re-admit it into their mappings. An instance that was
			// drained before its restart held nothing — re-admission is then
			// the upgrade driver's job.
			held := ct.deadInstances[ip]
			delete(ct.deadInstances, ip)
			ct.Revivals++
			if ct.C.Hybrid != nil {
				ct.C.Hybrid.Revive(ip)
			}
			for _, vip := range held {
				rs, ok := ct.policies[vip]
				if !ok {
					continue // VIP removed while the instance was down
				}
				in.InstallRules(vip, rs)
				if !containsIP(ct.vipInstances[vip], ip) {
					ct.vipInstances[vip] = append(ct.vipInstances[vip], ip)
				}
				ct.C.L4.SetMapping(vip, ct.vipInstances[vip])
			}
		}
	}
	// Backends: mark health so rule evaluation skips them, and terminate
	// the connections of newly dead backends so clients fail fast instead
	// of waiting out their HTTP timeouts (§5.2).
	for name, b := range ct.C.Backends {
		alive := b.Server.Host().Alive()
		wasDead := ct.C.Health.Dead[name]
		ct.C.Health.Dead[name] = !alive
		if !alive && !wasDead {
			for _, in := range ct.liveInstances() {
				in.TerminateBackendFlows(b.Rec.Addr)
			}
		}
	}
	// Memcached servers: when the live set changes, push a ring over it
	// into every instance's TCPStore client, and into the cluster for
	// instances started later, so new keys avoid dead replicas (§6: the
	// monitor pings the Memcached servers too; the paper does not
	// re-replicate existing keys, and neither do we — flows finish faster
	// than replication would).
	live := make([]netsim.HostPort, 0, len(ct.C.StoreServers))
	for i, srv := range ct.C.StoreServers {
		if srv.Host().Alive() {
			live = append(live, ct.C.StoreAddrs[i])
		}
	}
	if !slices.Equal(live, ct.C.StoreRing.Servers()) {
		ct.C.StoreRing = tcpstore.NewRing(live)
		for _, in := range ct.C.Yoda {
			in.Store().SetRing(ct.C.StoreRing)
		}
	}
}

func containsIP(ips []netsim.IP, ip netsim.IP) bool {
	for _, x := range ips {
		if x == ip {
			return true
		}
	}
	return false
}

func removeIP(ips []netsim.IP, dead netsim.IP) []netsim.IP {
	out := ips[:0]
	for _, ip := range ips {
		if ip != dead {
			out = append(out, ip)
		}
	}
	return out
}

// statsTick reads every live instance's per-VIP counters.
func (ct *Controller) statsTick() {
	for _, in := range ct.liveInstances() {
		for _, st := range in.ReadStats() {
			ct.SNATExhausted += st.SNATExhausted
		}
	}
}

// readCPU takes every instance's CPU reading now into cpuRead and
// returns the readings it replaces.
func (ct *Controller) readCPU() map[*metrics.CPUMeter]time.Duration {
	last, now := ct.cpuRead, ct.C.Net.Now()
	ct.cpuRead = make(map[*metrics.CPUMeter]time.Duration, len(ct.C.Yoda))
	for _, in := range ct.C.Yoda {
		ct.cpuRead[in.CPU] = in.CPU.BusyBefore(now)
	}
	return last
}

// scaleTick implements the §7.3 behaviour: when average instance CPU over
// the last interval exceeds cpuHigh, add enough instances to bring the
// projected utilization down to cpuTarget, give them every VIP's rules,
// and update the L4 mappings.
func (ct *Controller) scaleTick() {
	last := ct.readCPU()
	live := ct.liveInstances()
	if len(live) == 0 || ct.Provision == nil {
		return
	}
	avg := 0.0
	for _, in := range live {
		avg += in.CPU.UtilizationClamped(ct.cpuRead[in.CPU]-last[in.CPU], ct.cfg.ScaleInterval)
	}
	avg /= float64(len(live))
	if avg <= cpuHigh {
		return
	}
	need := int(float64(len(live))*avg/cpuTarget+0.999) - len(live)
	if need <= 0 {
		return
	}
	for i := 0; i < need; i++ {
		in := ct.Provision()
		for vip, rs := range ct.policies {
			in.InstallRules(vip, rs)
		}
	}
	// Refresh mappings to include the newcomers.
	for vip := range ct.policies {
		var ips []netsim.IP
		for _, in := range ct.liveInstances() {
			if in.HasVIP(vip) {
				ips = append(ips, in.IP())
			}
		}
		ct.vipInstances[vip] = ips
		ct.C.L4.SetMapping(vip, ips)
	}
	ct.C.HybridRefresh()
}
