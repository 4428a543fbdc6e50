// Package controller implements the Yoda controller (§6): the monitor
// that pings instances, Memcached servers and backends every 600 ms and
// repairs the L4 mappings on failure; the traffic-statistics reader; the
// policy (user-interface) component that installs rules; the scaling loop
// that adds instances under CPU pressure (§7.3); and the assignment
// updater that applies a new VIP→instance assignment to a live cluster
// (§4.5).
package controller

import (
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/rules"
	"repro/internal/stateless"
	"repro/internal/tcpstore"
)

// Config tunes the controller.
type Config struct {
	// PingInterval is the monitor period; failures are detected within at
	// most this delay (600 ms in the paper).
	PingInterval time.Duration
	// StatsInterval is how often per-VIP traffic counters are read.
	StatsInterval time.Duration
	// ScaleInterval is how often the scaling policy runs; CPUHigh is the
	// utilization that triggers adding instances; CPUTarget is the level
	// scale-out aims for. Scaling is disabled when ScaleInterval is 0.
	ScaleInterval time.Duration
	CPUHigh       float64
	CPUTarget     float64

	// Reconfig tunes the live reconfiguration engine assignments are
	// applied through (δ migration bound, drain timings). The zero value
	// means single-wave rollouts with default drain timings.
	Reconfig reconfig.Options
}

// DefaultConfig matches the paper's deployment.
func DefaultConfig() Config {
	return Config{
		PingInterval:  600 * time.Millisecond,
		StatsInterval: time.Second,
		ScaleInterval: time.Second,
		CPUHigh:       0.75,
		CPUTarget:     0.60,
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
	deadInstances  map[netsim.IP][]netsim.IP
	lastStoreCount int
	timers         [nLoops]netsim.Timer // each loop's one pending tick
	running        bool

	// exec is the live reconfiguration engine, the one driver of target
	// mappings and rolling upgrades; upgradeCfg and upgradeStoreCfg are
	// the configs the running upgrade restarts instances under.
	exec            *reconfig.Executor
	upgradeCfg      core.Config
	upgradeStoreCfg tcpstore.Config

	// Provision creates a new Yoda instance when the scaling loop needs
	// one. Defaults to cluster.AddYoda with default configs.
	Provision func() *core.Instance

	// Traffic accumulates per-VIP request counts from instance stats.
	Traffic map[netsim.IP]uint64
	// SNATExhausted accumulates dials rejected for lack of SNAT ports
	// across the cluster (from instance stats; a non-zero rate means the
	// per-instance port slices need widening).
	SNATExhausted uint64
	// Detections counts instance failures detected.
	Detections int
	// Revivals counts dead instances detected alive again and re-admitted.
	Revivals int
	// ScaleOuts counts scale-out actions taken.
	ScaleOuts int
	// InstancesAdded counts instances added by scaling.
	InstancesAdded int
}

// New creates a controller over a cluster.
func New(c *cluster.Cluster, cfg Config) *Controller {
	ct := &Controller{
		C:             c,
		cfg:           cfg,
		policies:      make(map[netsim.IP][]rules.Rule),
		vipInstances:  make(map[netsim.IP][]netsim.IP),
		deadInstances: make(map[netsim.IP][]netsim.IP),
		Traffic:       make(map[netsim.IP]uint64),
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
		in.InstallRules(vip, rs)
		ips = append(ips, in.IP())
	}
	ct.vipInstances[vip] = ips
	ct.C.L4.SetMappingNow(vip, ips)
	ct.C.HybridRecordPolicy(vip, rs)
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

// ApplyTarget moves the cluster to the given VIP→instance mapping
// through the reconfiguration engine: rules are installed on newly
// assigned instances first, then the L4 mappings are switched
// (staggered, as real muxes update non-atomically), then — once the
// losing instances' residual flows have drained — the losers' rules are
// removed, reclaiming their rule capacity. Waves respect the configured
// δ migration bound. VIPs absent from target keep their current mapping.
// Returns reconfig.ErrBusy while a reconfiguration or an upgrade runs.
func (ct *Controller) ApplyTarget(target map[netsim.IP][]netsim.IP) error {
	return ct.exec.Apply(target)
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

// ReconfigStats returns the current (or last finished) reconfiguration
// or rolling upgrade's stats.
func (ct *Controller) ReconfigStats() reconfig.Stats { return ct.exec.Stats() }

// StartRollingUpgrade upgrades every currently live instance, one at a
// time: drain through a δ-bounded reconfig plan, restart under the new
// configs after restartDelay (0 = the default 2 s), re-admit. Returns
// reconfig.ErrBusy while a reconfiguration or an upgrade runs.
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
	var out []*core.Instance
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
	ct.every(loopStats, ct.cfg.StatsInterval, ct.statsTick)
	if ct.cfg.ScaleInterval > 0 {
		ct.every(loopScaling, ct.cfg.ScaleInterval, ct.scaleTick)
	}
}

// Stop cancels all loops.
func (ct *Controller) Stop() {
	ct.running = false
	for _, t := range ct.timers {
		t.Stop()
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
	// Memcached servers: when the live set changes, push the new server
	// list into every instance's TCPStore client so new keys avoid dead
	// replicas (§6: the monitor pings the Memcached servers too; the paper
	// does not re-replicate existing keys, and neither do we — flows
	// finish faster than replication would).
	live := make([]netsim.HostPort, 0, len(ct.C.StoreServers))
	for i, srv := range ct.C.StoreServers {
		if srv.Host().Alive() {
			live = append(live, ct.C.StoreAddrs[i])
		}
	}
	if len(live) != ct.lastStoreCount {
		ct.lastStoreCount = len(live)
		for _, in := range ct.C.Yoda {
			in.Store().SetServers(live)
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
		for vip, st := range in.ReadStats() {
			ct.Traffic[vip] += st.NewFlows
			ct.SNATExhausted += st.SNATExhausted
		}
	}
}

// scaleTick implements the §7.3 behaviour: when average instance CPU over
// the last interval exceeds CPUHigh, add enough instances to bring the
// projected utilization down to CPUTarget, give them every VIP's rules,
// and update the L4 mappings.
func (ct *Controller) scaleTick() {
	live := ct.liveInstances()
	if len(live) == 0 || ct.Provision == nil {
		return
	}
	now := ct.C.Net.Now()
	from := now - ct.cfg.ScaleInterval
	avg := 0.0
	for _, in := range live {
		avg += in.CPU.UtilizationClamped(from, now)
	}
	avg /= float64(len(live))
	if avg <= ct.cfg.CPUHigh {
		return
	}
	need := int(float64(len(live))*avg/ct.cfg.CPUTarget+0.999) - len(live)
	if need <= 0 {
		return
	}
	ct.ScaleOuts++
	ct.InstancesAdded += need
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
