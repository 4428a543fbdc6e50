package reconfig

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
)

// ErrBusy is returned when an operation is started while another runs.
var ErrBusy = errors.New("reconfig: a reconfiguration is already running")

// Executor timings no caller tunes.
const (
	// settlePoll is how often the executor checks whether all muxes have
	// applied a wave's mapping flips; drainPoll how often a losing
	// instance's residual flows are re-examined during the drain.
	settlePoll = 100 * time.Millisecond
	drainPoll  = 100 * time.Millisecond
	// readyPoll and readyTimeout bound an upgrade's wait for a restarted
	// instance to come back alive before re-admission.
	readyPoll    = 200 * time.Millisecond
	readyTimeout = 10 * time.Second
	// defaultRestartDelay is the modelled reboot time when Upgrade is
	// given none.
	defaultRestartDelay = 2 * time.Second
)

// Executor is the one driver of mapping changes. It runs one rolling
// upgrade (Upgrade) at a time and rejects a second with ErrBusy until
// the first has finished, its restarts and ready-waits included. Each
// plan runs wave by wave. All work happens on the simulation's event
// loop via scheduled callbacks, so the executor composes with any
// workload the network is carrying.
type Executor struct {
	env Env
	opt Options

	stats   Stats
	plan    *Plan
	waveIdx int
	// then is what the running plan's end continues with: an upgrade's
	// restart after its drain, its next instance after its re-admission.
	then func()

	// recoveredBase snapshots Recovered per instance at a plan's start,
	// so ResurrectedFlows counts only that plan's recoveries.
	recoveredBase map[*core.Instance]uint64

	// The rolling upgrade's instance order, restart delay, and the
	// pre-drain mappings of the current instance's VIPs.
	order        []netsim.IP
	restartDelay time.Duration
	saved        map[netsim.IP][]netsim.IP
}

// NewExecutor binds an executor to a cluster environment.
func NewExecutor(env Env, opt Options) *Executor {
	return &Executor{env: env, opt: opt.withDefaults()}
}

// Running reports whether an operation is in progress.
func (e *Executor) Running() bool { return e.stats.Running }

// Stats returns a snapshot of the current (or last finished) operation.
func (e *Executor) Stats() Stats { return e.stats }

// Upgrade performs a zero-downtime rolling upgrade (§7.5) of the
// instances in order, one at a time: drain the instance through a
// δ-bounded plan (live connections migrate gradually and resurrect via
// TCPStore), restart its host through Env.Restart after restartDelay
// (0 means 2 s), wait for it to come back, and re-admit it by restoring
// its pre-drain mappings through a second plan.
func (e *Executor) Upgrade(order []netsim.IP, restartDelay time.Duration) error {
	if e.stats.Running {
		return ErrBusy
	}
	if e.env.Mappings == nil || e.env.Restart == nil {
		panic("reconfig: Upgrade needs Env.Mappings and Env.Restart")
	}
	if restartDelay <= 0 {
		restartDelay = defaultRestartDelay
	}
	e.order = append([]netsim.IP(nil), order...)
	e.restartDelay = restartDelay
	e.stats = Stats{Running: true, Start: e.env.Net.Now(), Instances: len(e.order)}
	e.env.Net.Schedule(0, e.upgradeNext)
	return nil
}

// runPlan starts executing plan within the running operation, to go on
// with then once its last wave is done.
func (e *Executor) runPlan(plan *Plan, then func()) {
	e.plan, e.then = plan, then
	e.waveIdx = 0
	e.recoveredBase = make(map[*core.Instance]uint64)
	for _, in := range e.env.Instances() {
		e.recoveredBase[in] = in.Recovered
	}
	// Run on the event loop, never synchronously inside the caller's
	// event: it expects to regain control.
	e.env.Net.Schedule(0, e.runWave)
}

// runWave executes wave e.waveIdx: install → flip → settle → drain.
func (e *Executor) runWave() {
	if e.waveIdx >= len(e.plan.Waves) {
		e.planDone()
		return
	}
	wave := &e.plan.Waves[e.waveIdx]
	if e.env.OnWaveStart != nil {
		e.env.OnWaveStart(wave.Moves)
	}
	byIP := e.env.instByIP()

	// Count the denominator for this wave's measured migrated fraction:
	// every live flow on the fleet at flip time.
	total := 0
	for _, in := range e.env.Instances() {
		if in.Host().Alive() {
			total += in.ClientFlowCount()
		}
	}

	migrated := 0
	ws := &waveState{flipAt: e.env.Net.Now()}
	for _, mv := range wave.Moves {
		// 1. Rules first on every gaining instance (§5.2 make-before-break:
		// an instance must never receive a flow for a VIP it has no rules
		// for).
		rs := e.env.RulesFor(mv.VIP)
		for _, ip := range mv.Gainers {
			if in := byIP[ip]; in != nil && in.Host().Alive() {
				in.InstallRules(mv.VIP, rs)
			}
		}
		// 2. Flip the L4 mapping (staggered across muxes). Instances that
		// died since planning are filtered out; the monitor has already
		// withdrawn them from the muxes.
		to := e.liveOnly(mv.To, byIP)
		e.env.L4.SetMapping(mv.VIP, to)
		if e.env.OnMapping != nil {
			e.env.OnMapping(mv.VIP, to)
		}
		// 3. Snapshot the losers' residual flows: these are the migrants.
		for _, ip := range mv.Losers {
			in := byIP[ip]
			if in == nil || !in.Host().Alive() {
				continue
			}
			n := in.VIPFlowCount(mv.VIP)
			migrated += n
			ws.drains = append(ws.drains, &drainState{inst: in, vip: mv.VIP})
		}
		ws.converge = append(ws.converge, convergeTarget{vip: mv.VIP, want: to})
	}
	e.stats.MigratedFlows += uint64(migrated)
	if total > 0 {
		frac := float64(migrated) / float64(total)
		if frac > e.stats.MaxWaveMigratedFrac {
			e.stats.MaxWaveMigratedFrac = frac
		}
	}
	e.observeLoad(wave)
	e.settle(wave, ws)
}

// waveState tracks one wave's execution.
type waveState struct {
	flipAt   time.Duration
	converge []convergeTarget
	drains   []*drainState
}

type convergeTarget struct {
	vip  netsim.IP
	want []netsim.IP
}

// drainState tracks one (loser instance, VIP) pair through the drain.
type drainState struct {
	inst *core.Instance
	vip  netsim.IP
	done bool
}

// settle polls until every mux has applied every flip of the wave, then
// moves to drain. The drain timeout spans both phases (it is measured
// from the flip).
func (e *Executor) settle(wave *Wave, ws *waveState) {
	e.observeLoad(wave)
	now := e.env.Net.Now()
	converged := true
	byIP := e.env.instByIP()
	for _, ct := range ws.converge {
		// Re-filter: an instance may have died (and been withdrawn by the
		// monitor) after the flip; convergence is then against the
		// surviving list.
		if !e.env.L4.Converged(ct.vip, e.liveOnly(ct.want, byIP)) {
			converged = false
			break
		}
	}
	if !converged && now-ws.flipAt < e.opt.DrainTimeout {
		e.env.Net.Schedule(settlePoll, func() { e.settle(wave, ws) })
		return
	}
	e.drain(wave, ws)
}

// drain waits, per losing instance, for the moved VIP's flows to go
// quiet (no packet for DrainQuiet — once all muxes converged nothing
// more can arrive, so activity freezes), releases their local state
// without touching TCPStore (the gainers own those flows now), and only
// then removes the VIP's rules from the loser. The DrainTimeout backstop
// forces release; flows still seeing packets at that point are broken.
func (e *Executor) drain(wave *Wave, ws *waveState) {
	e.observeLoad(wave)
	now := e.env.Net.Now()
	timedOut := now-ws.flipAt >= e.opt.DrainTimeout
	allDone := true
	for _, d := range ws.drains {
		if d.done {
			continue
		}
		if !d.inst.Host().Alive() {
			// The loser died mid-drain: its flows were already migrated by
			// the failure path; nothing to release.
			d.done = true
			continue
		}
		n := d.inst.VIPFlowCount(d.vip)
		if n == 0 {
			e.removeRules(d)
			continue
		}
		last, _ := d.inst.VIPLastActive(d.vip)
		quiet := now-last >= e.opt.DrainQuiet
		if !quiet && !timedOut {
			allDone = false
			continue
		}
		if !quiet && timedOut {
			e.stats.BrokenFlows += uint64(n)
		}
		d.inst.ReleaseVIPFlows(d.vip)
		e.removeRules(d)
	}
	if !allDone {
		e.env.Net.Schedule(drainPoll, func() { e.drain(wave, ws) })
		return
	}
	e.stats.Waves++
	e.waveIdx++
	if e.env.OnWaveDone != nil {
		e.env.OnWaveDone()
	}
	e.env.Net.Schedule(0, e.runWave)
}

// removeRules reclaims the loser's rule capacity for the moved VIP.
func (e *Executor) removeRules(d *drainState) {
	d.done = true
	if d.inst.HasVIP(d.vip) {
		d.inst.RemoveRules(d.vip)
		e.stats.RulesRemoved++
	}
}

// observeLoad samples per-instance live-flow counts on the instances a
// wave touches — the measured Eq. 4–5 transient load.
func (e *Executor) observeLoad(wave *Wave) {
	byIP := e.env.instByIP()
	seen := make(map[netsim.IP]bool)
	for _, mv := range wave.Moves {
		for _, ip := range unionIPs(mv.From, mv.To) {
			if seen[ip] {
				continue
			}
			seen[ip] = true
			if in := byIP[ip]; in != nil && in.Host().Alive() {
				if n := in.ClientFlowCount(); n > e.stats.PeakInstanceFlows {
					e.stats.PeakInstanceFlows = n
				}
			}
		}
	}
}

// liveOnly filters an instance list to members that are alive right now.
func (e *Executor) liveOnly(ips []netsim.IP, byIP map[netsim.IP]*core.Instance) []netsim.IP {
	out := make([]netsim.IP, 0, len(ips))
	for _, ip := range ips {
		if in := byIP[ip]; in != nil && in.Host().Alive() {
			out = append(out, ip)
		}
	}
	return out
}

// planDone closes out the running plan and continues its operation.
func (e *Executor) planDone() {
	for in, base := range e.recoveredBase {
		if in.Recovered > base {
			e.stats.ResurrectedFlows += in.Recovered - base
		}
	}
	e.recoveredBase = nil
	then := e.then
	e.plan, e.then = nil, nil
	then()
}

// upgradeNext starts the cycle for the next instance of the upgrade.
func (e *Executor) upgradeNext() {
	if e.stats.Upgraded+e.stats.Skipped >= len(e.order) {
		e.finish()
		return
	}
	ip := e.order[e.stats.Upgraded+e.stats.Skipped]
	e.stats.Current = ip

	cur := e.env.Mappings()
	target := make(map[netsim.IP][]netsim.IP)
	e.saved = make(map[netsim.IP][]netsim.IP)
	for vip, insts := range cur {
		if !containsIP(insts, ip) {
			continue
		}
		e.saved[vip] = append([]netsim.IP(nil), insts...)
		to := diffIPs(insts, []netsim.IP{ip})
		if len(to) == 0 {
			// Sole holder: park the VIP on the least-loaded live peer for
			// the duration of the restart, so the VIP never goes dark.
			if cand, ok := e.replacement(ip); ok {
				to = []netsim.IP{cand}
			}
		}
		target[vip] = to
	}
	if len(target) == 0 {
		// The instance holds nothing — drain is a no-op.
		e.scheduleRestart()
		return
	}
	e.runUpgradePlan(State{Current: cur, Target: target, Flows: e.flowSnapshot(cur)}, e.scheduleRestart)
}

// scheduleRestart fires Env.Restart after the reboot delay, then waits
// for the instance to come back.
func (e *Executor) scheduleRestart() {
	ip := e.stats.Current
	e.env.Net.Schedule(e.restartDelay, func() {
		e.env.Restart(ip)
		e.pollReady(e.env.Net.Now() + readyTimeout)
	})
}

// pollReady waits for the restarted instance to come back alive.
func (e *Executor) pollReady(deadline time.Duration) {
	if in := e.env.instByIP()[e.stats.Current]; in != nil && in.Host().Alive() {
		e.readmit()
		return
	}
	if e.env.Net.Now() >= deadline {
		// The instance never came back; abandon it and move on — its VIPs
		// stay where the drain put them.
		e.stats.Skipped++
		e.saved = nil
		e.env.Net.Schedule(0, e.upgradeNext)
		return
	}
	e.env.Net.Schedule(readyPoll, func() { e.pollReady(deadline) })
}

// readmit restores the instance's pre-drain mappings through a second
// plan (the instance gets its rules back as a gainer).
func (e *Executor) readmit() {
	saved := e.saved
	e.saved = nil
	if len(saved) == 0 {
		e.completeInstance()
		return
	}
	e.runUpgradePlan(State{Current: e.env.Mappings(), Target: saved, Flows: e.flowSnapshot(saved)}, e.completeInstance)
}

// runUpgradePlan plans and runs one of an upgrade's two plans per
// instance; a planner error stops the upgrade.
func (e *Executor) runUpgradePlan(st State, then func()) {
	plan, err := NewPlan(st, e.opt)
	if err != nil {
		e.stats.Err = err.Error()
		e.finish()
		return
	}
	e.runPlan(plan, then)
}

// completeInstance closes out the current instance's cycle.
func (e *Executor) completeInstance() {
	e.stats.Upgraded++
	e.env.Net.Schedule(0, e.upgradeNext)
}

// replacement picks the live instance with the fewest client flows to
// temporarily hold a drained instance's sole-owner VIPs.
func (e *Executor) replacement(exclude netsim.IP) (netsim.IP, bool) {
	best := netsim.IP(0)
	bestFlows := -1
	for _, in := range e.env.Instances() {
		ip := in.IP()
		if ip == exclude || !in.Host().Alive() {
			continue
		}
		n := in.ClientFlowCount()
		if bestFlows < 0 || n < bestFlows || (n == bestFlows && ip < best) {
			best, bestFlows = ip, n
		}
	}
	return best, bestFlows >= 0
}

// flowSnapshot reads live per-VIP flow counts over the VIPs in vips,
// feeding the planner's Eq. 6–7 migration accounting.
func (e *Executor) flowSnapshot(vips map[netsim.IP][]netsim.IP) map[netsim.IP]map[netsim.IP]float64 {
	out := make(map[netsim.IP]map[netsim.IP]float64, len(vips))
	for vip := range vips {
		per := make(map[netsim.IP]float64)
		for _, in := range e.env.Instances() {
			if !in.Host().Alive() {
				continue
			}
			if n := in.VIPFlowCount(vip); n > 0 {
				per[in.IP()] = float64(n)
			}
		}
		out[vip] = per
	}
	return out
}

// finish closes out the operation.
func (e *Executor) finish() {
	e.stats.Running = false
	e.stats.Current = 0
	e.stats.Duration = e.env.Net.Now() - e.stats.Start
	e.order = nil
}
