package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/flowmap"
	"repro/internal/netsim"
	"repro/internal/stateless"
	"repro/internal/tcp"
)

// The mflow experiment is the scale headline: around a million
// concurrent flows held open across a fleet of L7 LB instances, a
// mid-run failure storm killing a slice of the fleet, and per-flow
// recovery verified for every survivor. The full Yoda stack
// (real TCP endpoints, TCPStore writes) costs tens of kilobytes per
// flow, so at this scale mflow models each tier with a compact
// flow-table abstraction instead:
//
//   - drivers: one host per driver owning a block of client flows, one
//     byte of state per flow (no tcp.Conn);
//   - muxes: stateless L4 muxes — rendezvous hashing over the live
//     instance list, no affinity table (the property Yoda relies on is
//     exactly that HRW only remaps flows whose instance died);
//   - instances: a compact flow table (flowmap.Compact) mapping
//     tuple -> backend index, installed on SYN, consulted on data,
//     deleted on FIN — the Concury-style structure the production l4lb
//     and core layers share, which is what pushes the per-flow memory
//     headline below 40 bytes. A mid-flow packet with no entry is a
//     recovered flow (its instance died); the rendezvous re-pick lands
//     every such flow on the same replacement instance from every mux,
//     which recovers it and counts it;
//   - backends: stateless responders replying straight to the client
//     (DSR), so returns skip the mux tier.
//
// Everything is RNG-free and timer-deterministic, so the result summary
// is byte-identical across runs — which is what lets the golden-file
// test pin it to the byte.

// MflowConfig parameterizes the million-flow experiment.
type MflowConfig struct {
	Seed int64

	// Recovery selects the recovery model. "" (the default) is the pure
	// HRW re-pick: any mid-flow packet with no table entry is adopted
	// unconditionally. "hybrid" routes through the stateless derivation
	// table: muxes pick by stateless.Rendezvous, and an instance adopts
	// an orphan only when the table's dead-owner chain proves some dead
	// instance could have owned it — unprovable orphans are rejected
	// (AdoptRejected), which in a correct run never fires.
	Recovery string

	Flows     int // total concurrent flows (rounded up to a driver multiple)
	Drivers   int // client driver hosts; each owns Flows/Drivers flows
	Muxes     int // stateless L4 muxes
	Instances int // L7 LB instances
	Backends  int // backend responders
	StormKill int // instances killed in the mid-run failure storm

	BatchSize  int           // flows each driver touches per pacing tick
	BatchEvery time.Duration // pacing tick
	Settle     time.Duration // post-phase settling time (covers client RTT)

	// TierB, when true, rides a small set of real TCP echo connections
	// alongside the compact-flow population with Tier B event coalescing
	// on end to end (delayed ACKs, 8-segment GSO trains, idle probing) —
	// DESIGN.md §14. Each sideband client pushes a 32 KiB write at every
	// phase boundary; the run then requires the echoes back intact, a
	// clean close, and the coalescing stats nonzero. ISNs are derived
	// from a fixed key so the sideband stays RNG-free and the summary
	// stays byte-identical across runs.
	TierB bool
}

// DefaultMflowConfig is the headline configuration: 2^20 flows over 16
// instances, 4 of which die mid-run.
func DefaultMflowConfig() MflowConfig {
	return MflowConfig{
		Seed:       1,
		Flows:      1 << 20,
		Drivers:    32,
		Muxes:      8,
		Instances:  16,
		Backends:   32,
		StormKill:  4,
		BatchSize:  64,
		BatchEvery: 2 * time.Millisecond,
		Settle:     300 * time.Millisecond,
		TierB:      true,
	}
}

// mfHash is HRW-style tuple hashing for mflow (FNV-1a over the tuple
// words, splitmix64 finalizer, salted per candidate). It is factored
// into a salt-independent FNV prefix over the four tuple words and a
// per-salt finish, so an HRW pick over k candidates hashes the tuple
// once instead of k times — bit-identical to the unfactored chain,
// since FNV-1a folds words left to right and the salt is the last one.
func mfHash(ft netsim.FourTuple, salt uint64) uint64 {
	return mfHashFinish(mfHashPrefix(ft), salt)
}

const mfFNVOffset, mfFNVPrime uint64 = 14695981039346656037, 1099511628211

func mfHashPrefix(ft netsim.FourTuple) uint64 {
	h := mfFNVOffset
	h = (h ^ uint64(ft.Src.IP)) * mfFNVPrime
	h = (h ^ uint64(ft.Dst.IP)) * mfFNVPrime
	h = (h ^ uint64(ft.Src.Port)) * mfFNVPrime
	h = (h ^ uint64(ft.Dst.Port)) * mfFNVPrime
	return h
}

func mfHashFinish(prefix, salt uint64) uint64 {
	h := (prefix ^ salt) * mfFNVPrime
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// mfPick selects by highest random weight: removing candidates only
// remaps tuples whose winner was removed, which is the recovery-routing
// property the experiment leans on.
func mfPick(ft netsim.FourTuple, cands []netsim.IP) netsim.IP {
	prefix := mfHashPrefix(ft)
	var best netsim.IP
	var bestW uint64
	for _, ip := range cands {
		if w := mfHashFinish(prefix, uint64(ip)); w > bestW || best == 0 {
			best, bestW = ip, w
		}
	}
	return best
}

// mfPickIdx is mfPick returning the winner's index instead of its IP —
// the form the compact flow table stores, since its values are small
// integers rather than addresses. The weight function is identical, so
// cands[mfPickIdx(ft, cands)] == mfPick(ft, cands).
func mfPickIdx(ft netsim.FourTuple, cands []netsim.IP) int {
	prefix := mfHashPrefix(ft)
	best := -1
	var bestW uint64
	for i, ip := range cands {
		if w := mfHashFinish(prefix, uint64(ip)); w > bestW || best < 0 {
			best, bestW = i, w
		}
	}
	return best
}

// mfMux is a stateless L4 mux: encapsulate toward the HRW winner over
// the live instance list. insts is replaced (never mutated in place) by
// the driver between runs.
type mfMux struct {
	net   *netsim.Network
	vip   netsim.IP
	insts []netsim.IP
	tbl   *stateless.Table // hybrid mode: pick must match the table's Owner
	Fwd   uint64
}

func (m *mfMux) HandlePacket(pkt *netsim.Packet) {
	if len(m.insts) == 0 {
		m.net.ReleasePacket(pkt)
		return
	}
	m.Fwd++
	var to netsim.IP
	if m.tbl != nil {
		to = stateless.Rendezvous(pkt.Tuple(), m.insts)
	} else {
		to = mfPick(pkt.Tuple(), m.insts)
	}
	pkt.SetOuter(m.vip, to)
	m.net.Send(pkt)
}

// HandleBatch implements netsim.BatchNode. Per-packet picks stay (each
// tuple hashes independently); the batch entry amortizes the event
// loop's per-delivery node resolution and dispatch overhead.
func (m *mfMux) HandleBatch(pkts []*netsim.Packet) {
	for _, p := range pkts {
		m.HandlePacket(p)
	}
}

// mfInstance is a flow-table L7 LB instance. Its table is the compact
// flow map storing the backend's index in the (fleet-wide, immutable)
// backend slice — 16 bytes per slot instead of a Go map entry, which is
// where the experiment's heapBytes/flow headline comes from.
//
// False-hit discipline: the flowmap contract permits a never-inserted
// tuple to alias a live entry's 64-bit tag. Here a false hit would
// route a recovered flow to the aliased entry's backend without
// counting it — but flow identity decisions hang off packet flags (SYN
// installs, FIN deletes), never off the lookup, and a 64-bit collision
// within one instance's table is beyond workload reach, so the
// recovery invariants stay exact.
type mfInstance struct {
	net      *netsim.Network
	ip       netsim.IP
	backends []netsim.IP
	table    *flowmap.Compact
	tbl      *stateless.Table // hybrid mode: gates orphan adoption
	cand     []netsim.IP      // dead-owner candidate scratch

	Installed      uint64 // SYN: entry created
	Recovered      uint64 // mid-flow packet with no entry: flow adopted
	RecoveredOnFin uint64 // FIN with no entry: must stay 0 (HRW stability)
	Removed        uint64 // FIN: entry deleted
	AdoptRejected  uint64 // hybrid: orphan with no dead-owner proof (must stay 0)
}

func (in *mfInstance) HandlePacket(pkt *netsim.Packet) {
	pkt.Outer = nil // decapsulate
	t := pkt.Tuple()
	var be netsim.IP
	switch {
	case pkt.Flags.Has(netsim.FlagSYN):
		idx := mfPickIdx(t, in.backends)
		in.table.Insert(t, flowmap.Value(idx))
		in.Installed++
		be = in.backends[idx]
	case pkt.Flags.Has(netsim.FlagFIN):
		if v, ok := in.table.LookupMaybe(t); ok {
			in.table.Delete(t)
			in.Removed++
			be = in.backends[v]
		} else {
			be = mfPick(t, in.backends)
			in.RecoveredOnFin++
		}
	default:
		if v, ok := in.table.LookupMaybe(t); ok {
			be = in.backends[v]
		} else {
			// The flow's original instance died; this instance is the HRW
			// re-pick and adopts the flow. In hybrid mode adoption must be
			// proved: the derivation table's rendezvous chain for the tuple
			// has to pass through at least one dead instance before reaching
			// us, and the re-derived backend index must be in range —
			// otherwise the packet is a stray and is dropped, not installed.
			idx := mfPickIdx(t, in.backends)
			if in.tbl != nil {
				in.cand = in.tbl.DeadOwnerCandidates(t.Dst.IP, t, in.cand)
				if len(in.cand) == 0 || idx < 0 || idx >= len(in.backends) {
					in.AdoptRejected++
					in.net.ReleasePacket(pkt)
					return
				}
			}
			in.table.Insert(t, flowmap.Value(idx))
			in.Recovered++
			be = in.backends[idx]
		}
	}
	pkt.SetOuter(in.ip, be)
	in.net.Send(pkt)
}

// HandleBatch implements netsim.BatchNode (see mfMux.HandleBatch).
func (in *mfInstance) HandleBatch(pkts []*netsim.Packet) {
	for _, p := range pkts {
		in.HandlePacket(p)
	}
}

// mfBackend replies to every request straight to the client (DSR),
// reusing the pooled packet: zero allocations per exchange.
type mfBackend struct {
	net  *netsim.Network
	Syns uint64
	Data uint64
	Fins uint64
}

func (b *mfBackend) HandlePacket(pkt *netsim.Packet) {
	pkt.Outer = nil
	switch {
	case pkt.Flags.Has(netsim.FlagSYN):
		b.Syns++
		pkt.Flags = netsim.FlagSYN | netsim.FlagACK
	case pkt.Flags.Has(netsim.FlagFIN):
		b.Fins++
		pkt.Flags = netsim.FlagFIN | netsim.FlagACK
	default:
		b.Data++
		pkt.Flags = netsim.FlagACK
	}
	pkt.Src, pkt.Dst = pkt.Dst, pkt.Src
	b.net.Send(pkt)
}

// HandleBatch implements netsim.BatchNode (see mfMux.HandleBatch).
func (b *mfBackend) HandleBatch(pkts []*netsim.Packet) {
	for _, p := range pkts {
		b.HandlePacket(p)
	}
}

// Driver flow states.
const (
	mfIdle uint8 = iota
	mfSynSent
	mfEstablished
	mfProbeSent
	mfProbeAcked
	mfFinSent
	mfClosed
)

// Driver phases (what the next batch sends).
const (
	mfPhaseOpen uint8 = iota + 1
	mfPhaseProbe
	mfPhaseClose
)

// mfDriver owns a block of client flows: one byte of state per flow,
// ports basePort+i on its own IP. Batches are paced by a timer so a
// phase ramps over virtual time instead of detonating in one event.
type mfDriver struct {
	net    *netsim.Network
	ip     netsim.IP
	mux    netsim.HostPort
	base   uint16
	state  []uint8
	batch  int
	every  time.Duration
	phase  uint8
	cursor int
	stepFn func()

	established int
	acked       int
	closed      int
}

func (d *mfDriver) start(phase uint8, after time.Duration) {
	d.phase, d.cursor = phase, 0
	d.net.Schedule(after, d.stepFn)
}

func (d *mfDriver) step() {
	end := d.cursor + d.batch
	if end > len(d.state) {
		end = len(d.state)
	}
	for i := d.cursor; i < end; i++ {
		pkt := d.net.AllocPacket()
		pkt.Src = netsim.HostPort{IP: d.ip, Port: d.base + uint16(i)}
		pkt.Dst = d.mux
		switch d.phase {
		case mfPhaseOpen:
			pkt.Flags = netsim.FlagSYN
			d.state[i] = mfSynSent
		case mfPhaseProbe:
			pkt.Flags = netsim.FlagPSH
			d.state[i] = mfProbeSent
		case mfPhaseClose:
			pkt.Flags = netsim.FlagFIN
			d.state[i] = mfFinSent
		}
		d.net.Send(pkt)
	}
	d.cursor = end
	if d.cursor < len(d.state) {
		d.net.Schedule(d.every, d.stepFn)
	}
}

func (d *mfDriver) HandlePacket(pkt *netsim.Packet) {
	i := int(pkt.Dst.Port) - int(d.base)
	if i >= 0 && i < len(d.state) {
		switch {
		case pkt.Flags.Has(netsim.FlagSYN | netsim.FlagACK):
			if d.state[i] == mfSynSent {
				d.state[i] = mfEstablished
				d.established++
			}
		case pkt.Flags.Has(netsim.FlagFIN | netsim.FlagACK):
			if d.state[i] == mfFinSent {
				d.state[i] = mfClosed
				d.closed++
			}
		case pkt.Flags.Has(netsim.FlagACK):
			if d.state[i] == mfProbeSent {
				d.state[i] = mfProbeAcked
				d.acked++
			}
		}
	}
	d.net.ReleasePacket(pkt)
}

// HandleBatch implements netsim.BatchNode (see mfMux.HandleBatch).
func (d *mfDriver) HandleBatch(pkts []*netsim.Packet) {
	for _, p := range pkts {
		d.HandlePacket(p)
	}
}

// Tier B sideband parameters: a handful of real tcp.Conn endpoints with
// event coalescing on, sized so GSO trains and delayed ACKs both engage
// (32 KiB ≫ 8×MSS) while staying a rounding error next to the
// million-flow population.
const (
	mfSidebandConns   = 4
	mfSidebandWrite   = 32 << 10
	mfSidebandGSOSegs = 8
	mfSidebandISNKey  = 0x5eedc0a1e5ced111 // fixed: keeps the sideband RNG-free
)

// mfSideband owns the Tier B echo connections: one server host and
// mfSidebandConns client hosts.
type mfSideband struct {
	clients []*tcp.Conn
	servers []*tcp.Conn
	echoed  []int
	payload []byte
	writes  int
}

func newMfSideband(nw *netsim.Network) *mfSideband {
	sb := &mfSideband{
		echoed:  make([]int, mfSidebandConns),
		payload: bytes.Repeat([]byte("tierb"), mfSidebandWrite/5+1)[:mfSidebandWrite],
	}
	cfg := tcp.DefaultConfig()
	cfg.DelayedAck = true
	cfg.GSOSegs = mfSidebandGSOSegs
	cfg.ISNKey = mfSidebandISNKey

	srvHost := netsim.NewHost(nw, netsim.IPv4(10, 0, 3, 1))
	srvAddr := srvHost.Addr(7)
	tcp.Listen(srvHost, 7, func(c *tcp.Conn) tcp.Callbacks {
		sb.servers = append(sb.servers, c)
		return tcp.Callbacks{
			OnData:      func(c *tcp.Conn, d []byte) { c.Write(d) },
			OnPeerClose: func(c *tcp.Conn) { c.Close() },
		}
	}, cfg)

	ccfg := cfg
	ccfg.IdleProbe = 50 * time.Millisecond // heartbeats ride the settle gaps
	for i := 0; i < mfSidebandConns; i++ {
		host := netsim.NewHost(nw, netsim.IPv4(10, 0, 3, byte(i+2)))
		idx := i
		conn := tcp.Dial(host, srvAddr, tcp.Callbacks{
			OnData: func(c *tcp.Conn, d []byte) { sb.echoed[idx] += len(d) },
		}, ccfg)
		sb.clients = append(sb.clients, conn)
	}
	return sb
}

// push queues one write per client; called at each phase boundary,
// between runs, the same discipline the drivers follow.
func (sb *mfSideband) push() {
	sb.writes++
	for _, c := range sb.clients {
		c.Write(sb.payload)
	}
}

// finish closes every client and, after the drain, validates the echoes
// and coalescing stats into res.
func (sb *mfSideband) close() {
	for _, c := range sb.clients {
		c.Close()
	}
}

func (sb *mfSideband) report(res *MflowResult) {
	want := sb.writes * mfSidebandWrite
	res.TierBConns = len(sb.clients)
	for i, c := range sb.clients {
		if sb.echoed[i] != want {
			res.failf("tierb: conn %d echoed %d of %d bytes", i, sb.echoed[i], want)
		}
		if c.State() != tcp.StateClosed {
			res.failf("tierb: conn %d not closed (state %v)", i, c.State())
		}
		res.TierBEchoed += sb.echoed[i]
	}
	for _, c := range append(sb.clients, sb.servers...) {
		res.TierBAcksElided += c.AcksElided
		res.TierBGSOTrains += c.GSOTrainsSent
	}
	if res.TierBAcksElided == 0 {
		res.failf("tierb: no ACKs elided under DelayedAck")
	}
	if res.TierBGSOTrains == 0 {
		res.failf("tierb: no GSO trains for %d-byte writes", mfSidebandWrite)
	}
}

// MflowResult carries the outcome. Summary() covers only virtual-time
// deterministic fields; wall-clock and memory figures are reported
// separately by String().
type MflowResult struct {
	Cfg MflowConfig

	Peak        int // concurrent established flows at ramp end
	Established int
	ProbeAcked  int
	Closed      int

	DeadFlows      int // flow-table entries on storm-killed instances
	Recovered      int // flows adopted by surviving instances
	RecoveredOnFin int
	AdoptRejected  int // hybrid: adoptions refused for lack of a dead-owner proof

	// Tier B sideband (Cfg.TierB only).
	TierBConns      int
	TierBEchoed     int
	TierBAcksElided int
	TierBGSOTrains  int

	Delivered       uint64
	Executed        uint64
	DroppedNoRoute  uint64
	DroppedByPolicy uint64

	LiveTableEntries int
	PendingAfter     int
	SimTime          time.Duration

	Wall             time.Duration
	HeapBytesPerFlow float64

	// Batch-dispatch shape (deliberately not part of Summary: the
	// scalar reference mode must stay byte-identical while reporting
	// zeros here). TrainRuns counts same-destination runs carved out of
	// burst-dispatched trains; BatchRuns the subset (length ≥ 2) handed
	// to a BatchNode in one call.
	TrainRuns     uint64
	BatchRuns     uint64
	BatchHitRatio float64

	Failures []string
}

// Pass reports whether every invariant held.
func (r *MflowResult) Pass() bool { return len(r.Failures) == 0 }

// Summary renders the deterministic portion of the result.
func (r *MflowResult) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "mflow: flows=%d drivers=%d muxes=%d instances=%d backends=%d storm=%d\n",
		r.Cfg.Flows, r.Cfg.Drivers, r.Cfg.Muxes, r.Cfg.Instances, r.Cfg.Backends, r.Cfg.StormKill)
	fmt.Fprintf(&b, "  peak concurrent: %d (established=%d probeAcked=%d closed=%d)\n",
		r.Peak, r.Established, r.ProbeAcked, r.Closed)
	fmt.Fprintf(&b, "  storm: deadFlows=%d recovered=%d recoveredOnFin=%d\n",
		r.DeadFlows, r.Recovered, r.RecoveredOnFin)
	if r.Cfg.Recovery != "" {
		fmt.Fprintf(&b, "  recovery: mode=%s adoptRejected=%d\n", r.Cfg.Recovery, r.AdoptRejected)
	}
	if r.Cfg.TierB {
		fmt.Fprintf(&b, "  tierb: conns=%d echoed=%d acksElided=%d gsoTrains=%d\n",
			r.TierBConns, r.TierBEchoed, r.TierBAcksElided, r.TierBGSOTrains)
	}
	fmt.Fprintf(&b, "  events: executed=%d delivered=%d dropped=%d+%d\n",
		r.Executed, r.Delivered, r.DroppedNoRoute, r.DroppedByPolicy)
	fmt.Fprintf(&b, "  end state: liveTableEntries=%d pending=%d simTime=%v\n",
		r.LiveTableEntries, r.PendingAfter, r.SimTime)
	if r.Pass() {
		b.WriteString("  PASS")
	} else {
		fmt.Fprintf(&b, "  FAIL:\n    %s", strings.Join(r.Failures, "\n    "))
	}
	return b.String()
}

func (r *MflowResult) String() string {
	return fmt.Sprintf("%s\n  perf: wall=%v events/s=%.0f heapBytes/flow=%.0f",
		r.Summary(), r.Wall.Round(time.Millisecond),
		float64(r.Executed)/r.Wall.Seconds(), r.HeapBytesPerFlow)
}

func (r *MflowResult) failf(format string, args ...any) {
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

func heapInUse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// RunMflow executes the million-flow experiment: ramp to the full flow
// population, kill StormKill instances, probe every flow once (verifying
// recovery of every orphaned flow), then close everything and drain the
// network to quiescence.
func RunMflow(cfg MflowConfig) *MflowResult {
	perDriver := (cfg.Flows + cfg.Drivers - 1) / cfg.Drivers
	cfg.Flows = perDriver * cfg.Drivers
	res := &MflowResult{Cfg: cfg}

	heapBase := heapInUse()
	wallStart := time.Now()

	nw := netsim.New(cfg.Seed)

	// Hybrid arm: one shared derivation table, seeded deterministically.
	// It is mutated only between phases (storm MarkDead), matching the
	// control-plane discipline the real cluster follows.
	var tbl *stateless.Table
	if cfg.Recovery == "hybrid" {
		tbl = stateless.New(uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0xdead)
	}

	// Muxes: vip 10.254.0.(m+1). Drivers address mux d%M.
	muxes := make([]*mfMux, cfg.Muxes)
	liveInsts := make([]netsim.IP, cfg.Instances)
	for i := range liveInsts {
		liveInsts[i] = netsim.IPv4(10, 0, 1, byte(i+1))
	}
	for m := range muxes {
		mx := &mfMux{net: nw, vip: netsim.IPv4(10, 254, 0, byte(m+1)), insts: liveInsts, tbl: tbl}
		nw.Attach(mx.vip, mx)
		muxes[m] = mx
		if tbl != nil {
			tbl.SetVIP(mx.vip, stateless.VIPEntry{Instances: liveInsts})
		}
	}

	// Size each table for its HRW share of the population plus headroom
	// for the hash spread, so the ramp runs without growth rebuilds.
	perInstance := 0
	if cfg.Instances > 0 {
		perInstance = cfg.Flows / cfg.Instances
	}
	insts := make([]*mfInstance, cfg.Instances)
	for i := range insts {
		in := &mfInstance{
			net: nw, ip: liveInsts[i], tbl: tbl,
			table: flowmap.NewCompact(perInstance + perInstance/8),
		}
		insts[i] = in
		nw.Attach(in.ip, in)
	}
	backendIPs := make([]netsim.IP, cfg.Backends)
	backends := make([]*mfBackend, cfg.Backends)
	for i := range backends {
		backendIPs[i] = netsim.IPv4(10, 0, 2, byte(i+1))
		backends[i] = &mfBackend{net: nw}
		nw.Attach(backendIPs[i], backends[i])
	}
	for _, in := range insts {
		in.backends = backendIPs
	}

	var sb *mfSideband
	if cfg.TierB {
		sb = newMfSideband(nw)
	}

	drivers := make([]*mfDriver, cfg.Drivers)
	for d := range drivers {
		drv := &mfDriver{
			net:   nw,
			ip:    netsim.IPv4(100, 0, byte(d>>8), byte(d&0xff)+1),
			mux:   netsim.HostPort{IP: muxes[d%cfg.Muxes].vip, Port: 80},
			base:  1024,
			state: make([]uint8, perDriver),
			batch: cfg.BatchSize,
			every: cfg.BatchEvery,
		}
		drv.stepFn = drv.step
		drivers[d] = drv
		nw.Attach(drv.ip, drv)
	}

	// Phase span: staggered starts + the paced batches + settle (which
	// must cover the ~60ms client round trip).
	batches := (perDriver + cfg.BatchSize - 1) / cfg.BatchSize
	stagger := 53 * time.Microsecond
	span := time.Duration(cfg.Drivers)*stagger + time.Duration(batches)*cfg.BatchEvery + cfg.Settle

	startPhase := func(phase uint8) {
		for d, drv := range drivers {
			drv.start(phase, time.Duration(d)*stagger)
		}
		if sb != nil {
			sb.push()
		}
	}
	counts := func() (established, acked, closed int) {
		for _, drv := range drivers {
			established += drv.established
			acked += drv.acked
			closed += drv.closed
		}
		return
	}

	// Ramp: open every flow.
	startPhase(mfPhaseOpen)
	nw.RunFor(span)
	res.Established, _, _ = counts()
	res.Peak = res.Established
	if res.Peak != cfg.Flows {
		res.failf("ramp: established %d of %d flows", res.Peak, cfg.Flows)
	}
	// Peak-population memory, attributed per flow.
	res.HeapBytesPerFlow = float64(int64(heapInUse())-int64(heapBase)) / float64(cfg.Flows)

	// Failure storm: kill StormKill instances spread across the fleet —
	// detach the host and drop it from every mux's live list (a driver-
	// phase control-plane action, like the real controller's L4 update).
	dead := make(map[netsim.IP]bool, cfg.StormKill)
	for k := 0; k < cfg.StormKill && cfg.Instances > 0; k++ {
		victim := insts[k*cfg.Instances/cfg.StormKill]
		dead[victim.ip] = true
		res.DeadFlows += victim.table.Len()
		victim.net.Detach(victim.ip)
		if tbl != nil {
			tbl.MarkDead(victim.ip) // death marks only — no epoch bump
		}
	}
	live := make([]netsim.IP, 0, cfg.Instances-len(dead))
	for _, ip := range liveInsts {
		if !dead[ip] {
			live = append(live, ip)
		}
	}
	for _, mx := range muxes {
		mx.insts = live
	}

	// Probe: one data packet per flow. Orphaned flows must be adopted by
	// the HRW re-pick instance; every probe must come back acknowledged.
	startPhase(mfPhaseProbe)
	nw.RunFor(span)
	_, res.ProbeAcked, _ = counts()
	if res.ProbeAcked != cfg.Flows {
		res.failf("probe: acked %d of %d flows", res.ProbeAcked, cfg.Flows)
	}
	for _, in := range insts {
		if !dead[in.ip] {
			res.Recovered += int(in.Recovered)
			res.RecoveredOnFin += int(in.RecoveredOnFin)
			res.AdoptRejected += int(in.AdoptRejected)
		}
	}
	if res.Recovered != res.DeadFlows {
		res.failf("recovery: %d flows adopted, %d were orphaned", res.Recovered, res.DeadFlows)
	}
	if res.AdoptRejected != 0 {
		res.failf("hybrid: %d orphans rejected without a dead-owner proof", res.AdoptRejected)
	}

	// Teardown: close every flow, then drain to quiescence.
	startPhase(mfPhaseClose)
	nw.RunFor(span)
	if sb != nil {
		sb.close()
	}
	nw.RunUntilIdle(1 << 24)
	if sb != nil {
		sb.report(res)
	}
	_, _, res.Closed = counts()
	if res.Closed != cfg.Flows {
		res.failf("teardown: closed %d of %d flows", res.Closed, cfg.Flows)
	}
	for _, in := range insts {
		if !dead[in.ip] {
			res.LiveTableEntries += in.table.Len()
		}
	}
	if res.LiveTableEntries != 0 {
		res.failf("teardown: %d flow-table entries leaked on live instances", res.LiveTableEntries)
	}
	if res.RecoveredOnFin != 0 {
		res.failf("HRW instability: %d FINs missed their flow's instance", res.RecoveredOnFin)
	}

	res.Delivered = nw.Delivered
	res.Executed = nw.Executed()
	res.TrainRuns = nw.Runs
	res.BatchRuns = nw.BatchRuns
	res.BatchHitRatio = nw.BatchHitRatio()
	res.DroppedNoRoute = nw.DroppedNoRoute
	res.DroppedByPolicy = nw.DroppedByPolicy
	if res.DroppedNoRoute != 0 {
		res.failf("%d packets dropped with no route (post-storm leakage)", res.DroppedNoRoute)
	}
	res.PendingAfter = nw.Pending()
	if res.PendingAfter != 0 {
		res.failf("network not quiescent: %d pending", res.PendingAfter)
	}
	res.SimTime = nw.Now()
	res.Wall = time.Since(wallStart)
	return res
}
