package core

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"repro/internal/httpsim"
	"repro/internal/l4lb"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/securesim"
	"repro/internal/stateless"
	"repro/internal/tcpstore"
)

// Config tunes a Yoda instance.
type Config struct {
	// Cores is the VM's core count (testbed: 8-core VMs).
	Cores int
	// CPUConnPhase is the virtual CPU cost of handling one new connection
	// (handshake crafting, header parsing, TCPStore marshalling). The
	// defaults are calibrated so an instance saturates near 12K req/s for
	// small requests, as measured in §7.1.
	CPUConnPhase time.Duration
	// CPUPerPacket is the virtual CPU cost of rewriting one tunneled
	// packet (the user/kernel copy the paper blames for Yoda's 2× CPU).
	CPUPerPacket time.Duration
	// SNATBase/SNATCount delimit this instance's slice of the VIP port
	// space for backend connections, so instances never collide.
	SNATBase  uint16
	SNATCount uint16
	// FlowIdleTimeout garbage-collects flows that stopped moving packets
	// (broken clients, lost FINs).
	FlowIdleTimeout time.Duration
	// Hybrid selects the hybrid stateful/stateless recovery mode: flows
	// whose state the shared derivation table reproduces exactly skip
	// their storage writes, and recovery tries derivation before (or
	// instead of) a store read — see hybrid.go. Nil (the default) keeps
	// the paper-faithful persist-before-ACK path for every flow.
	Hybrid *stateless.Table
}

// DefaultConfig returns the calibrated instance configuration.
func DefaultConfig() Config {
	return Config{
		Cores:           8,
		CPUConnPhase:    410 * time.Microsecond,
		CPUPerPacket:    30 * time.Microsecond,
		SNATBase:        20000,
		SNATCount:       2000,
		FlowIdleTimeout: 2 * time.Minute,
	}
}

// VIPStats aggregates per-VIP counters an instance reports to the
// controller.
type VIPStats struct {
	// SNATExhausted counts dials rejected because the instance's SNAT
	// port slice had no free port (the flow gets a 503, never a silently
	// spliced port).
	SNATExhausted uint64
}

// Instance is one Yoda L7 load-balancer instance.
type Instance struct {
	host *netsim.Host
	net  *netsim.Network
	// rng is the network's RNG, cached at construction so rule-engine
	// draws never reach through Network.Rand on the request path.
	rng   *rand.Rand
	l4    *l4lb.LB
	store *tcpstore.Store
	cfg   Config

	engines   map[netsim.IP]*rules.Engine       // per-VIP rule tables
	info      rules.BackendInfo                 // backend health/load view
	tlsIdents map[netsim.IP]*securesim.Identity // per-VIP SSL termination identities

	flows        flowIndex                          // tuple → flow, compact (see flowindex.go)
	pending      map[netsim.FourTuple]*pendingQueue // packets awaiting a TCPStore lookup
	pendingTotal int                                // packets across all pending queues
	// claims are resolved queues whose bare ACK holds a claim on their
	// predicted server tuple until its timer ends it (hybridDerive).
	claims    []*pendingQueue
	snatNext  uint16
	snatInUse portSet // the SNAT range's ports a flow holds
	dead      bool

	CPU *metrics.CPUMeter

	// StorageLat records the latency of every TCPStore write performed
	// during connection establishment (storage-a and storage-b); Figure 9
	// reports its median as the "Storage" component. Both latency
	// histograms are bounded (metrics.NewBoundedDurationHistogram), so
	// they hold as much however long the instance serves.
	StorageLat *metrics.DurationHistogram
	// ConnLat records SYN arrival → tunnel entry per flow, the
	// "Connection" component of Figure 9.
	ConnLat *metrics.DurationHistogram

	// Barrier counts write-barrier resolutions (see barrier.go); the
	// controller aggregates it cluster-wide to watch persistence health.
	Barrier BarrierStats

	// Counters.
	Stats        map[netsim.IP]*VIPStats
	Recovered    uint64 // flows resurrected from TCPStore
	LookupMisses uint64 // orphan packets with no recoverable state, or dropped while queued
	// DerivedRecoveries counts flows rebuilt by stateless derivation
	// (hybrid mode) — no store record was read for them.
	DerivedRecoveries uint64
	// SuppressedOrphans counts recovery queues dropped quietly in hybrid
	// mode — no RST sent — because the miss is expected to resolve on the
	// sender's retransmission (a backend knock racing the client-side
	// repair write, or a payloadless client probe).
	SuppressedOrphans uint64

	// Store scratch, reused across barrier writes, key renders and the
	// decode of a store read (lookedUp). Safe because the instance runs
	// on the single-threaded event loop, the store consumes keys and
	// values synchronously (tcpstore.Entry is documented as not retained
	// after SetMulti returns), and installRecovered copies a decoded
	// record before anything else can use the scratch.
	keyScratch     []byte
	recScratch     []byte
	entScratch     [2]tcpstore.Entry
	recRecord      Record
	recTLS         TLSState
	freeBarrierOps []*barrierOp
	spareFlows     netsim.Spares[*flow]         // retired flows, for newFlow
	spareQueues    netsim.Spares[*pendingQueue] // resolved pending queues, for park
	backendNames   names                        // the names decoded records gave
	req            httpsim.Request              // connection-phase header-parse scratch
	// The per-flow barriers' continuations (see writeBarrier), bound once.
	synAckFn, tunnelFn func(*flow)
}

// NewInstance creates a Yoda instance on host, using the given L4 LB for
// SNAT and the given TCPStore client for state decoupling. The instance
// installs itself as the host's default packet handler.
func NewInstance(host *netsim.Host, lb *l4lb.LB, store *tcpstore.Store, cfg Config) *Instance {
	inst := &Instance{
		host:       host,
		net:        host.Network(),
		rng:        host.Network().Rand(),
		l4:         lb,
		store:      store,
		cfg:        cfg,
		engines:    make(map[netsim.IP]*rules.Engine),
		tlsIdents:  make(map[netsim.IP]*securesim.Identity),
		pending:    make(map[netsim.FourTuple]*pendingQueue),
		snatNext:   cfg.SNATBase,
		snatInUse:  newPortSet(cfg.SNATCount),
		CPU:        metrics.NewCPUMeter(cfg.Cores),
		StorageLat: metrics.NewBoundedDurationHistogram(),
		ConnLat:    metrics.NewBoundedDurationHistogram(),
		Stats:      make(map[netsim.IP]*VIPStats),
	}
	inst.synAckFn, inst.tunnelFn = inst.sendSynAck, inst.enterTunnel
	inst.flows.init()
	host.SetDefault(inst)
	return inst
}

// Host returns the instance's host.
func (in *Instance) Host() *netsim.Host { return in.host }

// IP returns the instance's address.
func (in *Instance) IP() netsim.IP { return in.host.IP() }

// Store returns the instance's TCPStore client.
func (in *Instance) Store() *tcpstore.Store { return in.store }

// InstallRules installs (or replaces) the rule table for a VIP. Existing
// flows are unaffected: policies apply to new connections only (§5.2).
// Invalid tables (see rules.ValidateRules) are rejected, leaving any
// previously installed table serving.
func (in *Instance) InstallRules(vip netsim.IP, rs []rules.Rule) error {
	if e, ok := in.engines[vip]; ok {
		return e.Update(rs)
	}
	if err := rules.ValidateRules(rs); err != nil {
		return err
	}
	in.engines[vip] = rules.NewEngine(rs)
	return nil
}

// RemoveRules drops the rule table for a VIP (VIP removal, §5.2).
func (in *Instance) RemoveRules(vip netsim.IP) { delete(in.engines, vip) }

// HasVIP reports whether the instance holds rules for vip.
func (in *Instance) HasVIP(vip netsim.IP) bool {
	_, ok := in.engines[vip]
	return ok
}

// SetBackendInfo wires the controller's backend health/load view into
// rule evaluation.
func (in *Instance) SetBackendInfo(info rules.BackendInfo) { in.info = info }

// FlowCount returns the number of live flow entries (both orientations).
func (in *Instance) FlowCount() int { return in.flows.entries() }

// ClientFlowCount returns the number of live connections (each
// connection counts once regardless of phase).
func (in *Instance) ClientFlowCount() int {
	n := 0
	in.flows.forEach(func(*flow) { n++ })
	return n
}

// VIPFlowCount returns the live connections terminating at vip.
func (in *Instance) VIPFlowCount(vip netsim.IP) int {
	n := 0
	in.flows.forEach(func(f *flow) {
		if f.vip.IP == vip {
			n++
		}
	})
	return n
}

// VIPLastActive returns the most recent packet-activity time across the
// instance's flows for vip; ok is false when no such flow exists. The
// reconfig executor uses this as its drain signal: once every L4 mux has
// applied a mapping change, a losing instance's flows stop receiving
// packets and this timestamp freezes.
func (in *Instance) VIPLastActive(vip netsim.IP) (last time.Duration, ok bool) {
	in.flows.forEach(func(f *flow) {
		if f.vip.IP == vip {
			ok = true
			if f.lastActive > last {
				last = f.lastActive
			}
		}
	})
	return last, ok
}

// ReleaseVIPFlows drops the local state of every flow terminating at vip
// WITHOUT deleting its TCPStore records: ownership of those flows has
// moved to the instances that gained the VIP, which resurrect them from
// the store on the next packet. Deleting the records here (as teardown
// does) would break exactly the flows a reconfiguration migrates.
//
// SNAT ports held by released tunnel-phase flows stay reserved
// (quarantined): the migrated flow keeps using the port on its new owner,
// and re-allocating it locally could splice a future flow onto the same
// server-side tuple. The quarantined ports return to the pool when the
// instance restarts (rolling upgrade) — the common case for a full drain.
// Returns the number of flows released.
func (in *Instance) ReleaseVIPFlows(vip netsim.IP) int {
	var victims []*flow
	in.flows.forEach(func(f *flow) {
		if f.vip.IP == vip {
			victims = append(victims, f)
		}
	})
	for _, f := range victims {
		in.unlink(f)
		if f.server.IP != 0 { // dialing or tunnelling: it holds a SNAT port
			in.note(evSNATQuarantine, f.clientTuple())
		}
	}
	return len(victims)
}

// ReadStats returns and resets the per-VIP counters.
func (in *Instance) ReadStats() map[netsim.IP]*VIPStats {
	out := in.Stats
	in.Stats = make(map[netsim.IP]*VIPStats)
	return out
}

func (in *Instance) statsFor(vip netsim.IP) *VIPStats {
	s, ok := in.Stats[vip]
	if !ok {
		s = &VIPStats{}
		in.Stats[vip] = s
	}
	return s
}

// Fail detaches the instance from the network, dropping all local state
// in flight — the failure mode the paper's recovery protocol targets. All
// in-memory flow state is discarded, exactly what makes TCPStore
// necessary.
func (in *Instance) Fail() {
	in.dead = true
	in.host.Detach()
	// The flows live on in TCPStore, for the survivors; locally nothing
	// may hold them. Their timers stop (unlink's local half: teardown's
	// deletes would destroy what the survivors recover from), and so do
	// the pending queues', whose parked copies go back to the pool in
	// tuple order, so the pool's state is the same on every run, and the
	// claims'.
	in.flows.forEach(in.stopTimers)
	tuples := make([]netsim.FourTuple, 0, len(in.pending))
	for t := range in.pending {
		tuples = append(tuples, t)
	}
	slices.SortFunc(tuples, cmpTuple)
	for _, t := range tuples {
		q := in.pending[t]
		in.net.Stop(q.expire)
		in.dropParked(q.pkts)
		in.freeQueue(q)
	}
	for _, q := range in.claims {
		in.net.Stop(q.expire)
		in.freeQueue(q)
	}
	in.claims = nil
	in.flows.init()
	in.pending = make(map[netsim.FourTuple]*pendingQueue)
	in.pendingTotal = 0
	clear(in.snatInUse)
}

// cmpTuple orders tuples by source, then destination.
func cmpTuple(a, b netsim.FourTuple) int {
	return cmp.Or(cmp.Compare(a.Src.IP, b.Src.IP), cmp.Compare(a.Src.Port, b.Src.Port),
		cmp.Compare(a.Dst.IP, b.Dst.IP), cmp.Compare(a.Dst.Port, b.Dst.Port))
}

// FNV-1a constants, inlined to keep the per-SYN hash allocation-free
// (hash/fnv returns its state behind an interface, which escapes).
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// isnHash derives the instance's client-facing ISN from the client tuple.
// Every instance computes the same value, so a SYN-ACK can be regenerated
// by any instance without consulting TCPStore (§4.1). The digest is
// bit-identical to fnv.New64a over the same 12-byte encoding.
func isnHash(client, vip netsim.HostPort) uint32 {
	var b [12]byte
	put := func(off int, v uint32) {
		b[off], b[off+1], b[off+2], b[off+3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	}
	put(0, uint32(client.IP))
	b[4], b[5] = byte(client.Port>>8), byte(client.Port)
	put(6, uint32(vip.IP))
	b[10], b[11] = byte(vip.Port>>8), byte(vip.Port)
	h := fnvOffset64
	for _, c := range b {
		h = (h ^ uint64(c)) * fnvPrime64
	}
	return uint32(h ^ (h >> 32))
}

// allocSNATPort hands out the next free port in the instance's SNAT
// range; ok=false when the range is exhausted. Ports return to the pool
// in releaseSNATPort when flows finish. An exhausted range must refuse
// rather than reuse: handing a live flow's port to a second flow makes
// both map to the same backend tuple and corrupts the SNAT table.
func (in *Instance) allocSNATPort() (port uint16, ok bool) {
	n, start := int(in.cfg.SNATCount), int(in.snatNext-in.cfg.SNATBase)
	for i := range n {
		if j := (start + i) % n; !in.snatInUse.has(j) {
			in.snatInUse.add(j)
			p := in.cfg.SNATBase + uint16(j)
			in.snatNext = p + 1
			return p, true
		}
	}
	return 0, false
}

// allocSNATPortPreferred claims pref when it lies inside this instance's
// range and is free, falling back to the sequential allocator otherwise.
// The hybrid dial path asks for the cookie-coded port the derivation
// layer predicts; a flow that had to fall back simply fails the write-time
// self-check and stays persisted.
func (in *Instance) allocSNATPortPreferred(pref uint16) (port uint16, ok bool) {
	if j, ok := in.snatIndex(pref); ok && !in.snatInUse.has(j) {
		in.snatInUse.add(j)
		return pref, true
	}
	return in.allocSNATPort()
}

// releaseSNATPort frees p, if this instance's range holds it: an adopted
// flow's port lies in its dead owner's.
func (in *Instance) releaseSNATPort(p uint16) {
	if j, ok := in.snatIndex(p); ok {
		in.snatInUse.remove(j)
	}
}

// snatIndex returns p's index in the instance's SNAT range, and whether
// the range holds p.
func (in *Instance) snatIndex(p uint16) (int, bool) {
	j := int(p) - int(in.cfg.SNATBase)
	return j, j >= 0 && j < int(in.cfg.SNATCount)
}

// portSet is a set of indexes into the SNAT range, one bit each: an
// array the size of the range instead of a map that grows with the flows.
type portSet []uint64

func newPortSet(size uint16) portSet { return make(portSet, (int(size)+63)/64) }

func (s portSet) has(i int) bool { return s[i/64]&(1<<(i%64)) != 0 }
func (s portSet) add(i int)      { s[i/64] |= 1 << (i % 64) }
func (s portSet) remove(i int)   { s[i/64] &^= 1 << (i % 64) }

// handlePacket is the packet driver entry point: every balanced packet
// the L4 LB forwards to this instance lands here (memcached traffic is
// demuxed earlier by the host's connection table). The instance is the
// packet's terminal consumer: every path either copies the bytes it
// keeps (request assembly, recovery queue) or forwards them in a fresh
// packet, so the struct is released back to the pool on return.
func (in *Instance) handlePacket(pkt *netsim.Packet) {
	if !in.dead {
		tuple := pkt.Tuple()
		in.process(pkt, tuple, in.flows.get(tuple))
	}
	in.net.ReleasePacket(pkt)
}

// HandleSegment implements netsim.PortHandler; the instance is the
// host's default handler.
func (in *Instance) HandleSegment(pkt *netsim.Packet) { in.handlePacket(pkt) }

// HandleSegmentBatch implements netsim.BatchPortHandler: a run of
// packets for one flow costs one flowIndex lookup instead of one per
// packet. The cached resolution is revalidated against the index's
// version counter, so a teardown, adoption, or re-key triggered by an
// earlier packet of the run forces a fresh lookup; each packet then
// takes handlePacket's path through process.
func (in *Instance) HandleSegmentBatch(pkts []*netsim.Packet) {
	var (
		runTuple netsim.FourTuple
		runFlow  *flow
		runVer   uint64
		runOK    bool
	)
	for _, pkt := range pkts {
		if !in.dead {
			tuple := pkt.Tuple()
			if !runOK || tuple != runTuple || in.flows.version != runVer {
				runFlow = in.flows.get(tuple)
				runTuple, runVer, runOK = tuple, in.flows.version, true
			}
			in.process(pkt, tuple, runFlow)
		}
		in.net.ReleasePacket(pkt)
	}
}

// process is one packet's work on the scalar and the batch path alike:
// the CPU charge, then its flow f (nil when the tuple has none) gets it,
// or a client SYN opens a new flow, or the tuple is another instance's
// orphan (a failure or a mapping change moved it here, or it is garbage)
// and TCPStore is tried.
func (in *Instance) process(pkt *netsim.Packet, tuple netsim.FourTuple, f *flow) {
	in.CPU.Charge(in.net.Now(), in.cfg.CPUPerPacket)
	switch {
	case f != nil:
		in.dispatch(f, pkt)
	case pkt.Flags.Has(netsim.FlagSYN) && !pkt.Flags.Has(netsim.FlagACK):
		in.newClientFlow(pkt)
	default:
		in.recoverFlow(tuple, pkt)
	}
}
