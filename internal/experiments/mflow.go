package experiments

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
)

// The mflow experiment is the scale run: tens of thousands of concurrent
// flows held open across a fleet of Yoda instances, a failure storm at
// quiescence killing a slice of the fleet, and recovery verified for
// every flow. Everything between the endpoints is the deployed stack — a
// cluster.Cluster with the real l4lb muxes, core.Instances, their
// TCPStore clients and memcache servers; only the endpoints are scripted,
// because a tcp.Conn pair costs more memory than everything Yoda keeps
// for the flow:
//
//   - mfClient: a netsim.Node owning a block of client flows — one state
//     byte and the learned VIP-side ISN per flow, ports mfBasePort+i on
//     its own address. It speaks just enough TCP: SYN, ACK+request, ACK
//     of the response; a second request on the same connection as the
//     probe; FIN/ACK to close. Each phase is paced, then repeated for
//     whatever is still unanswered — the retransmissions a real client
//     would send.
//   - mfServer: a netsim.Node that keeps nothing per flow. It answers a
//     SYN from the keyed ISN the hybrid derivation expects, any payload
//     with one fixed response at the sequence numbers the segment itself
//     names, a FIN with a FIN-ACK, and never closes first.
//
// The run draws randomness only from the cluster's seeded RNG, so the
// summary is byte-identical across runs and a golden file pins it.

// MflowConfig parameterizes the scale run.
type MflowConfig struct {
	Seed int64
	// Recovery is "" for the paper's protocol (every flow persisted,
	// every orphan read back from TCPStore) or "hybrid" for
	// cluster.EnableHybrid (derivable flows skip the store both ways).
	Recovery  string
	Flows     int // concurrent flows, rounded up to a multiple of mfClients
	Instances int // Yoda instances
	StormKill int // instances killed once every flow is established
}

// DefaultMflowConfig is the headline configuration: 32,768 flows over 8
// instances, 2 of which die.
func DefaultMflowConfig() MflowConfig {
	return MflowConfig{Seed: 1, Flows: 32768, Instances: 8, StormKill: 2}
}

// The shape around the instances is fixed. The pacing — mfClients ×
// mfBatch opens per mfTick, 32 K/s — is what four store servers keep up
// with at the paper protocol's 6 store operations per open.
const (
	mfClients  = 8
	mfServers  = 8
	mfStores   = 4
	mfBatch    = 8
	mfTick     = 2 * time.Millisecond
	mfSettle   = 300 * time.Millisecond // a client round trip and the store writes behind it
	mfResends  = 8                      // retransmission rounds per phase
	mfBasePort = 1024

	// mfSNATPorts is the port space cluster.snatBase carves every
	// instance's SNAT block from: one VIP, ports 20000–65535, one block
	// per incarnation counted from 1. n instances therefore hold at most
	// n·⌊mfSNATPorts/(n+1)⌋ backend connections.
	mfSNATPorts = 65536 - 20000
)

var (
	mfRequest  = []byte("GET /mflow HTTP/1.1\r\nHost: mflow\r\nConnection: close\r\n\r\n")
	mfResponse = []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nmflow")
)

// Client flow states, in the order a flow moves through them. A phase
// takes flows in its from state, and its answer leaves them in done.
const (
	mfIdle        uint8 = iota
	mfSynSent           // SYN out
	mfReqSent           // handshake done, first request out
	mfEstablished       // first response verified
	mfProbeSent         // second request out
	mfProbeAcked        // second response verified
	mfFinSent           // FIN out
	mfClosed            // FIN-ACK received
	mfBroken            // reset, or answered with the wrong bytes
)

// mfClient owns a block of client flows.
type mfClient struct {
	net    *netsim.Network
	ip     netsim.IP
	vip    netsim.HostPort
	state  []uint8
	vipISN []uint32 // the VIP side's ISN, learned from the SYN-ACK

	from, done uint8 // the phase in progress
	cursor     int
	stepFn     func()

	rsts, mismatched int
}

// isn is flow i's initial sequence number: a function of the port, so the
// client need not store it.
func (d *mfClient) isn(i int) uint32 { return uint32(d.ip)*2654435761 + uint32(i)*40503 }

// count returns how many flows are in a state s with lo ≤ s < hi.
func (d *mfClient) count(lo, hi uint8) (n int) {
	for _, s := range d.state {
		if s >= lo && s < hi {
			n++
		}
	}
	return n
}

// start begins a pass of the phase from→done over every flow and returns
// how many segments it will send: one for each flow the phase has yet to
// move — all of them the first time, the unanswered ones after that.
func (d *mfClient) start(from, done uint8) int {
	d.from, d.done, d.cursor = from, done, 0
	n := d.count(from, done)
	if n > 0 {
		d.net.Schedule(0, d.stepFn)
	}
	return n
}

// step sends the next mfBatch segments of the pass and re-arms itself.
func (d *mfClient) step() {
	for sent := 0; d.cursor < len(d.state) && sent < mfBatch; d.cursor++ {
		i := d.cursor
		if d.state[i] == d.from {
			d.state[i]++
		}
		if s := d.state[i]; s > d.from && s < d.done {
			d.send(i, s)
			sent++
		}
	}
	if d.cursor < len(d.state) {
		d.net.Schedule(mfTick, d.stepFn)
	}
}

// mfScript is the client's side of a connection: the segment a flow sends
// on entering each state, and sends again for as long as a pass finds it
// there. k is the number of request/response exchanges behind it, which
// with fin (our FIN, once acknowledged) places it in both sequence spaces.
var mfScript = [mfBroken]struct {
	flags   netsim.TCPFlags
	k, fin  uint32
	payload []byte
}{
	mfSynSent:     {flags: netsim.FlagSYN},
	mfReqSent:     {flags: netsim.FlagACK | netsim.FlagPSH, payload: mfRequest},
	mfEstablished: {flags: netsim.FlagACK, k: 1},
	mfProbeSent:   {flags: netsim.FlagACK | netsim.FlagPSH, k: 1, payload: mfRequest},
	mfProbeAcked:  {flags: netsim.FlagACK, k: 2},
	mfFinSent:     {flags: netsim.FlagFIN | netsim.FlagACK, k: 2},
	mfClosed:      {flags: netsim.FlagACK, k: 2, fin: 1},
}

// send transmits the segment flow i owes in state s.
func (d *mfClient) send(i int, s uint8) {
	seg := &mfScript[s]
	pkt := d.net.AllocPacket()
	pkt.Src = netsim.HostPort{IP: d.ip, Port: mfBasePort + uint16(i)}
	pkt.Dst = d.vip
	pkt.Flags = seg.flags
	pkt.Window = 1 << 20
	pkt.Payload = seg.payload
	pkt.Seq = d.isn(i)
	if s != mfSynSent {
		pkt.Seq += 1 + seg.k*uint32(len(mfRequest)) + seg.fin
		pkt.Ack = d.vipISN[i] + 1 + seg.k*uint32(len(mfResponse)) + seg.fin
	}
	d.net.Send(pkt)
}

// enter moves flow i to state s and sends that state's segment.
func (d *mfClient) enter(i int, s uint8) {
	d.state[i] = s
	d.send(i, s)
}

// HandlePacket advances a flow on the answer its state waits for, held to
// the sequence numbers and bytes the script predicts; anything else — a
// duplicate, a late retransmission — is ignored.
func (d *mfClient) HandlePacket(pkt *netsim.Packet) {
	defer d.net.ReleasePacket(pkt)
	i := int(pkt.Dst.Port) - mfBasePort
	if i < 0 || i >= len(d.state) || d.state[i] == mfBroken {
		return
	}
	s := d.state[i]
	k := mfScript[s].k
	next := d.vipISN[i] + 1 + k*uint32(len(mfResponse)) // the VIP side's next byte
	switch {
	case pkt.Flags.Has(netsim.FlagRST):
		d.rsts++
		d.state[i] = mfBroken
	case s == mfSynSent && pkt.Flags.Has(netsim.FlagSYN|netsim.FlagACK) && pkt.Ack == d.isn(i)+1:
		d.vipISN[i] = pkt.Seq
		d.enter(i, mfReqSent)
	case (s == mfReqSent || s == mfProbeSent) && len(pkt.Payload) > 0:
		if pkt.Seq != next || pkt.Ack != d.isn(i)+1+(k+1)*uint32(len(mfRequest)) || !bytes.Equal(pkt.Payload, mfResponse) {
			d.mismatched++
			d.state[i] = mfBroken
			return
		}
		d.enter(i, s+1)
	case s == mfFinSent && pkt.Flags.Has(netsim.FlagFIN|netsim.FlagACK) && pkt.Seq == next:
		d.enter(i, mfClosed)
	}
}

// mfServer is the stateless scripted backend.
type mfServer struct {
	net    *netsim.Network
	isnKey uint64
}

func (b *mfServer) HandlePacket(pkt *netsim.Packet) {
	reply := func(flags netsim.TCPFlags, seq uint32, payload []byte) {
		out := b.net.AllocPacket()
		out.Src, out.Dst, out.Flags = pkt.Dst, pkt.Src, flags
		out.Seq, out.Ack, out.Window, out.Payload = seq, pkt.SeqEnd(), 1<<20, payload
		b.net.Send(out)
	}
	switch {
	case pkt.Flags.Has(netsim.FlagRST):
	case pkt.Flags.Has(netsim.FlagSYN):
		reply(netsim.FlagSYN|netsim.FlagACK, tcp.DeterministicISN(b.isnKey, pkt.Dst, pkt.Src), nil)
	case len(pkt.Payload) > 0:
		reply(netsim.FlagACK|netsim.FlagPSH, pkt.Ack, mfResponse)
	case pkt.Flags.Has(netsim.FlagFIN):
		reply(netsim.FlagFIN|netsim.FlagACK, pkt.Ack, nil)
	}
	b.net.ReleasePacket(pkt)
}

// MflowResult carries the outcome. Summary() covers only virtual-time
// deterministic fields; wall-clock and memory figures are reported
// separately by String().
type MflowResult struct {
	Cfg MflowConfig

	Established int
	ProbeAcked  int
	Closed      int
	ClientRSTs  int // flows the client saw reset
	Mismatched  int // flows answered with wrong bytes or sequence numbers

	DeadFlows      int // flows on the storm's victims when they were killed
	Recovered      int // adopted from a TCPStore record
	Derived        int // adopted by hybrid derivation, no record read
	AdoptedInClose int // adoptions after the probe phase: must be 0
	Stranded       int // flows whose probe was never answered, resends included: must be 0
	Suppressed     int // orphan queues the survivors dropped quietly

	Delivered       uint64
	Executed        uint64
	DroppedNoRoute  uint64
	DroppedByPolicy uint64

	LiveFlowEntries int // flow-index entries on live instances at the end
	StoreItems      int // records on the store servers at the end
	PendingAfter    int
	SimTime         time.Duration

	Wall             time.Duration
	HeapBytesPerFlow float64 // heap growth from before the cluster to the ramp's end, per flow
	BatchHitRatio    float64

	Failures []string
}

// Pass reports whether every invariant held.
func (r *MflowResult) Pass() bool { return len(r.Failures) == 0 }

// Summary renders the deterministic portion of the result.
func (r *MflowResult) Summary() string {
	var b strings.Builder
	recovery := r.Cfg.Recovery
	if recovery == "" {
		recovery = "paper"
	}
	fmt.Fprintf(&b, "mflow: flows=%d instances=%d storm=%d recovery=%s clients=%d backends=%d stores=%d\n",
		r.Cfg.Flows, r.Cfg.Instances, r.Cfg.StormKill, recovery, mfClients, mfServers, mfStores)
	fmt.Fprintf(&b, "  flows: established=%d probeAcked=%d closed=%d clientRSTs=%d mismatched=%d\n",
		r.Established, r.ProbeAcked, r.Closed, r.ClientRSTs, r.Mismatched)
	fmt.Fprintf(&b, "  storm: deadFlows=%d recovered=%d derived=%d stranded=%d (suppressed=%d) adoptedInClose=%d\n",
		r.DeadFlows, r.Recovered, r.Derived, r.Stranded, r.Suppressed, r.AdoptedInClose)
	fmt.Fprintf(&b, "  events: executed=%d delivered=%d perFlow=%.1f\n",
		r.Executed, r.Delivered, float64(r.Executed)/float64(max(r.Cfg.Flows, 1)))
	fmt.Fprintf(&b, "  end state: liveFlowEntries=%d storeItems=%d pending=%d dropped=%d+%d simTime=%v\n",
		r.LiveFlowEntries, r.StoreItems, r.PendingAfter, r.DroppedNoRoute, r.DroppedByPolicy, r.SimTime)
	if r.Pass() {
		b.WriteString("  PASS")
	} else {
		fmt.Fprintf(&b, "  FAIL:\n    %s", strings.Join(r.Failures, "\n    "))
	}
	return b.String()
}

func (r *MflowResult) String() string {
	return fmt.Sprintf("%s\n  perf: wall=%v events/s=%.0f flows=%d heapBytes/flow=%.0f batchHit=%.2f",
		r.Summary(), r.Wall.Round(time.Millisecond), float64(r.Executed)/r.Wall.Seconds(),
		r.Cfg.Flows, r.HeapBytesPerFlow, r.BatchHitRatio)
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

// RunMflow executes the scale run: ramp to the full flow population, kill
// StormKill instances, probe every flow (every orphan must be adopted by
// a survivor, once), close every flow, and drain — after which the
// cluster must be back where it started: no flow entry, no store record,
// no pending event.
func RunMflow(cfg MflowConfig) *MflowResult {
	perClient := (cfg.Flows + mfClients - 1) / mfClients
	cfg.Flows = perClient * mfClients
	res := &MflowResult{Cfg: cfg}
	snatPerInstance := mfSNATPorts / (cfg.Instances + 1)
	if limit := cfg.Instances * snatPerInstance; cfg.Flows > limit {
		res.failf("config: %d flows exceed the SNAT capacity of %d instances, %d backend connections (%d ports each: one VIP's ports 20000-65535 in %d blocks)",
			cfg.Flows, cfg.Instances, limit, snatPerInstance, cfg.Instances+1)
		return res
	}

	heapBase := heapInUse()
	wallStart := time.Now()

	c := cluster.New(cfg.Seed)
	secret := uint64(cfg.Seed)*0x9e3779b97f4a7c15 + 0xdead
	isnKey := secret
	if cfg.Recovery == "hybrid" {
		isnKey = c.EnableHybrid(secret).ISNKey()
	}
	c.AddStoreServers(mfStores, memcache.DefaultSimServerConfig())
	names := make([]string, mfServers)
	for i := range names {
		names[i] = fmt.Sprintf("be-%d", i)
		addr := netsim.HostPort{IP: netsim.IPv4(10, 0, 2, byte(i+1)), Port: 80}
		c.Net.Attach(addr.IP, &mfServer{net: c.Net, isnKey: isnKey})
		c.Backends[names[i]] = &cluster.Backend{Name: names[i], Rec: rules.Backend{Name: names[i], Addr: addr}}
	}
	ycfg := core.DefaultConfig()
	ycfg.SNATCount = uint16(snatPerInstance)
	c.AddYodaN(cfg.Instances, ycfg, tcpstore.DefaultConfig())
	vip := c.AddVIP("mflow")
	c.InstallPolicy(vip, c.SimpleSplitRules(names...), nil)

	clients := make([]*mfClient, mfClients)
	for d := range clients {
		cl := &mfClient{
			net: c.Net, ip: netsim.IPv4(100, 0, byte(d), 1), vip: netsim.HostPort{IP: vip, Port: 80},
			state: make([]uint8, perClient), vipISN: make([]uint32, perClient),
		}
		cl.stepFn = cl.step
		clients[d] = cl
		c.Net.Attach(cl.ip, cl)
	}

	// phase runs one paced pass from→done over every flow, then up to
	// mfResends more for the flows still unanswered, and returns how many
	// flows are in done. Each pass is run out: its last batch plus mfSettle.
	phase := func(from, done uint8) (reached int) {
		for pass := 0; pass <= mfResends; pass++ {
			most := 0
			for _, cl := range clients {
				most = max(most, cl.start(from, done))
			}
			if most == 0 {
				break
			}
			c.Net.RunFor(time.Duration((most+mfBatch-1)/mfBatch)*mfTick + mfSettle)
		}
		for _, cl := range clients {
			reached += cl.count(done, done+1)
		}
		return reached
	}

	// Ramp: open every flow.
	res.Established = phase(mfIdle, mfEstablished)
	if res.Established != cfg.Flows {
		res.failf("ramp: established %d of %d flows", res.Established, cfg.Flows)
	}
	res.HeapBytesPerFlow = float64(int64(heapInUse())-int64(heapBase)) / float64(cfg.Flows)

	// Failure storm at quiescence: kill StormKill instances spread across
	// the fleet and withdraw them from every mux — the L4 update the
	// controller's monitor would make, done here between phases.
	for k := 0; k < cfg.StormKill; k++ {
		i := k * cfg.Instances / cfg.StormKill
		res.DeadFlows += c.Yoda[i].ClientFlowCount()
		c.L4.RemoveInstance(c.KillYoda(i).IP())
	}
	// The sums below run over the whole fleet: a victim's table went with
	// it, and nothing it could have adopted had died before it did.
	adopted := func() (fromStore, derived int) {
		for _, in := range c.Yoda {
			fromStore += int(in.Recovered)
			derived += int(in.DerivedRecoveries)
		}
		return
	}

	// Probe: a second request on every flow. An orphan's lands on a
	// survivor, which must adopt the flow before it can forward it.
	res.ProbeAcked = phase(mfEstablished, mfProbeAcked)
	res.Recovered, res.Derived = adopted()
	for _, cl := range clients {
		res.Stranded += cl.count(mfProbeSent, mfProbeAcked)
	}
	if res.Stranded != 0 {
		res.failf("probe: %d of %d orphaned flows stranded, never adopted in %d resends",
			res.Stranded, res.DeadFlows, mfResends)
	}
	if res.ProbeAcked+res.Stranded != res.Established {
		res.failf("probe: %d flows answered and %d stranded of %d established", res.ProbeAcked, res.Stranded, res.Established)
	}
	if res.Recovered+res.Derived+res.Stranded != res.DeadFlows {
		res.failf("recovery: %d flows adopted from the store, %d derived, %d stranded; %d were orphaned",
			res.Recovered, res.Derived, res.Stranded, res.DeadFlows)
	}

	// Teardown: close every flow that answered, then drain to quiescence.
	res.Closed = phase(mfProbeAcked, mfClosed)
	c.Net.RunUntilIdle(1 << 26)
	if res.Closed != res.ProbeAcked {
		res.failf("teardown: closed %d of %d flows", res.Closed, res.ProbeAcked)
	}
	fromStore, derived := adopted()
	if res.AdoptedInClose = fromStore + derived - res.Recovered - res.Derived; res.AdoptedInClose != 0 {
		res.failf("teardown: %d flows adopted after the probe phase", res.AdoptedInClose)
	}
	for _, cl := range clients {
		res.ClientRSTs += cl.rsts
		res.Mismatched += cl.mismatched
	}
	if res.ClientRSTs != 0 || res.Mismatched != 0 {
		res.failf("client: %d flows reset, %d answered with the wrong bytes", res.ClientRSTs, res.Mismatched)
	}

	// Return to baseline.
	for _, in := range c.Yoda {
		res.LiveFlowEntries += in.FlowCount()
		res.Suppressed += int(in.SuppressedOrphans)
	}
	for _, s := range c.StoreServers {
		res.StoreItems += s.Engine.Stats().CurrItems
	}
	res.PendingAfter = c.Net.Pending()
	res.DroppedNoRoute, res.DroppedByPolicy = c.Net.DroppedNoRoute, c.Net.DroppedByPolicy
	if res.LiveFlowEntries != 0 || res.StoreItems != 0 || res.PendingAfter != 0 || res.DroppedNoRoute != 0 {
		res.failf("baseline: %d flow entries on live instances, %d store records, %d pending events, %d packets without a route",
			res.LiveFlowEntries, res.StoreItems, res.PendingAfter, res.DroppedNoRoute)
	}

	res.Delivered = c.Net.Delivered
	res.Executed = c.Net.Executed()
	res.BatchHitRatio = c.Net.BatchHitRatio()
	res.SimTime = c.Net.Now()
	res.Wall = time.Since(wallStart)
	return res
}
