package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/metrics"
)

// Node is anything attached to the network that can receive packets.
// HandlePacket is invoked from the event loop with the virtual clock
// already advanced to the delivery time; implementations must not block.
type Node interface {
	HandlePacket(pkt *Packet)
}

// NodeFunc adapts a function to the Node interface.
type NodeFunc func(pkt *Packet)

// HandlePacket calls f(pkt).
func (f NodeFunc) HandlePacket(pkt *Packet) { f(pkt) }

// BatchNode is an optional extension of Node: burst dispatch hands a
// run — consecutive train members bound for the same destination — to
// HandleBatch in one call instead of n HandlePacket calls, so the node
// can amortize per-packet demux across the run. Contracts:
//
//   - HandleBatch(pkts) must be observably equivalent to calling
//     HandlePacket(pkts[i]) for i in order. The node owns each packet
//     exactly as it would in the scalar path (including release).
//   - The slice is scratch storage owned by the network; it must not
//     be retained past the call.
//   - Runs are grouped before the first packet is processed, so a node
//     whose processing would re-route later packets in the same run
//     (e.g. a connection that closes itself mid-run) must re-check its
//     own state per packet and fall back accordingly — see
//     Host.HandleBatch and tcp.Conn.HandleSegmentBatch.
//
// Nodes that do not implement BatchNode receive per-packet HandlePacket
// calls exactly as before. Loss injection (SetDropFunc) splits a run at
// each dropped packet; what survives is still handed over in batches.
type BatchNode interface {
	Node
	HandleBatch(pkts []*Packet)
}

// LatencyFunc computes the one-way delay between two hosts. It is
// consulted once per packet send.
type LatencyFunc func(src, dst IP) time.Duration

// TraceEvent records one packet delivery or drop, for timeline plots such
// as Figure 12(b) of the paper.
type TraceEvent struct {
	At      time.Duration
	Packet  *Packet
	Dropped bool
	Reason  string
}

// Network is one discrete-event simulator loop. It is not safe for
// concurrent use: all components run inside its single event loop.
type Network struct {
	now time.Duration
	seq uint64

	// Packet-train coalescing (always on; only netsim's own oracles set
	// noCoalesce, for their one-record-per-delivery reference): openTrain
	// is the most recently scheduled delivery event, still accepting
	// same-instant sends as train members. It is
	// closed as soon as any other event is filed at its instant
	// (scheduleEvent) and cleared when it fires (execute), so a non-nil
	// pointer always refers to a live, unfired delivery — no generation
	// check needed. openAt caches its deadline so the no-match fast path
	// never dereferences the record. These sit next to now/seq because
	// Send and execute touch them on every packet.
	openTrain  *event
	openAt     time.Duration
	noCoalesce bool

	nodes   map[IP]Node
	rng     *rand.Rand
	latency LatencyFunc
	jitter  float64 // fraction of latency, uniform ±jitter
	dropFn  func(pkt *Packet) bool
	tracer  func(TraceEvent)

	executed uint64 // events run so far, each train member counted as one

	// Scheduler state (see sched.go): a small heap for the cursor's slot
	// and, for everything later, one intrusive list per wheel slot of
	// each level plus the far list, with a bitmap of the non-empty ones.
	curSlot          int64
	curHeap          eventQueue
	slots            [farSlot + 1]*event
	occupied         [farSlot/64 + 1]uint64
	queued           int // pending deliveries + timers, including cancelled
	cancelledPending int // cancelled events still in curHeap

	// Freelists (see pool.go). The loop is single-threaded, so these are
	// plain slices with no locking.
	evFree    []*event
	pktFree   []*Packet
	bufs      bufPool
	trainFree []*trainBox

	// Stats counters.
	Delivered       uint64
	DroppedNoRoute  uint64
	DroppedByPolicy uint64
	// Coalesced counts deliveries that rode another delivery's event
	// record instead of their own.
	Coalesced uint64

	// Batch-dispatch observability. TrainLens observes the member count
	// of every burst-dispatched train (length ≥ 2 by construction);
	// RunLens observes every same-destination run carved out of a train.
	// Runs counts those runs, BatchRuns the subset of length ≥ 2 handed
	// to a BatchNode in one call (under a drop policy, each stretch of a
	// run between drops that is). BatchRuns/Runs is the batch-hit ratio.
	TrainLens metrics.LenHist
	RunLens   metrics.LenHist
	Runs      uint64
	BatchRuns uint64

	// runScratch backs the run slice handed to BatchNode.HandleBatch;
	// reused across trains, never retained by handlers (see BatchNode).
	runScratch []*Packet
}

// DefaultLatency models a two-zone topology: addresses in 10.0.0.0/8 are
// inside the datacenter (150µs one way); everything else is an Internet
// client (30ms one way to anywhere in the DC). DC-internal hops between
// the same /8 cost the intra-DC latency.
func DefaultLatency(src, dst IP) time.Duration {
	const (
		intraDC  = 150 * time.Microsecond
		internet = 30 * time.Millisecond
	)
	inDC := func(ip IP) bool { return byte(ip>>24) == 10 }
	if inDC(src) && inDC(dst) {
		return intraDC
	}
	return internet
}

// New creates a network with the given RNG seed and the default latency
// model.
func New(seed int64) *Network {
	return &Network{
		nodes:   make(map[IP]Node),
		rng:     rand.New(rand.NewSource(seed)),
		latency: DefaultLatency,
	}
}

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.now }

// Rand returns the network's deterministic RNG. All components should
// draw randomness from it so runs stay reproducible.
func (n *Network) Rand() *rand.Rand { return n.rng }

// SetLatency replaces the latency model.
func (n *Network) SetLatency(f LatencyFunc) { n.latency = f }

// SetJitter sets symmetric uniform jitter as a fraction of base latency
// (e.g. 0.1 for ±10%). Zero disables jitter.
func (n *Network) SetJitter(frac float64) { n.jitter = frac }

// SetDropFunc installs a policy that may drop packets in flight (loss
// injection). A nil function disables drops. The policy is asked once per
// packet, in delivery order, but before the stretch of its run the packet
// belongs to is handled: a packet may be judged before the node has
// handled the packets delivered just ahead of it at the same instant, so
// a policy must not depend on what handling those changes.
func (n *Network) SetDropFunc(f func(pkt *Packet) bool) { n.dropFn = f }

// SetTracer installs a packet trace hook. A nil tracer disables tracing.
// While a tracer is installed, delivered packets are exempted from pool
// recycling so the tracer may retain them.
func (n *Network) SetTracer(f func(TraceEvent)) { n.tracer = f }

// Attach registers node as the handler for packets addressed to ip.
// Attaching to an IP that already has a node replaces it.
func (n *Network) Attach(ip IP, node Node) {
	if ip == 0 {
		panic("netsim: cannot attach to the unspecified address")
	}
	n.nodes[ip] = node
}

// Detach removes the node at ip, if any. Subsequent packets to ip are
// dropped, which is how host failure is modelled.
func (n *Network) Detach(ip IP) { delete(n.nodes, ip) }

// Schedule runs fn after delay d of virtual time and returns a
// cancellable timer. A negative delay is treated as zero.
func (n *Network) Schedule(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	e := n.allocEvent()
	n.seq++
	e.at, e.seq, e.kind, e.fn = n.now+d, n.seq, evFunc, fn
	n.scheduleEvent(e)
	return Timer{net: n, ev: e, seq: e.seq}
}

// Send routes pkt toward its destination (Outer.Dst when encapsulated,
// inner Dst otherwise) after the link latency. The packet must not be
// mutated by the caller after Send. Delivery is a typed event on the
// scheduler — no closure is allocated per send.
func (n *Network) Send(pkt *Packet) {
	src, dst := pkt.Src.IP, pkt.Dst.IP
	if pkt.Outer != nil {
		src, dst = pkt.Outer.Src, pkt.Outer.Dst
	}
	d := n.latency(src, dst)
	if n.jitter > 0 {
		d += time.Duration((n.rng.Float64()*2 - 1) * n.jitter * float64(d))
		if d < 0 {
			d = 0
		}
	}
	at := n.now + d
	// Train coalescing: a delivery due at the open train's instant rides
	// that event instead of allocating and filing its own. It still
	// consumes a sequence number, and scheduleEvent closes the train the
	// moment any other same-instant event is filed, so burst dispatch
	// replays exactly the (at, seq) order the unbatched scheduler had.
	if t := n.openTrain; t != nil && n.openAt == at {
		if t.train == nil {
			t.train = n.allocTrain()
		}
		if len(t.train.entries) < trainMax-1 {
			n.seq++
			t.train.entries = append(t.train.entries, trainEntry{pkt: pkt, dst: dst})
			n.queued++
			n.Coalesced++
			return
		}
	}
	e := n.allocEvent()
	n.seq++
	e.at, e.seq, e.kind, e.pkt, e.dst = at, n.seq, evDeliver, pkt, dst
	n.scheduleEvent(e)
	if !n.noCoalesce {
		n.openTrain, n.openAt = e, at
	}
}

// dropByPolicy accounts for a packet the drop policy condemned.
func (n *Network) dropByPolicy(pkt *Packet) {
	n.DroppedByPolicy++
	n.trace(pkt, true, "policy drop")
	n.ReleasePacket(pkt)
}

// deliver hands a packet the drop policy has let through to the node at
// dst.
func (n *Network) deliver(pkt *Packet, dst IP) {
	node, ok := n.nodes[dst]
	if !ok {
		n.DroppedNoRoute++
		n.trace(pkt, true, "no route")
		n.ReleasePacket(pkt)
		return
	}
	n.Delivered++
	n.trace(pkt, false, "")
	node.HandlePacket(pkt)
}

// trace reports a delivery or drop to the tracer, which may retain the
// packet: it is taken out of the pool first, so the release or handler
// that follows cannot recycle it.
func (n *Network) trace(pkt *Packet, dropped bool, reason string) {
	if n.tracer != nil {
		pkt.pooled = false
		n.tracer(TraceEvent{At: n.now, Packet: pkt, Dropped: dropped, Reason: reason})
	}
}

// execute pops the event nextEvent positioned at the top of curHeap,
// recycles the record, advances the clock, and runs the occurrence. A
// delivery event dispatches its whole train as a burst; each member
// counts as one executed event and one pending slot, so Executed and
// Pending are byte-identical to one-record-per-delivery scheduling.
func (n *Network) execute(e *event) {
	n.curHeap.pop()
	n.queued--
	n.executed++
	if e.at > n.now {
		n.now = e.at
	}
	if e == n.openTrain {
		n.openTrain = nil
	}
	kind, fn, pkt, dst := e.kind, e.fn, e.pkt, e.dst
	train := e.train
	if train != nil {
		e.train = nil
	}
	n.freeEvent(e)
	if kind == evDeliver {
		if train == nil {
			if n.dropFn != nil && n.dropFn(pkt) {
				n.dropByPolicy(pkt)
				return
			}
			n.deliver(pkt, dst)
			return
		}
		entries := train.entries
		n.queued -= len(entries)
		n.executed += uint64(len(entries))
		n.TrainLens.Observe(1 + len(entries))
		// Group consecutive same-destination members into runs; each run
		// is one deliverRun call (one node lookup, one HandleBatch where
		// the node supports it).
		run := append(n.runScratch[:0], pkt)
		runDst := dst
		for i := range entries {
			if entries[i].dst != runDst {
				n.deliverRun(run, runDst)
				run = run[:0]
				runDst = entries[i].dst
			}
			run = append(run, entries[i].pkt)
		}
		n.deliverRun(run, runDst)
		n.runScratch = run[:0]
		n.freeTrain(train)
		return
	}
	fn()
}

// deliverRun delivers a run of same-destination packets carved out of a
// burst-dispatched train. Under loss injection the drop policy sees every
// packet of the run, in delivery order, and the run is split at each one
// it drops, so the stretches between drops reach the node the way a
// whole run does without loss.
func (n *Network) deliverRun(pkts []*Packet, dst IP) {
	n.Runs++
	n.RunLens.Observe(len(pkts))
	if n.dropFn != nil {
		kept := 0
		for i, p := range pkts {
			if n.dropFn(p) {
				n.handOverRun(pkts[kept:i], dst)
				n.dropByPolicy(p)
				kept = i + 1
			}
		}
		pkts = pkts[kept:]
	}
	n.handOverRun(pkts, dst)
}

// handOverRun delivers a stretch of a run that the drop policy has let
// through. Two or more packets whose destination node implements
// BatchNode are handed over in one HandleBatch call — with per-packet
// trace events emitted first, in delivery order, so trace output matches
// the scalar path (handlers never trace synchronously; their sends
// become future deliveries). Everything else — a single packet, a
// non-batch node, a missing route — goes packet by packet.
func (n *Network) handOverRun(pkts []*Packet, dst IP) {
	if len(pkts) >= 2 {
		if bn, ok := n.nodes[dst].(BatchNode); ok {
			if n.tracer != nil {
				for _, p := range pkts {
					n.trace(p, false, "")
				}
			}
			n.Delivered += uint64(len(pkts))
			n.BatchRuns++
			bn.HandleBatch(pkts)
			return
		}
	}
	for _, p := range pkts {
		n.deliver(p, dst)
	}
}

// Step executes the next pending event, advancing the clock. It reports
// whether an event was executed. Cancelled events are drained and
// recycled as they are encountered, never re-scanned.
func (n *Network) Step() bool {
	e := n.nextEvent(math.MaxInt64)
	if e == nil {
		return false
	}
	n.execute(e)
	return true
}

// Run executes events until the virtual clock would pass deadline, then
// sets the clock to the deadline. Events scheduled exactly at the
// deadline are executed.
func (n *Network) Run(deadline time.Duration) {
	for {
		// Looking no further than the deadline's slot leaves later timers
		// in the wheel, where Stop can still free them.
		e := n.nextEvent(int64(deadline >> slotShift))
		if e == nil || e.at > deadline {
			break
		}
		n.execute(e)
	}
	if n.now < deadline {
		n.now = deadline
		n.syncCursor()
	}
}

// RunFor advances the simulation by d from the current time.
func (n *Network) RunFor(d time.Duration) { n.Run(n.now + d) }

// RunUntilIdle executes events until the queue drains or maxEvents have
// run, whichever comes first. It returns the number of events executed.
// The cap guards against runaway retransmission loops in tests. Events
// are counted logically — every delivery in a burst-dispatched train is
// one event — so counts match unbatched scheduling exactly.
func (n *Network) RunUntilIdle(maxEvents int) int {
	count := 0
	for count < maxEvents {
		before := n.executed
		if !n.Step() {
			break
		}
		count += int(n.executed - before)
	}
	return count
}

// Pending returns the number of live (not cancelled) queued events.
func (n *Network) Pending() int { return n.queued - n.cancelledPending }

// Executed returns the number of events this loop has executed.
func (n *Network) Executed() uint64 { return n.executed }

// BatchHitRatio returns the fraction of train runs (length ≥ 2) handed
// to a BatchNode in one call — 0 when no trains have dispatched yet.
func (n *Network) BatchHitRatio() float64 {
	if n.Runs == 0 {
		return 0
	}
	return float64(n.BatchRuns) / float64(n.Runs)
}

// String summarizes the network state for debugging, including the
// batch-dispatch shape: train/run length histograms and the batch-hit
// ratio. Experiment outputs never embed this string, so extending it is
// byte-identity safe.
func (n *Network) String() string {
	return fmt.Sprintf("netsim{t=%s nodes=%d pending=%d delivered=%d dropped=%d+%d trains{%s} runs{%s} batch-hit=%.2f}",
		n.now, len(n.nodes), n.Pending(), n.Delivered, n.DroppedNoRoute, n.DroppedByPolicy,
		n.TrainLens.String(), n.RunLens.String(), n.BatchHitRatio())
}
