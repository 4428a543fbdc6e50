package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"slices"
	"time"

	"repro/internal/controller"
	"repro/internal/metrics"
	"repro/internal/netsim"
)

// counters are cumulative event counts read from exported fields of the
// layers. They are exact: the same (workload, seed, seconds) yields the
// same values on every run of the same code, traced or not.
type counters map[string]uint64

func snapCounters(b *bed) counters {
	n := b.c.Net
	c := counters{
		"netsim.events":     n.Executed(),
		"netsim.pkts":       n.Delivered,
		"netsim.runs":       n.Runs,
		"netsim.batch_runs": n.BatchRuns,
		"netsim.trains":     n.TrainLens.Count(),
		"netsim.train_pkts": n.TrainLens.Sum(),
		"l4lb.pkts":         b.c.L4.Forwarded,
		// Instances report SNAT exhaustion through the controller's stats
		// poll; what the poll has not collected yet is still on the instance.
		"core.snat_exhausted": b.ct.SNATExhausted,
	}
	for _, in := range b.c.Yoda {
		c["core.barrier_commits"] += in.Barrier.Commits
		c["core.barrier_degraded"] += in.Barrier.Degraded
		c["core.barrier_aborted"] += in.Barrier.Aborted
		c["core.barrier_timeouts"] += in.Barrier.Timeouts
		c["core.recovered_store"] += in.Recovered
		c["core.recovered_derived"] += in.DerivedRecoveries
		c["core.lookup_misses"] += in.LookupMisses
		c["core.suppressed_orphans"] += in.SuppressedOrphans
		for _, vs := range in.Stats {
			c["core.snat_exhausted"] += vs.SNATExhausted
		}
		st := in.Store().Stats
		c["tcpstore.roundtrips"] += st.RoundTrips
		c["tcpstore.sets"] += st.Sets + st.BatchRecords
		c["tcpstore.gets"] += st.Gets
		c["tcpstore.get_hits"] += st.Hits
		c["tcpstore.timeouts"] += st.Timeouts
		c["tcpstore.replica_errors"] += st.ReplicaErrors
	}
	for _, srv := range b.c.StoreServers {
		c["memcache.ops"] += srv.Ops
	}
	return c
}

// addDelta accumulates end-start into c.
func (c counters) addDelta(start, end counters) {
	for k, v := range end {
		c[k] += v - start[k]
	}
}

// gauges are end-state sizes: what is still held after the cluster has
// drained. Anything that grows with requests served shows here.
func snapGauges(b *bed) counters {
	g := counters{"l4lb.affinity_entries_end": uint64(b.c.L4.AffinityCount())}
	for _, in := range b.c.Yoda {
		g["core.flows_end"] += uint64(in.ClientFlowCount())
	}
	for _, srv := range b.c.StoreServers {
		st := srv.Engine.Stats()
		g["memcache.items_end"] += uint64(st.CurrItems)
		g["memcache.bytes_end"] += uint64(st.BytesUsed)
	}
	return g
}

// memMark is the runtime's allocation and GC accounting at one instant.
type memMark struct {
	mallocs, bytes uint64
	gcCycles       uint32
	gcCPU, allCPU  float64 // cumulative CPU-seconds
}

func markMem() memMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []rtmetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	rtmetrics.Read(s)
	return memMark{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcCycles: ms.NumGC,
		gcCPU: s[0].Value.Float64(), allCPU: s[1].Value.Float64()}
}

func (m *memMark) addDelta(start, end memMark) {
	m.mallocs += end.mallocs - start.mallocs
	m.bytes += end.bytes - start.bytes
	m.gcCycles += end.gcCycles - start.gcCycles
	m.gcCPU += end.gcCPU - start.gcCPU
	m.allCPU += end.allCPU - start.allCPU
}

// liveHeap is HeapAlloc after two forced collections: the first frees
// what is unreachable, the second what finalizers and sweep left behind.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// quantile returns the q-quantile (nearest rank) of xs, sorting in place.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q * float64(len(xs)))
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return float64(xs[i])
}

func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// sample is what one execution of a workload measured.
type sample struct {
	tally
	wall        time.Duration // timed window, host
	setups      []float64     // host seconds per set-up
	mem         memMark       // delta over the timed window
	liveHeapEnd uint64
	heapPerFlow []float64 // one per round (one for closed-loop workloads)
	ctr         counters  // delta over the timed window
	gauges      counters  // after the drain
	pendingEnd  int       // live scheduler entries at the end of the window
	connLat     *metrics.DurationHistogram
	storageLat  *metrics.DurationHistogram
	capped      bool
	calibNs     []int64 // reference-loop durations, see calib.go
	// pausedAtOpen and calibAtOpen are paused and len(calibNs) when the
	// current window opened.
	pausedAtOpen time.Duration
	calibAtOpen  int
	led          *ledger // traced runs only
}

func newSample(s spec, traced bool) *sample {
	o := &sample{ctr: counters{}, connLat: metrics.NewDurationHistogram(), storageLat: metrics.NewDurationHistogram()}
	o.sliceReqs = s.sliceReqs
	if s.held {
		o.sliceReqs = s.flows / heldSlices
	}
	if traced {
		o.led = newLedger()
	}
	return o
}

// capFactor bounds a run at capFactor × the requested seconds of host
// time, checked between rounds, so a stalled box cannot run the
// benchmark past its budget. A capped run serves fewer requests and
// says so.
const capFactor = 1.5

// runWorkload executes one workload: a fixed number of rounds, each on a
// fresh cluster (seed + round) that is set up, measured and drained.
// Rounds keep the heap a run builds up — and with it the collector's
// share of the timings — bounded, and give setup_s several samples.
func runWorkload(s spec, seed int64, seconds float64, traced bool) *sample {
	o := newSample(s, traced)
	rounds := s.rounds(seconds)
	began := time.Now()
	for r := 0; r < rounds && !o.capped; r++ {
		if s.held {
			o.heldRound(s, seed+int64(r), r == rounds-1)
		} else {
			window := time.Duration(seconds / float64(rounds) * float64(s.virtPerSec))
			o.closedLoopRound(s, seed+int64(r), window, r == rounds-1)
		}
		o.capped = r < rounds-1 && time.Since(began).Seconds() > capFactor*seconds
	}
	return o
}

// openWindow and closeWindow bracket a timed phase: counters, allocation
// accounting, slice stamps and the ledger all switch together.
func (o *sample) openWindow(b *bed) (counters, memMark, time.Time) {
	c0, m0 := snapCounters(b), markMem()
	if o.led != nil {
		o.led.on = true
	}
	now := time.Now()
	o.timing, o.sliceFill, o.sliceMark, o.pausedAtMark = true, 0, now, o.paused
	o.pausedAtOpen, o.calibAtOpen = o.paused, len(o.calibNs)
	return c0, m0, now
}

func (o *sample) closeWindow(b *bed, c0 counters, m0 memMark, start time.Time) {
	o.wall += time.Since(start) - (o.paused - o.pausedAtOpen)
	o.timing = false
	if o.led != nil {
		o.led.on = false
	}
	o.mem.addDelta(m0, markMem())
	loops := uint64(len(o.calibNs) - o.calibAtOpen)
	o.mem.mallocs -= loops * refLoopAllocs
	o.mem.bytes -= loops * refLoopBytes
	o.ctr.addDelta(c0, snapCounters(b))
	o.pendingEnd = b.c.Net.Pending()
}

// advance runs a timed phase up to virtual time until, stopping
// calibSteps times on the way for the reference loop.
func (o *sample) advance(net *netsim.Network, until time.Duration) {
	from := net.Now()
	for i := 1; i <= calibSteps; i++ {
		net.Run(from + (until-from)*time.Duration(i)/calibSteps)
		o.calibrate()
	}
}

// drain lets closed flows linger out and their store records be deleted,
// then reads what is still held.
func (o *sample) drain(b *bed) {
	b.c.Net.RunFor(3 * time.Second)
	o.failed += o.inflight // anything still unanswered has failed
	o.attempted += o.inflight
	o.inflight = 0
	o.gauges = snapGauges(b)
	for _, in := range b.c.Yoda {
		o.connLat.Merge(in.ConnLat)
		o.storageLat.Merge(in.StorageLat)
	}
}

// closedLoopRound builds and warms a cluster (set-up), then times the
// closed-loop clients for window of virtual time.
func (o *sample) closedLoopRound(s spec, seed int64, window time.Duration, last bool) {
	t0 := time.Now()
	base := liveHeap()
	b := buildBed(seed, s)
	stop := false
	hosts := startClosedLoop(b, s, &o.tally, &stop)
	if o.led != nil {
		o.led.interpose(b, hosts)
	}
	b.c.Net.Run(s.warmup)
	o.heapPerFlow = append(o.heapPerFlow, float64(liveHeap()-base)/float64(s.clients))
	o.setups = append(o.setups, time.Since(t0).Seconds())

	c0, m0, start := o.openWindow(b)
	o.advance(b.c.Net, s.warmup+window)
	o.closeWindow(b, c0, m0, start)
	if last {
		o.liveHeapEnd = liveHeap()
	}

	// In-flight requests finish (or time out) and are verified too.
	stop = true
	for i := 0; i < 40 && o.inflight > 0; i++ {
		b.c.Net.RunFor(time.Second)
	}
	o.drain(b)
}

// heldRound is one round of held-failover: a fresh cluster ramps up idle
// keep-alive flows, its heap is measured, instance 0 is killed, and
// every flow sends a second request and closes. Ramp and resume are the
// timed phases; slices and virtual latencies cover the resume only.
func (o *sample) heldRound(s spec, seed int64, last bool) {
	t0 := time.Now()
	b := buildBed(seed, s)
	d := newHeldDriver(b, &o.tally, s.hosts)
	if o.led != nil {
		o.led.interpose(b, d.hosts)
	}
	net := b.c.Net
	quiesce := func() {
		for end := net.Now() + 40*time.Second; o.inflight > 0 && net.Now() < end; {
			net.RunFor(50 * time.Millisecond)
		}
	}
	closeAfterReply := func(f *heldFlow) {
		if f.conn != nil {
			f.conn.Close()
		}
	}

	// Warm-up: a few flows open, fetch and close, so the store
	// connections are dialled and the pools hold their working set.
	d.onReply = closeAfterReply
	for i := 0; i < heldWarmFlows; i++ {
		d.open(i)
	}
	quiesce()
	net.RunFor(2 * time.Second)
	d.flows = d.flows[:0]
	base := liveHeap()
	o.setups = append(o.setups, time.Since(t0).Seconds())

	// Ramp: open every flow, one request each, then hold it idle.
	o.quiet = true
	c0, m0, start := o.openWindow(b)
	d.onReply = func(*heldFlow) {}
	pace(net, s.flows, rampStagger, d.open)
	o.advance(net, net.Now()+time.Duration(s.flows)*rampStagger)
	quiesce()
	o.closeWindow(b, c0, m0, start)
	o.quiet = false
	if open := d.live(); open > 0 {
		o.heapPerFlow = append(o.heapPerFlow, float64(liveHeap()-base)/float64(open))
	}

	// Kill just after a monitor tick, so every round leaves the dead
	// instance undetected for one whole ping interval; the controller's
	// monitor then does the remap.
	ping := controller.DefaultConfig().PingInterval
	net.Run((net.Now()/ping+1)*ping + time.Millisecond)
	b.c.KillYoda(0)
	c0, m0, start = o.openWindow(b)
	d.onReply = closeAfterReply
	pace(net, len(d.flows), resumeStagger, func(i int) { d.again(d.flows[i]) })
	o.advance(net, net.Now()+time.Duration(len(d.flows))*resumeStagger)
	quiesce()
	o.closeWindow(b, c0, m0, start)
	o.retransmits += d.retransmits()
	if last {
		o.liveHeapEnd = liveHeap()
	}
	o.drain(b)
}
