package netsim

import (
	"testing"
	"time"
)

// TestBufPoolInterleavedSizes: the free list this pool replaced looked
// only at its top entry, so one small buffer released last made every
// larger request miss, allocate, and later push one more entry — the
// list grew with misses. Interleaved sizes must now each find their own
// buffer again.
func TestBufPoolInterleavedSizes(t *testing.T) {
	n := New(1)
	sizes := []int{64 << 10, 1460, 100}
	var held [3][]byte
	round := func() {
		for i, sz := range sizes {
			held[i] = n.AllocBuf(sz)
			if len(held[i]) != 0 || cap(held[i]) < sz {
				t.Fatalf("AllocBuf(%d) returned len %d cap %d", sz, len(held[i]), cap(held[i]))
			}
		}
		for _, b := range held { // the smallest goes back last
			n.ReleaseBuf(b)
		}
	}
	allocs := testing.AllocsPerRun(10000, round) * 10001 // AllocsPerRun runs one extra warm-up round
	if allocs > 3 {
		t.Fatalf("%.0f allocations over 10K interleaved alloc-release rounds, want <= 3", allocs)
	}
	pooled := 0
	for _, bin := range n.bufs.bins {
		pooled += len(bin)
	}
	if pooled > 3 {
		t.Fatalf("pool holds %d buffers after interleaved traffic, want <= 3", pooled)
	}
}

// TestBufPoolNeverReturnsShort: whatever sizes were released, a request
// gets at least what it asked for, and a bin never outgrows its bounds:
// bufBinMax arrays and, past one, bufBinBytes of them.
func TestBufPoolNeverReturnsShort(t *testing.T) {
	n := New(1)
	rng := n.Rand()
	var held [][]byte
	for i := 0; i < 20000; i++ {
		if len(held) > 0 && rng.Intn(2) == 0 {
			k := rng.Intn(len(held))
			n.ReleaseBuf(held[k])
			held[k] = held[len(held)-1]
			held = held[:len(held)-1]
			continue
		}
		sz := 1 + rng.Intn(1<<uint(1+rng.Intn(bufBins))-1) // every poolable size
		b := n.AllocBuf(sz)
		if len(b) != 0 || cap(b) < sz {
			t.Fatalf("AllocBuf(%d) returned len %d cap %d", sz, len(b), cap(b))
		}
		held = append(held, b)
	}
	for _, b := range held {
		n.ReleaseBuf(b)
	}
	for i, bin := range n.bufs.bins {
		if len(bin) > binKeeps(i) || len(bin) > 1 && len(bin)<<i > bufBinBytes {
			t.Fatalf("bin %d holds %d buffers, bound is %d (and %d bytes of them past one)", i, len(bin), bufBinMax, bufBinBytes)
		}
		for _, b := range bin {
			if bufBin(cap(b)) != i {
				t.Fatalf("buffer of cap %d filed in bin %d", cap(b), i)
			}
		}
	}
	if b := n.AllocBuf(0); b != nil {
		t.Fatalf("AllocBuf(0) = %v", b)
	}
	n.ReleaseBuf(nil)
	// Too large to pool: the caller grows its own array and keeps it.
	if b := n.AllocBuf(1 << bufBins); b != nil {
		t.Fatalf("AllocBuf(%d) made a buffer of cap %d", 1<<bufBins, cap(b))
	}
	big := append(make([]byte, 0, 1<<bufBins), 1, 2, 3)
	if kept := n.ReleaseBuf(big); len(kept) != 0 || cap(kept) != cap(big) || &kept[:1][0] != &big[0] {
		t.Fatalf("ReleaseBuf did not leave a %d-byte buffer with its owner: len %d cap %d", cap(big), len(kept), cap(kept))
	}
	if kept := n.ReleaseBuf(make([]byte, 100)); kept != nil {
		t.Fatalf("ReleaseBuf left a pooled 100-byte buffer with the caller")
	}
}

// TestTracedRunRecycles: a tracer borrows each packet for its call only,
// so a traced run allocates packets and reuses the pool's exactly as an
// untraced one does.
func TestTracedRunRecycles(t *testing.T) {
	run := func(traced bool) (allocs float64, free int) {
		n := New(1)
		a, b := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
		// Each end releases what it gets and answers with a fresh packet
		// until the hop count runs out.
		bounce := func(self, peer IP) NodeFunc {
			return func(p *Packet) {
				hops := p.Seq
				n.ReleasePacket(p)
				if hops > 0 {
					q := n.AllocPacket()
					q.Src.IP, q.Dst.IP, q.Seq = self, peer, hops-1
					n.Send(q)
				}
			}
		}
		n.Attach(a, bounce(a, b))
		n.Attach(b, bounce(b, a))
		seen := 0
		if traced {
			n.SetTracer(func(ev TraceEvent) { seen += int(ev.Packet.Seq & 1) })
		}
		allocs = testing.AllocsPerRun(50, func() {
			q := n.AllocPacket()
			q.Src.IP, q.Dst.IP, q.Seq = a, b, 100
			n.Send(q)
			n.RunUntilIdle(1000)
		})
		if traced && seen == 0 {
			t.Fatal("the tracer saw no packet")
		}
		return allocs, len(n.pktFree)
	}
	plainAllocs, plainFree := run(false)
	tracedAllocs, tracedFree := run(true)
	if tracedAllocs != plainAllocs || tracedFree != plainFree {
		t.Fatalf("traced run: %.0f allocs per round, %d packets in the pool; untraced: %.0f and %d",
			tracedAllocs, tracedFree, plainAllocs, plainFree)
	}
}

// TestFreeListsFollowLiveRecords: a storm of timers grows the event free
// list past its floor, a storm of packets the packet list, and trains of
// them the train box list; once it is over the lists hold no more than
// their floors. The fired timers stay inert, those whose records were
// dropped from the list as well as those whose records the deliveries
// went on to reuse: Active is false and Stop does nothing, to the record
// or to the scheduler.
func TestFreeListsFollowLiveRecords(t *testing.T) {
	n := New(1)
	a, b := IPv4(10, 0, 0, 1), IPv4(10, 0, 0, 2)
	n.Attach(b, NodeFunc(func(p *Packet) { n.ReleasePacket(p) }))
	nop := func() {}
	const storm = 4 * pktFloor
	timers := make([]Timer, 2*evFloor)
	for i := range timers {
		timers[i] = n.Schedule(0, nop)
	}
	n.RunFor(time.Millisecond)
	peak, peakTrains := 0, 0
	for i := range storm {
		q := n.AllocPacket()
		q.Src.IP, q.Dst.IP = a, b
		n.Send(q)
		if i%2 == 1 { // a train of two every 100 ns, 150 µs in flight
			n.RunFor(100 * time.Nanosecond)
		}
		peak, peakTrains = max(peak, n.pkts-len(n.pktFree)), max(peakTrains, n.trains-len(n.trainFree))
	}
	n.RunFor(time.Second)
	if out, trains := n.pkts-len(n.pktFree), n.trains-len(n.trainFree); peak <= pktFloor || peakTrains <= trainFloor || out != 0 || trains != 0 {
		t.Fatalf("%d packets and %d trains out at the peak; %d and %d after it", peak, peakTrains, out, trains)
	}
	if len(n.pktFree) > pktFloor || len(n.trainFree) > trainFloor {
		t.Fatalf("free lists hold %d packets and %d trains; floors %d and %d",
			len(n.pktFree), len(n.trainFree), pktFloor, trainFloor)
	}
	if cap(n.pktFree) > 4*pktFloor {
		t.Fatalf("the packet free list's array holds %d slots, want at most %d", cap(n.pktFree), 4*pktFloor)
	}
	free := map[*event]bool{}
	for _, e := range n.evFree {
		free[e] = true
	}
	dropped := 0
	for _, tm := range timers {
		if !free[tm.ev] {
			dropped++
		}
	}
	if len(n.evFree) > evFloor || dropped < len(timers)-evFloor {
		t.Fatalf("the event free list holds %d records (floor %d); %d of the %d fired timers' records left it",
			len(n.evFree), evFloor, dropped, len(timers))
	}
	late := n.Schedule(time.Millisecond, nop)
	for i, tm := range timers {
		if tm.Active() {
			t.Fatalf("timer %d is active after it fired", i)
		}
		n.Stop(tm)
	}
	if !late.Active() || n.Pending() != 1 {
		t.Fatalf("stale Stops disturbed a live timer: active %v, %d pending", late.Active(), n.Pending())
	}
}
