package netsim

import (
	"fmt"
	"testing"
	"time"
)

// trainRig attaches a logging sink at dst and returns the log. Every
// delivered packet is recorded as "t=<now> seq=<Seq>" so order, timing,
// and identity are all captured.
type trainRig struct {
	n   *Network
	dst IP
	log []string
}

func newTrainRig(seed int64) *trainRig {
	r := &trainRig{n: New(seed), dst: IPv4(10, 0, 0, 2)}
	r.n.Attach(r.dst, r)
	return r
}

func (r *trainRig) HandlePacket(p *Packet) {
	r.log = append(r.log, fmt.Sprintf("t=%v seq=%d", r.n.Now(), p.Seq))
	r.n.ReleasePacket(p)
}

// HandleBatch makes the sink a BatchNode, so multi-packet runs count as
// BatchRuns.
func (r *trainRig) HandleBatch(pkts []*Packet) {
	for _, p := range pkts {
		r.HandlePacket(p)
	}
}

func (r *trainRig) send(seq uint32) {
	pkt := r.n.AllocPacket()
	pkt.Src = HostPort{IPv4(10, 0, 0, 1), 1000}
	pkt.Dst = HostPort{r.dst, 80}
	pkt.Flags = FlagACK
	pkt.Seq = seq
	r.n.Send(pkt)
}

// Back-to-back sends with no intervening event land at the same instant
// and must ride one event record, while delivering exactly like
// one-record-per-packet scheduling: same order, same Pending/Executed.
func TestTrainCoalescesSameInstant(t *testing.T) {
	const k = 8
	r := newTrainRig(1)
	for i := 0; i < k; i++ {
		r.send(uint32(i))
	}
	if got := r.n.Pending(); got != k {
		t.Fatalf("Pending = %d, want %d", got, k)
	}
	if ran := r.n.RunUntilIdle(1000); ran != k {
		t.Fatalf("RunUntilIdle = %d, want %d", ran, k)
	}
	if r.n.Executed() != k {
		t.Fatalf("Executed = %d, want %d", r.n.Executed(), k)
	}
	if r.n.Coalesced != k-1 {
		t.Fatalf("Coalesced = %d, want %d", r.n.Coalesced, k-1)
	}
	for i, line := range r.log {
		want := fmt.Sprintf("t=150µs seq=%d", i)
		if line != want {
			t.Fatalf("delivery %d = %q, want %q", i, line, want)
		}
	}
}

// A timer filed at the open train's instant would interleave a sequence
// number between the train head and later appends, so it must close the
// train; the later send gets its own record and fires after the timer.
func TestTrainClosedBySameInstantTimer(t *testing.T) {
	r := newTrainRig(1)
	r.send(0) // opens a train due at 150µs
	fired := false
	r.n.Schedule(150*time.Microsecond, func() {
		fired = true
		if len(r.log) != 1 {
			t.Fatalf("timer fired with %d deliveries done, want 1", len(r.log))
		}
	})
	r.send(1) // must NOT join the (closed) train
	if r.n.Coalesced != 0 {
		t.Fatalf("Coalesced = %d, want 0 (train closed by timer)", r.n.Coalesced)
	}
	r.n.RunUntilIdle(100)
	if !fired {
		t.Fatal("timer never fired")
	}
	if len(r.log) != 2 || r.log[1] != "t=150µs seq=1" {
		t.Fatalf("log = %v", r.log)
	}
}

// Filling a train past trainMax spills onto a fresh record; nothing is
// lost or reordered.
func TestTrainMaxSpills(t *testing.T) {
	const k = trainMax + 10
	r := newTrainRig(1)
	for i := 0; i < k; i++ {
		r.send(uint32(i))
	}
	if ran := r.n.RunUntilIdle(k + 10); ran != k {
		t.Fatalf("RunUntilIdle = %d, want %d", ran, k)
	}
	// Two records carry the burst: the full head train and the spill.
	if r.n.Coalesced != k-2 {
		t.Fatalf("Coalesced = %d, want %d", r.n.Coalesced, k-2)
	}
	for i, line := range r.log {
		if want := fmt.Sprintf("t=150µs seq=%d", i); line != want {
			t.Fatalf("delivery %d = %q, want %q", i, line, want)
		}
	}
}

// noCoalesce is the reference mode: identical delivery log and counts,
// zero coalescing — without loss and under a drop policy, which must
// split runs at the packets it drops instead of switching batch dispatch
// off.
func TestTrainDisabledMatchesEnabled(t *testing.T) {
	for _, dropEvery := range []int{0, 4} {
		run := func(coalesce bool) *trainRig {
			r := newTrainRig(7)
			r.n.noCoalesce = !coalesce
			if dropEvery > 0 {
				seen := 0
				r.n.SetDropFunc(func(*Packet) bool { seen++; return seen%dropEvery == 0 })
			}
			for round := 0; round < 5; round++ {
				for i := 0; i < 6; i++ {
					r.send(uint32(round*10 + i))
				}
				r.n.RunFor(50 * time.Microsecond)
			}
			r.n.RunUntilIdle(1000)
			return r
		}
		on, off := run(true), run(false)
		if on.n.Executed() != off.n.Executed() {
			t.Fatalf("dropEvery=%d Executed: coalesced=%d reference=%d", dropEvery, on.n.Executed(), off.n.Executed())
		}
		if on.n.DroppedByPolicy != off.n.DroppedByPolicy || (dropEvery > 0) != (on.n.DroppedByPolicy > 0) {
			t.Fatalf("dropEvery=%d DroppedByPolicy: coalesced=%d reference=%d", dropEvery, on.n.DroppedByPolicy, off.n.DroppedByPolicy)
		}
		if on.n.BatchRuns == 0 || off.n.BatchRuns != 0 {
			t.Fatalf("dropEvery=%d BatchRuns: coalesced=%d (want > 0) reference=%d (want 0)", dropEvery, on.n.BatchRuns, off.n.BatchRuns)
		}
		if len(on.log) != len(off.log) {
			t.Fatalf("dropEvery=%d deliveries: coalesced=%d reference=%d", dropEvery, len(on.log), len(off.log))
		}
		for i := range on.log {
			if on.log[i] != off.log[i] {
				t.Fatalf("dropEvery=%d delivery %d: coalesced=%q reference=%q", dropEvery, i, on.log[i], off.log[i])
			}
		}
	}
}

// Trains are pooled: a steady stream of bursts must not allocate per
// packet or per train.
func TestTrainAllocFree(t *testing.T) {
	n := New(1)
	dst := IPv4(10, 0, 0, 2)
	delivered := 0
	n.Attach(dst, NodeFunc(func(p *Packet) {
		delivered++
		n.ReleasePacket(p)
	}))
	send := func() {
		pkt := n.AllocPacket()
		pkt.Src = HostPort{IPv4(10, 0, 0, 1), 1000}
		pkt.Dst = HostPort{dst, 80}
		pkt.Flags = FlagACK
		n.Send(pkt)
	}
	// Warm the pools.
	for i := 0; i < 8; i++ {
		send()
	}
	n.RunUntilIdle(100)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			send()
		}
		n.RunUntilIdle(100)
	})
	if allocs > 0 {
		t.Fatalf("burst send/deliver allocates %.1f/op, want 0", allocs)
	}
}

// FuzzBurstDispatch drives two networks through the same script — one
// with train coalescing (the default), one with a record per delivery
// (the reference) — and requires identical delivery logs, identical
// Executed/Pending counts, and identical timer interleaving. The script
// bytes choose among: send to one of two destinations with one of four
// latencies (including duplicates that force same-instant trains),
// schedule a timer at one of those instants, run a bounded slice of
// virtual time, or drain. Time advances only by time-bounded runs and
// drains — never Step, which runs a whole train in the coalesced world
// but one delivery in the reference, so an op injected "after one step"
// would land at different logical points in the two.
func FuzzBurstDispatch(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})          // pure burst, one train
	f.Add([]byte{0, 1, 2, 3, 12, 0, 1})   // mixed latencies + timer
	f.Add([]byte{0, 12, 0, 8, 0, 13, 0})  // timers closing trains mid-burst
	f.Add([]byte{0, 0, 14, 0, 0, 15, 0})  // bounded run/drain between sends
	f.Add([]byte{4, 5, 6, 7, 4, 5, 6, 7}) // second destination interleaved
	f.Fuzz(func(t *testing.T, script []byte) {
		type net struct {
			n   *Network
			log []string
		}
		lat := []time.Duration{150 * time.Microsecond, 150 * time.Microsecond, 300 * time.Microsecond, 1 * time.Millisecond}
		mk := func(coalesce bool) *net {
			w := &net{n: New(42)}
			w.n.noCoalesce = !coalesce
			for _, ip := range []IP{IPv4(10, 0, 0, 2), IPv4(10, 0, 0, 3)} {
				ip := ip
				w.n.Attach(ip, NodeFunc(func(p *Packet) {
					w.log = append(w.log, fmt.Sprintf("pkt t=%v dst=%v seq=%d flags=%v", w.n.Now(), ip, p.Seq, p.Flags))
					w.n.ReleasePacket(p)
				}))
			}
			return w
		}
		nets := [2]*net{mk(true), mk(false)}
		for i, op := range script {
			for _, w := range nets {
				w := w
				switch {
				case op < 8: // send: bits 0-1 latency, bit 2 destination
					dst := IPv4(10, 0, 0, 2+byte(op>>2)&1)
					d := lat[op&3]
					w.n.SetLatency(func(IP, IP) time.Duration { return d })
					pkt := w.n.AllocPacket()
					pkt.Src = HostPort{IPv4(10, 0, 0, 1), 1000}
					pkt.Dst = HostPort{dst, 80}
					pkt.Seq = uint32(i)
					pkt.Flags = TCPFlags(1 << (op & 3))
					w.n.Send(pkt)
				case op < 12: // timer at one of the latency instants
					d := lat[op&3]
					w.n.Schedule(d, func() {
						w.log = append(w.log, fmt.Sprintf("timer t=%v", w.n.Now()))
					})
				case op < 14: // run a bounded slice of virtual time
					w.n.Run(w.n.Now() + time.Duration(op-11)*100*time.Microsecond)
				default: // drain
					w.n.RunUntilIdle(1 << 16)
				}
			}
		}
		for _, w := range nets {
			w.n.RunUntilIdle(1 << 16)
		}
		co, ref := nets[0], nets[1]
		if co.n.Executed() != ref.n.Executed() || co.n.Pending() != ref.n.Pending() {
			t.Fatalf("counts: coalesced exec=%d pend=%d, reference exec=%d pend=%d",
				co.n.Executed(), co.n.Pending(), ref.n.Executed(), ref.n.Pending())
		}
		if len(co.log) != len(ref.log) {
			t.Fatalf("log length: coalesced=%d reference=%d", len(co.log), len(ref.log))
		}
		for i := range co.log {
			if co.log[i] != ref.log[i] {
				t.Fatalf("event %d:\ncoalesced: %s\nreference: %s", i, co.log[i], ref.log[i])
			}
		}
	})
}
