package netsim

import (
	"container/heap"
	"fmt"
	"math"
	"testing"
	"time"
)

// refSched is the scheduler the timing wheel replaced, kept as the test
// oracle: one global binary heap ordered by (at, seq), cancellation by
// flag. Every schedule consumes one sequence number, as Network.Schedule
// and Network.Send do, so ties break the same way in both.
type refSched struct {
	now      time.Duration
	seq      uint64
	executed uint64
	q        refQueue
}

type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
	fired     bool
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

func (r *refSched) schedule(d time.Duration, fn func()) *refEvent {
	r.seq++
	e := &refEvent{at: r.now + d, seq: r.seq, fn: fn}
	heap.Push(&r.q, e)
	return e
}

func (e *refEvent) stop()        { e.cancelled = true }
func (e *refEvent) active() bool { return !e.cancelled && !e.fired }

// next returns the earliest live event without removing it.
func (r *refSched) next() *refEvent {
	for len(r.q) > 0 && r.q[0].cancelled {
		heap.Pop(&r.q)
	}
	if len(r.q) == 0 {
		return nil
	}
	return r.q[0]
}

func (r *refSched) step() bool {
	e := r.next()
	if e == nil {
		return false
	}
	heap.Pop(&r.q)
	r.now, e.fired = e.at, true
	r.executed++
	e.fn()
	return true
}

func (r *refSched) run(deadline time.Duration) {
	for e := r.next(); e != nil && e.at <= deadline; e = r.next() {
		r.step()
	}
	if r.now < deadline {
		r.now = deadline
	}
}

func (r *refSched) pending() int {
	k := 0
	for _, e := range r.q {
		if !e.cancelled {
			k++
		}
	}
	return k
}

// schedOp is one step of a scheduler script. Timers are numbered in the
// order they were armed; target picks one of them modulo that count.
type schedOp struct {
	kind   schedOpKind
	d      time.Duration
	target int
}

type schedOpKind uint8

const (
	opSchedule schedOpKind = iota // arm a timer d ahead
	opSpawner                     // arm a timer that, when it fires, stops timer target and arms a child 3d/2 ahead
	opStop                        // stop timer target
	opSend                        // send a packet with latency d
	opRun                         // Run(now + d)
	opStep                        // Step
	opPeek                        // NextEventAt and Active(target)
	opDrain                       // RunUntilIdle
	schedOpKinds
)

// schedWorld is what a script drives: the real Network or the reference.
// Both append to log every firing and, after every op, every observable
// of the scheduler, so equal logs mean equal behaviour.
type schedWorld struct {
	log      []string
	now      func() time.Duration
	pending  func() int
	executed func() uint64
	arm      func(d time.Duration, fn func()) (stop func(), active func() bool)
	send     func(d time.Duration, id int)
	run      func(deadline time.Duration)
	step     func() bool
	peek     func() (time.Duration, bool)
	stops    []func()
	actives  []func() bool
}

func (w *schedWorld) armLogged(d time.Duration, then func()) {
	id := len(w.stops)
	stop, active := w.arm(d, func() {
		w.log = append(w.log, fmt.Sprintf("fire %d t=%v", id, w.now()))
		if then != nil {
			then()
		}
	})
	w.stops, w.actives = append(w.stops, stop), append(w.actives, active)
}

func (w *schedWorld) play(ops []schedOp) {
	for i, op := range ops {
		pick := func() int { return op.target % len(w.stops) }
		switch op.kind {
		case opSchedule:
			w.armLogged(op.d, nil)
		case opSpawner:
			target, d := op.target, op.d
			w.armLogged(d, func() {
				w.stops[target%len(w.stops)]()
				w.armLogged(d+d/2, nil)
			})
		case opStop:
			if len(w.stops) > 0 {
				w.stops[pick()]()
			}
		case opSend:
			w.send(op.d, i)
		case opRun:
			w.run(w.now() + op.d)
		case opStep:
			w.log = append(w.log, fmt.Sprintf("step=%v", w.step()))
		case opPeek:
			at, ok := w.peek()
			w.log = append(w.log, fmt.Sprintf("next=%v,%v", at, ok))
			if len(w.stops) > 0 {
				w.log = append(w.log, fmt.Sprintf("active %d=%v", pick(), w.actives[pick()]()))
			}
		case opDrain:
			for w.step() {
			}
		}
		w.log = append(w.log, fmt.Sprintf("op %d: now=%v pending=%d executed=%d", i, w.now(), w.pending(), w.executed()))
	}
	for w.step() {
	}
	w.log = append(w.log, fmt.Sprintf("end: now=%v pending=%d executed=%d", w.now(), w.pending(), w.executed()))
	for id, active := range w.actives {
		if active() {
			w.log = append(w.log, fmt.Sprintf("timer %d still active", id))
		}
	}
}

// Trains are off in the wheel's world: Step would run a whole train
// where the reference runs one delivery, and FuzzBurstDispatch already
// holds coalesced delivery to the uncoalesced order this one checks.
func newWheelWorld() *schedWorld {
	n := New(1)
	n.noCoalesce = true
	w := &schedWorld{now: n.Now, pending: n.Pending, executed: n.Executed, run: n.Run, step: n.Step}
	// Peeking positions the wheel on its earliest live event without
	// executing anything, a state change Run and Step then start from.
	w.peek = func() (time.Duration, bool) {
		if e := n.nextEvent(math.MaxInt64); e != nil {
			return e.at, true
		}
		return 0, false
	}
	w.arm = func(d time.Duration, fn func()) (func(), func() bool) {
		tm := n.Schedule(d, fn)
		return tm.Stop, tm.Active
	}
	dst := IPv4(10, 0, 0, 2)
	n.Attach(dst, NodeFunc(func(p *Packet) {
		w.log = append(w.log, fmt.Sprintf("pkt %d t=%v", p.Seq, n.Now()))
		n.ReleasePacket(p)
	}))
	w.send = func(d time.Duration, id int) {
		n.SetLatency(func(IP, IP) time.Duration { return d })
		pkt := n.AllocPacket()
		pkt.Src, pkt.Dst, pkt.Seq = HostPort{IPv4(10, 0, 0, 1), 1000}, HostPort{dst, 80}, uint32(id)
		n.Send(pkt)
	}
	return w
}

func newRefWorld() *schedWorld {
	r := &refSched{}
	w := &schedWorld{pending: r.pending, run: r.run, step: r.step}
	w.now = func() time.Duration { return r.now }
	w.executed = func() uint64 { return r.executed }
	w.arm = func(d time.Duration, fn func()) (func(), func() bool) {
		e := r.schedule(d, fn)
		return e.stop, e.active
	}
	w.send = func(d time.Duration, id int) {
		r.schedule(d, func() { w.log = append(w.log, fmt.Sprintf("pkt %d t=%v", id, r.now)) })
	}
	w.peek = func() (time.Duration, bool) {
		if e := r.next(); e != nil {
			return e.at, true
		}
		return 0, false
	}
	return w
}

// checkSchedScript plays ops on the wheel and on the reference and fails
// on the first line where their logs part.
func checkSchedScript(t *testing.T, ops []schedOp) {
	t.Helper()
	got := newWheelWorld()
	want := newRefWorld()
	got.play(ops)
	want.play(ops)
	for i := range want.log {
		if i >= len(got.log) || got.log[i] != want.log[i] {
			g := "<nothing>"
			if i < len(got.log) {
				g = got.log[i]
			}
			t.Fatalf("line %d:\nwheel:     %s\nreference: %s", i, g, want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		t.Fatalf("wheel logged %d lines, reference %d; first extra: %s", len(got.log), len(want.log), got.log[len(want.log)])
	}
}
