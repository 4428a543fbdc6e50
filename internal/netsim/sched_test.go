package netsim

import (
	"testing"
	"time"
)

const (
	slotWidth = time.Duration(1) << slotShift
	span0     = slotWidth << wheelBits // one level-0 block, ~134 ms
	span1     = span0 << wheelBits     // one level-1 stretch, ~34 s
	span2     = span1 << wheelBits     // the whole top level, ~2.4 h
)

// FuzzSchedulerOrder holds the timing wheel to the global (at, seq) heap
// in sched_reference_test.go: identical fire order, clock, Pending,
// Executed, NextEventAt and Timer.Active after every step of a random
// script. Three bytes make one op: its kind, and a delay of mantissa <<
// shift nanoseconds — 0 to 400 days, so every level, the far list and
// the borders between them come up.
func FuzzSchedulerOrder(f *testing.F) {
	f.Add([]byte{0, 1, 28, 0, 1, 19, 1, 200, 21, 2, 0, 0, 4, 1, 30, 6, 0, 0})                               // arm, spawn, stop, run, peek
	f.Add([]byte{0, 255, 19, 0, 1, 27, 0, 1, 35, 0, 1, 43, 0, 3, 43, 5, 0, 0, 0, 9, 40, 4, 1, 44, 6, 1, 0}) // level borders, far list
	f.Add([]byte{3, 150, 10, 3, 150, 10, 0, 150, 10, 3, 150, 10, 4, 1, 20, 5, 0, 0})                        // same-instant sends and a timer
	f.Add([]byte{1, 3, 27, 0, 7, 33, 6, 1, 0, 0, 1, 20, 2, 1, 0, 4, 9, 36, 7, 0, 0, 2, 2, 0})               // cursor parked ahead of the clock
	f.Fuzz(func(t *testing.T, script []byte) {
		var ops []schedOp
		for ; len(script) >= 3 && len(ops) < 512; script = script[3:] {
			ops = append(ops, schedOp{
				kind:   schedOpKind(script[0]) % schedOpKinds,
				d:      time.Duration(script[1]) << (script[2] % 48),
				target: int(script[1]),
			})
		}
		checkSchedScript(t, ops)
	})
}

// TestWheelLevelBoundaries pins the cases the wheel's digit arithmetic
// could get wrong, each against the reference heap.
func TestWheelLevelBoundaries(t *testing.T) {
	arm := func(ds ...time.Duration) (ops []schedOp) {
		for _, d := range ds {
			ops = append(ops, schedOp{kind: opSchedule, d: d})
		}
		return ops
	}
	around := func(h time.Duration) []schedOp {
		return arm(h+slotWidth, h+1, h, h-1, h-slotWidth, h-slotWidth-1)
	}
	run := func(d time.Duration) schedOp { return schedOp{kind: opRun, d: d} }
	stop := func(target int) schedOp { return schedOp{kind: opStop, target: target} }
	peek := func(target int) schedOp { return schedOp{kind: opPeek, target: target} }
	cat := func(parts ...[]schedOp) (ops []schedOp) {
		for _, p := range parts {
			ops = append(ops, p...)
		}
		return ops
	}
	cases := []struct {
		name string
		ops  []schedOp
	}{
		{"mixed near and far", arm(500*time.Millisecond, 10*time.Second, time.Microsecond, 50*time.Millisecond, 200*time.Millisecond, 0)},
		{"level 0 horizon", around(span0)},
		{"level 1 horizon", around(span1)},
		{"level 2 horizon", around(span2)},
		{"all horizons interleaved", cat(around(span2), around(span0), around(span1))},
		// The levels are aligned to absolute time, not to the cursor: from
		// the last slot of a block the very next slot is a level up.
		{"one slot across each border", cat(
			[]schedOp{run(span0 - slotWidth/2)}, arm(slotWidth, slotWidth/2, span0),
			[]schedOp{run(span1 - span0)}, arm(slotWidth, span0, span1),
			[]schedOp{run(span2 - span1)}, arm(slotWidth, span0, span1, span2),
		)},
		{"beyond the top level", arm(3*span2, span2+span2/2, 300*span2, 3*span2+1, time.Millisecond, 299*span2)},
		{"idle jump across empty levels", cat(
			arm(5*span2+7*span1+3*span0+slotWidth),
			[]schedOp{{kind: opStep}}, arm(slotWidth, span0, span1, span2, 0),
		)},
		// NextEventAt parks the cursor on a far event; what is armed
		// afterwards is due before the cursor and must still run first.
		{"cursor ahead of the clock", cat(
			arm(span1+span0), []schedOp{peek(0)}, arm(time.Millisecond, span0, span1, 2*span1),
			[]schedOp{run(time.Second), peek(0)}, arm(slotWidth, span1),
		)},
		{"run parks past a block border", cat(
			arm(span0+5*slotWidth, 3*span1), []schedOp{run(span0 + slotWidth)}, arm(slotWidth, 4*slotWidth, 5*slotWidth),
		)},
		{"stop after fire, stop twice", cat(
			arm(time.Millisecond, 300*time.Millisecond), []schedOp{run(10 * time.Millisecond), stop(0), peek(0), stop(1), stop(1), peek(1)},
			arm(300*time.Millisecond), []schedOp{stop(1), peek(2)},
		)},
		// Timer 0's record is recycled for timer 1 the moment it is
		// stopped; the stale handle must not touch the new tenant.
		{"stale handle after record reuse", cat(
			arm(time.Second), []schedOp{stop(0)}, arm(2*time.Second), []schedOp{stop(0), peek(0), peek(1)},
		)},
		{"stop inside the cursor's slot", cat(
			arm(slotWidth/4, slotWidth/2, 2*span0), []schedOp{{kind: opStep}, stop(1), peek(1), stop(2)},
		)},
		{"spawner stops and re-arms across levels", []schedOp{
			{kind: opSchedule, d: span1 + 1}, {kind: opSpawner, d: span0 - 1, target: 0}, {kind: opSpawner, d: span1, target: 1},
			{kind: opSend, d: 150 * time.Microsecond}, {kind: opSend, d: 150 * time.Microsecond}, {kind: opSend, d: span0},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkSchedScript(t, c.ops) })
	}
}

// TestStopFreesRecord: a retransmission timer is armed on every send and
// stopped by the ACK long before it is due. The stopped record must go
// back to the pool at once — not wait, compared and carried around, for
// its deadline — so a million such cycles keep one record in play.
func TestStopFreesRecord(t *testing.T) {
	n := New(1)
	nop := func() {}
	for i := 0; i < 1_000_000; i++ {
		tm := n.Schedule(300*time.Millisecond, nop)
		n.RunFor(time.Microsecond)
		tm.Stop()
		if n.queued != 0 || len(n.evFree) != 1 {
			t.Fatalf("cycle %d: %d records queued, %d pooled; want 0 and 1", i, n.queued, len(n.evFree))
		}
	}
	if n.Step() {
		t.Fatal("a stopped timer ran")
	}
}
