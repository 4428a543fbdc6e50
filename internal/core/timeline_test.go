package core_test

import (
	"fmt"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/testbed"
)

// timeline is a run's trace as lines, one per packet delivered or
// dropped, per note and per fault the run injects, in virtual-time
// order; a packet shows at its delivery. It is kept when a run is
// explained: a failing sweep point is re-run with one and logs it, and
// TestDefectTimelines holds each open defect's to the lines that show it.
// Its methods do nothing on a nil timeline.
type timeline struct {
	names map[netsim.IP]string
	lines []string
}

func newTimeline(tb *testbed.Bed) *timeline { return &timeline{names: hostNames(tb)} }

// add appends ev's line: a packet as describe prints it, with the reason
// of a drop; a note as its node, its name and the flow's tuple.
func (tl *timeline) add(ev netsim.TraceEvent) {
	if tl == nil {
		return
	}
	switch {
	case ev.Packet != nil && ev.Dropped:
		tl.mark(ev.At, describe(tl.names, ev.Packet)+" (dropped: "+ev.Reason+")")
	case ev.Packet != nil:
		tl.mark(ev.At, describe(tl.names, ev.Packet))
	case ev.Tuple == netsim.FourTuple{}:
		tl.mark(ev.At, tl.names[ev.Node]+" "+ev.Note)
	default:
		tl.mark(ev.At, tl.names[ev.Node]+" "+ev.Note+" "+path(tl.names, ev.Tuple))
	}
}

// mark appends a line of the run's own, such as a kill.
func (tl *timeline) mark(at time.Duration, line string) {
	if tl != nil {
		tl.lines = append(tl.lines, fmt.Sprintf("%11.3fms  %s", float64(at)/float64(time.Millisecond), line))
	}
}

// String prints the lines, a run of equal ones as one with its count.
func (tl *timeline) String() string {
	var b strings.Builder
	for i := 0; i < len(tl.lines); {
		j := i + 1
		for j < len(tl.lines) && tl.lines[j] == tl.lines[i] {
			j++
		}
		b.WriteString(tl.lines[i])
		if j-i > 1 {
			fmt.Fprintf(&b, " (x%d)", j-i)
		}
		b.WriteByte('\n')
		i = j
	}
	return b.String()
}

// TestDefectTimelines prints the timeline of each open defect the sweeps
// pin, and holds it to the lines that show the defect, in order, and the
// run's monitor to the breaches it must see. -v prints them.
func TestDefectTimelines(t *testing.T) {
	for _, d := range []struct {
		name     string
		run      func() *killRun
		want     []string // the timeline's lines that show it, in order
		breaches []string // the monitor's, in order
	}{{
		// The dead owner's storage-b write to one replica is lost while
		// the other took it; the first survivor to ask takes the first
		// hit, the stale connection-phase record, and re-dials. The
		// backend's retransmitted SYN-ACK then finds the server-tuple
		// key the first teardown left behind, adopted after the close.
		name: "(k) paper, seed 13, kill after step 18, drop packet 0",
		run:  func() *killRun { return killArms[0].run(t, 13, 18, 0, dropPacket, true) },
		want: []string{
			`kill yoda1$`,
			`yoda1>store\d ACK\|PSH set \d+B \(dropped: policy drop\)$`,
			`store\d>yoda2 ACK\|PSH VALUE \d+B$`,
			`yoda2 adopt store conn client>vip$`,
			`vip>srv-\d SYN$`,
			`yoda2 close client>vip$`,
			`srv-\d>vip SYN\|ACK$`,
			`store\d>yoda2 ACK\|PSH VALUE \d+B$`,
			`yoda2 adopt store tunnel client>vip$`,
		},
		breaches: defectKBreaches,
	}} {
		r := d.run()
		t.Logf("defect %s:\n%s", d.name, r.tl)
		requireInOrder(t, d.name+" timeline", r.tl.lines, d.want)
		requireBreaches(t, d.name, r.notes.Violations(), d.breaches)
	}
}

// defectKBreaches are the monitor's breaches where defect (k) shows: the
// stale record's second adoption comes after the close, and beyond the
// one withdrawal.
var defectKBreaches = []string{`G3: .* adopted after the close$`, `G3: .*: 2 adoptions, 1 withdrawals$`}

// requireBreaches fails unless the monitor's breaches v are want's, one
// each, in order.
func requireBreaches(t *testing.T, what string, v, want []string) {
	t.Helper()
	if len(v) != len(want) {
		t.Fatalf("defect %s: breaches %q, want %d, %q in order — if it is fixed, drop its window", what, v, len(want), want)
	}
	requireInOrder(t, what+" breaches", v, want)
}

// requireInOrder fails unless lines has a line matching each of want, in
// order.
func requireInOrder(t *testing.T, what string, lines, want []string) {
	t.Helper()
	i := 0
	for _, w := range want {
		re := regexp.MustCompile(w)
		for i < len(lines) && !re.MatchString(lines[i]) {
			i++
		}
		if i == len(lines) {
			t.Fatalf("defect %s: no line %q in order in %q", what, w, lines)
		}
		i++
	}
}
