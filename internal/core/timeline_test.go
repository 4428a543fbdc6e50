package core_test

import (
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/testbed"
)

// timeline is a run's trace as lines, one per packet delivered or
// dropped, per note and per fault the run injects, in virtual-time
// order; a packet shows at its delivery. It is kept when a run is
// explained: a failing schedule is re-run with one and logs it, and
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

// defects are the open defects, by the name pins give them, each with
// the monitor's breaches at its pins, in order.
var defects = map[string][]string{
	// A stale record's second adoption comes after the close, and beyond
	// the one withdrawal.
	"(k)": {`G3: .* adopted after the close$`, `G3: .*: 2 adoptions, 1 withdrawals$`},
}

// defectKTimeline is defect (k)'s timeline: the dead owner's storage-b
// write to one replica is lost; the first adopter takes the other's stale
// connection-phase record and re-dials, and second adopts the key its
// teardown left behind from the backend's retransmitted SYN-ACK.
func defectKTimeline(second string) []string {
	return []string{
		`kill yoda1$`,
		`yoda1>store\d ACK\|PSH set \d+B \(dropped: policy drop\)$`,
		`store\d>yoda2 ACK\|PSH VALUE \d+B$`,
		`yoda2 adopt store conn client>vip$`,
		`vip>srv-\d SYN$`,
		`yoda2 close client>vip$`,
		`srv-\d>vip SYN\|ACK$`,
		`store\d>` + second + ` ACK\|PSH VALUE \d+B$`,
		second + ` adopt store tunnel client>vip$`,
	}
}

// TestDefectTimelines replays each pin's schedule explained, prints its
// timeline (-v), and holds it to the lines that show its defect, in
// order, and the run's monitor to the defect's breaches. It fails on a
// pin with no case here and on a case with no pin, so the two tables
// cannot drift apart.
func TestDefectTimelines(t *testing.T) {
	cases := map[string][]string{ // the timeline's lines, by pin
		"fetch/paper seed=13 kill@step18 drop@pkt0": defectKTimeline("yoda2"),
		"fetch/paper seed=14 kill@step18 drop@pkt0": defectKTimeline("yoda0"),
	}
	var lines []string
	for line := range pins {
		if cases[line] == nil {
			t.Errorf("pin %q has no timeline case", line)
		}
		lines = append(lines, line)
	}
	for line := range cases {
		if pins[line] == "" {
			t.Errorf("timeline case %q has no pin", line)
		}
	}
	slices.Sort(lines)
	for _, line := range lines {
		s, err := parseSchedule(line)
		if err != nil {
			t.Fatal(err)
		}
		r := s.run(t, true)
		t.Logf("defect %s, %s:\n%s", pins[line], line, r.tl)
		if err := inOrder(r.tl.lines, cases[line]); err != nil {
			t.Errorf("%s: timeline: %v", line, err)
		}
		if err := breachesAre(r.notes.Violations(), defects[pins[line]]); err != nil {
			t.Errorf("%s: %v", line, err)
		}
	}
}

// breachesAre returns an error unless the monitor's breaches v are
// want's, one each, in order.
func breachesAre(v, want []string) error {
	if len(v) != len(want) {
		return fmt.Errorf("breaches %q, want %q in order", v, want)
	}
	return inOrder(v, want)
}

// inOrder returns an error unless lines has a line matching each of want,
// in order.
func inOrder(lines, want []string) error {
	i := 0
	for _, w := range want {
		re := regexp.MustCompile(w)
		for i < len(lines) && !re.MatchString(lines[i]) {
			i++
		}
		if i == len(lines) {
			return fmt.Errorf("no line %q in order in %q", w, lines)
		}
		i++
	}
	return nil
}
