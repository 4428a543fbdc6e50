package core_test

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// The kill sweep's route table. TestKillOwnerAtEveryStep writes one line
// per (seed, kill step) and holds the lines to
// testdata/killsweep_{paper,hybrid}.golden, so a change in how a flow
// recovers shows as a diff even when every check still passes. A line
// reads
//
//	seed=11 step=20 ran=timer killed=1 route=store-tunnel adopter=2 store=delete:3,get:2 fwd=896.799ms
//
//   - ran: what the step before the kill delivered, its first packet and
//     how many more rode the same event ("timer" when it delivered none).
//     a>b is a packet from a to b; a>vip>yodaN is one the mux forwarded.
//   - route: how the survivors handled the orphan, from their notes and
//     what they sent: store-conn or store-tunnel (adopted from a store
//     record of that phase), derived (rebuilt by the hybrid derivation),
//     parked (an orphan held for a knock), rst (a survivor reset an
//     endpoint), none.
//   - adopter: the survivor that adopted the flow, or -.
//   - store: the commands the survivors sent to the store servers after
//     the kill, by verb (one per replica server and segment).
//   - fwd: virtual time from the kill to the first payload byte a
//     survivor sent to the client or a backend, or -.
//
// A missing golden is recorded by the run that misses it; delete one to
// re-record it, and say in the change why it moved.

// routeTrace is what a kill run's tracer keeps for its route line.
type routeTrace struct {
	ran     string          // the first packet the step before the kill delivered
	ranMore int             // how many more that step delivered
	parts   map[string]bool // route parts the survivors' notes name
	adopter int             // the highest-numbered adopter, -1 while none
	store   map[string]int  // store commands the survivors sent after the kill, by verb
	rsts    int             // RSTs to the client or a backend after the kill
	fwd     time.Duration   // kill to the first payload to the client or a backend; 0 while none
}

// routeOf names the route part each adoption or orphan note shows.
var routeOf = map[string]string{
	"adopt store conn":   "store-conn",
	"adopt store tunnel": "store-tunnel",
	"adopt derived":      "derived",
	"orphan suppressed":  "parked",
}

// trace installs r's monitor and tracer, for a run that kills after
// kill steps.
func (r *killRun) trace(kill int) {
	names := hostNames(r.tb)
	a := &r.route
	a.parts, a.adopter, a.store = map[string]bool{}, -1, map[string]int{}
	r.notes = core.CountNotesUnchecked(r.tb.C.Net, func(ev netsim.TraceEvent) {
		r.tl.add(ev)
		switch pkt := ev.Packet; {
		case pkt == nil:
			r.noted(ev)
		case r.killed >= 0:
			r.afterKill(ev.At, pkt)
		case r.steps == kill-1 && a.ran == "":
			a.ran = describe(names, pkt)
		case r.steps == kill-1:
			a.ranMore++
		}
	})
}

// afterKill keeps what the route line reads of pkt, delivered at at,
// after the kill. Every bed here keeps netsim's default latency and no
// jitter, so a packet's send time is its delivery time less its link's
// latency: what the survivors sent after the kill is judged at delivery.
func (r *killRun) afterKill(at time.Duration, pkt *netsim.Packet) {
	a := &r.route
	src, dst := pkt.Src.IP, pkt.Dst.IP
	if pkt.Outer != nil {
		src, dst = pkt.Outer.Src, pkt.Outer.Dst
	}
	sent := at - netsim.DefaultLatency(src, dst)
	switch {
	case sent <= r.killAt:
		// On the wire before the kill, from the dead owner too.
	case pkt.Dst.Port == memcache.DefaultPort && len(pkt.Payload) > 0:
		a.store[firstWord(pkt.Payload)]++
	case pkt.Outer != nil || src != r.tb.VIP:
	case pkt.Flags.Has(netsim.FlagRST):
		a.rsts++
	case len(pkt.Payload) > 0 && a.fwd == 0:
		a.fwd = sent - r.killAt
	}
}

// noted keeps what r reads of a note: the route parts and adopter the
// notes name.
func (r *killRun) noted(ev netsim.TraceEvent) {
	part, ok := routeOf[ev.Note]
	if !ok {
		return
	}
	r.route.parts[part] = true
	if part != "parked" {
		r.route.adopter = max(r.route.adopter, slices.IndexFunc(r.tb.C.Yoda, func(in *core.Instance) bool { return in.IP() == ev.Node }))
	}
}

func firstWord(b []byte) string {
	if i := bytes.IndexAny(b, " \r"); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// hostNames names the bed's hosts the way route lines print them.
func hostNames(tb *testbed.Bed) map[netsim.IP]string {
	names := map[netsim.IP]string{tb.VIP: "vip"}
	for i, in := range tb.C.Yoda {
		names[in.IP()] = fmt.Sprintf("yoda%d", i)
	}
	for i, a := range tb.C.StoreAddrs {
		names[a.IP] = fmt.Sprintf("store%d", i)
	}
	for name, b := range tb.C.Backends {
		names[b.Server.Host().IP()] = name
	}
	return names
}

// path prints a tuple as a>b, naming hosts the bed does not as client.
func path(names map[netsim.IP]string, t netsim.FourTuple) string {
	return cmp.Or(names[t.Src.IP], "client") + ">" + cmp.Or(names[t.Dst.IP], "client")
}

// describe prints a packet as a>b (a>vip>yodaN when the mux forwarded
// it), its flags, a store command or reply's first word and its length.
func describe(names map[netsim.IP]string, pkt *netsim.Packet) string {
	var b strings.Builder
	b.WriteString(path(names, pkt.Tuple()))
	if pkt.Outer != nil {
		fmt.Fprintf(&b, ">%s", cmp.Or(names[pkt.Outer.Dst], "client"))
	}
	fmt.Fprintf(&b, " %v", pkt.Flags)
	if pkt.Src.Port == memcache.DefaultPort || pkt.Dst.Port == memcache.DefaultPort {
		if w := firstWord(pkt.Payload); w != "" {
			fmt.Fprintf(&b, " %s", w)
		}
	}
	if n := len(pkt.Payload); n > 0 {
		fmt.Fprintf(&b, " %dB", n)
	}
	return b.String()
}

// routeLine is r's line of the route table.
func (r *killRun) routeLine(seed int64) string {
	a := &r.route
	ran := "timer"
	switch {
	case r.steps == 0:
		ran = "-"
	case a.ran != "":
		ran = a.ran
		if a.ranMore > 0 {
			ran += fmt.Sprintf(" (+%d)", a.ranMore)
		}
	}
	a.parts["rst"] = a.rsts > 0
	var route []string
	for _, part := range []string{"store-conn", "store-tunnel", "derived", "parked", "rst"} {
		if a.parts[part] {
			route = append(route, part)
		}
	}
	if len(route) == 0 {
		route = []string{"none"}
	}
	adopter := "-"
	if a.adopter >= 0 {
		adopter = fmt.Sprint(a.adopter)
	}
	store := "-"
	if len(a.store) > 0 {
		var verbs []string
		for v, n := range a.store {
			verbs = append(verbs, fmt.Sprintf("%s:%d", v, n))
		}
		slices.Sort(verbs)
		store = strings.Join(verbs, ",")
	}
	fwd := "-"
	if a.fwd > 0 {
		fwd = fmt.Sprintf("%.3fms", float64(a.fwd)/float64(time.Millisecond))
	}
	return fmt.Sprintf("seed=%d step=%d ran=%s killed=%d route=%s adopter=%s store=%s fwd=%s",
		seed, r.steps, ran, r.killed, strings.Join(route, "+"), adopter, store, fwd)
}

// checkRouteGolden holds lines to testdata/killsweep_<arm>.golden,
// recording the file when it is missing.
func checkRouteGolden(t *testing.T, arm string, lines []string) {
	t.Helper()
	path := filepath.Join("testdata", "killsweep_"+arm+".golden")
	got := strings.Join(lines, "\n") + "\n"
	want, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Fatalf("recorded %s (%d lines): review it and commit it", path, len(lines))
	}
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i := range max(len(lines), len(wantLines)) {
		g, w := "(none)", "(none)"
		if i < len(lines) {
			g = lines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("%s line %d moved — a change in how flows recover; explain it, delete the file and rerun to re-record:\ngot:  %s\nwant: %s", path, i+1, g, w)
		}
	}
}
