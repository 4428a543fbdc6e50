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
//   - route: how the survivors handled the orphan, from their counters
//     and what they sent and got: store-conn or store-tunnel (adopted from
//     a record of that phase, read off the store's reply), derived
//     (rebuilt by the hybrid derivation), parked (an orphan held for a
//     knock), rst (a survivor reset an endpoint), none; linger marks
//     defect (g)'s copy left after the 3-minute settle.
//   - adopter: the survivor that adopted the flow, or -.
//   - store: the commands the survivors sent to the store servers after
//     the kill, by verb (one per replica server and segment).
//   - fwd: virtual time from the kill to the first payload byte a
//     survivor sent to the client or a backend, or -.
//
// A missing golden is recorded by the run that misses it; delete one to
// re-record it, and say in the change why it moved.

// seen is what the route table keeps of one packet the step before the
// kill delivered: the packet itself goes back to the pool.
type seen struct {
	src, dst netsim.IP
	via      netsim.IP // the mux's outer destination, 0 when not encapsulated
	flags    netsim.TCPFlags
	n        int
	word     string // a store command or reply's first word
}

func see(pkt *netsim.Packet) seen {
	s := seen{src: pkt.Src.IP, dst: pkt.Dst.IP, flags: pkt.Flags, n: len(pkt.Payload)}
	if pkt.Outer != nil {
		s.via = pkt.Outer.Dst
	}
	if pkt.Src.Port == memcache.DefaultPort || pkt.Dst.Port == memcache.DefaultPort {
		s.word = firstWord(pkt.Payload)
	}
	return s
}

func firstWord(b []byte) string {
	if i := bytes.IndexAny(b, " \r"); i >= 0 {
		b = b[:i]
	}
	return string(b)
}

// sentAfterKill is what the survivors sent after the kill, judged at
// delivery: every bed here keeps netsim's default latency and no jitter,
// so a packet's send time is its delivery time less its link's latency.
type sentAfterKill struct {
	store  map[string]int          // store commands, by verb
	phases map[core.FlowPhase]bool // phases of the records the store's hits carried
	rsts   int                     // RSTs to the client or a backend
	fwd    time.Duration           // kill to the first payload to the client or a backend; 0 while none
}

func (a *sentAfterKill) observe(r *killRun, pkt *netsim.Packet) {
	src, dst := pkt.Src.IP, pkt.Dst.IP
	if pkt.Outer != nil {
		src, dst = pkt.Outer.Src, pkt.Outer.Dst
	}
	net := r.tb.C.Net
	if net.Now()-netsim.DefaultLatency(src, dst) <= r.killAt {
		return // on the wire before the kill, from the dead owner too
	}
	switch {
	case pkt.Src.Port == memcache.DefaultPort:
		// A hit is "VALUE <key> <flags> <bytes>\r\n" and then the record,
		// whose second byte is its phase.
		if i := bytes.Index(pkt.Payload, []byte("\r\n")); bytes.HasPrefix(pkt.Payload, []byte("VALUE ")) && len(pkt.Payload) > i+3 {
			if a.phases == nil {
				a.phases = map[core.FlowPhase]bool{}
			}
			a.phases[core.FlowPhase(pkt.Payload[i+3])] = true
		}
	case pkt.Dst.Port == memcache.DefaultPort && len(pkt.Payload) > 0 && src != r.tb.C.Yoda[r.killed].IP():
		if a.store == nil {
			a.store = map[string]int{}
		}
		a.store[firstWord(pkt.Payload)]++
	case pkt.Outer != nil || src != r.tb.VIP:
	case pkt.Flags.Has(netsim.FlagRST):
		a.rsts++
	case len(pkt.Payload) > 0 && a.fwd == 0:
		a.fwd = net.Now() - netsim.DefaultLatency(src, dst) - r.killAt
	}
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

func (s seen) describe(names map[netsim.IP]string) string {
	name := func(ip netsim.IP) string { return cmp.Or(names[ip], "client") }
	var b strings.Builder
	fmt.Fprintf(&b, "%s>%s", name(s.src), name(s.dst))
	if s.via != 0 {
		fmt.Fprintf(&b, ">%s", name(s.via))
	}
	fmt.Fprintf(&b, " %v", s.flags)
	if s.word != "" {
		fmt.Fprintf(&b, " %s", s.word)
	}
	if s.n > 0 {
		fmt.Fprintf(&b, " %dB", s.n)
	}
	return b.String()
}

// routeLine is r's line of the route table; call it at the settle, before
// linger runs the idle sweep.
func (r *killRun) routeLine(seed int64) string {
	names := hostNames(r.tb)
	ran := "timer"
	switch {
	case r.steps == 0:
		ran = "-"
	case len(r.ran) > 0:
		ran = r.ran[0].describe(names)
		if len(r.ran) > 1 {
			ran += fmt.Sprintf(" (+%d)", len(r.ran)-1)
		}
	}
	var route []string
	adopter := "-"
	var stored, derived, parked uint64
	for i, in := range r.tb.C.Yoda {
		if i == r.killed {
			continue
		}
		stored += in.Recovered
		derived += in.DerivedRecoveries
		parked += in.SuppressedOrphans
		if in.Recovered+in.DerivedRecoveries > 0 {
			adopter = fmt.Sprint(i)
		}
	}
	for _, part := range []struct {
		name string
		on   bool
	}{{"store-conn", stored > 0 && r.after.phases[core.PhaseConn]}, {"store-tunnel", stored > 0 && r.after.phases[core.PhaseTunnel]}, {"derived", derived > 0}, {"parked", parked > 0}, {"rst", r.after.rsts > 0}, {"linger", r.copies() > 0}} {
		if part.on {
			route = append(route, part.name)
		}
	}
	if len(route) == 0 {
		route = []string{"none"}
	}
	store := "-"
	if len(r.after.store) > 0 {
		var verbs []string
		for v, n := range r.after.store {
			verbs = append(verbs, fmt.Sprintf("%s:%d", v, n))
		}
		slices.Sort(verbs)
		store = strings.Join(verbs, ",")
	}
	fwd := "-"
	if r.after.fwd > 0 {
		fwd = fmt.Sprintf("%.3fms", float64(r.after.fwd)/float64(time.Millisecond))
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
