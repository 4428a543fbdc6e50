package core_test

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/testbed"
)

// The kill-schedule explorer: TestKillSchedules replays schedules of
// faults, each from a fresh bed (stateless model checking), and holds
// every settled run to one oracle, breach.

// A schedule is a workload, in one recovery mode, on the bed of one seed,
// and the faults injected into it. It prints as one line,
//
//	fetch/paper seed=13 kill@step18 drop@pkt0
//
// which names it in a failure and in the pin table, and which
// parseSchedule reads back.
type schedule struct {
	w      *life
	mode   string // paper or hybrid
	seed   int64
	faults []fault
}

// A fault is one thing a schedule does, and when. The first fault's
// trigger is the at-th event step by the workload's step rule (or the
// workload's end, if sooner), and it kills an instance; each later
// fault's is the at-th packet delivered after the previous fault fired.
type fault struct {
	kind   faultKind
	victim int // the instance killYoda kills
	at     int
}

type faultKind uint8

const (
	noFault       faultKind = iota
	killBusiest             // kill the live instance with the most flows, lowest index first among equals
	killHolder              // kill the live instance the muxes name for the client tuple (l4lb.Holder), or else the busiest
	killYoda                // kill instance victim
	dropPacket              // lose the packet
	dupPacket               // deliver it, and send its clone from there: it arrives one link latency later
	reorderPacket           // hold it back, and send its clone at the next delivery
	detachStore             // deliver it, then detach the store server it came from or went to
)

var faultNames = [...]string{"", "kill", "kill-holder", "kill-yoda", "drop", "duplicate", "reorder", "detach-store"}

func (s schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s/%s seed=%d", s.w.name, s.mode, s.seed)
	for i, f := range s.faults {
		b.WriteString(" " + faultNames[f.kind])
		if f.kind == killYoda {
			fmt.Fprint(&b, f.victim)
		}
		fmt.Fprintf(&b, "@%s%d", [2]string{"step", "pkt"}[min(i, 1)], f.at)
	}
	return b.String()
}

// parseSchedule reads a schedule back from its line.
func parseSchedule(line string) (schedule, error) {
	bad := fmt.Errorf("not a schedule line: %q", line)
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return schedule{}, bad
	}
	name, mode, _ := strings.Cut(fields[0], "/")
	s := schedule{mode: mode}
	for _, w := range lives {
		if w.name == name {
			s.w = w
		}
	}
	s.seed, _ = strconv.ParseInt(strings.TrimPrefix(fields[1], "seed="), 10, 64)
	for _, tok := range fields[2:] {
		name, at, _ := strings.Cut(tok, "@")
		var f fault
		if v, ok := strings.CutPrefix(name, faultNames[killYoda]); ok {
			name = faultNames[killYoda]
			f.victim, _ = strconv.Atoi(v)
		}
		k := slices.Index(faultNames[:], name)
		if k <= 0 {
			return schedule{}, bad
		}
		f.kind = faultKind(k)
		f.at, _ = strconv.Atoi(strings.TrimLeft(at, "pkstep"))
		s.faults = append(s.faults, f)
	}
	// What the loose reading above accepts must print as the line.
	if s.w == nil || !slices.Contains(modes, mode) || len(s.faults) > 0 && s.faults[0].kind > killYoda || s.String() != line {
		return schedule{}, bad
	}
	return s, nil
}

var modes = []string{"paper", "hybrid"}

// A life is a workload, what a schedule breaks: a bed, and its clients.
// start starts them and returns their step rule, whether the next event
// step counts, whether the workload has ended, and what they got that
// they should not have, or nil.
type life struct {
	name  string
	bed   func(t *testing.T, seed int64, hybrid bool) *testbed.Bed
	start func(tb *testbed.Bed, hybrid bool) (counts, done func() bool, intact func() error)
}

var lives = []*life{fetchLife, scenarioLife}

// fetchLife is one /100k fetch on the e2e bed of three instances.
// Every event step counts, and the body must arrive whole. The hybrid
// client probes when idle (probeClientConfig).
var fetchLife = &life{
	name: "fetch",
	bed: func(t *testing.T, seed int64, hybrid bool) *testbed.Bed {
		if hybrid {
			return newHybridTestbed(t, seed, 3)
		}
		return newTestbed(t, seed, 3)
	},
	start: func(tb *testbed.Bed, hybrid bool) (counts, done func() bool, intact func() error) {
		cfg := httpsim.DefaultClientConfig()
		if hybrid {
			cfg = probeClientConfig()
		}
		var res *httpsim.FetchResult
		tb.C.NewClient(cfg).Get(tb.Addr, "/100k", keep(&res))
		return func() bool { return true }, func() bool { return res != nil }, func() error {
			if res == nil || res.Err != nil || !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
				return fmt.Errorf("fetch %+v", res)
			}
			return nil
		}
	},
}

// scenarioLife is a keep-alive connection's connection phase, tunnel,
// backend switch (a second Dialing window and storage-b) and close, then
// a TLS flow's handshake, key barrier, tunnel and close (startScenario).
var scenarioLife = &life{name: "scenario", bed: newScenarioBed, start: startScenario}

// killRun is one settled run of a schedule.
type killRun struct {
	s      schedule
	tb     *testbed.Bed
	intact func() error // the life's check of what its clients got
	steps  int          // event steps counted before the first fault, or in all without one
	fired  int          // faults whose trigger came
	moot   bool         // a fired detachStore's packet touched no store server
	// The instance the first fault killed (-1 before it) and when.
	killed int
	killAt time.Duration
	// What its tracer keeps (killsweep_test.go): the G1/G3 monitor, the
	// route line's reading, an explained run's timeline.
	notes *core.Monitor
	route routeTrace
	tl    *timeline
}

// run replays s on a fresh bed: the workload runs step by step to the
// first fault's trigger, then 3 virtual minutes, in which each later
// fault fires at its packet (a kill or detach as the next event). An
// explained run keeps its timeline.
func (s schedule) run(t *testing.T, explain bool) *killRun {
	r := &killRun{s: s, tb: s.w.bed(t, s.seed, s.mode == "hybrid"), killed: -1}
	if explain {
		r.tl = newTimeline(r.tb)
	}
	first := -1
	if len(s.faults) > 0 {
		first = s.faults[0].at
	}
	r.trace(first)
	net := r.tb.C.Net
	delivered := 0 // since the previous fault fired
	var client netsim.FourTuple
	var held *netsim.Packet
	net.SetDropFunc(func(pkt *netsim.Packet) bool {
		if pkt.Dst == r.tb.Addr {
			client = pkt.Tuple()
		}
		if held != nil {
			net.Send(held)
			held = nil
		}
		if r.fired == 0 || r.fired == len(s.faults) {
			return false
		}
		if delivered++; delivered <= s.faults[r.fired].at {
			return false
		}
		f := s.faults[r.fired]
		r.fired++
		delivered = 0
		switch f.kind {
		case dropPacket:
			return true
		case dupPacket:
			net.Send(pkt.Clone())
		case reorderPacket:
			held = pkt.Clone()
			return true
		case detachStore:
			i := slices.IndexFunc(r.tb.C.StoreAddrs, func(a netsim.HostPort) bool { return a == pkt.Src || a == pkt.Dst })
			r.moot = i < 0
			if i >= 0 {
				net.Schedule(0, func() {
					r.tl.mark(net.Now(), fmt.Sprintf("detach store%d", i))
					r.tb.C.StoreServers[i].Host().Detach()
				})
			}
		default:
			net.Schedule(0, func() { r.kill(f, client) })
		}
		return false
	})
	counts, done, intact := s.w.start(r.tb, s.mode == "hybrid")
	r.intact = intact
	for !done() && r.steps != first {
		counted := counts()
		if !net.Step() {
			break
		}
		if counted {
			r.steps++
		}
	}
	if first >= 0 {
		r.fired = 1
		r.kill(s.faults[0], client)
	}
	net.RunFor(3 * time.Minute)
	return r
}

// kill fails the instance f kills: instance f.victim, or the live
// instance the muxes name for client, or the live instance with the most
// flows, lowest index first among equals.
func (r *killRun) kill(f fault, client netsim.FourTuple) {
	i := f.victim
	if f.kind != killYoda {
		var holder netsim.IP
		if f.kind == killHolder {
			holder, _ = r.tb.C.L4.Holder(client)
		}
		i = -1
		for j, in := range r.tb.C.Yoda {
			if in.Host().Alive() && in.IP() == holder {
				i = j
				break
			}
			if in.Host().Alive() && (i < 0 || in.FlowCount() > r.tb.C.Yoda[i].FlowCount()) {
				i = j
			}
		}
	}
	now := r.tb.C.Net.Now()
	r.tl.mark(now, fmt.Sprintf("kill yoda%d", i))
	r.tb.FailLB(i)
	if r.killed < 0 {
		r.killed, r.killAt = i, now
	}
}

// breach is what a settled run shows against the paper's claim, or nil.
// The claim: the clients got their answers whole; every instance, the
// dead ones too, holds no flow entry, recovery queue or SNAT port, and
// the store and the muxes' affinity tables are empty (settled); and the
// run's monitor saw no breach of G1 or G3, or, where a pin names the
// schedule, exactly its defect's.
func (r *killRun) breach() error {
	return cmp.Or(r.intact(), settled(r.tb), breachesAre(r.notes.Violations(), defects[pins[r.s.String()]]))
}

// settled is breach's check of what a settled cluster holds. A detached
// store server's records died with it and are not checked.
func settled(tb *testbed.Bed) error {
	for i, in := range tb.C.Yoda {
		if n, q, p := in.FlowCount(), in.PendingQueues(), in.SNATPortsInUse(); n+q+p != 0 {
			return fmt.Errorf("instance %d holds %d flow entries, %d recovery queues, %d SNAT ports", i, n, q, p)
		}
	}
	for i, s := range tb.C.StoreServers {
		if items := s.Engine.Stats().CurrItems; items != 0 && s.Host().Alive() {
			return fmt.Errorf("store server %d holds %d records", i, items)
		}
	}
	if n := tb.C.L4.AffinityCount(); n != 0 {
		return fmt.Errorf("the muxes hold %d affinity entries", n)
	}
	return nil
}

// pins name, by schedule line, the open defect each schedule shows: there
// the monitor must see exactly its breaches (defects), and
// TestDefectTimelines replays each. A fixed defect's pins and cases go.
var pins = map[string]string{
	// Owner: ROADMAP item 5, a read rule for replicas that disagree.
	"fetch/paper seed=13 kill@step18 drop@pkt0": "(k)",
	"fetch/paper seed=14 kill@step18 drop@pkt0": "(k)",
}

// A shape is a family of schedules that one subtest of TestKillSchedules
// runs on each seed from 11: each of its kills at every event step of the
// workload's life, followed, unless then is noFault, by then at each
// packet of the window after the kill.
type shape struct {
	name   string
	w      *life
	seeds  int // -killdrop.seeds overrides it, except where golden
	kills  []fault
	then   faultKind
	golden bool // each run writes a route line, held to testdata/killsweep_<mode>.golden
}

const window = 24 // packets after the kill a shape's second fault tries

var ownerKill = []fault{{kind: killBusiest}}

var shapes = []shape{
	{"owner-kill", fetchLife, 5, ownerKill, noFault, true},
	{"kill-then-drop", fetchLife, 2, ownerKill, dropPacket, false},
	{"kill-then-duplicate", fetchLife, 1, ownerKill, dupPacket, false},
	{"kill-then-kill-holder", fetchLife, 1, ownerKill, killHolder, false},
	{"kill-then-reorder", fetchLife, 1, ownerKill, reorderPacket, false},
	{"kill-then-detach-store", fetchLife, 1, ownerKill, detachStore, false},
	{"kill-each-instance", scenarioLife, 1, []fault{{kind: killYoda, victim: 0}, {kind: killYoda, victim: 1}, {kind: killYoda, victim: 2}}, noFault, false},
}

// killDropSeeds is how many seeds, from 11, each shape but the owner kill
// covers (ci.sh: five); 0 keeps each shape's own.
var killDropSeeds = flag.Int("killdrop.seeds", 0, "seeds (from 11) each TestKillSchedules shape but the owner kill covers; 0 runs 2 for drops and 1 for the others")

// TestKillSchedules runs every shape in both recovery modes and holds
// each run to breach: the owner of a /100k fetch killed after each event
// step (seeds 11–15, one route line each), then the j-th packet after
// the kill lost, duplicated or held behind the next, or the client
// tuple's holder killed (each withdrawal may cost one adoption, G3), or
// the packet's store server detached (only those points run), for every
// j < 24; and each instance killed after every step of a keep-alive
// switch and a TLS flow (scenarioLife). Every bed poisons released
// buffers, so an adopter that reads a released packet or store reply
// breaks the run. A failing run is re-run explained and its timeline
// logged.
func TestKillSchedules(t *testing.T) {
	for _, sh := range shapes {
		for _, mode := range modes {
			t.Run(sh.w.name+"/"+mode+"/"+sh.name, func(t *testing.T) {
				seeds := sh.seeds
				if !sh.golden {
					seeds = cmp.Or(*killDropSeeds, seeds)
				}
				var lines []string
				runs := 0
				check := func(r *killRun) {
					runs++
					if err := r.breach(); err != nil {
						t.Fatalf("%s: %v\nthe run re-run explained:\n%s", r.s, err, r.s.run(t, true).tl)
					}
					if sh.golden {
						lines = append(lines, r.routeLine())
					}
				}
				for seed := int64(11); seed < 11+int64(seeds); seed++ {
					total := schedule{sh.w, mode, seed, nil}.run(t, false).steps
					for k := 0; k <= total; k++ {
						for _, first := range sh.kills {
							first.at = k
							if sh.then == noFault {
								check(schedule{sh.w, mode, seed, []fault{first}}.run(t, false))
								continue
							}
							for j := range window {
								r := schedule{sh.w, mode, seed, []fault{first, {kind: sh.then, at: j}}}.run(t, false)
								if r.fired < 2 {
									break // the kill saw no j+1 packets, so no later j fires
								}
								if !r.moot {
									check(r)
								}
							}
						}
					}
				}
				t.Logf("%d runs", runs)
				if sh.golden {
					checkRouteGolden(t, mode, lines)
				}
			})
		}
	}
}
