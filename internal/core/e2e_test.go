package core_test

import (
	"bytes"
	"cmp"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
)

// e2eObjects is what every backend of the e2e testbeds serves.
var e2eObjects = map[string][]byte{
	"/10k":  bytes.Repeat([]byte("a"), 10*1024),
	"/100k": bytes.Repeat([]byte("b"), 100*1024),
	"/tiny": []byte("ok"),
}

// newTestbed builds the standard small testbed: nYoda instances, 3
// TCPStore servers, 3 backends with an equal split policy for one VIP.
func newTestbed(t *testing.T, seed int64, nYoda int) *testbed.Bed {
	t.Helper()
	tb := testbed.New(testbed.Config{Seed: seed, Objects: e2eObjects, Backends: 3, Stores: 3, LBs: nYoda})
	// Every e2e flow on this testbed, the failovers included, runs with
	// released send buffers poisoned: an instance, parser or store session
	// that still read a payload after its sender's full ACK would corrupt
	// a body or a record here.
	tb.C.Net.PoisonReleasedBufs()
	return tb
}

// keep returns a done that stores a clone of the fetch's result in
// *res: Client.Fetch lends the result only until done returns.
func keep(res **httpsim.FetchResult) func(*httpsim.FetchResult) {
	return func(r *httpsim.FetchResult) { *res = r.Clone() }
}

func TestEndToEndFetchThroughYoda(t *testing.T) {
	tb := newTestbed(t, 1, 2)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", keep(&res))
	tb.C.Net.RunFor(5 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("fetch error: %v", res.Err)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/10k"]) {
		t.Fatalf("body corrupted: %d bytes", len(res.Resp.Body))
	}
	// End-to-end latency: 2 WAN RTTs (120ms) + rule lookup (~3.2ms) +
	// TCPStore ops + server processing. Must be well under 200ms.
	if res.Elapsed() < 120*time.Millisecond || res.Elapsed() > 250*time.Millisecond {
		t.Fatalf("elapsed = %v", res.Elapsed())
	}
}

func TestFetchLargeObject(t *testing.T) {
	tb := newTestbed(t, 2, 2)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", keep(&res))
	tb.C.Net.RunFor(10 * time.Second)
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatal("large body corrupted through tunnel")
	}
}

func TestManyConcurrentFetches(t *testing.T) {
	tb := newTestbed(t, 3, 3)
	notes := core.CountNotes(t, tb.C.Net, nil)
	const N = 40
	done := 0
	var errs []error
	for i := 0; i < N; i++ {
		cl := tb.C.NewClient(httpsim.DefaultClientConfig())
		cl.Get(tb.Addr, "/10k", func(r *httpsim.FetchResult) {
			done++
			if r.Err != nil {
				errs = append(errs, r.Err)
			}
		})
	}
	tb.C.Net.RunFor(30 * time.Second)
	if done != N {
		t.Fatalf("done = %d/%d", done, N)
	}
	if len(errs) != 0 {
		t.Fatalf("errors: %v", errs)
	}
	// Traffic must be spread across instances.
	busy := 0
	for _, in := range tb.C.Yoda {
		if notes.To(in.IP(), "new flow", tb.VIP) > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Fatalf("only %d instances saw traffic", busy)
	}
}

func TestFlowStateCleanedAfterClose(t *testing.T) {
	tb := newTestbed(t, 4, 1)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { res = r.Clone() })
	tb.C.Net.RunFor(10 * time.Second) // includes FinLinger
	if res == nil || res.Err != nil {
		t.Fatalf("res = %+v", res)
	}
	if n := tb.C.Yoda[0].FlowCount(); n != 0 {
		t.Fatalf("flows leaked: %d", n)
	}
	requireStoreEmpty(t, tb.C)
}

func TestSplitAcrossBackends(t *testing.T) {
	tb := newTestbed(t, 5, 2)
	const N = 60
	done := 0
	for i := 0; i < N; i++ {
		cl := tb.C.NewClient(httpsim.DefaultClientConfig())
		cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) {
			if r.Err == nil {
				done++
			}
		})
	}
	tb.C.Net.RunFor(30 * time.Second)
	if done != N {
		t.Fatalf("done = %d", done)
	}
	for name, b := range tb.C.Backends {
		if b.Server.Requests < N/6 {
			t.Errorf("backend %s got %d requests, want roughly %d", name, b.Server.Requests, N/3)
		}
	}
}

func TestFailoverDuringTunnelPhase(t *testing.T) {
	tb := newTestbed(t, 6, 2)
	core.CountNotes(t, tb.C.Net, nil)
	cfg := httpsim.DefaultClientConfig() // 30s HTTP timeout, no retry
	cl := tb.C.NewClient(cfg)
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/100k", keep(&res))
	// The transfer starts around 120-140ms and takes a while through slow
	// start. Kill whichever instance owns the flow mid-transfer; the bed
	// withdraws it a ping interval later (monitor detection delay).
	tb.C.Net.RunFor(200 * time.Millisecond)
	victim := tb.FailBusiest(1)[0]
	tb.C.Net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("flow broke despite TCPStore recovery: %v (timedout=%v)", res.Err, res.TimedOut)
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatalf("body corrupted across failover: %d bytes", len(res.Resp.Body))
	}
	survivor := tb.C.Yoda[1-victim]
	if survivor.Recovered == 0 {
		t.Fatal("survivor never recovered a flow from TCPStore")
	}
	// Recovery adds roughly the retransmission + detection delay (0.6-3s
	// per the paper), far below the 30s HTTP timeout.
	if res.Elapsed() > 10*time.Second {
		t.Fatalf("recovery too slow: %v", res.Elapsed())
	}
	requireStoreEmpty(t, tb.C) // an adopted flow deletes the records it was adopted from
	// and the adopter releases the entries that pinned it there.
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("the adopted flow left %d affinity entries", n)
	}
}

// killArm is one recovery mode of the kill sweeps: its bed and its
// client.
type killArm struct {
	name   string
	bed    func(t *testing.T, seed int64, nYoda int) *testbed.Bed
	client httpsim.ClientConfig
}

var killArms = []killArm{
	{"paper", newTestbed, httpsim.DefaultClientConfig()},
	{"hybrid", newHybridTestbed, probeClientConfig()},
}

// killRun is one settled run of a kill sweep.
type killRun struct {
	tb    *testbed.Bed
	res   *httpsim.FetchResult
	steps int // event steps run before the kill, or to the fetch's end without one
	// faulted says the packet to fault was delivered, storeDown that the
	// fault detached a store server.
	faulted, storeDown bool
	// The instance killed (-1 before the kill) and when.
	killed int
	killAt time.Duration
	// What the run's tracer (killsweep_test.go) keeps: the monitor that
	// holds the run to G1 and G3, what the route line reads, and the
	// timeline of an explained run.
	notes *core.Monitor
	route routeTrace
	tl    *timeline
}

// packetFault is what a kill sweep does at one packet delivered after
// the kill: lose it, deliver it and send a copy of it after it, deliver
// it and then kill a second instance, hold it back behind the next
// delivery, or deliver it and then kill the store server it came from or
// went to.
type packetFault int

const (
	dropPacket packetFault = iota
	duplicatePacket
	killHolder
	reorderPacket
	killStoreServer
)

func (f packetFault) String() string {
	return [...]string{"drop", "duplicate", "kill-holder", "reorder", "kill-store-server"}[f]
}

// run fetches /100k on a fresh bed of seed, kills the busiest instance
// after kill event steps (no kill when kill < 0), applies fault at the
// j-th packet delivered after the kill (none when j < 0) and settles for
// 3 minutes. A duplicate is a clone of the packet sent again from the
// point of delivery, so it arrives one link latency after the original;
// a reordered packet is dropped and its clone sent the same way at the
// next delivery. killHolder fails, as the next event, the live instance
// the muxes name for the client tuple (l4lb.Holder), or the busiest
// survivor when they name none or a dead one; killStoreServer detaches,
// as the next event, the store server the packet came from or went to,
// if any. An explained run keeps its timeline.
func (arm killArm) run(t *testing.T, seed int64, kill, j int, fault packetFault, explain bool) *killRun {
	r := &killRun{tb: arm.bed(t, seed, 3), killed: -1}
	if explain {
		r.tl = newTimeline(r.tb)
	}
	r.trace(kill)
	net := r.tb.C.Net
	delivered := -1 // since the kill
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
		if delivered < 0 {
			return false
		}
		delivered++
		if delivered-1 != j {
			return false
		}
		r.faulted = true
		switch fault {
		case duplicatePacket:
			net.Send(pkt.Clone())
		case killHolder:
			net.Schedule(0, func() {
				i := holderOrBusiest(r.tb, client)
				r.tl.mark(net.Now(), fmt.Sprintf("kill yoda%d", i))
				r.tb.FailLB(i)
			})
		case reorderPacket:
			held = pkt.Clone()
			return true
		case killStoreServer:
			for i, a := range r.tb.C.StoreAddrs {
				if a == pkt.Src || a == pkt.Dst {
					r.storeDown = true
					net.Schedule(0, func() {
						r.tl.mark(net.Now(), fmt.Sprintf("detach store%d", i))
						r.tb.C.StoreServers[i].Host().Detach()
					})
				}
			}
		default:
			return true
		}
		return false
	})
	r.tb.C.NewClient(arm.client).Get(r.tb.Addr, "/100k", keep(&r.res))
	for r.res == nil && r.steps != kill && net.Step() {
		r.steps++
	}
	if kill >= 0 {
		r.killed, r.killAt = r.tb.FailBusiest(1)[0], net.Now()
		r.tl.mark(r.killAt, fmt.Sprintf("kill yoda%d", r.killed))
		delivered = 0
	}
	net.RunFor(3 * time.Minute)
	return r
}

// holderOrBusiest returns the index of the live instance the muxes name
// for tuple, or else of the live instance with the most flows, lowest
// index first among equals.
func holderOrBusiest(tb *testbed.Bed, tuple netsim.FourTuple) int {
	holder, _ := tb.C.L4.Holder(tuple)
	best := -1
	for i, in := range tb.C.Yoda {
		switch {
		case !in.Host().Alive():
		case in.IP() == holder:
			return i
		case best < 0 || in.FlowCount() > tb.C.Yoda[best].FlowCount():
			best = i
		}
	}
	return best
}

// settle checks the paper's claim on a settled run of the kill sweeps:
// the body arrives intact; every instance, the dead one too, ends with no
// flow state, no recovery queue and no SNAT port; the store and the muxes'
// affinity tables end empty; and the run's monitor saw no breach of G1 or
// G3, or, where defectK pins the point, exactly defect (k)'s two.
func settle(t *testing.T, r *killRun, where string, pinned bool) {
	t.Helper()
	tb, res := r.tb, r.res
	if res == nil || res.Err != nil || !bytes.Equal(res.Resp.Body, e2eObjects["/100k"]) {
		t.Fatalf("%s: fetch %+v", where, res)
	}
	requireSettled(t, tb, where)
	switch v := r.notes.Violations(); {
	case pinned:
		requireBreaches(t, where, v, defectKBreaches)
	case len(v) > 0:
		t.Fatalf("%s: %s", where, strings.Join(v, "; "))
	}
}

// requireSettled is settle's check of what a settled cluster holds: no
// flow entry, recovery queue or SNAT port on any instance, the dead ones
// too, and no record in the store or affinity entry at the muxes. A
// detached store server's records died with it and are not checked.
func requireSettled(t *testing.T, tb *testbed.Bed, where string) {
	t.Helper()
	for i, in := range tb.C.Yoda {
		if n, q, p := in.FlowCount(), in.PendingQueues(), in.SNATPortsInUse(); n+q+p != 0 {
			t.Fatalf("%s: instance %d holds %d flow entries, %d recovery queues, %d SNAT ports", where, i, n, q, p)
		}
	}
	for i, s := range tb.C.StoreServers {
		if items := s.Engine.Stats().CurrItems; items != 0 && s.Host().Alive() {
			t.Fatalf("%s: store server %d holds %d records", where, i, items)
		}
	}
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("%s: the muxes hold %d affinity entries", where, n)
	}
}

// logTimelineOnFailure, deferred by a sweep, logs the timeline of the
// point the sweep failed at, re-run explained by rerun.
func logTimelineOnFailure(t *testing.T, rerun *func() *timeline) {
	if t.Failed() && *rerun != nil {
		t.Logf("the failing point, re-run traced:\n%s", (*rerun)())
	}
}

// TestKillOwnerAtEveryStep kills the instance that owns one /100k fetch
// after each event step of the fetch's life in turn — the connection
// phase, both barriers, the tunnel and the close — and checks the paper's
// claim at every one (settle), with the run's monitor holding it to G1
// and to G3: adopted at most once across the survivors, for the one
// withdrawal, and never after its first close. The client's segments and
// the backend's are remapped independently, so the single adoption holds
// only because the first adopter claims both tuples at the mux.
//
// The hybrid arm runs the same sweep with its flows stateless and a
// probing client. A survivor that adopts the flow after the dead owner
// relayed the backend's FIN tears its copy down finLinger after the
// client's FIN.
func TestKillOwnerAtEveryStep(t *testing.T) {
	for _, arm := range killArms {
		t.Run(arm.name, func(t *testing.T) {
			var rerun func() *timeline
			defer logTimelineOnFailure(t, &rerun)
			var lines []string
			for seed := int64(11); seed <= 15; seed++ {
				total := arm.run(t, seed, -1, -1, dropPacket, false).steps
				for k := 0; k <= total; k++ {
					where := fmt.Sprintf("seed %d, kill after step %d of %d", seed, k, total)
					rerun = func() *timeline { return arm.run(t, seed, k, -1, dropPacket, true).tl }
					r := arm.run(t, seed, k, -1, dropPacket, false)
					lines = append(lines, r.routeLine(seed))
					settle(t, r, where, false)
				}
			}
			rerun = nil
			checkRouteGolden(t, arm.name, lines)
		})
	}
}

// killDropSeeds is how many seeds, from 11, each kill-then-fault sweep
// and TestKillEachInstanceThroughScenario cover; ci.sh runs five. 0 means
// the go test default: two seeds of drops, one of the other faults and
// of the scenario.
var killDropSeeds = flag.Int("killdrop.seeds", 0, "seeds (from 11) each kill-then-fault sweep and the scenario kill sweep cover; 0 runs 2 for drops and 1 for the other faults and the scenario")

// defectK is defect (k)'s window in the kill-then-drop sweep, paper arm,
// as (seed, kill step, dropped packet). TestDefectTimelines checks its
// timeline at (13, 18, 0): the lost storage-b write, the first adoption
// from the other replica's stale record, and the second, late adoption,
// which the monitor sees as two adoptions for one withdrawal and one
// after the close. Owner: ROADMAP item 5, a read rule for replicas that
// disagree; when it lands these points pass and the window goes.
var defectK = map[[3]int]bool{
	{13, 18, 0}: true,
	{14, 18, 0}: true,
}

// TestKillThenDropEveryPacket: the kill sweep with one lost packet. After
// the busiest instance is killed at step k, the j-th packet delivered
// after the kill is dropped, for every j < 24: the dead owner's writes
// already on the wire, the backend's and client's retransmissions, the
// adopter's store reads and writes. Every point must pass
// TestKillOwnerAtEveryStep's checks, defect (k)'s pinned points aside.
func TestKillThenDropEveryPacket(t *testing.T) {
	killFaultSweep(t, dropPacket, 2, defectK)
}

// TestKillThenDuplicateEveryPacket is the same sweep with the j-th packet
// after the kill delivered twice: a dead owner's store write or its
// relayed segment, a store reply or a retransmission that an adopter
// sees again one link latency later. Every point must pass the same
// checks.
func TestKillThenDuplicateEveryPacket(t *testing.T) {
	killFaultSweep(t, duplicatePacket, 1, nil)
}

// TestKillThenKillHolderEveryPacket is a bounded double-crash sweep: after
// the busiest instance is killed at step k, the instance holding the
// client tuple at the muxes (most often the flow's adopter, or the
// owner-to-be of a flow still in its connection phase) is killed too at
// the j-th packet delivered after the first kill, for every j < 24. Each
// withdrawal may cost one adoption (G3), so the survivors may adopt the
// flow twice, never after its first close; every other check is the
// other sweeps'.
func TestKillThenKillHolderEveryPacket(t *testing.T) {
	killFaultSweep(t, killHolder, 1, nil)
}

// TestKillThenReorderEveryPacket is the same sweep with the j-th packet
// after the kill held back and sent again at the next delivery, so it
// arrives behind packets sent after it: a dead owner's store write
// behind its other replica's, a backend segment behind the next, a store
// reply behind the adopter's next read. Every point must pass the same
// checks.
func TestKillThenReorderEveryPacket(t *testing.T) {
	killFaultSweep(t, reorderPacket, 1, nil)
}

// TestKillThenKillStoreServerEveryPacket is the same sweep with a second
// kill on the store side: when the j-th packet after the kill came from
// or went to a store server, that server is detached next, the replica
// an adopter reads or writes included. Only the points where it hit a
// store server run the checks, which skip the detached server's records;
// the flow's store copy on the other replica must serve the adopter.
func TestKillThenKillStoreServerEveryPacket(t *testing.T) {
	killFaultSweep(t, killStoreServer, 1, nil)
}

// killFaultSweep runs both arms' kill sweeps with fault applied at each
// of the 24 packets after the kill in turn, over seeds from 11 (dflt
// unless -killdrop.seeds says). pinned names the paper arm's points, as
// (seed, kill step, packet), whose monitor must see defect (k)'s breaches
// of G3 instead. A failing point is re-run traced and its timeline
// logged. Both arms' beds poison released buffers, so an adopter that
// reads a parked packet's copy or a lent store reply after its release
// breaks the fetch at that point.
func killFaultSweep(t *testing.T, fault packetFault, dflt int, pinned map[[3]int]bool) {
	seeds := cmp.Or(*killDropSeeds, dflt)
	for _, arm := range killArms {
		t.Run(arm.name, func(t *testing.T) {
			var rerun func() *timeline
			defer logTimelineOnFailure(t, &rerun)
			runs := 0
			for seed := int64(11); seed < 11+int64(seeds); seed++ {
				total := arm.run(t, seed, -1, -1, fault, false).steps
				for k := 0; k <= total; k++ {
					for j := 0; j < 24; j++ {
						r := arm.run(t, seed, k, j, fault, false)
						if !r.faulted {
							break // the kill saw no j+1 packets, so no later j faults one
						}
						if fault == killStoreServer && !r.storeDown {
							continue // TestKillOwnerAtEveryStep's run
						}
						runs++
						where := fmt.Sprintf("seed %d, kill after step %d of %d, %s packet %d after it", seed, k, total, fault, j)
						rerun = func() *timeline { return arm.run(t, seed, k, j, fault, true).tl }
						settle(t, r, where, arm.name == "paper" && pinned[[3]int{int(seed), k, j}])
					}
				}
			}
			rerun = nil
			t.Logf("%d kill-then-%s runs", runs, fault)
		})
	}
}

// requireStoreEmpty fails unless no TCPStore server holds a record: true
// of a cluster whose flows have all closed and lingered out, and of one
// whose flows never needed the store.
func requireStoreEmpty(t *testing.T, c *cluster.Cluster) {
	t.Helper()
	for i, s := range c.StoreServers {
		if items := s.Engine.Stats().CurrItems; items != 0 {
			t.Fatalf("store server %d holds %d records, want none", i, items)
		}
	}
}

func TestFailoverDuringConnectionPhase(t *testing.T) {
	tb := newTestbed(t, 7, 2)
	core.CountNotes(t, tb.C.Net, nil)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/10k", keep(&res))
	// Timeline: SYN reaches the instance ~30ms, storage-a ~1ms, SYN-ACK at
	// client ~61ms, request data back at the instance ~91ms. Killing at
	// 75ms lands after storage-a/SYN-ACK but before the data arrives — the
	// "more interesting case" of §4.2.
	victim := -1
	tb.C.Net.Schedule(75*time.Millisecond, func() { victim = tb.FailBusiest(1)[0] })
	tb.C.Net.RunFor(40 * time.Second)
	if res == nil {
		t.Fatal("fetch never completed")
	}
	if res.Err != nil {
		t.Fatalf("connection-phase failover broke the flow: %v", res.Err)
	}
	if tb.C.Yoda[1-victim].Recovered == 0 {
		t.Fatal("survivor did not recover the connection-phase flow")
	}
	if !bytes.Equal(res.Resp.Body, e2eObjects["/10k"]) {
		t.Fatal("body corrupted")
	}
}

// TestRequestHeaderSplitAcrossSegments sends a /10k GET whose header
// arrives in pieces, and wants its response whole and in time. An
// instance acknowledges a partial header only once a record holds it
// (the monitor's G1 (b)), so a survivor resumes from that record:
//
//   - late: the first header line goes 200 ms before the rest. Its ACK
//     opens the window, so the rest follows at once; with the owner
//     killed at 150 ms, between the two writes, the survivor reads the
//     first line from the record;
//   - lost: a 3 KB header, three segments, whose second is lost once.
//     The first one's ACK moves the client's oldest unacknowledged byte
//     to the hole, which is all its retransmission resends; with the
//     owner killed at 150 ms, before that retransmission, the survivor
//     reads the first segment from the record.
func TestRequestHeaderSplitAcrossSegments(t *testing.T) {
	for _, c := range []struct {
		name       string
		lost, kill bool
		within     time.Duration
	}{
		{"late", false, false, 500 * time.Millisecond},
		{"late, owner killed", false, true, 2 * time.Second},
		{"lost", true, false, 2 * time.Second},
		{"lost, owner killed", true, true, 2 * time.Second},
	} {
		t.Run(c.name, func(t *testing.T) {
			tb := newTestbed(t, 7, 2)
			net := tb.C.Net
			core.CountNotes(t, net, nil)
			r := httpsim.NewRequest("/10k", "mysite")
			cut := 0 // where the late write starts
			if c.lost {
				r.SetHeader("X-Pad", strings.Repeat("p", 3000))
			}
			req := r.MarshalClose()
			if !c.lost {
				cut = bytes.Index(req, []byte("\r\n")) + 2
			}
			client, mss := tb.C.ClientHost(), tcp.DefaultConfig().MSS
			var first uint32 // the header's first sequence number
			dropped := !c.lost
			net.SetDropFunc(func(p *netsim.Packet) bool {
				if dropped || p.Src.IP != client.IP() || len(p.Payload) == 0 || p.Outer != nil {
					return false
				}
				if first == 0 {
					first = p.Seq
				}
				dropped = p.Seq == first+uint32(mss)
				return dropped
			})
			parser := &httpsim.ResponseParser{}
			var at time.Duration // when the whole, intact response arrived
			tcp.Dial(client, tb.Addr, tcp.Callbacks{
				OnEstablished: func(conn *tcp.Conn) {
					if cut == 0 {
						conn.Write(req)
						return
					}
					conn.Write(req[:cut])
					net.Schedule(200*time.Millisecond, func() { conn.Write(req[cut:]) })
				},
				OnData: func(conn *tcp.Conn, d []byte) {
					resps, _ := parser.Feed(d)
					for _, r := range resps {
						if r.StatusCode == 200 && bytes.Equal(r.Body, e2eObjects["/10k"]) {
							at = net.Now()
						}
						conn.Close()
					}
				},
			}, tcp.DefaultConfig())
			if c.kill {
				net.Schedule(150*time.Millisecond, func() { tb.FailBusiest(1) })
			}
			net.RunFor(2 * time.Minute)
			if at == 0 || at > c.within {
				t.Errorf("the response came at %v, want it by %v", at, c.within)
			}
			t.Logf("the response came at %v", at)
		})
	}
}

func TestRejectWhenNoRuleMatches(t *testing.T) {
	tb := testbed.New(testbed.Config{Seed: 8, Objects: map[string][]byte{"/x": []byte("y")}, Backends: 1, Stores: 2, LBs: 1})
	c, vip := tb.C, tb.VIP
	only := []rules.Rule{{
		Name: "jpg-only", Priority: 1, Match: rules.Match{URLGlob: "*.jpg"},
		Action: rules.Action{Type: rules.ActionSplit,
			Split: []rules.WeightedBackend{{Backend: c.Backends["srv-1"].Rec, Weight: 1}}},
	}}
	c.InstallPolicy(vip, only, nil)
	cl := c.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/not-a-jpg", func(r *httpsim.FetchResult) { res = r.Clone() })
	c.Net.RunFor(5 * time.Second)
	if res == nil {
		t.Fatal("no response")
	}
	if res.Err != nil {
		t.Fatalf("expected HTTP 503, got transport error %v", res.Err)
	}
	if res.Resp.StatusCode != 503 {
		t.Fatalf("status = %d, want 503", res.Resp.StatusCode)
	}
}

func TestKeepAliveMultipleRequestsSameBackend(t *testing.T) {
	tb := newTestbed(t, 9, 1)
	notes := core.CountNotes(t, tb.C.Net, nil)
	host := tb.C.ClientHost()
	parser := &httpsim.ResponseParser{}
	var bodies [][]byte
	req := func(path string) []byte {
		r := httpsim.NewRequest(path, "mysite")
		return r.Marshal() // HTTP/1.1, keep-alive by default
	}
	conn := tcp.Dial(host, tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(req("/tiny")) },
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, r.Body)
				if len(bodies) == 1 {
					c.Write(req("/tiny"))
				} else {
					c.Close()
				}
			}
		},
	}, tcp.DefaultConfig())
	_ = conn
	tb.C.Net.RunFor(10 * time.Second)
	if len(bodies) != 2 {
		t.Fatalf("got %d responses", len(bodies))
	}
	for _, b := range bodies {
		if string(b) != "ok" {
			t.Fatalf("body = %q", b)
		}
	}
	if n := notes.Of(tb.C.Yoda[0].IP(), "reselect"); n != 0 {
		t.Fatalf("unexpected backend switch: %d", n)
	}
}

func TestKeepAliveBackendReselection(t *testing.T) {
	// Two requests on one connection matching rules that pin different
	// backends: the instance must switch servers mid-connection (§5.2).
	tb := testbed.New(testbed.Config{Seed: 10, Backends: 2, Stores: 2, LBs: 1, Objects: map[string][]byte{
		"/a.php": []byte("from-php-pool"), "/b.css": []byte("from-css-pool"),
	}})
	c, vip := tb.C, tb.VIP
	rs := []rules.Rule{
		{Name: "php", Priority: 2, Match: rules.Match{URLGlob: "*.php"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["srv-1"].Rec, Weight: 1}}}},
		{Name: "css", Priority: 1, Match: rules.Match{URLGlob: "*.css"},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: c.Backends["srv-2"].Rec, Weight: 1}}}},
	}
	c.InstallPolicy(vip, rs, nil)

	notes := core.CountNotes(t, c.Net, nil)
	host := c.ClientHost()
	parser := &httpsim.ResponseParser{}
	var bodies []string
	tcp.Dial(host, netsim.HostPort{IP: vip, Port: 80}, tcp.Callbacks{
		OnEstablished: func(conn *tcp.Conn) {
			conn.Write(httpsim.NewRequest("/a.php", "svc").Marshal())
		},
		OnData: func(conn *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				t.Errorf("parse: %v", err)
			}
			for _, r := range resps {
				bodies = append(bodies, string(r.Body))
				if len(bodies) == 1 {
					conn.Write(httpsim.NewRequest("/b.css", "svc").Marshal())
				} else {
					conn.Close()
				}
			}
		},
	}, tcp.DefaultConfig())
	c.Net.RunFor(15 * time.Second)
	if len(bodies) != 2 {
		t.Fatalf("got %d responses: %v", len(bodies), bodies)
	}
	if bodies[0] != "from-php-pool" || bodies[1] != "from-css-pool" {
		t.Fatalf("bodies = %v", bodies)
	}
	if n := notes.Of(c.Yoda[0].IP(), "reselect"); n != 1 {
		t.Fatalf("reselections = %d, want 1", n)
	}
	if c.Backends["srv-1"].Server.Requests != 1 || c.Backends["srv-2"].Server.Requests != 1 {
		t.Fatalf("request counts: php=%d css=%d",
			c.Backends["srv-1"].Server.Requests, c.Backends["srv-2"].Server.Requests)
	}
}

func TestInstanceCountersAndStats(t *testing.T) {
	tb := newTestbed(t, 11, 1)
	notes := core.CountNotes(t, tb.C.Net, nil)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	done := false
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { done = r.Err == nil })
	tb.C.Net.RunFor(5 * time.Second)
	if !done {
		t.Fatal("fetch failed")
	}
	in := tb.C.Yoda[0]
	if n := notes.To(in.IP(), "new flow", tb.VIP); n != 1 {
		t.Fatalf("%d new flows noted for the VIP, want 1", n)
	}
	if !in.HasVIP(tb.VIP) {
		t.Fatal("HasVIP false")
	}
	if in.CPU.BusyBefore(tb.C.Net.Now()) == 0 {
		t.Fatal("no CPU charged")
	}
}

func TestVIPRemovalStopsTraffic(t *testing.T) {
	tb := newTestbed(t, 12, 1)
	tb.C.Yoda[0].RemoveRules(tb.VIP)
	cl := tb.C.NewClient(httpsim.DefaultClientConfig())
	var res *httpsim.FetchResult
	cl.Get(tb.Addr, "/tiny", func(r *httpsim.FetchResult) { res = r.Clone() })
	tb.C.Net.RunFor(5 * time.Second)
	if res == nil {
		t.Fatal("no result")
	}
	if res.Err == nil && res.Resp.StatusCode != 503 {
		t.Fatalf("expected 503 or failure after rules removed, got %+v", res.Resp)
	}
}

// BenchmarkEventsPerFlow measures event-loop events per completed 100 KB
// fetch through a single Yoda instance: every event the network ran —
// clients and backends included — divided by the flows the instance
// closed, so it compares runs of this one topology only. bench.sh
// records it as events_per_flow.
func BenchmarkEventsPerFlow(b *testing.B) {
	const flows = 50
	for i := 0; i < b.N; i++ {
		c := cluster.New(35)
		c.AddStoreServers(3, memcache.DefaultSimServerConfig())
		objects := map[string][]byte{"/100k": bytes.Repeat([]byte("b"), 100*1024)}
		for j := 1; j <= 3; j++ {
			c.AddBackend(fmt.Sprintf("srv-%d", j), objects, httpsim.DefaultServerConfig())
		}
		c.AddYodaN(1, core.DefaultConfig(), tcpstore.DefaultConfig())
		vip := c.AddVIP("mysite")
		c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2", "srv-3"), nil)
		base := c.Net.Executed()
		done := 0
		for j := 0; j < flows; j++ {
			cl := c.NewClient(httpsim.DefaultClientConfig())
			cl.Get(netsim.HostPort{IP: vip, Port: 80}, "/100k", func(r *httpsim.FetchResult) {
				if r.Err == nil {
					done++
				}
			})
		}
		c.Net.RunFor(60 * time.Second)
		if done != flows {
			b.Fatalf("done = %d/%d", done, flows)
		}
		b.ReportMetric(float64(c.Net.Executed()-base)/flows, "events/flow")
	}
}

// TestClientResetMidTunnel: a client that aborts mid-response has its RST
// carried on to the backend, translated into the backend's sequence
// space, and the flow is torn down with its store records.
func TestClientResetMidTunnel(t *testing.T) {
	tb := newTestbed(t, 12, 1)
	backends := map[netsim.HostPort]bool{}
	for _, b := range tb.C.Backends {
		backends[b.Rec.Addr] = true
	}
	var resets []*netsim.Packet
	notes := core.CountNotes(t, tb.C.Net, func(ev netsim.TraceEvent) {
		if p := ev.Packet; p != nil && backends[p.Dst] && p.Flags.Has(netsim.FlagRST) {
			resets = append(resets, p.Clone())
		}
	})
	var got int
	tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(httpsim.NewRequest("/100k", "mysite").MarshalClose()) },
		OnData: func(c *tcp.Conn, d []byte) {
			if got += len(d); got > 10_000 {
				c.Abort()
			}
		},
	}, tcp.DefaultConfig())
	tb.C.Net.RunFor(10 * time.Second)
	// The relayed RST is a bare one; what else the backend sent before it
	// got there finds no flow and draws the store-miss RST|ACK.
	in := tb.C.Yoda[0]
	if len(resets) == 0 || resets[0].Flags != netsim.FlagRST || resets[0].Src.IP != tb.VIP {
		t.Fatalf("RSTs toward the backend %v, want the client's, relayed from the VIP, first", resets)
	}
	if closed := notes.Of(in.IP(), "close"); in.FlowCount() != 0 || closed != 1 {
		t.Fatalf("%d flow entries left, %d closed; want 0 and 1", in.FlowCount(), closed)
	}
	requireStoreEmpty(t, tb.C)
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("%d affinity entries left", n)
	}
}

// TestClientResetAfterHandshake is defect (j): a client that resets in
// the connection phase, after storage-a committed its record and the
// SYN-ACK went out, leaves neither the record nor a mux entry behind.
func TestClientResetAfterHandshake(t *testing.T) {
	tb := newTestbed(t, 13, 1)
	notes := core.CountNotes(t, tb.C.Net, nil)
	tcp.Dial(tb.C.ClientHost(), tb.Addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Abort() },
	}, tcp.DefaultConfig())
	tb.C.Net.RunFor(10 * time.Second)
	in := tb.C.Yoda[0]
	if closed := notes.Of(in.IP(), "close"); in.FlowCount() != 0 || closed != 1 {
		t.Fatalf("%d flow entries left, %d closed; want 0 and 1", in.FlowCount(), closed)
	}
	requireStoreEmpty(t, tb.C)
	if n := tb.C.L4.AffinityCount(); n != 0 {
		t.Fatalf("%d affinity entries left", n)
	}
}
