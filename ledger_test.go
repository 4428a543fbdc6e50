package yoda_test

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"
	"time"

	yoda "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcp"
	"repro/internal/tcpstore"
)

// ledgerLayers are the rows of the request allocation ledger, in the
// order a request crosses them; "other" takes an allocation with none of
// them on its stack. scripts/bench.sh records each row as
// request_allocs_<layer> in BENCH_core.json.
var ledgerLayers = []string{"netsim", "l4lb", "core", "tcp", "tcpstore", "memcache", "httpsim", "other"}

// TestRequestAllocLedger is the allocation ledger of one request through
// the real stack (DESIGN.md, "What a request allocates"): a warm client
// fetches a 2 KiB object through the facade's testbed — mux, instance,
// store, backend — and the cluster runs on until the connection has
// closed and the flow has lingered out. With every allocation profiled,
// each is charged to the innermost ledger layer on its stack (layerOf),
// and the rows must sum exactly to testing.AllocsPerRun's count, so a
// rise in the total names its layer. It logs the rows as "ledger <name>
// <count>" lines, which scripts/bench.sh records and ci.sh gates.
func TestRequestAllocLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	tb, fetch := warmLedgerTestbed(t)
	defer tb.Close()
	const runs = 100
	before := allocsByLayer()
	total := testing.AllocsPerRun(runs, fetch)
	after := allocsByLayer()

	sum := 0
	for _, layer := range ledgerLayers {
		n := after[layer] - before[layer]
		if n%(runs+1) != 0 { // AllocsPerRun runs fetch once more, unmeasured
			t.Errorf("%s allocated %d objects over %d fetches: not the same for every fetch", layer, n, runs+1)
		}
		t.Logf("ledger request_allocs_%s %d", layer, n/(runs+1))
		sum += n / (runs + 1)
	}
	t.Logf("ledger request_allocs %v", total)
	if float64(sum) != total {
		t.Fatalf("the ledger's rows sum to %d allocations per request, testing.AllocsPerRun counts %v", sum, total)
	}
}

// warmLedgerTestbed builds the request ledger's testbed, a 2 KiB object
// behind the facade's default cluster with no controller, and runs 2,000
// fetches of it from one client, each until its connection has closed
// and its flow has lingered out. It returns the testbed and that fetch.
func warmLedgerTestbed(t *testing.T) (*yoda.Testbed, func()) {
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 5, DisableController: true})
	body := bytes.Repeat([]byte("L"), 2<<10)
	addr := netsim.HostPort{IP: tb.AddService("ledger", map[string][]byte{"/obj": body}, 2), Port: 80}
	cl := tb.Cluster.NewClient(httpsim.DefaultClientConfig())
	req := httpsim.NewRequest("/obj", "ledger")
	ok := false
	done := func(r *httpsim.FetchResult) { ok = r.Err == nil && bytes.Equal(r.Resp.Body, body) }
	fetch := func() {
		ok = false
		cl.Fetch(addr, req, done)
		tb.Run(3 * time.Second) // the close, finLinger and the records' deletes
		if !ok {
			t.Fatal("fetch failed")
		}
	}
	for range 2000 {
		// Warm the pools, the spares and the store connections, and let
		// the latency histograms see every distinct value they will see.
		fetch()
	}
	return tb, fetch
}

// TestClusterHeapLedger is the heap ledger of the set-up (DESIGN.md G8):
// the heap the request ledger's testbed holds once its 2,000 warm
// fetches have run — instances, muxes, store servers, backends, the
// client and what the fetches left in pools and slabs — charged, from
// the profile's bytes in use, to the layer that allocated it (layerOf). A benchmark that divides a warmed cluster's
// heap by the flows it serves, as yodabench's short-paper
// heap_bytes_per_live_flow does, reads mostly this. The total is
// runtime.MemStats.HeapAlloc's growth less what the runtime allocated for
// itself meanwhile, and the rows must sum to it within heapLedgerSlack.
// A first pass, the same but unlogged, takes what a process allocates
// once: read in the first cluster a process builds, the total moves by
// 16-48 B from run to run. One P runs both, so no tiny allocation packs
// into a block another P started. It logs "ledger
// cluster_heap_bytes_<layer>" and the total "ledger cluster_heap_bytes",
// which scripts/bench.sh records and ci.sh gates; both read the same on
// every run of a tree.
func TestClusterHeapLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for pass := range 2 {
		before, heap0 := heapByLayer()
		tb, _ := warmLedgerTestbed(t)
		if pass == 0 {
			heapByLayer()
		} else {
			logHeapLedger(t, "cluster_heap_bytes", 1, before, heap0)
		}
		runtime.KeepAlive(tb)
	}
}

// TestLongRunHeapLedger is the heap ledger of a cluster's uptime
// (DESIGN.md G8): on the facade's testbed, 256 closed-loop clients fetch
// a 2 KiB object for six phases of 10 s, each opened by every client at
// once and ended by stopping them and letting every flow close and
// linger out. After each phase the heap is read at zero live flows and
// charged to the layer that allocated it (layerOf), and the
// least-squares slope of the readings after phases 2-6 against the
// requests served is logged, per 10^5 requests, as "ledger
// longrun_heap_bytes_per_1e5_req_<layer>" and the total "ledger
// longrun_heap_bytes_per_1e5_req" (HeapAlloc less the runtime's own, as
// the other heap ledgers take it); the rows must sum to the total.
// scripts/bench.sh records them and ci.sh gates the total. Phase 1's
// opening burst takes the free lists and tables to the load's peak, so
// a cluster whose heap follows its flows reads a slope near zero: the
// capped pools (the buffer pool's bins, the store clients' spare ops)
// settle by a few KB either way after it, which is the ledger's noise.
// Each phase is 10 s, not 20, because profiling every allocation makes
// the run 2.5 times as slow (22 s with 20 s phases on 2 vCPUs).
func TestLongRunHeapLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const (
		clients = 256
		phases  = 6
		phase   = 10 * time.Second
	)
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 5, DisableController: true})
	defer tb.Close()
	body := bytes.Repeat([]byte("L"), 2<<10)
	addr := netsim.HostPort{IP: tb.AddService("ledger", map[string][]byte{"/obj": body}, 2), Port: 80}
	req := httpsim.NewRequest("/obj", "ledger")
	stop, inflight, served := false, 0, 0
	loops := make([]func(), clients)
	for p := range loops {
		cl := tb.Cluster.NewClient(httpsim.DefaultClientConfig())
		var done func(*httpsim.FetchResult)
		loops[p] = func() {
			if !stop {
				inflight++
				cl.Fetch(addr, req, done)
			}
		}
		done = func(r *httpsim.FetchResult) {
			inflight--
			if r.Err != nil || !bytes.Equal(r.Resp.Body, body) {
				t.Fatalf("a fetch failed: %v", r.Err)
			}
			served++
			loops[p]()
		}
	}
	// A reading keeps its rows by ledgerLayers' index, not heapByLayer's
	// map, which the next reading's HeapAlloc would count.
	type reading struct {
		served int
		rows   [8]int64
		heap   float64
	}
	readings := make([]reading, 0, phases)
	drain := func() {
		for inflight > 0 {
			tb.Run(time.Second)
		}
		tb.Run(3 * time.Second) // the closes, finLinger and the records' deletes
	}
	for range phases {
		stop = false
		for _, loop := range loops {
			loop() // every client at once: the phase opens with a burst
		}
		tb.Run(phase)
		stop = true
		drain()
		by, heap := heapByLayer()
		r := reading{served: served, heap: float64(int64(heap) - by[runtimeRow])}
		for i, layer := range ledgerLayers {
			r.rows[i] = by[layer]
		}
		readings = append(readings, r)
	}
	fit := readings[1:]
	slope := func(y func(reading) float64) float64 {
		var sx, sy, sxx, sxy float64
		for _, r := range fit {
			x := float64(r.served)
			sx, sy, sxx, sxy = sx+x, sy+y(r), sxx+x*x, sxy+x*y(r)
		}
		n := float64(len(fit))
		return 1e5 * (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
	sum := 0.0
	for i, layer := range ledgerLayers {
		row := slope(func(r reading) float64 { return float64(r.rows[i]) })
		t.Logf("ledger longrun_heap_bytes_per_1e5_req_%s %.0f", layer, row)
		sum += row
	}
	total := slope(func(r reading) float64 { return r.heap })
	t.Logf("ledger longrun_heap_bytes_per_1e5_req %.0f", total)
	t.Logf("%d requests, %d in the last phase", served, fit[len(fit)-1].served-fit[len(fit)-2].served)
	if math.Abs(sum-total) > 16 {
		t.Fatalf("the ledger's rows sum to %.0f heap bytes per 10^5 requests, HeapAlloc's slope is %.0f", sum, total)
	}
}

// allocsByLayer returns the objects allocated so far, as the memory
// profile has them, by the innermost internal package on each stack, and
// under newFlowRow those core's newFlow made.
func allocsByLayer() map[string]int {
	by := map[string]int{}
	recs, _ := profile()
	for _, r := range recs {
		if layer := layerOf(r.Stack()); layer != "" {
			by[layer] += int(r.AllocObjects)
			if onStack(r.Stack(), "repro/internal/core.(*Instance).newFlow") {
				by[newFlowRow] += int(r.AllocObjects)
			}
		}
	}
	return by
}

// profile returns the memory profile's records, brought up to date by
// three collections, and runtime.MemStats.HeapAlloc as the collections
// left it, before the records' own array. Under MemProfileRate 1 the
// profile holds every allocation but the tiny ones packed into a block
// another made.
func profile() ([]runtime.MemProfileRecord, uint64) {
	for range 3 { // the profile publishes a cycle's allocations two cycles on
		runtime.GC()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("memory profile grew past its buffer")
	}
	return recs[:n], ms.HeapAlloc
}

// newFlowRow is allocsByLayer's count of the objects core's newFlow made
// (the flow), which its core row includes.
const newFlowRow = "newFlow"

// onStack reports whether fn is a frame of stack.
func onStack(stack []uintptr, fn string) bool {
	frames := runtime.CallersFrames(stack)
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		if f.Function == fn {
			return true
		}
	}
	return false
}

// layerOf returns the ledger layer x of the innermost frame of stack in
// package repro/internal/x, or "other" for a stack of the module's code
// with no layer on it. A helper package that is no layer (metrics, say)
// is passed over: its allocation is its caller's. An allocation no frame
// of the module made (the runtime's own: a thread, a GC worker's
// bookkeeping), or one the runtime made for itself under a runtimeOwn
// frame whatever module code sits below, is runtimeRow, no layer's; the
// ledger's own (ledgerFuncs) are "".
func layerOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	layer := ""
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		switch rest, internal := strings.CutPrefix(f.Function, "repro/internal/"); {
		case slices.Contains(ledgerFuncs, f.Function):
			return ""
		case layer == "" && slices.Contains(runtimeOwn, f.Function):
			return runtimeRow
		case internal && (layer == "" || layer == "other"):
			if pkg, _, _ := strings.Cut(rest, "."); slices.Contains(ledgerLayers, pkg) {
				layer = pkg
			}
		case layer == "" && strings.HasPrefix(f.Function, "repro"):
			layer = "other"
		}
	}
	if layer == "" {
		return runtimeRow
	}
	return layer
}

// runtimeRow is layerOf's name for what the runtime allocates for itself.
// When it does (an OS thread's records when the scheduler starts one) is
// the runtime's choice, not the simulation's, so no ledger counts it.
const runtimeRow = "runtime"

// runtimeOwn are the runtime frames under which it allocates for itself,
// whichever module code called it: an interface type assertion's cache,
// which the runtime rebuilds at random on a miss (netsim's Attach,
// Register and SetDefault assert a handler's kind at set-up, so about 1
// process in 25 read the set-up ledger 48 B high), and the table
// runtime/metrics builds on its first read in a process.
var runtimeOwn = []string{"runtime.typeAssert", "runtime.initMetrics"}

// ledgerFuncs are the ledger's own functions, whose allocations are no
// layer's.
var ledgerFuncs = []string{"repro_test.profile", "repro_test.allocsByLayer", "repro_test.heapByLayer"}

// TestAdoptionAllocLedger is the allocation ledger of one adoption
// (DESIGN.md, "What an adoption allocates"): a warm bed of four
// instances holds idle keep-alive flows, one instance is killed and
// withdrawn from the muxes, and each of its flows sends one request,
// which a survivor adopts: an orphan packet parked, a store read, a flow
// installed, the request relayed. The same flows then send one more
// request to their adopters, with nothing to adopt: that phase is the
// probe, and an adoption costs what the first phase allocates beyond it.
// A first kill before the measured one warms the adoption path's pools;
// the held flows outnumber what the warm-up closed, so newFlow finds no
// spare, as in a storm. Each row charges the difference to a layer
// (layerOf), and the rows sum to the total runtime/metrics counts, less
// what the runtime allocated for itself (runtimeRow). The
// profile cannot see a tiny allocation packed into a block another made,
// so runtime/metrics' count of those is a row of its own, "tiny".
// Store commands per adoption are counted the same way. It logs "ledger
// adoption_allocs_<row>_<mode>", the total, what newFlow made and
// "ledger adoption_store_cmds_<mode>", which scripts/bench.sh records
// and ci.sh gates.
func TestAdoptionAllocLedger(t *testing.T) {
	for _, mode := range []string{"paper", "hybrid"} {
		t.Run(mode, func(t *testing.T) {
			defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
			runtime.MemProfileRate = 1
			l := measureAdoption(t, mode == "hybrid")
			sum := 0.0
			for _, row := range adoptionRows {
				t.Logf("ledger adoption_allocs_%s_%s %.2f", row, mode, l.rows[row])
				sum += l.rows[row]
			}
			t.Logf("ledger adoption_allocs_%s %.2f", mode, l.total)
			t.Logf("ledger adoption_allocs_newflow_%s %.2f", mode, l.newFlow)
			t.Logf("ledger adoption_store_cmds_%s %.2f", mode, l.storeCmds)
			t.Logf("%d adoptions", l.adoptions)
			if math.Abs(sum-l.total) > 1e-9 {
				t.Fatalf("the ledger's rows sum to %.2f allocations per adoption, runtime/metrics counts %.2f", sum, l.total)
			}
			// A paper-mode adoption allocates the flow it creates and at
			// most one more object: the payload it relays takes the parked
			// copy's array on (netsim.MovePayload).
			if mode == "paper" && l.total > l.newFlow+1 {
				t.Errorf("an adoption allocates %.2f objects, %.2f of them newFlow's: more than 1 beyond the flow", l.total, l.newFlow)
			}
		})
	}
}

// TestStormHeapLedger is the heap ledger of a failover storm after it is
// over (DESIGN.md G8): on the adoption bed in paper mode, past the
// warm-up, 4,096 keep-alive flows fetch once and idle, one instance is
// killed and withdrawn, every flow sends a second request (the dead
// instance's adopted on the way) and closes, and the bed runs on past
// finLinger until every flow has torn down and its records are deleted.
// With the test's own client objects dropped, HeapAlloc at zero live
// flows less the warm bed's, less what the runtime allocated for itself,
// is what the storm left behind; charged to the layer that allocated it
// (layerOf), it is logged as "ledger storm_heap_bytes_<layer>" rows and
// the total "ledger storm_heap_bytes", which scripts/bench.sh records
// and ci.sh holds to stormHeapCeiling. A structure kept at the storm's
// peak (slab pages, the store index, the hosts' connection tables, the
// flow index) reads hundreds of KB here; one that follows its live
// content reads its shrink rule's slack.
func TestStormHeapLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	newAdoptionBed(false).openAll(0) // what a process allocates once, as TestClusterHeapLedger's first pass
	heapByLayer()
	b := newAdoptionBed(false)
	b.openAll(0)
	before, heap0 := heapByLayer()
	b.openHeld(4096, 100*time.Microsecond)
	b.kill(0)
	b.requestAll(b.flows)
	for _, f := range b.flows {
		f.conn.Close()
	}
	b.flows, b.orphans = nil, nil
	b.c.Net.RunFor(5 * time.Second)
	for _, in := range b.c.Yoda {
		if n := in.FlowCount(); n != 0 {
			t.Fatalf("%s holds %d flows after the storm", in.IP(), n)
		}
	}
	if n := b.c.L4.AffinityCount(); n != 0 {
		t.Fatalf("the muxes hold %d affinity entries after the storm", n)
	}
	if total := logHeapLedger(t, "storm_heap_bytes", 1, before, heap0); total > stormHeapCeiling {
		t.Errorf("the storm left %.0f heap bytes behind at zero live flows, more than %d", total, stormHeapCeiling)
	}
	runtime.KeepAlive(b)
}

// stormHeapCeiling bounds TestStormHeapLedger's total: 2,635,200 B read
// on 2 vCPUs with go1.24, and 2 % for a runtime that lays tiny
// allocations out otherwise. Slab pages, an index, host tables and a
// flow index kept at the storm's peak read 6,464,048.
const stormHeapCeiling = 2_700_000

// TestLiveFlowHeapLedger is the heap ledger of one idle keep-alive flow
// (DESIGN.md, "What a live flow holds"): on the adoption bed in paper
// mode, past a first 256 held flows that take every spare connection
// and flow object the warm-up left, and past a first ramp of the same
// size and pace that brings the scheduler's and packet pools' free
// lists to the ramp's peak, 2,048 more keep-alive flows fetch once and
// stay open. The window then allocates the event records and train
// boxes its flows hold, not a burst's high water, however the warm-up
// peaked. The first ramp stays open: closed, it would also hand the
// window its slab chunks and index slots. The heap the 2,048 hold is
// charged, from the profile's bytes in use, to the layer that allocated
// it (layerOf;
// "other" is the test's own client objects). The total is
// runtime.MemStats.HeapAlloc's growth per flow less what the runtime
// allocated for itself meanwhile (runtimeRow, from the same profile):
// whether the scheduler starts a thread in the window (about 5 KB)
// differs from run to run, and is no flow's. The rows must sum to the
// total within heapLedgerSlack, which is what the profile misses: a tiny
// allocation packed into a block another made. It logs "ledger
// flow_heap_bytes_<layer>" and the total "ledger flow_heap_bytes", per
// flow, which scripts/bench.sh records and ci.sh gates: a rise in the
// total names its layer, and both read the same on every run of a tree.
// yodabench's held-failover heap_bytes_per_live_flow measures the same
// flows end to end. Then every one of the flows fetches once more and
// idles again, and the ledger is taken a second time, as "ledger
// flow_heap_bytes_again_<layer>" and "ledger flow_heap_bytes_again": a
// flow that has served two requests may hold no more than one that has
// served one (a drained keep-alive queue keeps no array, say), within
// heapLedgerSlack: what the buffer pool's bins hold is no flow's, and
// the second round leaves arrays of other sizes in them (5 B a flow).
func TestLiveFlowHeapLedger(t *testing.T) {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	const flows = 2048
	b := newAdoptionBed(false)
	b.openAll(256)
	b.openHeld(flows, 100*time.Microsecond)
	before, heap0 := heapByLayer()
	b.openHeld(flows, 100*time.Microsecond) // held-failover's ramp pace
	total := logHeapLedger(t, "flow_heap_bytes", flows, before, heap0)
	b.fetchAgain(b.flows[len(b.flows)-flows:], 100*time.Microsecond)
	if again := logHeapLedger(t, "flow_heap_bytes_again", flows, before, heap0); again > (1+heapLedgerSlack)*total {
		t.Errorf("a flow holds %.0f heap bytes after its second request, %.0f after its first", again, total)
	}
	runtime.KeepAlive(b)
}

// logHeapLedger logs the heap ledger of n flows (or of one cluster)
// opened since before and heap0 were read, as "ledger <name>_<layer>"
// rows and the "ledger <name>" total, per flow, and returns the total. It
// fails the test unless the rows sum to the total within heapLedgerSlack.
func logHeapLedger(t *testing.T, name string, n int, before map[string]int64, heap0 uint64) float64 {
	after, heap1 := heapByLayer()
	total := float64(int64(heap1-heap0)-(after[runtimeRow]-before[runtimeRow])) / float64(n)
	sum := 0.0
	for _, layer := range ledgerLayers {
		row := float64(after[layer]-before[layer]) / float64(n)
		t.Logf("ledger %s_%s %.0f", name, layer, row)
		sum += row
	}
	t.Logf("ledger %s %.0f", name, total)
	if math.Abs(sum-total) > heapLedgerSlack*total {
		t.Fatalf("the ledger's rows sum to %.0f heap bytes per live flow, HeapAlloc grew %.0f beyond the runtime's own: more than %.0f%% apart",
			sum, total, 100*heapLedgerSlack)
	}
	return total
}

// heapLedgerSlack is how far apart, as a fraction of the total,
// TestLiveFlowHeapLedger lets its rows and HeapAlloc's growth be, and
// how far its second reading may exceed its first.
const heapLedgerSlack = 0.01

// heapByLayer returns the heap bytes in use, as the memory profile has
// them, by the innermost internal package on each stack, and HeapAlloc
// (profile).
func heapByLayer() (map[string]int64, uint64) {
	recs, heap := profile()
	by := map[string]int64{}
	for _, r := range recs {
		if layer := layerOf(r.Stack()); layer != "" {
			by[layer] += r.InUseBytes()
		}
	}
	return by, heap
}

// adoptionRows are the adoption ledger's rows: the request ledger's
// layers and the unprofiled tiny allocations.
var adoptionRows = append(slices.Clone(ledgerLayers), "tiny")

// adoptionLedger is what measureAdoption reports, per adoption.
type adoptionLedger struct {
	rows           map[string]float64
	total, newFlow float64
	storeCmds      float64
	adoptions      int
}

// phaseCount is what one phase of measureAdoption allocated and sent.
type phaseCount struct {
	rows      map[string]int // by adoptionRows, and newFlowRow
	objects   int            // heap objects, tiny allocations included
	storeCmds int
}

// measureAdoption builds the bed, kills twice, and measures the second
// storm's adoptions against the probe. MemProfileRate must be 1.
func measureAdoption(t testing.TB, hybrid bool) adoptionLedger {
	b := newAdoptionBed(hybrid)
	b.openAll(256)
	b.kill(0)
	b.requestAll(b.orphans)
	b.kill(1)
	orphans := b.orphans
	if len(orphans) == 0 {
		t.Fatal("the killed instance held no flow")
	}
	phase := func() (c phaseCount) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		before := allocsByLayer()
		cmds0 := b.storeCmds()
		objects0, tiny0 := heapObjects()
		b.requestAll(orphans)
		objects, tiny := heapObjects()
		c.storeCmds = int(b.storeCmds() - cmds0)
		after := allocsByLayer()
		c.objects = int(objects-objects0) - (after[runtimeRow] - before[runtimeRow])
		c.rows = map[string]int{"tiny": int(tiny - tiny0)}
		for _, row := range append(ledgerLayers, newFlowRow) {
			c.rows[row] = after[row] - before[row]
		}
		return c
	}
	adopted0 := b.adopted()
	a := phase()
	n := int(b.adopted() - adopted0)
	if n != len(orphans) {
		t.Fatalf("%d orphans, %d adoptions", len(orphans), n)
	}
	p := phase()
	if b.adopted()-adopted0 != uint64(n) {
		t.Fatal("the probe adopted a flow")
	}
	per := func(a, p int) float64 { return float64(a-p) / float64(n) }
	l := adoptionLedger{
		adoptions: n,
		total:     per(a.objects, p.objects),
		storeCmds: per(a.storeCmds, p.storeCmds),
		newFlow:   per(a.rows[newFlowRow], p.rows[newFlowRow]),
		rows:      map[string]float64{},
	}
	for _, row := range adoptionRows {
		l.rows[row] = per(a.rows[row], p.rows[row])
	}
	return l
}

// heapObjects returns the heap objects allocated so far, tiny
// allocations included (runtime.MemStats.Mallocs, exact: reading it
// flushes every P's counts), and runtime/metrics' count of the tiny
// allocations packed into blocks, which the profile does not see.
func heapObjects() (objects, tiny uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/gc/heap/tiny/allocs:objects"}}
	metrics.Read(s)
	return ms.Mallocs, s[0].Value.Uint64()
}

// adoptionBed is the adoption ledger's cluster: four instances, two
// backends serving one 2 KiB object, two store servers, one VIP, and raw
// keep-alive client flows that send one request at a time.
type adoptionBed struct {
	c       *cluster.Cluster
	vip     netsim.HostPort
	body    []byte
	req     []byte
	hosts   []*netsim.Host
	flows   []*adoptionFlow
	orphans []*adoptionFlow // the flows the last kill orphaned
	waiting int
	failed  int
}

type adoptionFlow struct {
	conn   *tcp.Conn
	parser httpsim.ResponseParser
}

func newAdoptionBed(hybrid bool) *adoptionBed {
	c := cluster.New(7)
	if hybrid {
		c.EnableHybrid(0x9e3779b97f4a7c15)
	}
	body := bytes.Repeat([]byte("A"), 2<<10)
	objects := map[string][]byte{"/obj": body}
	c.AddBackend("srv-1", objects, httpsim.DefaultServerConfig())
	c.AddBackend("srv-2", objects, httpsim.DefaultServerConfig())
	c.AddStoreServers(2, memcache.DefaultSimServerConfig())
	cfg := core.DefaultConfig()
	cfg.FlowIdleTimeout = 10 * time.Minute // the held flows outlive the test
	c.AddYodaN(4, cfg, tcpstore.DefaultConfig())
	vip := c.AddVIP("svc")
	c.InstallPolicy(vip, c.SimpleSplitRules("srv-1", "srv-2"), nil)
	b := &adoptionBed{c: c, vip: netsim.HostPort{IP: vip, Port: 80}, body: body,
		req: httpsim.NewRequest("/obj", "svc").Marshal()}
	for range 8 {
		b.hosts = append(b.hosts, c.ClientHost())
	}
	return b
}

// openAll warms the bed with 64 flows that fetch once and close, then
// opens n keep-alive flows that fetch once and stay open.
func (b *adoptionBed) openAll(n int) {
	for i := range 64 {
		f := b.dial(i)
		b.settle()
		f.conn.Close()
	}
	b.openHeld(n, 0)
}

// openHeld opens n more keep-alive flows that fetch once and stay open,
// pace apart (at once if 0), and runs on until every close before them
// has lingered out.
func (b *adoptionBed) openHeld(n int, pace time.Duration) {
	for range n {
		b.flows = append(b.flows, b.dial(len(b.flows)))
		if pace > 0 {
			b.c.Net.RunFor(pace)
		}
	}
	b.settle()
	b.c.Net.RunFor(5 * time.Second)
}

// fetchAgain sends one more request on each of flows, pace apart, and
// runs on as openHeld does.
func (b *adoptionBed) fetchAgain(flows []*adoptionFlow, pace time.Duration) {
	for _, f := range flows {
		b.waiting++
		f.conn.Write(b.req)
		b.c.Net.RunFor(pace)
	}
	b.settle()
	b.c.Net.RunFor(5 * time.Second)
}

// dial opens flow i, from client host i mod 8, and sends its request.
func (b *adoptionBed) dial(i int) *adoptionFlow {
	f := &adoptionFlow{}
	b.waiting++
	f.conn = tcp.Dial(b.hosts[i%len(b.hosts)], b.vip, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) { c.Write(b.req) },
		OnData:        func(c *tcp.Conn, data []byte) { b.onData(f, data) },
		OnPeerClose:   func(c *tcp.Conn) { c.Close() },
		OnFail:        func(*tcp.Conn, error) { b.failed++ },
	}, tcp.DefaultConfig())
	return f
}

func (b *adoptionBed) onData(f *adoptionFlow, data []byte) {
	resps, err := f.parser.Feed(data)
	if err != nil {
		b.failed++
		return
	}
	for _, r := range resps {
		if r.StatusCode != 200 || !bytes.Equal(r.Body, b.body) {
			b.failed++
		}
		b.waiting--
	}
}

// settle runs the bed until every request has its response.
func (b *adoptionBed) settle() {
	for end := b.c.Net.Now() + time.Minute; b.waiting > 0 && b.c.Net.Now() < end; {
		b.c.Net.RunFor(10 * time.Millisecond)
	}
	if b.waiting > 0 || b.failed > 0 {
		panic(fmt.Sprintf("adoption bed: %d responses outstanding, %d failed", b.waiting, b.failed))
	}
}

// requestAll sends one request on each flow, 200 µs apart as
// held-failover paces its resume, and runs until every response has
// arrived.
func (b *adoptionBed) requestAll(flows []*adoptionFlow) {
	for i, f := range flows {
		b.waiting++
		b.c.Net.Schedule(time.Duration(i)*200*time.Microsecond, func() { f.conn.Write(b.req) })
	}
	b.settle()
}

// kill fails instance i and withdraws it from the muxes at once, as the
// controller's monitor would, once the last responses' ACKs have landed;
// orphans become the flows it held.
func (b *adoptionBed) kill(i int) {
	b.c.Net.RunFor(100 * time.Millisecond)
	ip := b.c.Yoda[i].IP()
	b.orphans = nil
	for _, f := range b.flows {
		if h, ok := b.c.L4.Holder(netsim.FourTuple{Src: f.conn.LocalAddr(), Dst: b.vip}); ok && h == ip {
			b.orphans = append(b.orphans, f)
		}
	}
	b.c.KillYoda(i)
	b.c.L4.RemoveInstance(ip)
}

func (b *adoptionBed) adopted() (n uint64) {
	for _, in := range b.c.Yoda {
		n += in.Recovered + in.DerivedRecoveries
	}
	return n
}

// storeCmds is the store commands the instances have sent.
func (b *adoptionBed) storeCmds() (n uint64) {
	for _, in := range b.c.Yoda {
		n += in.Store().Stats.RoundTrips
	}
	return n
}
