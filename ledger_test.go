package yoda_test

import (
	"bytes"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	yoda "repro"
	"repro/internal/httpsim"
	"repro/internal/netsim"
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
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 5, DisableController: true})
	defer tb.Close()
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

	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	for range 2000 {
		// Warm the pools, the spares and the store connections, and let
		// the latency histograms see every distinct value they will see.
		fetch()
	}
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

// allocsByLayer returns the objects allocated so far, as the memory
// profile has them, by the innermost internal package on each stack.
func allocsByLayer() map[string]int {
	for range 3 { // the profile publishes a cycle's allocations two cycles on
		runtime.GC()
	}
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		panic("memory profile grew past its buffer")
	}
	by := map[string]int{}
	for _, r := range recs[:n] {
		if layer := layerOf(r.Stack()); layer != "" {
			by[layer] += int(r.AllocObjects)
		}
	}
	return by
}

// layerOf returns the ledger layer x of the innermost frame of stack in
// package repro/internal/x, or "other" for a stack of the module's code
// with no layer on it. A helper package that is no layer (metrics, say)
// is passed over: its allocation is its caller's. An allocation no frame
// of the module made (the runtime's, the testing package's) is no
// request's, and nor are the ledger's own in allocsByLayer: "".
func layerOf(stack []uintptr) string {
	frames := runtime.CallersFrames(stack)
	layer := ""
	for more := true; more; {
		var f runtime.Frame
		f, more = frames.Next()
		switch rest, internal := strings.CutPrefix(f.Function, "repro/internal/"); {
		case strings.HasSuffix(f.Function, ".allocsByLayer"):
			return ""
		case internal && (layer == "" || layer == "other"):
			if pkg, _, _ := strings.Cut(rest, "."); slices.Contains(ledgerLayers, pkg) {
				layer = pkg
			}
		case layer == "" && strings.HasPrefix(f.Function, "repro"):
			layer = "other"
		}
	}
	return layer
}
