// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each BenchmarkFigNN/BenchmarkTableNN runs the corresponding
// experiment end to end in the simulator and reports the headline numbers
// as custom benchmark metrics; run
//
//	go test -bench=. -benchmem
//
// and compare against EXPERIMENTS.md. Micro-benchmarks for the hot paths
// (rule scan, record codec, consistent hashing) follow at the bottom.
package yoda_test

import (
	"fmt"
	"strconv"
	"testing"
	"time"

	"repro/internal/assignment"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
	"repro/internal/trace"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkTable1ProxyFailureImpact regenerates Table 1: the user-visible
// impact of breaking one established connection per website profile.
func BenchmarkTable1ProxyFailureImpact(b *testing.B) {
	var last *experiments.Table1Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunTable1(1)
	}
	damaged := 0
	for _, row := range last.Rows {
		if row.HAProxyImpact != "" && row.YodaImpact != row.HAProxyImpact {
			damaged++
		}
	}
	b.ReportMetric(float64(damaged), "sites-damaged-haproxy")
	b.ReportMetric(float64(len(last.Rows)), "sites")
}

// BenchmarkFig6RuleLookupLatency regenerates Figure 6.
func BenchmarkFig6RuleLookupLatency(b *testing.B) {
	var last *experiments.Fig6Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig6(experiments.DefaultFig6Config())
	}
	b.ReportMetric(last.Ratio10Kto1K, "p90-ratio-10k/1k")
	b.ReportMetric(ms(last.Points[0].ModelP90), "p90-1k-ms")
	b.ReportMetric(ms(last.Points[len(last.Points)-1].ModelP90), "p90-10k-ms")
}

// BenchmarkFig9LatencyBreakdown regenerates Figure 9.
func BenchmarkFig9LatencyBreakdown(b *testing.B) {
	var last *experiments.Fig9Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig9(experiments.DefaultFig9Config())
	}
	b.ReportMetric(ms(last.Baseline), "baseline-ms")
	b.ReportMetric(ms(last.YodaTotal), "yoda-total-ms")
	b.ReportMetric(ms(last.HAProxyTotal), "haproxy-total-ms")
	b.ReportMetric(ms(2*last.YodaStorage), "storage-ms")
}

// BenchmarkFig10TCPStoreLatency regenerates Figures 10 and 11.
func BenchmarkFig10TCPStoreLatency(b *testing.B) {
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig10(experiments.DefaultFig10Config())
	}
	b.ReportMetric(last.OverheadAtMax*100, "replication-latency-overhead-%")
	b.ReportMetric(last.CPURatioAtMax, "replication-cpu-ratio")
	for _, p := range last.Points {
		if p.Replicas == 1 && p.RatePerServer == 40000 {
			b.ReportMetric(ms(p.SetMedian), "set-median-40k-ms")
		}
	}
}

// BenchmarkFig11TCPStoreCPU is an alias view of the Figure 11 half of the
// TCPStore experiment (CPU utilization of default vs replicated).
func BenchmarkFig11TCPStoreCPU(b *testing.B) {
	var last *experiments.Fig10Result
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultFig10Config()
		cfg.RatesPerServer = []int{40000}
		last = experiments.RunFig10(cfg)
	}
	for _, p := range last.Points {
		name := "cpu-default-%"
		if p.Replicas == 2 {
			name = "cpu-replicated-%"
		}
		b.ReportMetric(p.CPU*100, name)
	}
}

// BenchmarkYodaInstanceCPUOverhead regenerates the §7.1 CPU comparison.
func BenchmarkYodaInstanceCPUOverhead(b *testing.B) {
	var last *experiments.CPUResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunCPU(experiments.DefaultCPUConfig())
	}
	b.ReportMetric(float64(last.YodaSaturationRate), "yoda-saturation-req/s")
	b.ReportMetric(last.HAProxyCPUAtSaturation*100, "haproxy-cpu-at-saturation-%")
}

// BenchmarkFig12FailureRecovery regenerates Figure 12(a).
func BenchmarkFig12FailureRecovery(b *testing.B) {
	var last *experiments.Fig12Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig12(experiments.DefaultFig12Config())
	}
	b.ReportMetric(last.Yoda.BrokenFrac*100, "yoda-broken-%")
	b.ReportMetric(last.HAProxyNoRetry.BrokenFrac*100, "haproxy-noretry-broken-%")
	b.ReportMetric(last.Yoda.MaxExtra.Seconds(), "yoda-max-extra-s")
	b.ReportMetric(last.HAProxyRetry.Latency.Max().Seconds(), "haproxy-retry-max-s")
}

// BenchmarkFig12bFlowTimeline regenerates the Figure 12(b) packet trace.
func BenchmarkFig12bFlowTimeline(b *testing.B) {
	var last *experiments.Fig12bResult
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig12b(1)
	}
	rec := 0.0
	if last.Recovered {
		rec = 1
	}
	b.ReportMetric(rec, "recovered")
	b.ReportMetric(float64(len(last.Events)), "trace-events")
}

// BenchmarkFig13Scalability regenerates Figure 13.
func BenchmarkFig13Scalability(b *testing.B) {
	var last *experiments.Fig13Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig13(experiments.DefaultFig13Config())
	}
	b.ReportMetric(float64(last.InstancesAdded), "instances-added")
	b.ReportMetric(float64(last.Broken), "broken-flows")
}

// BenchmarkFig14PolicyUpdate regenerates Figure 14.
func BenchmarkFig14PolicyUpdate(b *testing.B) {
	var last *experiments.Fig14Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig14(experiments.DefaultFig14Config())
	}
	b.ReportMetric(float64(last.Broken), "broken-flows")
	b.ReportMetric(last.PhaseFractions[3]["Srv-4"]*100, "srv4-final-share-%")
}

// BenchmarkFig15CostReduction regenerates Figure 15.
func BenchmarkFig15CostReduction(b *testing.B) {
	var last *experiments.Fig15Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig15(1)
	}
	b.ReportMetric(last.Stats.Mean, "mean-max/avg")
	b.ReportMetric(last.Stats.Max, "max-max/avg")
	b.ReportMetric(last.Stats.Min, "min-max/avg")
}

// BenchmarkFig16Assignment regenerates Figure 16(b)–(e) over the full
// 24-hour trace.
func BenchmarkFig16Assignment(b *testing.B) {
	var last *experiments.Fig16Result
	for i := 0; i < b.N; i++ {
		last = experiments.RunFig16(1)
	}
	b.ReportMetric(last.MedianRulesFrac*100, "rules-frac-%")
	b.ReportMetric(last.MeanInstanceOverheadVsAllToAll*100, "inst-overhead-%")
	b.ReportMetric(last.MedianNoLimitMigrated*100, "nolimit-migrated-%")
	b.ReportMetric(last.MedianLimitMigrated*100, "limit-migrated-%")
	b.ReportMetric(last.MedianNoLimitOverloaded*100, "nolimit-overloaded-%")
	b.ReportMetric(last.MedianLimitOverloaded*100, "limit-overloaded-%")
}

// BenchmarkAssignmentSolve measures one Figure-7 solve at trace scale
// (the paper reports 1.5–21.5 s with CPLEX; the greedy solver is the
// substitution documented in DESIGN.md).
func BenchmarkAssignmentSolve(b *testing.B) {
	tr := trace.Generate(1)
	p := tr.ProblemAt(0, 12000, 2000, 600, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assignment.SolveGreedy(p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks on hot paths ---

// BenchmarkRuleLookup1K measures one linear scan over 1K rules.
func BenchmarkRuleLookup1K(b *testing.B) { benchRuleLookup(b, 1000) }

// BenchmarkRuleLookup10K measures one linear scan over 10K rules.
func BenchmarkRuleLookup10K(b *testing.B) { benchRuleLookup(b, 10000) }

func benchRuleLookup(b *testing.B, n int) {
	backend := rules.Backend{Name: "x", Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 1), Port: 80}}
	rs := make([]rules.Rule, 0, n)
	for i := 0; i < n; i++ {
		rs = append(rs, rules.Rule{
			Name: fmt.Sprintf("r%d", i), Priority: n - i,
			Match: rules.Match{URLGlob: fmt.Sprintf("/t%d/*.php", i)},
			Action: rules.Action{Type: rules.ActionSplit,
				Split: []rules.WeightedBackend{{Backend: backend, Weight: 1}}},
		})
	}
	e := rules.NewEngine(rs)
	req := httpsim.NewRequest("/assets/logo.jpg", "svc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Select(req, 0.5, nil)
	}
}

// BenchmarkFlowRecordMarshal measures the TCPStore record codec.
func BenchmarkFlowRecordMarshal(b *testing.B) {
	r := &core.Record{
		Phase:     core.PhaseTunnel,
		Client:    netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
		VIP:       netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
		ClientISN: 12345,
		Server:    netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 9), Port: 80},
		SNAT:      netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 22001},
		C:         777, S: 888, Delta: 0xFFFFFF91, // 777-888 mod 2^32
		BackendName: "srv-9",
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := r.Marshal()
		if _, err := core.UnmarshalRecord(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConsistentHashPick measures TCPStore's replica selection.
func BenchmarkConsistentHashPick(b *testing.B) {
	servers := make([]netsim.HostPort, 10)
	for i := range servers {
		servers[i] = netsim.HostPort{IP: netsim.IPv4(10, 0, 3, byte(i+1)), Port: 11211}
	}
	ring := tcpstore.NewRing(servers)
	var picks []netsim.HostPort
	key := []byte("flow:")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key = strconv.AppendInt(key[:5], int64(i), 10)
		picks = ring.PickInto(picks[:0], key, 2)
	}
}

// BenchmarkSimulatorThroughput measures raw event throughput of the
// discrete-event core (events/op reported as ns/op context).
func BenchmarkSimulatorThroughput(b *testing.B) {
	n := netsim.New(1)
	dst := netsim.IPv4(10, 0, 0, 2)
	n.Attach(dst, netsim.NodeFunc(func(p *netsim.Packet) {}))
	pkt := &netsim.Packet{
		Src: netsim.HostPort{IP: netsim.IPv4(10, 0, 0, 1), Port: 1},
		Dst: netsim.HostPort{IP: dst, Port: 2},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Send(pkt)
		n.Step()
	}
}
