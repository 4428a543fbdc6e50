// Ablation benchmarks for Yoda's design choices: what breaks (or what it
// costs) when a mechanism is weakened. These complement the figure
// benchmarks in bench_test.go; DESIGN.md lists the choices under test.
package yoda_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/assignment"
	"repro/internal/controller"
	"repro/internal/httpsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
	"repro/internal/testbed"
	"repro/internal/trace"
	"repro/internal/workload"
)

// BenchmarkAblationTCPStoreReplication quantifies the value of TCPStore's
// client-side replication: under a correlated failure (one Memcached
// server and then one Yoda instance), K=2 keeps every flow alive while
// K=1 breaks the flows whose only record lived on the dead server.
func BenchmarkAblationTCPStoreReplication(b *testing.B) {
	run := func(replicas int) (broken, total, recovered int) {
		scfg, ctCfg := tcpstore.DefaultConfig(), controller.DefaultConfig()
		scfg.Replicas = replicas
		ctCfg.ScaleInterval = 0
		tb := testbed.New(testbed.Config{
			Seed: 77, Objects: map[string][]byte{"/o": workload.SynthBody("/o", 80*1024)},
			Backends: 1, Stores: 3, LBs: 2, Store: &scfg, Controller: &ctCfg,
		})
		c := tb.C
		done := 0
		for i := 0; i < 12; i++ {
			cl := c.NewClient(httpsim.DefaultClientConfig())
			i := i
			c.Net.Schedule(time.Duration(i)*20*time.Millisecond, func() {
				cl.Get(tb.Addr, "/o", func(r *httpsim.FetchResult) {
					done++
					if r.Err != nil {
						broken++
					}
				})
			})
		}
		// Correlated failure: a store server dies, then the instance that
		// owns the flows. Recovery must come from the surviving replica.
		c.Net.Schedule(150*time.Millisecond, func() { c.StoreServers[0].Host().Detach() })
		c.Net.Schedule(320*time.Millisecond, func() { tb.FailBusiest(1) })
		c.Net.RunFor(2 * time.Minute)
		rec := 0
		for _, in := range c.Yoda {
			rec += int(in.Recovered)
		}
		return broken, done, rec
	}
	var b1, b2, t1, t2 int
	for i := 0; i < b.N; i++ {
		b1, t1, _ = run(1)
		b2, t2, _ = run(2)
	}
	b.ReportMetric(float64(b1)/float64(t1)*100, "broken-K1-%")
	b.ReportMetric(float64(b2)/float64(t2)*100, "broken-K2-%")
}

// BenchmarkAblationMigrationBudget sweeps δ (Eq. 6–7) over the trace:
// tighter budgets migrate fewer connections at a small instance-count
// premium. δ=0 means unlimited (Yoda-no-limit's constraint set with
// stickiness retained).
func BenchmarkAblationMigrationBudget(b *testing.B) {
	tr := trace.Generate(1)
	const windows = 24
	sweep := []float64{0, 0.02, 0.10, 0.30}
	type out struct{ migrated, instances float64 }
	var results map[float64]out
	for iter := 0; iter < b.N; iter++ {
		results = map[float64]out{}
		for _, delta := range sweep {
			var prev *assignment.Assignment
			migSum, instSum := 0.0, 0.0
			rounds := 0
			for w := 0; w < windows; w++ {
				p := tr.ProblemAt(w, 12000, 2000, 600, 4)
				p.Old = prev
				p.TransientCheck = prev != nil
				p.MigrationLimit = delta
				a, err := assignment.SolveGreedy(p)
				if err != nil {
					continue
				}
				if prev != nil {
					q := *p
					migSum += assignment.MigratedFraction(&q, a)
					instSum += float64(a.Used())
					rounds++
				}
				prev = a
			}
			if rounds > 0 {
				results[delta] = out{migrated: migSum / float64(rounds), instances: instSum / float64(rounds)}
			}
		}
	}
	for _, delta := range sweep {
		r := results[delta]
		name := fmt.Sprintf("migrated-δ=%.2f-%%", delta)
		b.ReportMetric(r.migrated*100, name)
		b.ReportMetric(r.instances, fmt.Sprintf("instances-δ=%.2f", delta))
	}
}

// BenchmarkAblationRuleCapacity sweeps R_y: smaller per-instance rule
// budgets cut lookup latency (Figure 6's linear scan) but cost instances.
func BenchmarkAblationRuleCapacity(b *testing.B) {
	tr := trace.Generate(1)
	sweep := []int{1000, 2000, 4000, 8000}
	var used map[int]int
	for iter := 0; iter < b.N; iter++ {
		used = map[int]int{}
		for _, ry := range sweep {
			p := tr.ProblemAt(0, 12000, ry, 900, 4)
			a, err := assignment.SolveGreedy(p)
			if err != nil {
				continue
			}
			used[ry] = a.Used()
		}
	}
	for _, ry := range sweep {
		b.ReportMetric(float64(used[ry]), fmt.Sprintf("instances-Ry=%d", ry))
		lat, _ := rules.LookupCost(ry)
		b.ReportMetric(float64(lat)/float64(time.Millisecond), fmt.Sprintf("lookup-ms-Ry=%d", ry))
	}
}

// BenchmarkAblationMonitorInterval sweeps the failure-detection period:
// slower monitors stretch recovery (the paper's 600 ms is the knee
// between repair traffic and recovery latency).
func BenchmarkAblationMonitorInterval(b *testing.B) {
	run := func(interval time.Duration) time.Duration {
		ctCfg := controller.DefaultConfig()
		ctCfg.PingInterval = interval
		ctCfg.ScaleInterval = 0
		tb := testbed.New(testbed.Config{
			Seed: 78, Objects: map[string][]byte{"/o": workload.SynthBody("/o", 120*1024)},
			Backends: 1, Stores: 2, LBs: 2, Controller: &ctCfg,
		})
		var res *httpsim.FetchResult
		tb.C.NewClient(httpsim.DefaultClientConfig()).Get(tb.Addr, "/o", func(r *httpsim.FetchResult) { res = r.Clone() })
		tb.C.Net.RunFor(200 * time.Millisecond)
		tb.FailBusiest(1)
		tb.C.Net.RunFor(time.Minute)
		if res == nil || res.Err != nil {
			return -1
		}
		return res.Elapsed()
	}
	var lat map[time.Duration]time.Duration
	sweep := []time.Duration{150 * time.Millisecond, 600 * time.Millisecond, 2400 * time.Millisecond}
	for i := 0; i < b.N; i++ {
		lat = map[time.Duration]time.Duration{}
		for _, iv := range sweep {
			lat[iv] = run(iv)
		}
	}
	for _, iv := range sweep {
		b.ReportMetric(lat[iv].Seconds(), fmt.Sprintf("fetch-s-ping=%v", iv))
	}
}
