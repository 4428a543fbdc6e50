package reconfig_test

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/reconfig"
)

// BenchmarkReconfigMigration measures the engine end-to-end on a live
// simulated cluster: shrink a VIP from 4 instances to 2 under load and
// report migration throughput (flows migrated per second of wall time
// spent simulating) and the virtual drain latency per wave.
func BenchmarkReconfigMigration(b *testing.B) {
	var migrated uint64
	var virtualDur time.Duration
	for i := 0; i < b.N; i++ {
		opt := reconfig.Options{Delta: 0.5, DrainQuiet: 500 * time.Millisecond, DrainTimeout: 8 * time.Second}
		w := newMigrationWorld(b, int64(100+i), 4, opt)
		w.load(10, 10*time.Second)
		w.c.Net.RunFor(2 * time.Second)
		st := reconfig.State{
			Current: map[netsim.IP][]netsim.IP{w.vip: w.mapping[w.vip]},
			Target:  map[netsim.IP][]netsim.IP{w.vip: w.mapping[w.vip][:2]},
			Flows:   w.flowSnapshot(),
		}
		plan, err := reconfig.NewPlan(st, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.exec.Start(plan); err != nil {
			b.Fatal(err)
		}
		w.c.Net.RunFor(30 * time.Second)
		stats := w.exec.Stats()
		if stats.Running || w.failed != 0 {
			b.Fatalf("run %d: running=%v failed=%d", i, stats.Running, w.failed)
		}
		migrated += stats.MigratedFlows
		virtualDur += stats.Duration
	}
	sec := b.Elapsed().Seconds()
	if sec > 0 {
		b.ReportMetric(float64(migrated)/sec, "migrated_flows/s")
	}
	if b.N > 0 {
		b.ReportMetric(float64(virtualDur.Milliseconds())/float64(b.N), "drain_ms/op")
	}
}
