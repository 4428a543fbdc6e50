package controller

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/memcache"
	"repro/internal/tcpstore"
)

// TestLoopsHoldOneTimerEach: what the controller keeps for its loops is
// one pending tick each, however long it has run (it used to append every
// handle it ever armed), and Stop takes exactly those off the event queue.
func TestLoopsHoldOneTimerEach(t *testing.T) {
	c := cluster.New(1)
	c.AddStoreServers(1, memcache.DefaultSimServerConfig())
	c.AddYodaN(1, core.DefaultConfig(), tcpstore.DefaultConfig())
	ct := New(c, DefaultConfig())
	idle := c.Net.Pending()

	ct.Start()
	c.Net.RunFor(10000 * ct.cfg.PingInterval)
	if n := len(ct.timers); n != 3 {
		t.Fatalf("after 10^4 monitor ticks the controller holds %d timer handles, want 3", n)
	}
	for loop, tm := range ct.timers {
		if !tm.Active() {
			t.Errorf("loop %d has no pending tick", loop)
		}
	}
	if got := c.Net.Pending(); got != idle+3 {
		t.Errorf("%d events pending while running, want the %d idle ones + 3 ticks", got, idle)
	}
	ct.Stop()
	if got := c.Net.Pending(); got != idle {
		t.Errorf("%d events pending after Stop, want %d: controller events left behind", got, idle)
	}
}
