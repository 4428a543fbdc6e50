package controller_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/reconfig"
	"repro/internal/tcpstore"
)

// TestMonitorReadmitsRevivedInstance is the regression test for
// dead-instance permanence: the monitor marked instances dead forever,
// so a machine that came back (e.g. a reboot or healed partition) was
// never re-admitted. Now the monitor detects the revival, reinstalls the
// VIPs the instance held at death, and restores its L4 mappings.
func TestMonitorReadmitsRevivedInstance(t *testing.T) {
	w := newWorld(12, 3)
	w.c.Net.RunFor(time.Second)

	victim := w.c.Yoda[2]
	victim.Host().Detach() // partition, not process death: state survives
	w.c.Net.RunFor(2 * time.Second)
	if w.ct.Detections != 1 {
		t.Fatalf("detections = %d", w.ct.Detections)
	}
	for _, ip := range w.c.L4.Mapping(w.vip) {
		if ip == victim.IP() {
			t.Fatal("dead instance still mapped")
		}
	}

	victim.Host().Reattach()
	w.c.Net.RunFor(2 * time.Second)
	if w.ct.Revivals != 1 {
		t.Fatalf("revivals = %d, want 1", w.ct.Revivals)
	}
	found := false
	for _, ip := range w.c.L4.Mapping(w.vip) {
		if ip == victim.IP() {
			found = true
		}
	}
	if !found {
		t.Fatal("revived instance not re-admitted into the L4 mapping")
	}
	if !victim.HasVIP(w.vip) {
		t.Fatal("revived instance lost its rules")
	}
	// A second death is detected again (the dead-set entry was cleared).
	victim.Host().Detach()
	w.c.Net.RunFor(2 * time.Second)
	if w.ct.Detections != 2 {
		t.Fatalf("re-detection failed: detections = %d, want 2", w.ct.Detections)
	}
}

// TestRollingUpgradeZeroFailures drives the §7.5 path end-to-end at the
// controller level: a 3-instance fleet under continuous load is upgraded
// instance by instance with zero failed client requests.
func TestRollingUpgradeZeroFailures(t *testing.T) {
	w := newWorld(13, 3)

	done, errs := 0, 0
	stop := 25 * time.Second
	for p := 0; p < 8; p++ {
		p := p
		var loop func()
		loop = func() {
			if w.c.Net.Now() >= stop {
				return
			}
			w.fetch(&done, &errs)
			w.c.Net.Schedule(60*time.Millisecond, loop)
		}
		w.c.Net.Schedule(time.Duration(p)*23*time.Millisecond, loop)
	}

	before := append([]*core.Instance(nil), w.c.Yoda...)
	w.c.Net.Schedule(2*time.Second, func() {
		err := w.ct.StartRollingUpgrade(core.DefaultConfig(), tcpstore.DefaultConfig(), time.Second)
		if err != nil {
			t.Errorf("upgrade start: %v", err)
		}
	})
	w.c.Net.RunFor(stop + 35*time.Second)

	up := w.ct.ReconfigStats()
	if up.Running || up.Err != "" {
		t.Fatalf("upgrade not done: %+v", up)
	}
	if up.Upgraded != 3 || up.Skipped != 0 {
		t.Fatalf("upgraded %d/%d, skipped %d", up.Upgraded, up.Instances, up.Skipped)
	}
	restarts := 0
	for i, in := range w.c.Yoda {
		if in != before[i] {
			restarts++
		}
		if !in.Host().Alive() {
			t.Fatalf("instance %d dead after upgrade", i)
		}
		if !in.HasVIP(w.vip) {
			t.Fatalf("instance %d missing VIP rules after upgrade", i)
		}
	}
	if restarts != 3 {
		t.Fatalf("restarted incarnations = %d, want 3", restarts)
	}
	if up.BrokenFlows != 0 {
		t.Fatalf("broken flows during upgrade: %d", up.BrokenFlows)
	}
	if errs != 0 {
		t.Fatalf("%d/%d client requests failed during the rolling upgrade", errs, done)
	}
	if done == 0 {
		t.Fatal("no requests completed — workload never ran")
	}
	// Every instance ends mapped at L4.
	if m := w.c.L4.Mapping(w.vip); len(m) != 3 {
		t.Fatalf("final mapping %v, want all 3 instances", m)
	}
}

// TestReconfigRejectedDuringUpgrade: an upgrade holds the executor for
// its whole run, restart window included. A second upgrade requested
// while an instance is rebooting is refused with ErrBusy — not accepted
// over the running one, whose re-admission plan restores the pre-drain
// mapping.
func TestReconfigRejectedDuringUpgrade(t *testing.T) {
	const restartDelay = 2 * time.Second
	start := func() *world {
		w := newWorld(14, 3)
		w.c.Net.RunFor(time.Second)
		if err := w.ct.StartRollingUpgrade(core.DefaultConfig(), tcpstore.DefaultConfig(), restartDelay); err != nil {
			t.Fatal(err)
		}
		return w
	}
	// A first run finds when the first instance reboots. The simulator is
	// deterministic, so a second run is inside that instance's restart
	// window restartDelay/2 before then: drained, not yet rebooted.
	w := start()
	first := w.c.Yoda[0]
	for w.c.Yoda[0] == first {
		if w.c.Net.Now() > 30*time.Second {
			t.Fatalf("upgrade never restarted its first instance: %+v", w.ct.ReconfigStats())
		}
		w.c.Net.Step()
	}
	rebootAt := w.c.Net.Now()

	w = start()
	first = w.c.Yoda[0]
	before := w.c.L4.Mapping(w.vip)
	w.c.Net.RunFor(rebootAt - restartDelay/2 - w.c.Net.Now())
	if w.c.Yoda[0] != first || slices.Contains(w.c.L4.Mapping(w.vip), first.IP()) {
		t.Fatalf("at %v the first instance is not in its restart window (mapping %v)", w.c.Net.Now(), w.c.L4.Mapping(w.vip))
	}
	if !w.ct.ReconfigStats().Running {
		t.Fatal("executor idle during the upgrade's restart window")
	}
	if err := w.ct.StartRollingUpgrade(core.DefaultConfig(), tcpstore.DefaultConfig(), time.Second); !errors.Is(err, reconfig.ErrBusy) {
		t.Fatalf("second upgrade during the restart = %v, want ErrBusy", err)
	}
	w.c.Net.RunFor(60 * time.Second)

	up := w.ct.ReconfigStats()
	if up.Running || up.Err != "" || up.Upgraded != 3 {
		t.Fatalf("upgrade = %+v, want 3 upgraded, no error", up)
	}
	if got := w.c.L4.Mapping(w.vip); !sameIPs(got, before) {
		t.Fatalf("final mapping %v, want the pre-upgrade %v", got, before)
	}
}

func sameIPs(a, b []netsim.IP) bool {
	if len(a) != len(b) {
		return false
	}
	in := map[netsim.IP]bool{}
	for _, ip := range a {
		in[ip] = true
	}
	for _, ip := range b {
		if !in[ip] {
			return false
		}
	}
	return true
}
