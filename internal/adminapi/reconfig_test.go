package adminapi_test

import (
	"encoding/json"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/adminapi"
)

// TestReconfigEndpoint applies a target assignment over the API and
// watches it complete through the status endpoint.
func TestReconfigEndpoint(t *testing.T) {
	w := newAPIWorld(t)
	if _, err := w.cl.Run(time.Second); err != nil {
		t.Fatal(err)
	}

	// Move the "shop" VIP from all 3 instances to the first 2.
	if err := w.cl.Reconfig(adminapi.ReconfigRequest{Assignments: map[string][]int{"shop": {0, 1}}}); err != nil {
		t.Fatal(err)
	}
	st, err := w.cl.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Done {
		t.Fatalf("reconfig done before the simulation advanced: %+v", st)
	}
	if _, err := w.cl.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, err = w.cl.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Done || st.Running {
		t.Fatalf("reconfig not done: %+v", st)
	}
	if st.MovesApplied != 1 || st.RulesRemoved != 1 {
		t.Fatalf("moves=%d rulesRemoved=%d, want 1/1", st.MovesApplied, st.RulesRemoved)
	}
	// The VIP listing reflects the shrink: rules only on two instances.
	vips, err := w.cl.VIPs()
	if err != nil {
		t.Fatal(err)
	}
	if len(vips) != 1 || len(vips[0].Instances) != 2 {
		t.Fatalf("vips = %+v, want shop on 2 instances", vips)
	}
}

// TestReconfigEndpointValidation rejects unknown services, bad indexes
// and empty requests.
func TestReconfigEndpointValidation(t *testing.T) {
	w := newAPIWorld(t)
	if err := w.cl.Reconfig(adminapi.ReconfigRequest{Assignments: map[string][]int{"nope": {0}}}); err == nil || !strings.Contains(err.Error(), "unknown service") {
		t.Fatalf("unknown service: %v", err)
	}
	if err := w.cl.Reconfig(adminapi.ReconfigRequest{Assignments: map[string][]int{"shop": {99}}}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("bad index: %v", err)
	}
	if err := w.cl.Reconfig(adminapi.ReconfigRequest{}); err == nil {
		t.Fatal("empty request accepted")
	}
}

// TestUpgradeEndpoint starts a rolling upgrade over the API and runs it
// to completion. The status describes the whole operation: running
// through the restart window, where a reconfiguration is refused with
// 409, and counters that sum every plan of the upgrade.
func TestUpgradeEndpoint(t *testing.T) {
	w := newAPIWorld(t)
	if _, err := w.cl.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	upgrade := adminapi.ReconfigRequest{Upgrade: true}
	if err := w.cl.Reconfig(upgrade); err != nil {
		t.Fatal(err)
	}
	// A second trigger while running is rejected.
	if err := w.cl.Reconfig(upgrade); err == nil {
		t.Fatal("concurrent upgrade accepted")
	}
	// Step into the first instance's restart window.
	var st adminapi.ReconfigStatus
	for i := 0; ; i++ {
		var err error
		if st, err = w.cl.ReconfigStatus(); err != nil {
			t.Fatal(err)
		}
		if st.Upgrade != nil && st.Upgrade.Phase == "restart" {
			break
		}
		if i == 300 {
			t.Fatalf("upgrade never reached its restart: %+v", st.Upgrade)
		}
		if _, err := w.cl.Run(100 * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if !st.Running || st.Done {
		t.Fatalf("status during the restart: running=%v done=%v, want running", st.Running, st.Done)
	}
	err := w.cl.Reconfig(adminapi.ReconfigRequest{Assignments: map[string][]int{"shop": {0, 1}}})
	if err == nil || !strings.Contains(err.Error(), "HTTP 409") {
		t.Fatalf("reconfig during the restart: %v, want HTTP 409", err)
	}
	if _, err := w.cl.Run(60 * time.Second); err != nil {
		t.Fatal(err)
	}
	st, err = w.cl.ReconfigStatus()
	if err != nil {
		t.Fatal(err)
	}
	if st.Upgrade == nil {
		t.Fatalf("no upgrade status: %+v", st)
	}
	up := st.Upgrade
	if !up.Done || up.Err != "" || up.Upgraded != 3 || up.Skipped != 0 {
		t.Fatalf("upgrade = %+v, want 3/3 done", up)
	}
	// δ = 0: each instance's drain and re-admission is one wave each.
	if !st.Done || st.Running || st.Waves != 6 || st.MovesApplied != 6 {
		t.Fatalf("top level = %+v, want the upgrade's 6 waves and moves", st)
	}
	insts, err := w.cl.Instances()
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		if !in.Alive || in.Rules == 0 {
			t.Fatalf("instance after upgrade: %+v", in)
		}
	}
	if keys := statusKeys(t, w); !keys["running"] || !keys["waves"] || !keys["migratedFlows"] || !keys["upgrade"] {
		t.Fatalf("status JSON keys %v", keys)
	}

	// A target reconfiguration afterwards is the last operation: no
	// upgrade object.
	if err := w.cl.Reconfig(adminapi.ReconfigRequest{Assignments: map[string][]int{"shop": {0, 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.cl.Run(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if keys := statusKeys(t, w); keys["upgrade"] || !keys["waves"] {
		t.Fatalf("status JSON keys after a target reconfig: %v", keys)
	}
}

// TestReconfigConcurrentRequests: start requests racing from several
// HTTP clients, beside status reads and a run, admit exactly one
// operation; the rest get 409.
func TestReconfigConcurrentRequests(t *testing.T) {
	w := newAPIWorld(t)
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		req := adminapi.ReconfigRequest{Upgrade: true}
		if i%2 == 1 {
			req = adminapi.ReconfigRequest{Assignments: map[string][]int{"shop": {0, 1}}}
		}
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			errs[i] = w.cl.Reconfig(req)
		}(i)
		go func() {
			defer wg.Done()
			if _, err := w.cl.ReconfigStatus(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := w.cl.Run(100 * time.Millisecond); err != nil {
			t.Error(err)
		}
	}()
	wg.Wait()
	started := 0
	for _, err := range errs {
		switch {
		case err == nil:
			started++
		case !strings.Contains(err.Error(), "HTTP 409"):
			t.Errorf("rejected start: %v, want HTTP 409", err)
		}
	}
	if started != 1 {
		t.Fatalf("%d of %d racing starts admitted, want 1", started, n)
	}
}

// statusKeys reads /v1/reconfig/status raw and returns its top-level
// JSON field names.
func statusKeys(t *testing.T, w *apiWorld) map[string]bool {
	t.Helper()
	resp, err := http.Get("http://" + w.srv.Addr() + "/v1/reconfig/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for k := range raw {
		keys[k] = true
	}
	return keys
}
