package rules

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/httpsim"
	"repro/internal/netsim"
)

// referenceSelect is an independent, deliberately naive re-implementation
// of the selection semantics, used as a differential oracle: sort rules
// by priority (stable), walk them, and apply the same action semantics.
// It shares no code with Engine.Select beyond the Rule types and
// pickSplit. It also returns the number of rules examined, to pin the
// compiled engine's scan-equivalent Scanned accounting.
func referenceSelect(rs []Rule, tables map[string]map[string]Backend, req *httpsim.Request, rnd float64, info BackendInfo) (Backend, bool, int) {
	if info == nil {
		info = allAlive{}
	}
	// Stable sort by priority descending (insertion order preserved).
	sorted := append([]Rule(nil), rs...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Priority > sorted[j-1].Priority; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	scanned := 0
	for _, r := range sorted {
		scanned++
		if !r.Match.Matches(req) {
			continue
		}
		switch r.Action.Type {
		case ActionTable:
			key := req.Cookie(r.Action.TableCookie)
			if key == "" {
				continue
			}
			if b, ok := tables[r.Action.Table][key]; ok && info.Alive(b) {
				return b, true, scanned
			}
		case ActionSplit:
			if b, ok := pickSplit(r.Action.Split, rnd, info); ok {
				return b, true, scanned
			}
		}
	}
	return Backend{}, false, len(sorted)
}

// diffBackends is the backend pool the differential generators draw from.
func diffBackends() []Backend {
	backends := make([]Backend, 6)
	for i := range backends {
		backends[i] = Backend{
			Name: fmt.Sprintf("B%d", i),
			Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, byte(i+1)), Port: 80},
		}
	}
	return backends
}

// diffGlobs exercises every index bucket: literal, prefix, suffix,
// middle-star (prefix-anchored), '?' (residual), catch-all, empty.
var diffGlobs = []string{
	"*", "", "*.jpg", "*.css", "/api/*", "/img/*.png", "*.php",
	"/exact/path", "/a?c/*", "*x*y*", "/api/*/detail",
}

var diffPaths = []string{
	"/a.jpg", "/style.css", "/api/v1/users", "/img/x.png", "/index.php",
	"/plain", "/exact/path", "/abc/z", "/axbyc", "/api/v1/detail", "",
}

var diffHosts = []string{"", "svc", "other.com", "tenant-a"}
var diffMethods = []string{"", "GET", "POST", "PUT"}

// randomDiffTable generates a random rule table plus learned sticky
// bindings and health, shared by the differential test and fuzz target.
func randomDiffTable(rng *rand.Rand, backends []Backend) ([]Rule, *Engine, map[string]map[string]Backend, *StaticInfo) {
	nRules := 1 + rng.Intn(12)
	rs := make([]Rule, 0, nRules)
	for i := 0; i < nRules; i++ {
		r := Rule{
			Name:     fmt.Sprintf("r%d", i),
			Priority: rng.Intn(5),
			Match:    Match{URLGlob: diffGlobs[rng.Intn(len(diffGlobs))]},
		}
		if rng.Intn(3) == 0 {
			r.Match.Host = diffHosts[1+rng.Intn(len(diffHosts)-1)]
		}
		if rng.Intn(4) == 0 {
			r.Match.Method = diffMethods[1+rng.Intn(len(diffMethods)-1)]
		}
		if rng.Intn(5) == 0 {
			r.Match.CookieName = "session"
		}
		if rng.Intn(6) == 0 {
			r.Match.HeaderName = "Accept-Language"
			r.Match.HeaderGlob = "en*"
		}
		if rng.Intn(6) == 0 {
			r.Action = Action{Type: ActionTable, Table: "tab", TableCookie: "session"}
		} else {
			n := 1 + rng.Intn(3)
			var split []WeightedBackend
			allLL := rng.Intn(6) == 0
			for k := 0; k < n; k++ {
				w := float64(rng.Intn(4)) // includes degenerate weight 0
				if allLL {
					w = -1
				}
				split = append(split, WeightedBackend{
					Backend: backends[rng.Intn(len(backends))],
					Weight:  w,
				})
			}
			r.Action = Action{Type: ActionSplit, Split: split}
		}
		rs = append(rs, r)
	}
	e := NewEngine(rs)
	tables := map[string]map[string]Backend{"tab": {}}
	if rng.Intn(2) == 0 {
		b := backends[rng.Intn(len(backends))]
		e.Learn("tab", "u1", b)
		tables["tab"]["u1"] = b
	}
	info := &StaticInfo{Dead: map[string]bool{}, Loads: map[string]float64{}}
	for _, b := range backends {
		if rng.Intn(5) == 0 {
			info.Dead[b.Name] = true
		}
		info.Loads[b.Name] = rng.Float64()
	}
	return rs, e, tables, info
}

func randomDiffRequest(rng *rand.Rand) *httpsim.Request {
	req := &httpsim.Request{Path: diffPaths[rng.Intn(len(diffPaths))], Version: "HTTP/1.1"}
	req.Method = diffMethods[rng.Intn(len(diffMethods))]
	if host := diffHosts[rng.Intn(len(diffHosts))]; host != "" {
		req.SetHeader("Host", host)
	}
	if rng.Intn(2) == 0 {
		req.SetHeader("Cookie", "session=u1")
	}
	if rng.Intn(3) == 0 {
		req.SetHeader("Accept-Language", "en-GB,en;q=0.9")
	}
	return req
}

// checkDifferential runs one table×request probe through the compiled
// Select, the retained SelectLinear, and the independent oracle, and
// fails on any divergence including the Scanned count.
func checkDifferential(t *testing.T, trial int, rs []Rule, e *Engine,
	tables map[string]map[string]Backend, req *httpsim.Request, rnd float64, info *StaticInfo) {
	t.Helper()
	got := e.Select(req, rnd, info)
	lin := e.SelectLinear(req, rnd, info)
	if got.OK != lin.OK || got.Backend != lin.Backend || got.Scanned != lin.Scanned || got.Rule != lin.Rule {
		t.Fatalf("trial %d: compiled vs linear diverged:\n rules=%v\n req=%s %s host=%q cookie=%q rnd=%v dead=%v\n compiled=%+v\n linear=%+v",
			trial, rs, req.Method, req.Path, req.Header("Host"), req.Header("Cookie"), rnd, info.Dead, got, lin)
	}
	wantB, wantOK, wantScanned := referenceSelect(rs, tables, req, rnd, info)
	if got.OK != wantOK || got.Backend != wantB || got.Scanned != wantScanned {
		t.Fatalf("trial %d: compiled vs oracle diverged:\n rules=%v\n req=%s %s host=%q cookie=%q rnd=%v dead=%v\n compiled=(%v,%v,scanned=%d) oracle=(%v,%v,scanned=%d)",
			trial, rs, req.Method, req.Path, req.Header("Host"), req.Header("Cookie"), rnd, info.Dead,
			got.Backend, got.OK, got.Scanned, wantB, wantOK, wantScanned)
	}
}

// TestDifferentialAgainstReference fuzzes random rule tables and requests
// and checks the compiled Engine.Select against both the retained linear
// scan and the independent oracle, Scanned included.
func TestDifferentialAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	backends := diffBackends()
	for trial := 0; trial < 1500; trial++ {
		rs, e, tables, info := randomDiffTable(rng, backends)
		req := randomDiffRequest(rng)
		rnd := rng.Float64()
		checkDifferential(t, trial, rs, e, tables, req, rnd, info)
	}
}

// TestDifferentialAcrossUpdate re-runs probes after rule updates on the
// same engine: the recompiled index and the sticky-hygiene pass must not
// change selection for tables that still reference the learned backends.
func TestDifferentialAcrossUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	backends := diffBackends()
	for trial := 0; trial < 300; trial++ {
		rs, e, tables, info := randomDiffTable(rng, backends)
		// Update to a fresh random table on the same engine.
		rs2 := rs
		if rng.Intn(2) == 0 {
			rs2, _, _, _ = randomDiffTable(rng, backends)
			if err := e.Update(rs2); err != nil {
				t.Fatalf("trial %d: update: %v", trial, err)
			}
			// Mirror the hygiene pass in the oracle's view of the tables.
			live := map[Backend]bool{}
			anySplit := false
			tableLive := map[string]bool{}
			for _, r := range rs2 {
				if r.Action.Type == ActionSplit {
					anySplit = true
					for _, wb := range r.Action.Split {
						live[wb.Backend] = true
					}
				}
				if r.Action.Type == ActionTable {
					tableLive[r.Action.Table] = true
				}
			}
			for name, tab := range tables {
				if !tableLive[name] {
					delete(tables, name)
					continue
				}
				if !anySplit {
					continue
				}
				for k, b := range tab {
					if !live[b] {
						delete(tab, k)
					}
				}
			}
		}
		req := randomDiffRequest(rng)
		rnd := rng.Float64()
		checkDifferential(t, trial, rs2, e, tables, req, rnd, info)
	}
}
