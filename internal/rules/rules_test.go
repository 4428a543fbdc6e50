package rules

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/httpsim"
	"repro/internal/netsim"
)

func be(name string, last byte) Backend {
	return Backend{Name: name, Addr: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, last), Port: 80}}
}

var (
	d1 = be("D1", 1)
	d2 = be("D2", 2)
	d3 = be("D3", 3)
	d4 = be("D4", 4)
)

func req(path string) *httpsim.Request { return httpsim.NewRequest(path, "mysite.com") }

func TestGlob(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*.jpg", "/images/cat.jpg", true},
		{"*.jpg", "/images/cat.jpeg", false},
		{"*", "", true},
		{"*", "anything", true},
		{"/news/*", "/news/2016/april", true},
		{"/news/*", "/sports/news", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"*x*y*", "axbyc", true},
		{"*x*y*", "aybxc", false},
		{"", "", true},
		{"", "a", false},
		{"abc", "abc", true},
		{"en-GB*", "en-GB,en;q=0.9", true},
	}
	for _, c := range cases {
		if got := Glob(c.pat, c.s); got != c.want {
			t.Errorf("Glob(%q,%q) = %v, want %v", c.pat, c.s, got, c.want)
		}
	}
}

func TestGlobProperties(t *testing.T) {
	// A pattern equal to the string always matches when it has no
	// metacharacters; "*" matches everything; pattern+"*" matches any
	// extension of the string.
	f := func(s, suffix string) bool {
		if strings.ContainsAny(s, "*?") {
			return true
		}
		return Glob(s, s) && Glob("*", s) && Glob(s+"*", s+suffix)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchFields(t *testing.T) {
	r := req("/a/b.css")
	r.SetHeader("Cookie", "session=xyz")
	r.SetHeader("Accept-Language", "en-GB")

	cases := []struct {
		m    Match
		want bool
	}{
		{Match{}, true},
		{Match{URLGlob: "*.css"}, true},
		{Match{URLGlob: "*.jpg"}, false},
		{Match{Host: "mysite.com"}, true},
		{Match{Host: "other.com"}, false},
		{Match{Method: "GET"}, true},
		{Match{Method: "POST"}, false},
		{Match{CookieName: "session"}, true},
		{Match{CookieName: "absent"}, false},
		{Match{CookieName: "session", CookieGlob: "x*"}, true},
		{Match{CookieName: "session", CookieGlob: "z*"}, false},
		{Match{HeaderName: "Accept-Language", HeaderGlob: "en-GB*"}, true},
		{Match{HeaderName: "Accept-Language", HeaderGlob: "fr*"}, false},
		{Match{HeaderName: "X-Absent"}, false},
	}
	for i, c := range cases {
		if got := c.m.Matches(r); got != c.want {
			t.Errorf("case %d: %+v = %v, want %v", i, c.m, got, c.want)
		}
	}
}

func TestPriorityOrdering(t *testing.T) {
	e := NewEngine([]Rule{
		{Name: "low", Priority: 1, Match: Match{URLGlob: "*"}, Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}}},
		{Name: "high", Priority: 5, Match: Match{URLGlob: "*"}, Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d2, 1}}}},
	})
	d := e.Select(req("/x"), 0.3, nil)
	if !d.OK || d.Backend != d2 || d.Rule.Name != "high" {
		t.Fatalf("decision: %+v", d)
	}
	if d.Scanned != 1 {
		t.Fatalf("scanned = %d, want 1 (high priority first)", d.Scanned)
	}
}

func TestPriorityStableWithinLevel(t *testing.T) {
	e := NewEngine([]Rule{
		{Name: "first", Priority: 3, Match: Match{URLGlob: "*.css"}, Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}}},
		{Name: "second", Priority: 3, Match: Match{URLGlob: "*"}, Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d2, 1}}}},
	})
	if d := e.Select(req("/a.css"), 0, nil); d.Backend != d1 {
		t.Fatalf("same-priority rules reordered: %+v", d)
	}
}

func TestWeightedSplitFractions(t *testing.T) {
	e := NewEngine([]Rule{{
		Name: "r-jpg2", Priority: 3, Match: Match{URLGlob: "*.jpg"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d2, 0.5}, {d3, 0.5}}},
	}})
	rng := rand.New(rand.NewSource(1))
	counts := map[string]int{}
	const N = 10000
	for i := 0; i < N; i++ {
		d := e.Select(req("/img/x.jpg"), rng.Float64(), nil)
		if !d.OK {
			t.Fatal("no match")
		}
		counts[d.Backend.Name]++
	}
	for _, name := range []string{"D2", "D3"} {
		frac := float64(counts[name]) / N
		if frac < 0.47 || frac > 0.53 {
			t.Errorf("%s fraction %.3f, want ~0.5", name, frac)
		}
	}
}

func TestUnequalWeights(t *testing.T) {
	// Figure 14's final state: 1:1:2 split.
	e := NewEngine([]Rule{{
		Name: "w", Priority: 1, Match: Match{URLGlob: "*"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d2, 1}, {d3, 1}, {d4, 2}}},
	}})
	rng := rand.New(rand.NewSource(2))
	counts := map[string]int{}
	const N = 20000
	for i := 0; i < N; i++ {
		counts[e.Select(req("/"), rng.Float64(), nil).Backend.Name]++
	}
	if f := float64(counts["D4"]) / N; f < 0.47 || f > 0.53 {
		t.Errorf("D4 fraction %.3f, want ~0.5", f)
	}
	if f := float64(counts["D2"]) / N; f < 0.22 || f > 0.28 {
		t.Errorf("D2 fraction %.3f, want ~0.25", f)
	}
}

func TestPrimaryBackupFallthrough(t *testing.T) {
	// Rules 2 and 3 of Table 3: same match, priorities 3 and 2.
	e := NewEngine([]Rule{
		{Name: "r-css1", Priority: 3, Match: Match{URLGlob: "*.css"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}}},
		{Name: "r-css2", Priority: 2, Match: Match{URLGlob: "*.css"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d3, 0.5}, {d4, 0.5}}}},
	})
	// Primary alive: everything goes to D1.
	if d := e.Select(req("/style.css"), 0.9, nil); d.Backend != d1 {
		t.Fatalf("primary not used: %+v", d)
	}
	// Primary dead: fall through to the backup rule.
	info := &StaticInfo{Dead: map[string]bool{"D1": true}}
	d := e.Select(req("/style.css"), 0.9, info)
	if !d.OK || (d.Backend != d3 && d.Backend != d4) {
		t.Fatalf("backup not used: %+v", d)
	}
	if d.Rule.Name != "r-css2" {
		t.Fatalf("wrong rule: %s", d.Rule.Name)
	}
}

func TestLeastLoaded(t *testing.T) {
	e := NewEngine([]Rule{{
		Name: "ll", Priority: 1, Match: Match{URLGlob: "*"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, -1}, {d2, -1}, {d3, -1}}},
	}})
	info := &StaticInfo{Loads: map[string]float64{"D1": 0.9, "D2": 0.2, "D3": 0.5}}
	if d := e.Select(req("/"), 0.99, info); d.Backend != d2 {
		t.Fatalf("least loaded: %+v", d)
	}
	// Least-loaded must skip dead backends.
	info.Dead = map[string]bool{"D2": true}
	if d := e.Select(req("/"), 0.99, info); d.Backend != d3 {
		t.Fatalf("least loaded with dead: %+v", d)
	}
}

func TestStickySessions(t *testing.T) {
	e := NewEngine([]Rule{
		{Name: "r-cookie", Priority: 5, Match: Match{CookieName: "session"},
			Action: Action{Type: ActionTable, Table: "cookie-table", TableCookie: "session"}},
		{Name: "default", Priority: 0, Match: Match{URLGlob: "*"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 0.5}, {d2, 0.5}}}},
	})
	r := req("/account")
	r.SetHeader("Cookie", "session=user42")
	// Unlearned session: falls through to the split.
	d := e.Select(r, 0.1, nil)
	if !d.OK || d.Rule.Name != "default" {
		t.Fatalf("fallthrough: %+v", d)
	}
	// Learn and re-select: pinned.
	e.Learn("cookie-table", "user42", d3)
	for i := 0; i < 5; i++ {
		d = e.Select(r, float64(i)/5, nil)
		if d.Backend != d3 || d.Rule.Name != "r-cookie" {
			t.Fatalf("sticky not honoured: %+v", d)
		}
	}
	// Pinned backend dies: fall through again.
	info := &StaticInfo{Dead: map[string]bool{"D3": true}}
	d = e.Select(r, 0.1, info)
	if d.Rule.Name != "default" {
		t.Fatalf("dead pin not bypassed: %+v", d)
	}
}

func TestNoMatch(t *testing.T) {
	e := NewEngine([]Rule{{
		Name: "only-jpg", Priority: 1, Match: Match{URLGlob: "*.jpg"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}},
	}})
	d := e.Select(req("/page.html"), 0.5, nil)
	if d.OK {
		t.Fatalf("unexpected match: %+v", d)
	}
	if d.Scanned != 1 {
		t.Fatalf("scanned = %d", d.Scanned)
	}
}

func TestScannedCountsLinearScan(t *testing.T) {
	var rs []Rule
	for i := 0; i < 100; i++ {
		rs = append(rs, Rule{
			Name: fmt.Sprintf("r%d", i), Priority: 100 - i,
			Match:  Match{URLGlob: fmt.Sprintf("/only-%d/*", i)},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}},
		})
	}
	e := NewEngine(rs)
	d := e.Select(req("/only-99/x"), 0.5, nil)
	if !d.OK || d.Scanned != 100 {
		t.Fatalf("scanned = %d ok=%v, want full scan of 100", d.Scanned, d.OK)
	}
}

func TestUpdatePreservesStickyTables(t *testing.T) {
	e := NewEngine([]Rule{{
		Name: "t", Priority: 1, Match: Match{CookieName: "s"},
		Action: Action{Type: ActionTable, Table: "tab", TableCookie: "s"},
	}})
	e.Learn("tab", "u1", d2)
	e.Update(append([]Rule(nil), e.rules...)) // policy refresh
	r := req("/")
	r.SetHeader("Cookie", "s=u1")
	if d := e.Select(r, 0, nil); d.Backend != d2 {
		t.Fatalf("sticky lost across update: %+v", d)
	}
}

func TestParseRules(t *testing.T) {
	resolve := func(name string) (Backend, bool) {
		switch name {
		case "D1":
			return d1, true
		case "D2":
			return d2, true
		case "D3":
			return d3, true
		case "D4":
			return d4, true
		}
		return Backend{}, false
	}
	text := `
# Table 3 of the paper
rule r-jpg2 prio=3 url=*.jpg split=D2:0.5,D3:0.5
rule r-css1 prio=3 url=*.css split=D1:1
rule r-css2 prio=2 url=*.css split=D3:0.5,D4:0.5
rule r-cookie prio=0 cookie=session table=cookie-table:session
rule r-ll prio=1 url=/api/* split=D1:-1,D2:-1
rule r-hdr prio=4 header=Accept-Language:en-GB* split=D1:1
`
	rs, err := ParseRules(text, resolve)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 6 {
		t.Fatalf("parsed %d rules", len(rs))
	}
	if rs[0].Name != "r-jpg2" || rs[0].Priority != 3 || len(rs[0].Action.Split) != 2 {
		t.Fatalf("rule 0: %+v", rs[0])
	}
	if rs[3].Action.Type != ActionTable || rs[3].Action.Table != "cookie-table" {
		t.Fatalf("rule 3: %+v", rs[3])
	}
	if rs[4].Action.Split[0].Weight != -1 {
		t.Fatalf("rule 4 weight: %+v", rs[4])
	}
	if rs[5].Match.HeaderName != "Accept-Language" || rs[5].Match.HeaderGlob != "en-GB*" {
		t.Fatalf("rule 5 match: %+v", rs[5])
	}
	// Round-trip through String + ParseRules.
	var b strings.Builder
	for _, r := range rs {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	rs2, err := ParseRules(b.String(), resolve)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(rs2) != len(rs) {
		t.Fatalf("round trip lost rules: %d vs %d", len(rs2), len(rs))
	}
}

func TestParseRuleErrors(t *testing.T) {
	resolve := func(string) (Backend, bool) { return Backend{}, false }
	cases := []string{
		"not-a-rule x y",
		"rule r prio=abc split=D1:1",
		"rule r prio=1",                    // no action
		"rule r prio=1 split=Unknown:1",    // unknown backend
		"rule r prio=1 split=D1:-2",        // bad weight
		"rule r prio=1 table=justtable",    // missing cookie
		"rule r prio=1 bogus=1 split=D1:1", // unknown field
	}
	for _, c := range cases {
		if _, err := ParseRules(c, resolve); err == nil {
			t.Errorf("no error for %q", c)
		}
	}
}

func TestSelectZeroAllocsCookieFree(t *testing.T) {
	// The compiled selection path must not allocate for cookie-free
	// requests: index lookups hit reusable scratch, pickSplit is two-pass,
	// and header lookups take the exact-key map path. This is the alloc
	// budget BENCH_core.json records.
	e := NewEngine([]Rule{
		{Name: "h", Priority: 9, Match: Match{Host: "other.com"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}}},
		{Name: "m", Priority: 8, Match: Match{Method: "POST"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}}},
		{Name: "lit", Priority: 7, Match: Match{URLGlob: "/exact"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}}},
		{Name: "pre", Priority: 6, Match: Match{URLGlob: "/api/*"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}, {d2, 2}}}},
		{Name: "suf", Priority: 5, Match: Match{URLGlob: "*.jpg"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d3, 1}}}},
		{Name: "cookie", Priority: 4, Match: Match{CookieName: "session"},
			Action: Action{Type: ActionTable, Table: "tab", TableCookie: "session"}},
		{Name: "default", Priority: 0, Match: Match{URLGlob: "*"},
			Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d4, 1}}}},
	})
	info := &StaticInfo{Loads: map[string]float64{}}
	reqs := []*httpsim.Request{req("/a.jpg"), req("/api/v2/x"), req("/exact"), req("/none")}
	if avg := testing.AllocsPerRun(200, func() {
		for _, r := range reqs {
			if d := e.Select(r, 0.7, info); !d.OK {
				t.Fatal("no match")
			}
		}
	}); avg != 0 {
		t.Fatalf("Select allocates %.1f times per run on the cookie-free path, want 0", avg)
	}
}

func TestMixedWeightsRejected(t *testing.T) {
	mixed := []Rule{{
		Name: "m", Priority: 1, Match: Match{URLGlob: "*"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, -1}, {d2, 2}}},
	}}
	if err := ValidateRules(mixed); err == nil {
		t.Fatal("ValidateRules accepted a -1/positive mix")
	}
	// Update must reject and leave the previous table serving.
	e := NewEngine([]Rule{{
		Name: "ok", Priority: 1, Match: Match{URLGlob: "*"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 1}}},
	}})
	if err := e.Update(mixed); err == nil {
		t.Fatal("Update accepted a -1/positive mix")
	}
	if d := e.Select(req("/x"), 0.5, nil); !d.OK || d.Backend != d1 {
		t.Fatalf("previous table not preserved after rejected update: %+v", d)
	}
	// The textual interface rejects it too.
	resolve := func(name string) (Backend, bool) { return d1, true }
	if _, err := ParseRules("rule m prio=1 split=D1:-1,D2:2", resolve); err == nil {
		t.Fatal("ParseRules accepted a -1/positive mix")
	}
	// All -1 and all-positive remain valid.
	if err := ValidateRules([]Rule{{Name: "ll", Action: Action{Type: ActionSplit,
		Split: []WeightedBackend{{d1, -1}, {d2, -1}}}}}); err != nil {
		t.Fatalf("all -1 rejected: %v", err)
	}
	// -1 mixed with zero weights is the degenerate-uniform case, not the
	// unpickable one; it stays accepted.
	if err := ValidateRules([]Rule{{Name: "z", Action: Action{Type: ActionSplit,
		Split: []WeightedBackend{{d1, -1}, {d2, 0}}}}}); err != nil {
		t.Fatalf("-1/zero mix rejected: %v", err)
	}
}

func TestStickyHygieneOnUpdate(t *testing.T) {
	tableRule := Rule{Name: "t", Priority: 5, Match: Match{CookieName: "s"},
		Action: Action{Type: ActionTable, Table: "tab", TableCookie: "s"}}
	split := func(bs ...Backend) Rule {
		var wbs []WeightedBackend
		for _, b := range bs {
			wbs = append(wbs, WeightedBackend{b, 1})
		}
		return Rule{Name: "split", Priority: 1, Match: Match{URLGlob: "*"},
			Action: Action{Type: ActionSplit, Split: wbs}}
	}
	e := NewEngine([]Rule{tableRule, split(d1, d2)})
	e.Learn("tab", "u1", d1)
	e.Learn("tab", "u2", d2)
	if n := len(e.tables["tab"]); n != 2 {
		t.Fatalf("bindings = %d, want 2", n)
	}

	// d2 leaves the policy: its binding is evicted, d1's survives.
	if err := e.Update([]Rule{tableRule, split(d1)}); err != nil {
		t.Fatal(err)
	}
	if n := len(e.tables["tab"]); n != 1 {
		t.Fatalf("stale binding not evicted: %d bindings", n)
	}
	r1 := req("/")
	r1.SetHeader("Cookie", "s=u1")
	if d := e.Select(r1, 0.5, nil); d.Backend != d1 || d.Rule.Name != "t" {
		t.Fatalf("live session lost across update: %+v", d)
	}
	r2 := req("/")
	r2.SetHeader("Cookie", "s=u2")
	if d := e.Select(r2, 0.5, nil); d.Rule.Name != "split" {
		t.Fatalf("evicted session should fall through to the split: %+v", d)
	}

	// No rule references the table anymore: the whole table is dropped.
	if err := e.Update([]Rule{split(d1)}); err != nil {
		t.Fatal(err)
	}
	if len(e.tables) != 0 {
		t.Fatalf("unreferenced table not dropped: %v", e.tables)
	}
}

func TestSelectUniformWhenWeightsZero(t *testing.T) {
	e := NewEngine([]Rule{{
		Name: "z", Priority: 1, Match: Match{URLGlob: "*"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 0}, {d2, 0}}},
	}})
	rng := rand.New(rand.NewSource(3))
	counts := map[string]int{}
	for i := 0; i < 2000; i++ {
		counts[e.Select(req("/"), rng.Float64(), nil).Backend.Name]++
	}
	if counts["D1"] == 0 || counts["D2"] == 0 {
		t.Fatalf("zero-weight split not uniform: %v", counts)
	}
}

func TestSplitSelectionProperty(t *testing.T) {
	// For any rnd in [0,1), a split over alive backends must return one of
	// them, and rnd below the first weight's normalized share returns the
	// first backend.
	e := NewEngine([]Rule{{
		Name: "p", Priority: 1, Match: Match{URLGlob: "*"},
		Action: Action{Type: ActionSplit, Split: []WeightedBackend{{d1, 3}, {d2, 1}}},
	}})
	f := func(raw uint32) bool {
		rnd := float64(raw) / (1 << 33) // [0, 0.5): always D1 (share 0.75)
		d := e.Select(req("/"), rnd, nil)
		return d.OK && d.Backend == d1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
