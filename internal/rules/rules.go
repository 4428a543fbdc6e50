// Package rules implements Yoda's L7 policy interface (§5.1): OpenFlow-
// like rules with match, action and priority fields, evaluated by the
// HAProxy-style linear scan the paper builds on, extended with the
// priority field that enables primary-backup and other layered policies.
//
// Supported policies map directly to Table 3 of the paper:
//
//   - weighted-split   — action "split" with per-backend weights
//   - primary-backup   — two rules with the same match, different
//     priorities; the scan falls through when a rule's backends are dead
//   - sticky-sessions  — action "table" keyed by an HTTP cookie
//   - least-loaded     — split with all weights set to -1
package rules

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/httpsim"
	"repro/internal/netsim"
)

// Backend identifies one backend server of an online service.
type Backend struct {
	Name string
	Addr netsim.HostPort
}

// WeightedBackend pairs a backend with its split weight. A weight of -1
// selects least-loaded semantics (all weights in the rule must then be -1).
type WeightedBackend struct {
	Backend Backend
	Weight  float64
}

// Match is a rule's match condition. Zero-valued fields match anything.
type Match struct {
	URLGlob    string // glob over the request path, e.g. "*.jpg"
	Host       string // exact Host header
	Method     string // exact method
	CookieName string // cookie must be present...
	CookieGlob string // ...and, when non-empty, match this glob
	HeaderName string // arbitrary header must be present...
	HeaderGlob string // ...and, when non-empty, match this glob
}

// Matches reports whether the request satisfies every set condition.
func (m *Match) Matches(req *httpsim.Request) bool {
	if m.Method != "" && req.Method != m.Method {
		return false
	}
	if m.URLGlob != "" && !Glob(m.URLGlob, req.Path) {
		return false
	}
	if m.Host != "" && req.Header("Host") != m.Host {
		return false
	}
	if m.CookieName != "" {
		v := req.Cookie(m.CookieName)
		if v == "" {
			return false
		}
		if m.CookieGlob != "" && !Glob(m.CookieGlob, v) {
			return false
		}
	}
	if m.HeaderName != "" {
		v := req.Header(m.HeaderName)
		if v == "" {
			return false
		}
		if m.HeaderGlob != "" && !Glob(m.HeaderGlob, v) {
			return false
		}
	}
	return true
}

// ActionType discriminates rule actions.
type ActionType int

// Action kinds.
const (
	ActionSplit ActionType = iota // weighted split (or least-loaded if weights are -1)
	ActionTable                   // sticky-session table lookup keyed by a cookie
)

// Action is what a matching rule does.
type Action struct {
	Type  ActionType
	Split []WeightedBackend
	// Table is the sticky table name; TableCookie the cookie whose value
	// keys the table.
	Table       string
	TableCookie string
}

// Rule is one L7 load-balancing rule.
type Rule struct {
	Name     string
	Priority int // higher evaluates first
	Match    Match
	Action   Action
}

// BackendInfo supplies backend health and load to the selection scan.
type BackendInfo interface {
	Alive(b Backend) bool
	Load(b Backend) float64
}

// allAlive is the default BackendInfo: everything healthy, zero load.
type allAlive struct{}

func (allAlive) Alive(Backend) bool   { return true }
func (allAlive) Load(Backend) float64 { return 0 }

// StaticInfo is a map-backed BackendInfo for tests and the controller.
type StaticInfo struct {
	Dead  map[string]bool    // by backend name
	Loads map[string]float64 // by backend name
}

// Alive reports whether the backend is not marked dead.
func (s *StaticInfo) Alive(b Backend) bool { return !s.Dead[b.Name] }

// Load returns the backend's recorded load.
func (s *StaticInfo) Load(b Backend) float64 { return s.Loads[b.Name] }

// Decision is the outcome of a selection scan.
type Decision struct {
	Backend Backend
	Rule    *Rule
	Scanned int // rules examined: drives the Figure 6 latency model
	OK      bool
}

// Engine evaluates a rule table. Semantically it is the HAProxy linear
// scan the paper describes; Update compiles the table into per-field
// indexes (see compile.go) so Select only touches candidate rules while
// returning the exact Decision — including the Scanned count that drives
// the Figure 6 latency model — the linear scan would.
//
// An Engine is not safe for concurrent use: Select reuses per-engine
// scratch (and rule evaluation memoizes request state). Every engine in
// this repo lives on a single simulated-network event loop.
type Engine struct {
	rules  []Rule // sorted by priority desc, stable
	tables map[string]map[string]Backend
	idx    index      // compiled on Update
	merge  []candList // Select scratch, sized by Update
}

// NewEngine builds an engine over the given rules. Rules that fail
// ValidateRules are rejected, leaving the engine empty; callers that can
// receive untrusted tables should use ParseRules or Update, which report
// the error.
func NewEngine(rs []Rule) *Engine {
	e := &Engine{tables: make(map[string]map[string]Backend)}
	e.Update(rs)
	return e
}

// Update replaces the rule table (user policy change, §5.2) after
// validating it, recompiles the lookup index, and prunes sticky state the
// new table can no longer use. On error the previous table stays
// installed. Sticky tables persist across updates so sessions stay
// pinned; see evictStale for the hygiene rules.
func (e *Engine) Update(rs []Rule) error {
	if err := ValidateRules(rs); err != nil {
		return err
	}
	e.rules = append([]Rule(nil), rs...)
	sort.SliceStable(e.rules, func(i, j int) bool { return e.rules[i].Priority > e.rules[j].Priority })
	e.idx = compile(e.rules)
	if cap(e.merge) < e.idx.maxLists {
		e.merge = make([]candList, 0, e.idx.maxLists)
	}
	e.evictStale()
	return nil
}

// ValidateRules rejects tables the engine cannot evaluate sensibly. A
// split mixing least-loaded (-1) and positive weights would make the -1
// backends unpickable (the weighted draw never lands on them), silently
// turning "least loaded" into "never"; such rules are refused at install
// time.
func ValidateRules(rs []Rule) error {
	for i := range rs {
		r := &rs[i]
		if r.Action.Type != ActionSplit {
			continue
		}
		hasLL, hasPos := false, false
		for _, wb := range r.Action.Split {
			if wb.Weight == -1 {
				hasLL = true
			} else if wb.Weight > 0 {
				hasPos = true
			}
		}
		if hasLL && hasPos {
			return fmt.Errorf("rule %s: split mixes least-loaded (-1) and positive weights; use all -1 or all non-negative", r.Name)
		}
	}
	return nil
}

// evictStale drops sticky state the installed table can no longer reach:
// whole tables no ActionTable rule references, and bindings pinned to
// backends absent from every split. When the table declares no split
// backends at all there is nothing to compare bindings against, so they
// are kept (sessions stay pinned, §5.2). Without this, policy churn grows
// e.tables without bound.
func (e *Engine) evictStale() {
	liveTables := make(map[string]bool)
	liveBackends := make(map[Backend]bool)
	for i := range e.rules {
		switch a := &e.rules[i].Action; a.Type {
		case ActionTable:
			liveTables[a.Table] = true
		case ActionSplit:
			for _, wb := range a.Split {
				liveBackends[wb.Backend] = true
			}
		}
	}
	for name, t := range e.tables {
		if !liveTables[name] {
			delete(e.tables, name)
			continue
		}
		if len(liveBackends) == 0 {
			continue
		}
		for key, b := range t {
			if !liveBackends[b] {
				delete(t, key)
			}
		}
	}
}

// Len returns the number of rules.
func (e *Engine) Len() int { return len(e.rules) }

// Learn records a sticky-table binding (cookie value → backend).
func (e *Engine) Learn(table, key string, b Backend) {
	t, ok := e.tables[table]
	if !ok {
		t = make(map[string]Backend)
		e.tables[table] = t
	}
	t[key] = b
}

// Select returns the backend the priority-ordered scan would choose,
// using the compiled index to touch only candidate rules. rnd must be
// uniform in [0,1) (drawn from the simulation RNG); info may be nil for
// all-alive semantics.
//
// The Decision is identical in every field to that of the linear scan
// (SelectLinear, the oracle in select_reference_test.go): the winner
// is the same (the index only skips rules whose Match provably fails),
// and Scanned is reconstructed from the winner's position in the full
// sorted table — the linear scan examines exactly position+1 rules before
// terminating, or the whole table when nothing does.
func (e *Engine) Select(req *httpsim.Request, rnd float64, info BackendInfo) Decision {
	if info == nil {
		info = allAlive{}
	}
	host := req.Header("Host")
	lists := e.idx.gather(e.merge[:0], host, req.Method, req.Path)
	d := Decision{}
	for {
		id := next(lists)
		if id < 0 {
			break
		}
		r := &e.rules[id]
		if !r.Match.Matches(req) {
			continue
		}
		if b, ok := e.applyAction(r, req, rnd, info); ok {
			d.Backend, d.Rule, d.OK = b, r, true
			d.Scanned = int(id) + 1
			e.merge = lists[:0]
			return d
		}
	}
	d.Scanned = len(e.rules) // full-table fall-through, as the scan counts
	e.merge = lists[:0]
	return d
}

// applyAction runs a matching rule's action. ok=false means fall through
// to the next rule (sticky-table miss or dead pin; all split backends
// dead — the primary-backup pattern).
func (e *Engine) applyAction(r *Rule, req *httpsim.Request, rnd float64, info BackendInfo) (Backend, bool) {
	switch r.Action.Type {
	case ActionTable:
		key := req.Cookie(r.Action.TableCookie)
		if key == "" {
			return Backend{}, false
		}
		if b, ok := e.tables[r.Action.Table][key]; ok && info.Alive(b) {
			return b, true
		}
		return Backend{}, false
	case ActionSplit:
		return pickSplit(r.Action.Split, rnd, info)
	}
	return Backend{}, false
}

// pickSplit chooses among alive backends by weight; all-(-1) weights mean
// least-loaded. Two passes over the split keep it allocation-free (the
// previous implementation built an alive slice per call, on the
// per-connection critical path). The iteration order — and therefore
// every float operation and RNG-consuming branch — matches the one-pass
// version exactly, keeping selections bit-identical.
func pickSplit(split []WeightedBackend, rnd float64, info BackendInfo) (Backend, bool) {
	nAlive := 0
	leastLoaded := true
	total := 0.0
	var lastAlive Backend
	for _, wb := range split {
		if !info.Alive(wb.Backend) {
			continue
		}
		nAlive++
		lastAlive = wb.Backend
		if wb.Weight != -1 {
			leastLoaded = false
		}
		if wb.Weight > 0 {
			total += wb.Weight
		}
	}
	if nAlive == 0 {
		return Backend{}, false
	}
	if leastLoaded {
		var best Backend
		first := true
		for _, wb := range split {
			if !info.Alive(wb.Backend) {
				continue
			}
			if first || info.Load(wb.Backend) < info.Load(best) {
				best, first = wb.Backend, false
			}
		}
		return best, true
	}
	if total <= 0 {
		// Degenerate weights: uniform choice among the alive backends.
		k := int(rnd*float64(nAlive)) % nAlive
		for _, wb := range split {
			if !info.Alive(wb.Backend) {
				continue
			}
			if k == 0 {
				return wb.Backend, true
			}
			k--
		}
		return lastAlive, true // unreachable: k < nAlive
	}
	x := rnd * total
	for _, wb := range split {
		if !info.Alive(wb.Backend) || wb.Weight <= 0 {
			continue
		}
		if x < wb.Weight {
			return wb.Backend, true
		}
		x -= wb.Weight
	}
	return lastAlive, true
}

// Glob matches s against a pattern containing '*' (any run, possibly
// empty) and '?' (any single byte). Matching is byte-wise and
// case-sensitive, as in HAProxy ACL path matching.
func Glob(pattern, s string) bool {
	// Iterative backtracking matcher: O(len(s)·stars) worst case.
	var pi, si int
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == s[si]):
			pi++
			si++
		case pi < len(pattern) && pattern[pi] == '*':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

// String renders a rule in the textual interface format.
func (r Rule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rule %s prio=%d", r.Name, r.Priority)
	m := r.Match
	if m.URLGlob != "" {
		fmt.Fprintf(&b, " url=%s", m.URLGlob)
	}
	if m.Host != "" {
		fmt.Fprintf(&b, " host=%s", m.Host)
	}
	if m.Method != "" {
		fmt.Fprintf(&b, " method=%s", m.Method)
	}
	if m.CookieName != "" {
		if m.CookieGlob != "" {
			fmt.Fprintf(&b, " cookie=%s:%s", m.CookieName, m.CookieGlob)
		} else {
			fmt.Fprintf(&b, " cookie=%s", m.CookieName)
		}
	}
	if m.HeaderName != "" {
		if m.HeaderGlob != "" {
			fmt.Fprintf(&b, " header=%s:%s", m.HeaderName, m.HeaderGlob)
		} else {
			fmt.Fprintf(&b, " header=%s", m.HeaderName)
		}
	}
	switch r.Action.Type {
	case ActionSplit:
		parts := make([]string, len(r.Action.Split))
		for i, wb := range r.Action.Split {
			parts[i] = fmt.Sprintf("%s:%g", wb.Backend.Name, wb.Weight)
		}
		fmt.Fprintf(&b, " split=%s", strings.Join(parts, ","))
	case ActionTable:
		fmt.Fprintf(&b, " table=%s:%s", r.Action.Table, r.Action.TableCookie)
	}
	return b.String()
}
