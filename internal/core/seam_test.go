package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// seamCounters are the fields only note may increment: the lifecycle
// outcome counters of BarrierStats, VIPStats and Instance.
var seamCounters = map[string]bool{
	"Commits": true, "Degraded": true, "Aborted": true, "Timeouts": true,
	"Recovered": true, "DerivedRecoveries": true, "SuppressedOrphans": true, "LookupMisses": true,
	"SNATExhausted": true,
}

// hybridSeams are the only functions that may test cfg.Hybrid — or a
// local copied from it — against nil, on either side of the comparison:
// the creation decision and the orphan classification. Everything else
// follows a flow's stateless bit.
var hybridSeams = map[string]bool{"newClientFlow": true, "recoverFlow": true}

// tunnelBarrierWriters are the only functions that may write a flow's
// tunnel-phase records under both tuples: the dial's storage-b, first
// dial and keep-alive re-dial alike, and hybrid.go's repair write.
var tunnelBarrierWriters = map[string]bool{"serverHandshakePacket": true, "hybridRepair": true}

// TestOneLifecycleSeam keeps the lifecycle one seam (state.go): in the
// package's non-test files, only setState writes a flow's state — by
// assignment or in a composite literal — only note writes an outcome
// counter, and only the hybridSeams ask whether hybrid mode is on. Every
// event has a name of its own in eventNames, because tests count
// outcomes by the note's name (CountNotes): a missing or shared name
// would read as zero or as another outcome. It also keeps the
// keep-alive fork from coming back: flowState has three
// values (Conn, Dialing, Tunnel), storage-b has one dataplane call site
// outside hybrid.go, and no segment is a packet literal — every one the
// instance sends comes from the pool, through packet.
func TestOneLifecycleSeam(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	states, events := 0, 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				switch vs := gd.Specs[0].(*ast.ValueSpec); fmt.Sprint(vs.Type) {
				case "flowState":
					states = len(gd.Specs)
				case "event":
					events = len(gd.Specs)
				}
			}
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			check := func(target ast.Expr, field string) {
				switch {
				case field == "state" && fn.Name.Name != "setState":
					bad = append(bad, fmt.Sprintf("%s: %s writes a flow's state outside setState", fset.Position(target.Pos()), fn.Name.Name))
				case seamCounters[field] && fn.Name.Name != "note":
					bad = append(bad, fmt.Sprintf("%s: %s writes %s outside note", fset.Position(target.Pos()), fn.Name.Name, field))
				}
			}
			// isHybrid reports whether e reads cfg.Hybrid: the field itself
			// or a local the function copied it into.
			hybridVars := map[string]bool{}
			isHybrid := func(e ast.Expr) bool {
				switch e := ast.Unparen(e).(type) {
				case *ast.SelectorExpr:
					return e.Sel.Name == "Hybrid"
				case *ast.Ident:
					return hybridVars[e.Name]
				}
				return false
			}
			isNil := func(e ast.Expr) bool {
				id, ok := ast.Unparen(e).(*ast.Ident)
				return ok && id.Name == "nil"
			}
			copies := func(lhs ast.Expr, rhs []ast.Expr, i int) {
				if id, ok := lhs.(*ast.Ident); ok && i < len(rhs) && isHybrid(rhs[i]) {
					hybridVars[id.Name] = true
				}
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for i, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							check(sel, sel.Sel.Name)
						}
						copies(lhs, n.Rhs, i)
					}
				case *ast.ValueSpec:
					for i, id := range n.Names {
						copies(id, n.Values, i)
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						check(sel, sel.Sel.Name)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok && key.Name == "state" {
						check(key, key.Name)
					}
				case *ast.BinaryExpr:
					nilTest := isHybrid(n.X) && isNil(n.Y) || isNil(n.X) && isHybrid(n.Y)
					if nilTest && !hybridSeams[fn.Name.Name] {
						bad = append(bad, fmt.Sprintf("%s: %s tests cfg.Hybrid outside newClientFlow and recoverFlow", fset.Position(n.Pos()), fn.Name.Name))
					}
				case *ast.CallExpr:
					sel, ok := n.Fun.(*ast.SelectorExpr)
					if ok && sel.Sel.Name == "barrierEntries" && len(n.Args) == 3 &&
						fmt.Sprint(n.Args[1]) == "PhaseTunnel" && fmt.Sprint(n.Args[2]) == "true" && !tunnelBarrierWriters[fn.Name.Name] {
						bad = append(bad, fmt.Sprintf("%s: %s writes storage-b outside serverHandshakePacket and hybrid.go", fset.Position(n.Pos()), fn.Name.Name))
					}
				case *ast.CompositeLit:
					if typ, ok := n.Type.(*ast.SelectorExpr); ok && typ.Sel.Name == "Packet" {
						bad = append(bad, fmt.Sprintf("%s: %s builds a packet literal; take it from the pool with packet", fset.Position(n.Pos()), fn.Name.Name))
					}
				}
				return true
			})
		}
	}
	if states != 3 {
		bad = append(bad, fmt.Sprintf("flowState has %d values, want 3: Conn, Dialing, Tunnel", states))
	}
	if len(eventNames) != events {
		bad = append(bad, fmt.Sprintf("%d events and %d eventNames, want one name per event", events, len(eventNames)))
	}
	named := map[string]int{}
	for ev, name := range eventNames {
		if prev, dup := named[name]; dup {
			bad = append(bad, fmt.Sprintf("events %d and %d share the name %q", prev, ev, name))
		} else if name == "" {
			bad = append(bad, fmt.Sprintf("event %d has no name", ev))
		}
		named[name] = ev
	}
	if len(bad) > 0 {
		t.Fatalf("the lifecycle seam leaks — transitions go through setState, outcome counts through note under a name of their own, the hybrid mode through a flow's stateless bit:\n%s", strings.Join(bad, "\n"))
	}
}

// TestFlowSizeClass: a flow fits the allocator's 240-byte size class:
// its bools ride in padding and its three timers are two-word handles.
// One more word moves every flow to the 256-byte class.
func TestFlowSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(flow{}); sz > 240 {
		t.Fatalf("core's flow is %d bytes and has left the 240-byte size class: every flow now costs 256, "+
			"which moves yodabench's held-failover heap_bytes_per_live_flow (bound 1%%) and TestLiveFlowHeapLedger's flow_heap_bytes_core row", sz)
	}
}

// TestAdoptionCountedOnce:a client segment and a backend segment of one
// orphaned flow reach a successor in the same instant, so each tuple
// orientation opens its own pending queue and both store reads hit the
// same record. The flow is adopted once, and counted once.
func TestAdoptionCountedOnce(t *testing.T) {
	n := netsim.New(7)
	owner, f := benchStorageSetup(n, 3)
	owner.writeBarrier(f, owner.barrierEntries(f, PhaseTunnel, true), func(*flow) {})
	n.RunUntilIdle(1 << 16)

	var servers []netsim.HostPort // benchStorageSetup's memcached servers
	for i := 0; i < 3; i++ {
		servers = append(servers, netsim.HostPort{IP: netsim.IPv4(10, 0, 3, byte(i+1)), Port: memcache.DefaultPort})
	}
	h := netsim.NewHost(n, 0x0a000011)
	succ := NewInstance(h, owner.l4, tcpstore.New(h, servers, tcpstore.DefaultConfig()), DefaultConfig())
	for _, tuple := range []netsim.FourTuple{f.clientTuple(), f.serverTuple()} {
		p := n.AllocPacket()
		p.Src, p.Dst, p.Flags = tuple.Src, tuple.Dst, netsim.FlagACK
		succ.handlePacket(p)
	}
	n.RunUntilIdle(1 << 16)
	if succ.Recovered != 1 || succ.LookupMisses != 0 {
		t.Fatalf("one flow orphaned under both tuples: Recovered = %d, LookupMisses = %d; want 1 and 0", succ.Recovered, succ.LookupMisses)
	}
}

// TestBarrierIgnoresReusedFlow: a flow is torn down while its barrier
// write is in flight, and the next flow, on another tuple, takes the same
// object before the store answers (the network is not poisoned, so the
// object is reused). The write then resolves to nothing, though the index
// maps the object's new client tuple to it: it belongs to the object's
// last life, which the generation tells apart.
func TestBarrierIgnoresReusedFlow(t *testing.T) {
	n := netsim.New(7)
	in, f := benchStorageSetup(n, 3)
	ran := 0
	in.writeBarrier(f, in.barrierEntries(f, PhaseTunnel, true), func(*flow) { ran++ })
	in.teardown(f)
	g := in.newFlow(flow{vip: f.vip, client: netsim.HostPort{IP: 0xc0a80002, Port: 40001}})
	if g != f {
		t.Fatal("the next flow did not take the torn-down flow's object")
	}
	in.flows.put(g.clientTuple(), g)
	n.RunUntilIdle(1 << 16)
	if ran != 0 {
		t.Fatal("a barrier write of the object's last life ran its continuation on the flow it serves now")
	}
}
