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
	"Commits": true, "Degraded": true, "Aborted": true, "Timeouts": true, "Skipped": true,
	"Recovered": true, "DerivedRecoveries": true, "SuppressedOrphans": true, "LookupMisses": true,
	"Reselections": true, "FlowsClosed": true, "SNATQuarantined": true,
	"NewFlows": true, "SNATExhausted": true,
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
// counter, and only the hybridSeams ask whether hybrid mode is on. It
// also keeps the keep-alive fork from coming back: flowState has three
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
	states := 0
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
				if vs := gd.Specs[0].(*ast.ValueSpec); fmt.Sprint(vs.Type) == "flowState" {
					states = len(gd.Specs)
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
	if len(bad) > 0 {
		t.Fatalf("the lifecycle seam leaks — transitions go through setState, outcome counts through note, the hybrid mode through a flow's stateless bit:\n%s", strings.Join(bad, "\n"))
	}
}

// TestFlowSizeClass: the stateless bit rides in padding, so a flow still
// fits the 288-byte size class; one more word moves every flow to the
// next class.
func TestFlowSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(flow{}); sz > 288 {
		t.Fatalf("flow is %d bytes, want <= 288", sz)
	}
}

// TestAdoptionCountedOnce:a client segment and a backend segment of one
// orphaned flow reach a successor in the same instant, so each tuple
// orientation opens its own pending queue and both store reads hit the
// same record. The flow is adopted once, and counted once.
func TestAdoptionCountedOnce(t *testing.T) {
	n := netsim.New(7)
	owner, f := benchStorageSetup(n, 3)
	owner.writeBarrier(f, owner.barrierEntries(f, PhaseTunnel, true), func(*flow) {}, nil)
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
