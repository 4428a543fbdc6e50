package core

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

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

// TestOneLifecycleSeam keeps the lifecycle one seam (state.go): in the
// package's non-test files, only setState writes a flow's state — by
// assignment or in a composite literal — and only note writes an outcome
// counter.
func TestOneLifecycleSeam(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range file.Decls {
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
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							check(sel, sel.Sel.Name)
						}
					}
				case *ast.IncDecStmt:
					if sel, ok := n.X.(*ast.SelectorExpr); ok {
						check(sel, sel.Sel.Name)
					}
				case *ast.KeyValueExpr:
					if key, ok := n.Key.(*ast.Ident); ok && key.Name == "state" {
						check(key, key.Name)
					}
				}
				return true
			})
		}
	}
	if len(bad) > 0 {
		t.Fatalf("the lifecycle seam leaks — transitions go through setState, outcome counts through note:\n%s", strings.Join(bad, "\n"))
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
