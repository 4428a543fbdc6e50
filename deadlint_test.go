package yoda_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllowlist names the exported declarations under internal/ that no
// non-test file mentions and that stay anyway, each with the reason. Keys
// are "package.Func", "package.Type" or "package.Type.Method".
var deadAllowlist = map[string]string{
	"netsim.Network.SetDropFunc":        "fault hook: loss, for ROADMAP item 4's fault plane",
	"netsim.Network.SetLatency":         "fault hook: delay spikes, item 4's fault plane",
	"netsim.Network.SetJitter":          "fault hook: reordering, item 4's fault plane",
	"netsim.Network.PoisonReleasedBufs": "test hook: 0xDD on release, on in every test bed and item-4 schedule",
	"netsim.FourTuple.Reverse":          "test hook: the return direction of a traced packet",
	"stateless.Table.Epoch":             "test hook: item 4's schedules assert the epoch discipline through it",
	"flowmap.Compact.Epoch":             "test hook: the eviction-bump count the flow-map differential compares",
	"httpsim.RequestParser.Buffered":    "test hook: the codec differential's nothing-left-over check",
	"httpsim.ResponseParser.Buffered":   "test hook: the codec differential's nothing-left-over check",
	"metrics.LenHist.AtLeast":           "the tail read of a train-length histogram; tests only so far",
	"core.Instance.SnapshotFlows":       "the read side ROADMAP item 1's flow query starts from",
}

// TestNoDeadExports keeps the dead-feature sweep swept: every exported
// func, method and type under internal/ must be named in some non-test
// file of the repo other than at its own declaration — cmd/, examples/
// and the frozen bench/ count as callers — or sit on deadAllowlist. The
// check is by name, not by type, so it errs towards "used": a method
// shares its name with every other method so called.
func TestNoDeadExports(t *testing.T) {
	type decl struct{ key, pos string }
	var decls []decl
	named := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declaring := map[*ast.Ident]bool{}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		record := func(id *ast.Ident, recv string) {
			declaring[id] = true
			if internal && id.IsExported() {
				decls = append(decls, decl{f.Name.Name + "." + recv + id.Name, fset.Position(id.Pos()).String()})
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil {
					recv = recvName(d.Recv.List[0].Type) + "."
				}
				record(d.Name, recv)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						record(ts.Name, "")
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declaring[id] {
				named[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var dead []string
	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		_, allowed := deadAllowlist[d.key]
		switch {
		case named[name] && allowed:
			dead = append(dead, d.pos+": "+d.key+" is on deadAllowlist but has a caller now; drop the entry")
		case !named[name] && !allowed:
			dead = append(dead, d.pos+": "+d.key+" is named in no non-test file")
		}
	}
	for key := range deadAllowlist {
		if !declared[key] {
			dead = append(dead, "deadAllowlist: "+key+" is not declared under internal/")
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Fatalf("exports with no non-test caller — delete them with their tests, or allowlist them with a reason:\n%s",
			strings.Join(dead, "\n"))
	}
}

// recvName returns the type name of a method receiver: T, *T or T[P].
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}
