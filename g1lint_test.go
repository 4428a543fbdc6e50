package yoda_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// g1Cover is what may cover a segment core sends (DESIGN.md G1′): the
// barrier whose commit sends it, the derivation that lets a successor
// rebuild what it commits a peer to without a record, a commit it comes
// after, or no state to rebuild at all. A comment may name two, "X or Y".
var g1Cover = regexp.MustCompile(`(?m)^G1′: (barrier|derivation|after commit|no state)( or (barrier|derivation|after commit|no state))?\b`)

// TestG1PrimeLint holds every segment internal/core sends to a named
// cover: each `in.packet(` call in a non-test file sits under, or on the
// line of, a comment `// G1′: <cover>` (g1Cover), so a new send states
// why a successor can rebuild what it commits a peer to.
func TestG1PrimeLint(t *testing.T) {
	files, err := filepath.Glob("internal/core/*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var bad []string
	sites := 0
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		file, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		n, problems := g1Problems(fset, file)
		sites += n
		bad = append(bad, problems...)
	}
	if sites == 0 {
		t.Fatal("no in.packet call in internal/core: the lint reads nothing")
	}
	for _, b := range bad {
		t.Error(b)
	}
}

// g1Problems returns file's in.packet call sites and the ones with no
// G1′ comment on their line or ending on the line above.
func g1Problems(fset *token.FileSet, file *ast.File) (sites int, bad []string) {
	covered := map[int]bool{}
	for _, cg := range file.Comments {
		if g1Cover.MatchString(cg.Text()) {
			covered[fset.Position(cg.Pos()).Line] = true
			covered[fset.Position(cg.End()).Line+1] = true
		}
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "packet" {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != "in" {
			return true
		}
		sites++
		if pos := fset.Position(call.Pos()); !covered[pos.Line] {
			bad = append(bad, fmt.Sprintf("%s: in.packet with no `// G1′: <cover>` comment above it", pos))
		}
		return true
	})
	return sites, bad
}

// TestG1PrimeLintCatches runs g1Problems on sources with and without
// their comments.
func TestG1PrimeLintCatches(t *testing.T) {
	for _, c := range []struct {
		src       string
		sites, ok int
	}{
		{"// G1′: no state — a reset.\nin.net.Send(in.packet(a, b))", 1, 1},
		{"in.net.Send(in.packet(a, b)) // G1′: after commit", 1, 1},
		{"// G1′: barrier or derivation — storage-a.\np := in.packet(a, b)", 1, 1},
		{"in.net.Send(in.packet(a, b))", 1, 0},
		{"// G1′: because\nin.net.Send(in.packet(a, b))", 1, 0},
		{"// G1′: no state\n\nin.net.Send(in.packet(a, b))", 1, 0},
		{"// G1′: no state\nx := 1\nin.net.Send(in.packet(a, b))", 1, 0},
		{"p := out.packet(a, b)", 0, 0},
	} {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "x.go", "package p\nfunc f() {\n"+c.src+"\n}\n", parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		sites, bad := g1Problems(fset, file)
		if sites != c.sites || sites-len(bad) != c.ok {
			t.Errorf("%q: %d sites, %d covered; want %d, %d", c.src, sites, sites-len(bad), c.sites, c.ok)
		}
	}
}
