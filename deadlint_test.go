package yoda_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAllowlist names the exported declarations under internal/ and in
// the root package that no non-test file uses and that stay anyway, each
// with the reason. Keys are "package.Name" or "package.Type.Method".
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
	"haproxy.Instance.Host":             "test hook: the testbed's failure test reads a dead HAProxy instance's liveness through it",
	"memcache.Engine.Get":               "the engine's string-key read: the store tests look at a server's items through it",
	"memcache.Engine.Delete":            "the engine's string-key delete: the reference session the session fuzzer compares against calls it",
	"tcp.Listener.Close":                "a listener's teardown, the inverse of Listen; TestListenerClose pins that a closed port refuses dials",
	"tcpstore.Store.Replicas":           "test hook: the scale-out tests check a provisioned instance's replication factor through it",
	"yoda.Testbed.SetPolicy":            "the README's library-use snippet installs a policy with it",
}

// TestNoDeadExports keeps the dead-feature sweep swept: every exported
// func, method and type under internal/, and every exported name of the
// root package, must be used in some non-test file of the repo outside
// its own declaration — cmd/, examples/ and the frozen bench/ count as
// callers — or sit on deadAllowlist.
//
// The whole repo is type-checked, so a use is an identifier that resolves
// to the declared object (types.Info.Uses), not one that merely shares its
// name. A method also counts as used when it implements a method of an
// interface that some loaded package declares or names: a call through
// the interface resolves to the interface's method, and fmt or sort call
// String or Len without naming the type at all.
func TestNoDeadExports(t *testing.T) {
	fset := token.NewFileSet()
	imp := &repoImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*repoPackage{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if _, err := imp.Import(importPath(path)); err != nil && !errors.Is(err, errNoGoFiles) {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The exports under test, and the spans of each object's own
	// declaration: a use there (recursion, a receiver, a self-referencing
	// type) is not a caller.
	type export struct {
		key string
		pos token.Pos
	}
	exports := map[types.Object]export{}
	own := map[types.Object][][2]token.Pos{}
	declare := func(p *repoPackage, id *ast.Ident, key string, decl ast.Node) {
		obj := imp.info.Defs[id]
		own[obj] = append(own[obj], [2]token.Pos{decl.Pos(), decl.End()})
		if id.IsExported() {
			exports[obj] = export{p.pkg.Name() + "." + key, id.Pos()}
		}
	}
	for _, p := range imp.pkgs {
		if p.dir != "." && !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := d.Name.Name
					if d.Recv != nil {
						recv := d.Recv.List[0].Type
						key = baseIdent(recv).Name + "." + key
						tn := imp.info.Uses[baseIdent(recv)]
						own[tn] = append(own[tn], [2]token.Pos{d.Recv.Pos(), d.Recv.End()})
					}
					declare(p, d.Name, key, d)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(p, s.Name, s.Name.Name, s)
						case *ast.ValueSpec:
							if d.Tok == token.VAR && p.dir == "." {
								for _, n := range s.Names {
									declare(p, n, n.Name, s)
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range imp.info.Uses {
		obj = origin(obj)
		if _, ok := exports[obj]; !ok {
			continue
		}
		inside := false
		for _, s := range own[obj] {
			inside = inside || (s[0] <= id.Pos() && id.Pos() < s[1])
		}
		if !inside {
			used[obj] = true
		}
	}
	for _, m := range imp.interfaceMethods() {
		used[m] = true
	}

	var dead []string
	declared := map[string]bool{}
	for obj, e := range exports {
		declared[e.key] = true
		_, allowed := deadAllowlist[e.key]
		pos := fset.Position(e.pos).String()
		switch {
		case used[obj] && allowed:
			dead = append(dead, pos+": "+e.key+" is on deadAllowlist but has a caller now; drop the entry")
		case !used[obj] && !allowed:
			dead = append(dead, pos+": "+e.key+" has no use in a non-test file")
		}
	}
	for key := range deadAllowlist {
		if !declared[key] {
			dead = append(dead, "deadAllowlist: "+key+" is not an export under internal/ or of the root package")
		}
	}
	if len(dead) > 0 {
		sort.Strings(dead)
		t.Fatalf("exports with no non-test caller — delete them with their tests, or allowlist them with a reason:\n%s",
			strings.Join(dead, "\n"))
	}
}

var errNoGoFiles = errors.New("no non-test Go files")

// repoImporter type-checks the repo's own packages (import path "repro"
// or "repro/<dir>", the bench module's "repro/bench" included) from the
// non-test files of their directories, recording every package's uses in
// one types.Info, and imports everything else from compiler export data.
type repoImporter struct {
	fset *token.FileSet
	std  types.Importer
	pkgs map[string]*repoPackage // by import path
	info *types.Info
}

type repoPackage struct {
	dir   string
	pkg   *types.Package
	files []*ast.File
}

// importPath maps a directory relative to the repo root to its import path.
func importPath(dir string) string {
	if dir = filepath.ToSlash(dir); dir == "." {
		return "repro"
	}
	return "repro/" + dir
}

func (r *repoImporter) Import(path string) (*types.Package, error) {
	if path != "repro" && !strings.HasPrefix(path, "repro/") {
		return r.std.Import(path)
	}
	if p, ok := r.pkgs[path]; ok {
		return p.pkg, nil
	}
	dir := strings.TrimPrefix(strings.TrimPrefix(path, "repro"), "/")
	if dir == "" {
		dir = "."
	}
	bp, err := build.ImportDir(dir, 0)
	var noGo *build.NoGoError
	if errors.As(err, &noGo) {
		return nil, errNoGoFiles
	}
	if err != nil {
		return nil, err
	}
	p := &repoPackage{dir: dir}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(r.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: r}
	if p.pkg, err = conf.Check(path, r.fset, p.files, r.info); err != nil {
		return nil, err
	}
	r.pkgs[path] = p
	return p.pkg, nil
}

// interfaceMethods returns the methods of the repo's package-level types
// that implement a method of some interface: one declared at package
// level in a loaded package (the repo's, or any package they import,
// transitively), or one the repo's code names or writes out in place,
// error included.
func (r *repoImporter) interfaceMethods() []types.Object {
	var ifaces []*types.Interface
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if it, ok := p.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range r.pkgs {
		walk(p.pkg)
	}
	for _, tv := range r.info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && it.NumMethods() > 0 && tv.IsType() {
			ifaces = append(ifaces, it)
		}
	}

	var out []types.Object
	for _, p := range r.pkgs {
		for _, name := range p.pkg.Scope().Names() {
			tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				first := it.Method(0)
				if mset.Lookup(first.Pkg(), first.Name()) == nil || !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					out = append(out, origin(mset.Lookup(m.Pkg(), m.Name()).Obj()))
				}
			}
		}
	}
	return out
}

// origin maps a method of an instantiated generic type to its declaration.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

// baseIdent returns the type name of a method receiver: T, *T or T[P].
func baseIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return baseIdent(e.X)
	case *ast.IndexExpr:
		return baseIdent(e.X)
	case *ast.IndexListExpr:
		return baseIdent(e.X)
	case *ast.Ident:
		return e
	}
	return nil
}
