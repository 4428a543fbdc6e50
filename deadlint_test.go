package yoda_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/constant"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
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
	"netsim.Packet.Clone":               "test hook: the kill sweeps' duplicate and reorder faults and the tracers keep a traced packet through it",
	"stateless.Table.Epoch":             "test hook: item 4's schedules assert the epoch discipline through it",
	"flowmap.Compact.Epoch":             "test hook: the eviction-bump count the flow-map differential compares",
	"httpsim.RequestParser.Buffered":    "test hook: the codec differential's nothing-left-over check",
	"httpsim.ResponseParser.Buffered":   "test hook: the codec differential's nothing-left-over check",
	"metrics.LenHist.AtLeast":           "the tail read of a train-length histogram; tests only so far",
	"haproxy.Instance.Host":             "test hook: the testbed's failure test reads a dead HAProxy instance's liveness through it",
	"memcache.Engine.Get":               "the engine's string-key read: the store tests look at a server's items through it",
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
	fset, imp := loadRepo(t)

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
		if !p.linted() {
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

// loadRepo type-checks the non-test files of every package in the repo,
// the frozen bench/ module included, into one types.Info: the walk both
// lints share.
func loadRepo(t *testing.T) (*token.FileSet, *repoImporter) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &repoImporter{
		fset: fset,
		std:  importer.ForCompiler(fset, "gc", nil),
		pkgs: map[string]*repoPackage{},
		info: newTypesInfo(),
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
	return fset, imp
}

// newTypesInfo records what the lints read: definitions, uses, the type
// of every expression and every selector's path.
func newTypesInfo() *types.Info {
	return &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// linted reports whether a package's declarations are under the lints:
// the root package and everything under internal/. cmd/, examples/ and
// bench/ only count as users.
func (p *repoPackage) linted() bool {
	return p.dir == "." || strings.HasPrefix(p.dir, "internal/")
}

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

// writeOnlyAllowlist names the struct fields under internal/ and in the
// root package that no non-test code reads and that stay anyway, each
// with the test that asserts on it or the ROADMAP item that will read it.
// Keys are "package.Type.Field", with the path through an unnamed struct
// type for a field of one ("package.Type.Outer.Field").
var writeOnlyAllowlist = map[string]string{
	"assignment.solverState.openCount":  "TestGreedyOptimalityGap: SolveExhaustive, the reference solver, prunes on it",
	"experiments.Table1Row.YodaExtra":   "TestTable1Impact bounds the delay Yoda adds to a failed-over fetch",
	"haproxy.Instance.Connections":      "TestProxySpreadsConnections: every proxy instance gets connections",
	"l4lb.LB.NoInstanceDrops":           "TestNoInstancesDrops: a VIP with no instance drops, and counts it",
	"memcache.ReplyItem.Flags":          "TestReplyParserValues: a get reply's flags parse as the VALUE line sent them",
	"memcache.Stats.GetHits":            "TestEngineDifferential holds the slab engine's stats to refEngine's",
	"memcache.Stats.GetMisses":          "TestEngineDifferential holds the slab engine's stats to refEngine's",
	"memcache.Stats.Sets":               "TestEngineDifferential holds the slab engine's stats to refEngine's",
	"memcache.Stats.Deletes":            "TestEngineDifferential holds the slab engine's stats to refEngine's",
	"memcache.Stats.Evictions":          "TestEngineDifferential holds the slab engine's stats to refEngine's",
	"memcache.Stats.Expirations":        "TestEngineDifferential holds the slab engine's stats to refEngine's",
	"netsim.TraceEvent.Node":            "TestTracer; TestDefectTimelines prints and checks the notes' nodes",
	"netsim.TraceEvent.Tuple":           "TestTracer; TestDefectTimelines prints and checks the notes' tuples",
	"reconfig.Wave.PlannedMigratedFrac": "TestPlanInvariantsOverTraceDay: no unforced wave migrates more than δ",
	"reconfig.Wave.Forced":              "TestPlanInvariantsOverTraceDay: only a forced wave may breach the caps",
	"rules.Decision.Rule":               "FuzzSelectDifferential holds the indexed select to SelectLinear, rule included",
	"tcpstore.Stats.Deletes":            "TestDeleteUnderReplicaFailure counts the deletes a failing replica set resolves",
	"tcpstore.SetResult.Acked":          "TestSetMultiReplicatesEveryEntry: every entry acked by each of its replicas",
}

// TestNoWriteOnlyState is the dead-state half of the dead-feature sweep:
// a struct field under internal/ or in the root package that non-test
// code writes but never reads fails it, as does a function-local
// variable that is only ever written. cmd/, examples/ and the frozen
// bench/ count as readers. classifyUses says what a write is; every other
// use is a read.
//
// A struct value or pointer passed to an interface{} parameter counts as
// read in full, with every struct it holds by value: fmt's %+v and
// encoding/json read fields by reflection (readAll in classifyUses). An
// assignment into an interface does not: that is dispatch, not
// reflection.
func TestNoWriteOnlyState(t *testing.T) {
	fset, imp := loadRepo(t)
	var files []*ast.File
	for _, p := range imp.pkgs {
		files = append(files, p.files...)
	}
	read := classifyUses(imp.info, files)

	var bad []string
	seen := map[string]bool{}
	for _, p := range imp.pkgs {
		if !p.linted() {
			continue
		}
		for obj, key := range stateDecls(imp.info, p) {
			if obj.IsField() {
				seen[key] = true
			}
			_, allowed := writeOnlyAllowlist[key]
			pos := fset.Position(obj.Pos()).String()
			switch {
			case read[obj] && allowed:
				bad = append(bad, pos+": "+key+" is on writeOnlyAllowlist but non-test code reads it now; drop the entry")
			case !read[obj] && !allowed:
				bad = append(bad, pos+": "+key+" is never read outside tests")
			}
		}
	}
	tests, selected := testReads(t, imp)
	for key, reason := range writeOnlyAllowlist {
		if !seen[key] {
			bad = append(bad, "writeOnlyAllowlist: "+key+" is not a struct field under internal/ or of the root package")
		}
		if !allowReason.MatchString(reason) {
			bad = append(bad, "writeOnlyAllowlist: "+key+"'s reason names no test and no ROADMAP item")
		}
		for _, name := range testName.FindAllString(reason, -1) {
			if !tests[name] {
				bad = append(bad, "writeOnlyAllowlist: "+key+"'s reason names "+name+", which no test file declares")
			}
		}
		if field := key[strings.LastIndex(key, ".")+1:]; !selected[key[:strings.Index(key, ".")]][field] {
			bad = append(bad, "writeOnlyAllowlist: "+key+" is read by no test of its package; delete it")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Fatalf("state that non-test code writes and never reads — delete it, or allowlist a field with the test that reads it:\n%s",
			strings.Join(bad, "\n"))
	}
}

// A writeOnlyAllowlist reason must match allowReason: it names the test
// that asserts on the field (testName), or the ROADMAP item that will
// read it.
var (
	testName    = regexp.MustCompile(`\b(Test|Fuzz)[A-Z]\w*`)
	allowReason = regexp.MustCompile(testName.String() + `|\bitem \d+`)
)

// testReads parses the _test.go files of the linted packages and returns
// the Test and Fuzz functions they declare, and, per package name, the
// field and method names their selectors name: an allowlisted field must
// be one of those.
func testReads(t *testing.T, imp *repoImporter) (tests map[string]bool, selected map[string]map[string]bool) {
	tests, selected = map[string]bool{}, map[string]map[string]bool{}
	for _, p := range imp.pkgs {
		if !p.linted() {
			continue
		}
		names, err := filepath.Glob(filepath.Join(p.dir, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		sel := map[string]bool{}
		selected[p.pkg.Name()] = sel
		for _, name := range names {
			f, err := parser.ParseFile(imp.fset, name, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Recv == nil && testName.MatchString(n.Name.Name) {
						tests[n.Name.Name] = true
					}
				case *ast.SelectorExpr:
					sel[n.Sel.Name] = true
				}
				return true
			})
		}
	}
	return tests, selected
}

// stateDecls returns the state a package declares that the lint checks,
// by key: every named field of its struct types ("pkg.Type.Field", the
// path through nested struct types for a field of one), and every
// function-local variable that is not a parameter or a named result
// ("pkg.Func.name").
func stateDecls(info *types.Info, p *repoPackage) map[*types.Var]string {
	out := map[*types.Var]string{}
	name := p.pkg.Name()
	var fields func(prefix string, e ast.Expr)
	fields = func(prefix string, e ast.Expr) {
		switch e := e.(type) {
		case *ast.StarExpr:
			fields(prefix, e.X)
		case *ast.ArrayType:
			fields(prefix, e.Elt)
		case *ast.MapType:
			fields(prefix, e.Value)
		case *ast.StructType:
			for _, f := range e.Fields.List {
				for _, n := range f.Names {
					if v, ok := info.Defs[n].(*types.Var); ok && n.Name != "_" {
						out[v] = prefix + "." + n.Name
					}
					fields(prefix+"."+n.Name, f.Type)
				}
			}
		}
	}
	for _, f := range p.files {
		params := map[*ast.Ident]bool{}
		fn := ""
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				fn = n.Name.Name
				if n.Recv != nil {
					fn = baseIdent(n.Recv.List[0].Type).Name + "." + fn
					for _, id := range n.Recv.List[0].Names {
						params[id] = true
					}
				}
			case *ast.FuncType:
				for _, l := range []*ast.FieldList{n.Params, n.Results} {
					for _, fl := range fieldList(l) {
						for _, id := range fl.Names {
							params[id] = true
						}
					}
				}
			case *ast.TypeSpec:
				fields(name+"."+n.Name.Name, n.Type)
				return false
			case *ast.Ident:
				v, ok := info.Defs[n].(*types.Var)
				if ok && fn != "" && !v.IsField() && !params[n] && n.Name != "_" && v.Parent() != p.pkg.Scope() {
					out[v] = name + "." + fn + "." + n.Name
				}
			}
			return true
		})
	}
	return out
}

func fieldList(l *ast.FieldList) []*ast.Field {
	if l == nil {
		return nil
	}
	return l.List
}

// classifyUses sorts every use of a variable or struct field in files into
// a write or a read, and reports which objects have a read. A write is
//   - the left side of =, := or op=, x.f[k] = v included when f is a map;
//   - the operand of ++ or --;
//   - a key of a struct composite literal;
//   - the map (or slice) passed to delete or clear;
//   - the x.f in x.f = append(x.f, …).
//
// Every other use is a read. Generic fields map to their declaration. A
// field reached through an embedded one reads the embedded field, and a
// struct passed to an interface{} parameter reads its fields (readAll).
func classifyUses(info *types.Info, files []*ast.File) (read map[types.Object]bool) {
	writes := map[*ast.Ident]bool{}
	// target is the identifier an assignment to e writes: a variable, the
	// field of a selector, or the map of a map index.
	var target func(e ast.Expr) *ast.Ident
	target = func(e ast.Expr) *ast.Ident {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return target(e.X)
		case *ast.Ident:
			return e
		case *ast.SelectorExpr:
			return e.Sel
		case *ast.IndexExpr:
			if _, ok := info.TypeOf(e.X).Underlying().(*types.Map); ok {
				return target(e.X)
			}
		}
		return nil
	}
	mark := func(e ast.Expr) {
		if id := target(e); id != nil {
			writes[id] = true
		}
	}
	builtin := func(call *ast.CallExpr, names ...string) bool {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			return false
		}
		b, ok := info.Uses[id].(*types.Builtin)
		return ok && slices.Contains(names, b.Name())
	}

	read = map[types.Object]bool{}
	// readAll reads every field of the struct t holds by value: fmt
	// prints them. Past the top, fmt prints a pointer as an address, but
	// encoding/json follows one, so a pointer is followed under a field
	// with a json tag only.
	var readAll func(t types.Type, follow bool, seen map[types.Type]bool)
	readAll = func(t types.Type, follow bool, seen map[types.Type]bool) {
		if seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Pointer:
			if follow {
				readAll(u.Elem(), false, seen)
			}
		case *types.Slice:
			readAll(u.Elem(), follow, seen)
		case *types.Array:
			readAll(u.Elem(), follow, seen)
		case *types.Map:
			readAll(u.Key(), follow, seen)
			readAll(u.Elem(), follow, seen)
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				read[u.Field(i).Origin()] = true
				readAll(u.Field(i).Type(), reflect.StructTag(u.Tag(i)).Get("json") != "", seen)
			}
		}
	}

	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range n.Lhs {
					mark(lhs)
					if len(n.Lhs) != len(n.Rhs) {
						continue
					}
					if call, ok := ast.Unparen(n.Rhs[i]).(*ast.CallExpr); ok && len(call.Args) > 0 && builtin(call, "append") {
						if l, a := target(lhs), target(call.Args[0]); l != nil && a != nil && info.Uses[l] != nil && info.Uses[l] == info.Uses[a] {
							mark(call.Args[0])
						}
					}
				}
			case *ast.IncDecStmt:
				mark(n.X)
			case *ast.CompositeLit:
				if _, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							writes[kv.Key.(*ast.Ident)] = true
						}
					}
				}
			case *ast.CallExpr:
				if builtin(n, "delete", "clear") && len(n.Args) > 0 {
					mark(n.Args[0])
				}
				sig, ok := info.TypeOf(n.Fun).(*types.Signature)
				if !ok {
					return true
				}
				for i, arg := range n.Args {
					var param types.Type
					switch last := sig.Params().Len() - 1; {
					case sig.Variadic() && i >= last && !n.Ellipsis.IsValid():
						param = sig.Params().At(last).Type().(*types.Slice).Elem()
					case i <= last:
						param = sig.Params().At(i).Type()
					}
					if _, tp := param.(*types.TypeParam); param != nil && !tp {
						if it, ok := param.Underlying().(*types.Interface); ok && it.Empty() {
							readAll(info.TypeOf(arg), true, map[types.Type]bool{})
						}
					}
				}
			case *ast.SelectorExpr:
				// x.f through an embedded field reads every embedded
				// field on the path.
				s := info.Selections[n]
				if s == nil || s.Kind() != types.FieldVal {
					return true
				}
				t := s.Recv()
				for _, i := range s.Index()[:len(s.Index())-1] {
					if p, ok := t.Underlying().(*types.Pointer); ok {
						t = p.Elem()
					}
					fld := t.Underlying().(*types.Struct).Field(i)
					read[fld.Origin()] = true
					t = fld.Type()
				}
			}
			return true
		})
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && !writes[id] {
			read[v.Origin()] = true
		}
	}
	return read
}

// plantedState exercises classifyUses: each field of w is written by one
// write form only, and each field of the other types is read in one way
// the lint must see.
const plantedState = `package p

import "fmt"

type w struct {
	assigned, opAssigned, incremented, keyed int
	mapped, deleted, cleared           map[int]bool
	appended                           []int
}

func writes(x *w) {
	x.assigned = 1
	x.opAssigned += 2
	x.incremented++
	x.mapped[1] = true
	delete(x.deleted, 1)
	clear(x.cleared)
	x.appended = append(x.appended, 1)
	_ = w{keyed: 1}
	n := 0
	for i := range 3 {
		n += i
	}
}

type printed struct{ f int }
type addressed struct{ f int }
type called struct{ f counter }
type counter struct{ n int }

func (c *counter) bump() int { c.n++; return c.n }

type report struct {
	Inner *inner ` + "`json:\"inner\"`" + `
	Conn  *handle
}
type inner struct{ f int }
type handle struct{ f int }
type boxed struct{ f int }

func reads(p printed, a *addressed, c *called, r *report) (named int) {
	p.f, a.f, c.f = 1, 2, counter{}
	r.Inner, r.Conn = &inner{f: 1}, &handle{f: 1}
	_ = fmt.Sprintf("%+v %v", p, r)
	ptr := &a.f
	named = c.f.bump() + *ptr
	var v any = boxed{f: 1}
	_ = v
	return
}
`

// TestWriteOnlyClassifier runs classifyUses on plantedState: it must flag
// a field written by each write form, a write-only local, a field that
// reaches fmt only through a pointer fmt does not follow and one that
// sits in an interface, and nothing read through %+v, &x.f, a method call
// on x.f or as a named result. Each field of w is written one way only,
// so a write form the classifier stops knowing unflags its field.
func TestWriteOnlyClassifier(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", plantedState, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	p := &repoPackage{dir: ".", pkg: pkg, files: []*ast.File{f}}
	read := classifyUses(info, p.files)
	var got []string
	for obj, key := range stateDecls(info, p) {
		if !read[obj] {
			got = append(got, key)
		}
	}
	sort.Strings(got)
	want := []string{
		"p.boxed.f", "p.handle.f",
		"p.w.appended", "p.w.assigned", "p.w.cleared", "p.w.deleted",
		"p.w.incremented", "p.w.keyed", "p.w.mapped", "p.w.opAssigned",
		"p.writes.n",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %v,\nwant    %v", got, want)
	}
}

// oneValueAllowlist names the component-config fields that non-test code
// sets to their default only and that stay settable anyway, each with
// the test that sets another value or the frozen bench/ caller that
// needs the field. Keys are "package.Type.Field".
var oneValueAllowlist = map[string]string{
	"controller.Config.PingInterval":       "bench/measure.go times held-failover's kill off it; BenchmarkAblationMonitorInterval sweeps it",
	"core.Config.StrictPersist":            "TestStrictPersistDropsUnrecoverableHandshakes turns it on",
	"httpsim.ClientConfig.TCP":             "TestHybridFailoverTunnelDerived's clients probe when idle (probeClientConfig)",
	"l4lb.Config.UpdateStagger":            "TestStaggeredMappingUpdate sets a 400 ms stagger",
	"memcache.SimServerConfig.ServiceTime": "bench/ builds its stores from DefaultSimServerConfig",
	"memcache.SimServerConfig.CPUPerOp":    "bench/ builds its stores from DefaultSimServerConfig",
	"memcache.SimServerConfig.Cores":       "bench/ builds its stores from DefaultSimServerConfig",
	"memcache.SimServerConfig.TCP":         "bench/ builds its stores from DefaultSimServerConfig",
	"tcp.Config.IdleProbe":                 "TestIdleProbe sets a 25 ms probe",
	"tcp.Config.InitialCwnd":               "FuzzBatchDispatchDifferential's worlds start at 4 segments",
	"tcp.Config.InitialSsthresh":           "FuzzBatchDispatchDifferential's worlds leave slow start early",
	"tcp.Config.MSS":                       "FuzzBatchDispatchDifferential's worlds use a 256-byte MSS; bench/probes.go reads it",
	"tcp.Config.MaxRetries":                "TestConnectTimeoutWhenServerDead gives up after 2 retransmits",
	"tcpstore.Config.Expiry":               "TestStoreExpiryAges sets a 1 s TTL",
	"tcpstore.Config.OpTimeout":            "TestDeleteBatchLosesOneReplica turns it off",
}

// TestNoOneValuedOption keeps the option sweep swept: an option with one
// value in use is a constant. It covers every exported field of an
// exported struct type under internal/ that has a Default<Type>
// constructor in its package, the figure configs of experiments aside
// (figure parameters: the golden pins their defaults and tests shrink
// them). Such a field fails unless some non-test write outside the
// constructor — cmd/, examples/ and the frozen bench/ count — gives it a
// value other than the constructor's, or it sits on oneValueAllowlist.
//
// A write is an assignment to the field (op= and ++/-- included) or a
// struct-literal key. It keeps the default only when both are constants
// and equal; a field the constructor leaves out defaults to its type's
// zero, a constant for a basic type.
func TestNoOneValuedOption(t *testing.T) {
	fset, imp := loadRepo(t)
	opts, varied := optionUses(imp.info, imp.pkgs)

	var bad []string
	seen := map[string]bool{}
	for v, o := range opts {
		seen[o.key] = true
		_, allowed := oneValueAllowlist[o.key]
		pos := fset.Position(v.Pos()).String()
		switch {
		case varied[v] && allowed:
			bad = append(bad, pos+": "+o.key+" is on oneValueAllowlist but non-test code varies it now; drop the entry")
		case !varied[v] && !allowed:
			bad = append(bad, pos+": "+o.key+" has one value outside tests; make it a constant")
		}
	}
	tests, _ := testReads(t, imp)
	for key, reason := range oneValueAllowlist {
		if !seen[key] {
			bad = append(bad, "oneValueAllowlist: "+key+" is not a field of a config with a Default constructor")
		}
		if !testName.MatchString(reason) && !strings.Contains(reason, "bench/") {
			bad = append(bad, "oneValueAllowlist: "+key+"'s reason names no test and no bench/ caller")
		}
		for _, name := range testName.FindAllString(reason, -1) {
			if !tests[name] {
				bad = append(bad, "oneValueAllowlist: "+key+"'s reason names "+name+", which no test file declares")
			}
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		t.Fatalf("options with one value in use — turn each into a constant, or allowlist it with the test or bench/ caller that sets it:\n%s",
			strings.Join(bad, "\n"))
	}
}

// option is one field under TestNoOneValuedOption: its key, the
// constructor that sets its default, and that default (nil when it is
// not a constant).
type option struct {
	key  string
	ctor *types.Func
	def  constant.Value
}

// optionUses returns the fields TestNoOneValuedOption covers and those
// of them some write in pkgs gives another value.
func optionUses(info *types.Info, pkgs map[string]*repoPackage) (opts map[*types.Var]option, varied map[*types.Var]bool) {
	opts, varied = optionFields(info, pkgs), map[*types.Var]bool{}
	for _, p := range pkgs {
		for _, f := range p.files {
			optionWrites(info, f, opts, varied)
		}
	}
	return opts, varied
}

// optionFields returns the fields TestNoOneValuedOption covers, with
// their defaults read off each constructor's struct literal.
func optionFields(info *types.Info, pkgs map[string]*repoPackage) map[*types.Var]option {
	out := map[*types.Var]option{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") || p.pkg.Name() == "experiments" {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv != nil || !strings.HasPrefix(fd.Name.Name, "Default") {
					continue
				}
				name := strings.TrimPrefix(fd.Name.Name, "Default")
				tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				st, ok := tn.Type().Underlying().(*types.Struct)
				if !ok {
					continue
				}
				ctor := info.Defs[fd.Name].(*types.Func)
				set := map[*types.Var]ast.Expr{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if lit, ok := n.(*ast.CompositeLit); ok && types.Identical(info.TypeOf(lit), tn.Type()) {
						for i, e := range lit.Elts {
							if kv, ok := e.(*ast.KeyValueExpr); ok {
								set[info.Uses[kv.Key.(*ast.Ident)].(*types.Var)] = kv.Value
							} else {
								set[st.Field(i)] = e
							}
						}
					}
					return true
				})
				for i := 0; i < st.NumFields(); i++ {
					v := st.Field(i)
					if !v.Exported() {
						continue
					}
					o := option{key: p.pkg.Name() + "." + name + "." + v.Name(), ctor: ctor}
					if e, ok := set[v]; ok {
						o.def = info.Types[e].Value
					} else {
						o.def = zeroConstant(v.Type())
					}
					out[v] = o
				}
			}
		}
	}
	return out
}

// zeroConstant is the zero value of a basic type as a constant, and nil
// for any other type.
func zeroConstant(t types.Type) constant.Value {
	b, ok := t.Underlying().(*types.Basic)
	switch {
	case !ok:
		return nil
	case b.Info()&types.IsBoolean != 0:
		return constant.MakeBool(false)
	case b.Info()&types.IsString != 0:
		return constant.MakeString("")
	case b.Info()&types.IsNumeric != 0:
		return constant.MakeInt64(0)
	}
	return nil
}

// optionWrites marks in varied each option field of f that a write gives
// a value other than its default, skipping the writes of the field's
// own constructor.
func optionWrites(info *types.Info, f *ast.File, opts map[*types.Var]option, varied map[*types.Var]bool) {
	var fn types.Object
	note := func(obj types.Object, value ast.Expr) {
		v, ok := obj.(*types.Var)
		o, covered := opts[v]
		if !ok || !covered || o.ctor == fn {
			return
		}
		var c constant.Value
		if value != nil {
			c = info.Types[value].Value
		}
		if c == nil || o.def == nil || !constant.Compare(c, token.EQL, o.def) {
			varied[v] = true
		}
	}
	// write notes a write of value to e, and, for x.f.g, a write of
	// another value to f: the write changes it.
	write := func(e ast.Expr, value ast.Expr) {
		for {
			sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
			if !ok {
				return
			}
			note(info.Uses[sel.Sel], value)
			e, value = sel.X, nil
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			fn = info.Defs[n.Name]
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var value ast.Expr
				if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
					value = n.Rhs[i]
				}
				write(lhs, value)
			}
		case *ast.IncDecStmt:
			write(n.X, nil)
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					note(info.Uses[kv.Key.(*ast.Ident)], kv.Value)
				} else {
					note(st.Field(i), e)
				}
			}
		}
		return true
	})
}

// plantedOptions exercises TestNoOneValuedOption's classifier: Config's
// fields named one… keep their default at every write, each in another
// way, and those named varied… get a second value, each in another way.
const plantedOptions = `package p

import "time"

type Inner struct{ N int }

type Config struct {
	OneUnset, OneSame, OneZero, OneBool int
	OneFlag                                bool
	VariedConst, VariedVar, VariedInc      int
	VariedNested                           Inner
	VariedOp                               time.Duration
}

func DefaultConfig() Config {
	return Config{OneSame: 2, OneBool: 0, VariedConst: 1, VariedOp: time.Second}
}

func use(n int) {
	c := DefaultConfig()
	c.OneSame = 2
	c.OneZero = 0
	c.OneFlag = false
	c.VariedConst = 3
	c.VariedVar = n
	c.VariedInc++
	c.VariedNested.N = 1
	c.VariedOp *= 2
	_ = Config{OneSame: 1 + 1}
	_ = c
}
`

// TestOneValuedOptionClassifier runs TestNoOneValuedOption's classifier
// on plantedOptions: it must flag the fields only ever given their
// default (a field never written, one written its constant default, one
// left out of the constructor and written its zero) and none of those a
// write varies.
func TestOneValuedOptionClassifier(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", plantedOptions, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := newTypesInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil)}
	pkg, err := conf.Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	pkgs := map[string]*repoPackage{"repro/internal/p": {dir: "internal/p", pkg: pkg, files: []*ast.File{f}}}
	opts, varied := optionUses(info, pkgs)
	var got []string
	for v, o := range opts {
		if !varied[v] {
			got = append(got, o.key)
		}
	}
	sort.Strings(got)
	want := []string{"p.Config.OneBool", "p.Config.OneFlag", "p.Config.OneSame", "p.Config.OneUnset", "p.Config.OneZero"}
	if !slices.Equal(got, want) {
		t.Fatalf("flagged %v,\nwant    %v", got, want)
	}
}
