package yoda_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// specDocs are the documents whose test names must resolve: DESIGN.md's
// guarantees name the tests that check them, EXPERIMENTS.md the tests and
// benchmarks behind its numbers, README.md its module map.
var specDocs = []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"}

// specCeilings are the byte sizes DESIGN.md and EXPERIMENTS.md may not
// pass: a change that adds to either cuts as much elsewhere, and history
// goes to CHANGES.md.
var specCeilings = map[string]int{"DESIGN.md": 55_000, "EXPERIMENTS.md": 37_500}

// specGolden is the figure golden EXPERIMENTS.md's figures table quotes,
// and specVerdicts the verdicts TestFigureClaims computes from it.
const (
	specGolden   = "internal/experiments/testdata/all_seed1.golden"
	specVerdicts = "internal/experiments/testdata/figure_verdicts.txt"
)

// TestSpecLint keeps the documents true to the tree, in deadlint's
// style: each check returns the problems it finds, and the test fails
// on any.
//
//   - Every Test…, Fuzz… and Benchmark… name in specDocs is a top-level
//     func of some _test.go in the repo, bench/ included. Of a subtest
//     path (TestX/hybrid) only the top-level name is checked.
//   - DESIGN.md's "## Guarantees" numbers its guarantees G1…Gn, and each
//     has a **Precondition.** and a **Tests.** paragraph naming at least
//     one test; every **Exception (x).** names its defect letter and a
//     test that pins it.
//   - README.md's module table lists every directory under internal/,
//     cmd/ and examples/ exactly once, and nothing else.
//   - Every row of EXPERIMENTS.md's "## Figures at HEAD" table quotes the
//     all_seed1.golden line its measured value comes from, or names the
//     benchmark that measures it.
//   - Every flag specDocs cite for a command under cmd/ is one the
//     command's main.go defines.
//   - DESIGN.md and EXPERIMENTS.md are no larger than specCeilings.
func TestSpecLint(t *testing.T) {
	tests := repoTestFuncs(t)
	docs := map[string]string{}
	for _, name := range specDocs {
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		docs[name] = string(b)
	}
	golden, err := os.ReadFile(specGolden)
	if err != nil {
		t.Fatal(err)
	}
	var problems []string
	flags := commandFlags(t)
	for _, name := range specDocs {
		problems = append(problems, unknownTestNames(name, docs[name], tests)...)
		problems = append(problems, unknownFlags(name, docs[name], flags)...)
		problems = append(problems, sizeProblems(name, docs[name], specCeilings[name])...)
	}
	problems = append(problems, guaranteeProblems(docs["DESIGN.md"], tests)...)
	problems = append(problems, moduleMapProblems(docs["README.md"], moduleDirs(t))...)
	problems = append(problems, figureGoldenProblems(docs["EXPERIMENTS.md"], string(golden), tests)...)
	verdicts, err := os.ReadFile(specVerdicts)
	if err != nil {
		t.Fatal(err)
	}
	problems = append(problems, figureVerdictProblems(docs["EXPERIMENTS.md"], string(verdicts))...)
	if len(problems) > 0 {
		t.Fatalf("%d places where the documents and the tree disagree:\n%s", len(problems), strings.Join(problems, "\n"))
	}
}

// repoTestFuncs returns the top-level Test, Fuzz and Benchmark funcs of
// every _test.go in the repo.
func repoTestFuncs(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && testFuncName.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// testFuncName matches a test, fuzz target or benchmark name: the
// prefix, then anything but a lower-case letter (so Testbed is not one).
var testFuncName = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_][A-Za-z0-9_]*`)

// unknownTestNames reports each distinct test name in a document that no
// _test.go declares.
func unknownTestNames(doc, text string, tests map[string]bool) []string {
	var problems []string
	seen := map[string]bool{}
	for _, name := range testFuncName.FindAllString(text, -1) {
		if !tests[name] && !seen[name] {
			seen[name] = true
			problems = append(problems, fmt.Sprintf("%s: %s is not a test, fuzz target or benchmark of the repo", doc, name))
		}
	}
	return problems
}

// section returns the text from a line that starts with heading up to
// the next heading of the same or a higher level, or "" when there is
// no such line.
func section(text, heading string) string {
	level := strings.Index(heading, " ")
	lines := strings.Split(text, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, heading) {
			continue
		}
		end := len(lines)
		for j := i + 1; j < len(lines); j++ {
			if n := strings.Index(lines[j], " "); n > 0 && n <= level && strings.Trim(lines[j][:n], "#") == "" {
				end = j
				break
			}
		}
		return strings.Join(lines[i:end], "\n")
	}
	return ""
}

var blankLine = regexp.MustCompile(`\n\s*\n`)

// paragraphs splits text at blank lines.
func paragraphs(text string) []string {
	var out []string
	for _, p := range blankLine.Split(text, -1) {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

var (
	guaranteeHead = regexp.MustCompile(`(?m)^### G(\d+)\. `)
	exceptionHead = regexp.MustCompile(`^\*\*Exception \(([a-z])\)\.\*\*`)
)

// guaranteeProblems checks DESIGN.md's guarantee list.
func guaranteeProblems(design string, tests map[string]bool) []string {
	sec := section(design, "## Guarantees")
	if sec == "" {
		return []string{"DESIGN.md: no \"## Guarantees\" section"}
	}
	var problems []string
	heads := guaranteeHead.FindAllStringSubmatchIndex(sec, -1)
	if len(heads) == 0 {
		problems = append(problems, "DESIGN.md: \"## Guarantees\" lists no ### Gn. guarantee")
	}
	named := func(p string) bool {
		return slices.ContainsFunc(testFuncName.FindAllString(p, -1), func(n string) bool { return tests[n] })
	}
	for i, h := range heads {
		n := sec[h[2]:h[3]]
		if n != fmt.Sprint(i+1) {
			problems = append(problems, fmt.Sprintf("DESIGN.md: guarantee G%s is number %d of the list", n, i+1))
		}
		end := len(sec)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		var pre, tested bool
		for _, p := range paragraphs(sec[h[1]:end]) {
			switch {
			case strings.HasPrefix(p, "**Precondition.**"):
				pre = true
			case strings.HasPrefix(p, "**Tests.**"):
				tested = named(p)
			case strings.HasPrefix(p, "**Exception"):
				m := exceptionHead.FindStringSubmatch(p)
				if m == nil {
					problems = append(problems, fmt.Sprintf("DESIGN.md: G%s has an exception that names no defect letter: %.60q", n, p))
				} else if !named(p) {
					problems = append(problems, fmt.Sprintf("DESIGN.md: G%s's exception (%s) names no test that pins it", n, m[1]))
				}
			}
		}
		if !pre {
			problems = append(problems, fmt.Sprintf("DESIGN.md: G%s states no **Precondition.**", n))
		}
		if !tested {
			problems = append(problems, fmt.Sprintf("DESIGN.md: G%s names no test in its **Tests.** paragraph", n))
		}
	}
	return problems
}

// moduleDirs returns the directories the module map must list: each
// directory directly under internal/, cmd/ and examples/.
func moduleDirs(t *testing.T) []string {
	t.Helper()
	var dirs []string
	for _, parent := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, parent+"/"+e.Name())
			}
		}
	}
	return dirs
}

// commandFlags returns, per command under cmd/, the flags its main.go
// defines: the first string argument of each flag.* call.
func commandFlags(t *testing.T) map[string]map[string]bool {
	t.Helper()
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		cmd := e.Name()
		f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("cmd", cmd, "main.go"), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		defined := map[string]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "flag" {
					for _, a := range call.Args {
						if lit, ok := a.(*ast.BasicLit); ok && lit.Kind == token.STRING {
							defined[strings.Trim(lit.Value, "\"`")] = true
							break
						}
					}
				}
			}
			return true
		})
		out[cmd] = defined
	}
	return out
}

// A flag citation runs from a command's name, then a space, to the end
// of its line, a backtick, a pipe, a # comment or &&; in it, a flag is a
// -name or --name after a space or an opening bracket.
var flagName = regexp.MustCompile(`(?:^|[\s\[])--?([a-z][a-z0-9]*)`)

// unknownFlags reports each distinct flag a document cites for a command
// of flags that the command does not define.
func unknownFlags(doc, text string, flags map[string]map[string]bool) []string {
	var cmds []string
	for cmd := range flags {
		cmds = append(cmds, cmd)
	}
	slices.Sort(cmds)
	flagCitation := regexp.MustCompile("\\b(" + strings.Join(cmds, "|") + ") ([^`|#&\n]*)")
	var problems []string
	seen := map[string]bool{}
	for _, c := range flagCitation.FindAllStringSubmatch(text, -1) {
		for _, f := range flagName.FindAllStringSubmatch(c[2], -1) {
			if cite := c[1] + " -" + f[1]; !flags[c[1]][f[1]] && !seen[cite] {
				seen[cite] = true
				problems = append(problems, fmt.Sprintf("%s: %s cites -%s, which cmd/%s/main.go does not define", doc, c[1], f[1], c[1]))
			}
		}
	}
	return problems
}

var moduleRow = regexp.MustCompile("(?m)^\\| `([^`]+)` \\|")

// moduleMapProblems checks README.md's module table, the rows under a
// "| directory | role |" header, against dirs.
func moduleMapProblems(readme string, dirs []string) []string {
	i := strings.Index(readme, "| directory | role |")
	if i < 0 {
		return []string{"README.md: no \"| directory | role |\" module table"}
	}
	table := readme[i:]
	if j := strings.Index(table, "\n\n"); j >= 0 {
		table = table[:j]
	}
	count := map[string]int{}
	for _, m := range moduleRow.FindAllStringSubmatch(table, -1) {
		count[m[1]]++
	}
	var problems []string
	for _, d := range dirs {
		switch count[d] {
		case 0:
			problems = append(problems, fmt.Sprintf("README.md: the module table leaves out %s", d))
		case 1:
		default:
			problems = append(problems, fmt.Sprintf("README.md: the module table lists %s %d times", d, count[d]))
		}
		delete(count, d)
	}
	for d := range count {
		problems = append(problems, fmt.Sprintf("README.md: the module table lists %s, which is no directory under internal/, cmd/ or examples/", d))
	}
	slices.Sort(problems)
	return problems
}

var codeSpan = regexp.MustCompile("`([^`]+)`")

// figureGoldenProblems checks that each row of EXPERIMENTS.md's figures
// table quotes a line of golden, or names a benchmark of the repo.
func figureGoldenProblems(experiments, golden string, tests map[string]bool) []string {
	sec := section(experiments, "## Figures at HEAD")
	if sec == "" {
		return []string{"EXPERIMENTS.md: no \"## Figures at HEAD\" section"}
	}
	lines := map[string]bool{}
	for _, l := range strings.Split(golden, "\n") {
		lines[strings.TrimSpace(l)] = true
	}
	var problems []string
	rows := 0
	for _, row := range strings.Split(sec, "\n") {
		cells := strings.Split(strings.Trim(row, "| "), " | ")
		if !strings.HasPrefix(row, "|") || strings.HasPrefix(row, "|---") || len(cells) < 2 || cells[0] == "figure" {
			continue
		}
		rows++
		quotes := codeSpan.FindAllStringSubmatch(cells[len(cells)-1], -1)
		if len(quotes) == 0 {
			problems = append(problems, fmt.Sprintf("EXPERIMENTS.md: figures row %q quotes no golden line and names no benchmark", cells[0]))
		}
		for _, q := range quotes {
			switch {
			case strings.HasPrefix(q[1], "Benchmark"):
				if !tests[q[1]] {
					problems = append(problems, fmt.Sprintf("EXPERIMENTS.md: figures row %q names %s, which is no benchmark of the repo", cells[0], q[1]))
				}
			case !lines[strings.TrimSpace(q[1])]:
				problems = append(problems, fmt.Sprintf("EXPERIMENTS.md: figures row %q quotes %q, which is no line of %s", cells[0], q[1], specGolden))
			}
		}
	}
	if rows == 0 {
		problems = append(problems, "EXPERIMENTS.md: the figures table has no rows")
	}
	return problems
}

// figureVerdictProblems checks that the verdict cell of each row of
// EXPERIMENTS.md's figures table that quotes golden lines opens with the
// verdict TestFigureClaims computed for it (verdicts: "row\tverdict"
// lines), and that every computed verdict has its row.
func figureVerdictProblems(experiments, verdicts string) []string {
	computed := map[string]string{}
	for _, l := range strings.Split(strings.TrimSpace(verdicts), "\n") {
		if row, v, ok := strings.Cut(l, "\t"); ok {
			computed[row] = v
		}
	}
	var problems []string
	col := -1
	for _, row := range strings.Split(section(experiments, "## Figures at HEAD"), "\n") {
		cells := strings.Split(strings.Trim(row, "| "), " | ")
		if !strings.HasPrefix(row, "|") || strings.HasPrefix(row, "|---") {
			continue
		}
		if cells[0] == "figure" {
			col = slices.Index(cells, "verdict")
			continue
		}
		quotes := codeSpan.FindAllStringSubmatch(cells[len(cells)-1], -1)
		if col < 0 || col >= len(cells) || len(quotes) == 0 || strings.HasPrefix(quotes[0][1], "Benchmark") {
			continue // the golden-line check reports what is malformed
		}
		want, ok := computed[cells[0]]
		delete(computed, cells[0])
		word := strings.TrimRight(strings.Fields(cells[col] + " ?")[0], ":;,")
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("EXPERIMENTS.md: figures row %q has no verdict in %s (TestFigureClaims)", cells[0], specVerdicts))
		case word != want:
			problems = append(problems, fmt.Sprintf("EXPERIMENTS.md: figures row %q reads %q, but TestFigureClaims computes %q", cells[0], word, want))
		}
	}
	for row := range computed {
		problems = append(problems, fmt.Sprintf("%s: %q is no row of EXPERIMENTS.md's figures table", specVerdicts, row))
	}
	slices.Sort(problems)
	return problems
}

// sizeProblems reports a document larger than its ceiling (0: none).
func sizeProblems(name, doc string, ceiling int) []string {
	if ceiling > 0 && len(doc) > ceiling {
		return []string{fmt.Sprintf("%s is %d bytes, past its ceiling of %d: cut as much as you add, and move history to CHANGES.md", name, len(doc), ceiling)}
	}
	return nil
}

// TestSpecLintCatches runs each check of TestSpecLint on a fixture that
// holds the mistake the check guards against.
func TestSpecLintCatches(t *testing.T) {
	tests := map[string]bool{"TestReal": true, "BenchmarkReal": true}
	for _, c := range []struct {
		name     string
		problems []string
		want     string
	}{
		{"unknown test name", unknownTestNames("DESIGN.md", "held by `TestReal/hybrid` and `TestGone`; a Testbed is no test", tests),
			"TestGone is not a test"},
		{"guarantee with no test", guaranteeProblems("## Guarantees\n\n### G1. Claim\n\n**Precondition.** none.\n\n**Tests.** none yet.\n", tests),
			"G1 names no test"},
		{"guarantee with no precondition", guaranteeProblems("## Guarantees\n\n### G1. Claim\n\n**Tests.** `TestReal`.\n", tests),
			"G1 states no **Precondition.**"},
		{"guarantees out of order", guaranteeProblems("## Guarantees\n\n### G2. Claim\n\n**Precondition.** none.\n\n**Tests.** `TestReal`.\n", tests),
			"G2 is number 1"},
		{"exception with no test", guaranteeProblems("## Guarantees\n\n### G1. Claim\n\n**Precondition.** none.\n\n**Tests.** `TestReal`.\n\n**Exception (g).** a copy lingers.\n", tests),
			"exception (g) names no test"},
		{"exception with no defect", guaranteeProblems("## Guarantees\n\n### G1. Claim\n\n**Precondition.** none.\n\n**Tests.** `TestReal`.\n\n**Exception.** `TestReal` pins it.\n", tests),
			"names no defect letter"},
		{"missing package", moduleMapProblems("| directory | role |\n|---|---|\n| `internal/core` | instance |\n", []string{"internal/core", "internal/flowmap"}),
			"leaves out internal/flowmap"},
		{"package listed twice", moduleMapProblems("| directory | role |\n|---|---|\n| `internal/core` | a |\n| `internal/core` | b |\n", []string{"internal/core"}),
			"lists internal/core 2 times"},
		{"golden line not found", figureGoldenProblems("## Figures at HEAD\n\n| figure | measured | golden line |\n|---|---|---|\n| Fig 6 | 3.0x | `ratio 10K/1K = 3.00` |\n", "ratio 10K/1K = 2.99\n", tests),
			"which is no line of"},
		{"unknown flag", unknownFlags("EXPERIMENTS.md", "run `go run ./cmd/yodasim -exp all -parallel -seed 1 | diff - golden`", map[string]map[string]bool{"yodasim": {"exp": true, "seed": true}}),
			"yodasim cites -parallel, which cmd/yodasim/main.go does not define"},
		{"verdict differs", figureVerdictProblems("## Figures at HEAD\n\n| figure | verdict | golden line |\n|---|---|---|\n| Fig 6 | reproduced | `ratio = 2.99` |\n", "Fig 6\tdeviates\n"),
			"but TestFigureClaims computes \"deviates\""},
		{"verdict not computed", figureVerdictProblems("## Figures at HEAD\n\n| figure | verdict | golden line |\n|---|---|---|\n| Fig 6 | reproduced | `ratio = 2.99` |\n", ""),
			"has no verdict"},
		{"verdict of no row", figureVerdictProblems("## Figures at HEAD\n\n| figure | verdict | golden line |\n|---|---|---|\n", "Fig 7\treproduced\n"),
			"is no row"},
		{"document past its ceiling", sizeProblems("DESIGN.md", strings.Repeat("x", 11), 10),
			"DESIGN.md is 11 bytes, past its ceiling of 10"},
		{"benchmark not found", figureGoldenProblems("## Figures at HEAD\n\n| figure | measured | golden line |\n|---|---|---|\n| Fig 16 | 1 s | `BenchmarkGone` |\n", "", tests),
			"BenchmarkGone, which is no benchmark"},
	} {
		if !slices.ContainsFunc(c.problems, func(p string) bool { return strings.Contains(p, c.want) }) {
			t.Errorf("%s: the check reported %q, want a problem containing %q", c.name, c.problems, c.want)
		}
	}
	// And the clean fixtures pass.
	if p := unknownFlags("README.md", "`yodasim -exp mflow [-seed N] [--recovery hybrid] | diff - x` and `yodasim -exp all && b -parallel`, see cmd/yodasim/main.go -x",
		map[string]map[string]bool{"yodasim": {"exp": true, "seed": true, "recovery": true}}); len(p) > 0 {
		t.Errorf("well-formed flag citations reported %q", p)
	}
	if p := guaranteeProblems("## Guarantees\n\n### G1. Claim\n\n**Precondition.** none.\n\n**Tests.** `TestReal`.\n\n**Exception (g).** `TestReal/hybrid` pins it.\n\n## Next\n", tests); len(p) > 0 {
		t.Errorf("a well-formed guarantee reported %q", p)
	}
	if p := figureGoldenProblems("## Figures at HEAD\n\n| figure | measured | golden line |\n|---|---|---|\n| Fig 6 | 3.0x | `ratio = 2.99` |\n| Fig 16 | 1 s | `BenchmarkReal` |\n", "  ratio = 2.99\n", tests); len(p) > 0 {
		t.Errorf("a well-formed figures table reported %q", p)
	}
}
