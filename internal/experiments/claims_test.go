package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// A claim holds one row of EXPERIMENTS.md's "Figures at HEAD" table to the
// paper: each check selects golden lines of `yodasim -exp all -seed 1`
// (the lines the row quotes), parses their numbers and holds them to the
// paper's band. The verdict follows from the checks alone: reproduced when
// every one holds, deviates when none does, partly otherwise, extension
// for a row with no paper claim. A row that quotes a benchmark instead of
// a golden line (§8's solve time) has no claim.
type claim struct {
	row    string // the table's first cell
	checks []check
}

type check struct {
	band string // the paper's claim, in words
	line string // a regexp selecting golden lines; its groups are parsed
	// lines is how many golden lines line must select (0 means 1).
	lines int
	ok    func(v []float64) bool // v: the groups that parse as numbers, NaN otherwise
}

// within reports whether x is in [lo, hi].
func within(x, lo, hi float64) bool { return lo <= x && x <= hi }

// figureClaims is every band the figures are held to, in one place: a
// band changes here, in a reviewed diff, and the verdicts follow.
var figureClaims = []claim{
	{"Table 1", []check{
		{"a page load times out behind a failed proxy, and not behind Yoda",
			`^(?:nytimes|reddit|stanford) +page timed-out \(\+(\d+)s\) +none \(\+([\d.]+)s\)`, 3,
			func(v []float64) bool { return v[0] >= 300 && v[1] < 5 }},
		{"a session resets behind a failed proxy, and not behind Yoda",
			`^(?:vimeo|soundcloud|email service) +session reset +none \(\+([\d.]+)s\)`, 3,
			func(v []float64) bool { return v[0] < 5 }},
	}},
	{"Fig 6", []check{{"P90 lookup grows ~3× from 1K to 10K rules (2.5–3.5×)",
		`^latency\(10K\)/latency\(1K\) = ([\d.]+)x`, 0, func(v []float64) bool { return within(v[0], 2.5, 3.5) }}}},
	{"Fig 9", []check{{"storage costs under 1 ms per flow",
		`^storage overhead per flow = ([\d.]+) ms`, 0, func(v []float64) bool { return v[0] < 1 }}}},
	{"Fig 10", []check{{"2-replica latency overhead under 24 %",
		`^replication latency overhead at max rate = ([\d.]+)%`, 0, func(v []float64) bool { return v[0] < 24 }}}},
	{"Fig 11", []check{{"memcached CPU ~2× with 2 replicas (1.8–2.2×)",
		`^replication CPU ratio at max rate = ([\d.]+)x`, 0, func(v []float64) bool { return within(v[0], 1.8, 2.2) }}}},
	{"Fig 10, hybrid arm (beyond the paper)", nil},
	{"§7.1", []check{
		{"Yoda saturates at 12K req/s (at least 95 % CPU)",
			`^12000 +([\d.]+)% +([\d.]+)%`, 0, func(v []float64) bool { return v[0] >= 95 }},
		{"HAProxy at 46 % CPU at 12K req/s (±10 points)",
			`^12000 +([\d.]+)% +([\d.]+)%`, 0, func(v []float64) bool { return math.Abs(v[1]-46) <= 10 }},
	}},
	{"Fig 12(a)", []check{
		{"Yoda breaks no flow in flight",
			`yoda broke ([\d.]+)%, haproxy-noretry broke ([\d.]+)%`, 0, func(v []float64) bool { return v[0] == 0 }},
		{"HAProxy-noretry breaks flows in flight (24 %)",
			`yoda broke ([\d.]+)%, haproxy-noretry broke ([\d.]+)%`, 0, func(v []float64) bool { return v[1] > 0 }},
	}},
	{"Fig 12(a) tails", []check{
		{"Yoda's worst request is 0.6–3 s late",
			`^yoda max extra latency=([\d.]+)s`, 0, func(v []float64) bool { return within(v[0], 0.6, 3) }},
		{"HAProxy-retry's tail waits out the 30 s timeout",
			`haproxy-retry tail=([\d.]+)s`, 0, func(v []float64) bool { return v[0] >= 30 }},
	}},
	{"Fig 12(b)", []check{
		{"the monitor repairs the mapping 600 ms after the failure",
			`^ *t= +\+(\d+)ms +monitor updates L4 mapping`, 0, func(v []float64) bool { return v[0] == 600 }},
		{"the flow resumes without a client timeout",
			`^flow recovered without client timeout: (true)$`, 0, func([]float64) bool { return true }},
	}},
	{"Fig 13", []check{
		{"the controller adds 3 instances at the load step",
			`^instances added by controller: (\d+)`, 0, func(v []float64) bool { return v[0] == 3 }},
		{"no flow breaks",
			`broken flows: (\d+) of 150000`, 0, func(v []float64) bool { return v[0] == 0 }},
	}},
	{"Fig 14", []check{
		{"the split follows 1:1:2 (each share within 5 points)",
			`^30-40s 1:1:2\(2,3,4\) +([\d.]+)% +([\d.]+)% +([\d.]+)% +([\d.]+)%`, 0,
			func(v []float64) bool {
				return math.Abs(v[1]-25) <= 5 && math.Abs(v[2]-25) <= 5 && math.Abs(v[3]-50) <= 5
			}},
		{"no flow breaks",
			`^broken flows: (\d+) of 8000`, 0, func(v []float64) bool { return v[0] == 0 }},
	}},
	{"Fig 15", []check{
		{"max/avg spans 1.07–50.3× (each end within 2×)",
			`^ratio range ([\d.]+)x–([\d.]+)x`, 0, func(v []float64) bool { return within(v[0], 1.07/2, 1.07*2) && within(v[1], 50.3/2, 50.3*2) }},
		{"the mean saving is 3.7× (within 2×)",
			`mean LB cost saving ([\d.]+)x`, 0, func(v []float64) bool { return within(v[0], 3.7/2, 3.7*2) }},
	}},
	{"Fig 16(b)", []check{{"rules per instance: median 1 % of all-to-all (within 2×)",
		`^16\(b\) median rules per instance vs all-to-all: ([\d.]+)%`, 0, func(v []float64) bool { return within(v[0], 0.5, 2) }}}},
	{"Fig 16(c)", []check{
		{"instances +4.6–73 % over all-to-all",
			`^16\(c\) instances vs all-to-all: \+([\d.]+)% mean`, 0, func(v []float64) bool { return within(v[0], 4.6, 73) }},
		{"the limit costs at most +5 % instances over no-limit (+1.3 %)",
			`limit vs no-limit: ([+-][\d.]+)% median`, 0, func(v []float64) bool { return v[0] <= 5 }},
	}},
	{"Fig 16(d)", []check{
		{"no transient overload under the limit (at most 1 %)",
			`^16\(d\) transient overload: .*, limit median ([\d.]+)%`, 0, func(v []float64) bool { return v[0] <= 1 }},
		{"no-limit transient overload 5.3 % (within 2×)",
			`^16\(d\) transient overload: no-limit median ([\d.]+)%`, 0, func(v []float64) bool { return within(v[0], 5.3/2, 5.3*2) }},
	}},
	{"Fig 16(e)", []check{
		{"no-limit migrates 44.9 % of flows (within 2×)",
			`^16\(e\) flows migrated: no-limit median ([\d.]+)%`, 0, func(v []float64) bool { return within(v[0], 44.9/2, 44.9*2) }},
		{"the limit migrates at most 2 × 8.3 % of flows",
			`^16\(e\) flows migrated: .*, limit median ([\d.]+)%`, 0, func(v []float64) bool { return v[0] <= 2*8.3 }},
	}},
	{"§7.5", []check{
		{"a rolling upgrade fails no request",
			`^requests=\d+ failed=(\d+)`, 0, func(v []float64) bool { return v[0] == 0 }},
		{"no wave moves more than δ of the traffic",
			`δ=([\d.]+)%, measured max wave=([\d.]+)%`, 0, func(v []float64) bool { return v[1] <= v[0] }},
	}},
}

// figureVerdicts is the file that records each claim's verdict at seed 1,
// for TestSpecLint to hold EXPERIMENTS.md's verdict column to.
const figureVerdicts = "testdata/figure_verdicts.txt"

// verdict returns c's verdict on golden, with a line per check, or an
// error when a check selects the wrong number of golden lines.
func (c claim) verdict(golden []string) (string, []string, error) {
	if len(c.checks) == 0 {
		return "extension", nil, nil
	}
	held := 0
	var report []string
	for _, k := range c.checks {
		re := regexp.MustCompile(k.line)
		want, got, ok := max(k.lines, 1), 0, true
		for _, l := range golden {
			m := re.FindStringSubmatch(strings.TrimRight(l, " "))
			if m == nil {
				continue
			}
			got++
			v := make([]float64, len(m)-1)
			for i, s := range m[1:] {
				f, err := strconv.ParseFloat(s, 64)
				if err != nil {
					f = math.NaN()
				}
				v[i] = f
			}
			ok = ok && k.ok(v)
		}
		if got != want {
			return "", nil, fmt.Errorf("%s: %q selects %d golden lines, want %d", c.row, k.line, got, want)
		}
		if ok {
			held++
		}
		report = append(report, fmt.Sprintf("%s: %s: %v", c.row, k.band, ok))
	}
	switch held {
	case len(c.checks):
		return "reproduced", report, nil
	case 0:
		return "deviates", report, nil
	}
	return "partly", report, nil
}

// claimsOutput, when set, names an `yodasim -exp all` output of another
// seed: TestFigureClaims then logs every verdict on it and records
// nothing (scripts/ci.sh runs seeds 2-5 through it).
var claimsOutput = flag.String("claims.output", "", "judge this -exp all output instead of all_seed1.golden, and only log the verdicts")

// TestFigureClaims computes every figure's verdict from all_seed1.golden
// and holds it to figureVerdicts, which TestSpecLint holds EXPERIMENTS.md
// to. A changed verdict is a changed file: delete it and rerun to
// re-record, and the EXPERIMENTS.md row follows. With -claims.output it
// logs each verdict on that output as "verdict <row>\t<verdict>".
func TestFigureClaims(t *testing.T) {
	path := "testdata/all_seed1.golden"
	if *claimsOutput != "" {
		path = *claimsOutput
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := strings.Split(string(b), "\n")
	var out strings.Builder
	for _, c := range figureClaims {
		v, report, err := c.verdict(golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range report {
			t.Log(r)
		}
		fmt.Fprintf(&out, "%s\t%s\n", c.row, v)
	}
	if *claimsOutput != "" {
		for _, l := range strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n") {
			t.Log("verdict " + l)
		}
		return
	}
	recorded, err := os.ReadFile(figureVerdicts)
	if os.IsNotExist(err) {
		if err := os.WriteFile(figureVerdicts, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", figureVerdicts)
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	if string(recorded) != out.String() {
		t.Fatalf("the verdicts changed; delete %s and rerun to re-record, then update EXPERIMENTS.md:\nrecorded:\n%s\ncomputed:\n%s", figureVerdicts, recorded, out.String())
	}
}

// TestFigureClaimsVerdicts holds verdict's rule to fixtures: all, none and
// some checks held, no checks, and a check whose line is gone.
func TestFigureClaimsVerdicts(t *testing.T) {
	golden := []string{"a = 1", "b = 2 "}
	is := func(want float64) func(v []float64) bool { return func(v []float64) bool { return v[0] == want } }
	for _, c := range []struct {
		claim claim
		want  string
	}{
		{claim{"both", []check{{"", `^a = (\d)`, 0, is(1)}, {"", `^b = (\d)$`, 0, is(2)}}}, "reproduced"},
		{claim{"one", []check{{"", `^a = (\d)`, 0, is(1)}, {"", `^b = (\d)`, 0, is(3)}}}, "partly"},
		{claim{"none", []check{{"", `^a = (\d)`, 0, is(0)}}}, "deviates"},
		{claim{"beyond", nil}, "extension"},
	} {
		if got, _, err := c.claim.verdict(golden); err != nil || got != c.want {
			t.Errorf("%s: verdict %q (%v), want %q", c.claim.row, got, err, c.want)
		}
	}
	if _, _, err := (claim{"gone", []check{{"", `^c = (\d)`, 0, is(1)}}}).verdict(golden); err == nil {
		t.Error("a check whose golden line is gone gave a verdict")
	}
	if _, _, err := (claim{"twice", []check{{"", `^[ab] = (\d)`, 0, is(1)}}}).verdict(golden); err == nil {
		t.Error("a check that selects two lines where it wants one gave a verdict")
	}
}
