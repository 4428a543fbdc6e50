// Package experiments contains one runner per table and figure of the
// paper's evaluation (§2.3 Table 1, §4.4 Figure 6, §7 Figures 9–14, §8
// Figures 15–16). A cluster-backed runner is a testbed.Config — the
// deployment — plus a measurement: it drives the bed with the testbed's
// open- or closed-loop load and FailLB/FailBusiest, and returns a result
// object whose String method prints the same rows/series the paper
// reports, so EXPERIMENTS.md can record paper-vs-measured side by side.
// mflow scripts its endpoints and fig10 has no cluster; both assemble
// their own.
//
// Scale note: the simulated testbeds reproduce the paper's *per-instance*
// operating points (request rates per instance, CPU utilization levels,
// failure timings) at reduced aggregate scale where the full scale would
// only multiply identical simulated work; every such reduction is stated
// in the relevant runner's documentation.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/workload"
)

// oneObject is the object set of a single-URL workload: a synthesized
// body of the given size at path.
func oneObject(path string, size int) map[string][]byte {
	return map[string][]byte{path: workload.SynthBody(path, size)}
}

// fmtMs renders a duration in milliseconds with two decimals, the unit
// used throughout the paper's latency plots.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.2f ms", float64(d)/float64(time.Millisecond))
}

// fmtPct renders a fraction as a percentage.
func fmtPct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// table renders rows with aligned columns for terminal output.
func table(header []string, rows [][]string) string {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			for p := len(c); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
