package experiments

import (
	"fmt"
	"time"

	"repro/internal/httpsim"
	"repro/internal/testbed"
)

// WebsiteProfile models one of Table 1's websites: its browser-side HTTP
// timeout and whether the workload is a page load (retryable) or an
// ongoing session (a media stream or mail sync, where a broken connection
// is a user-visible session reset).
type WebsiteProfile struct {
	Name    string
	Timeout time.Duration
	Retries int
	Session bool // true: long-lived session; false: page load
}

// Table1Websites are the six sites the paper reports.
func Table1Websites() []WebsiteProfile {
	const firefoxTimeout = 300 * time.Second // 5 min (default Mozilla Firefox)
	return []WebsiteProfile{
		{Name: "nytimes", Timeout: firefoxTimeout, Retries: 1},
		{Name: "reddit", Timeout: firefoxTimeout, Retries: 1},
		{Name: "stanford", Timeout: firefoxTimeout, Retries: 1},
		{Name: "vimeo", Timeout: firefoxTimeout, Session: true},
		{Name: "soundcloud", Timeout: firefoxTimeout, Session: true},
		{Name: "email service", Timeout: 100 * time.Second, Session: true}, // C# HttpWebRequest default
	}
}

// Table1Row is one website's observed impact.
type Table1Row struct {
	Website       string
	HAProxyImpact string // "page timed-out (+Xs)" or "session reset"
	YodaImpact    string // expected "none (+Xs)"
	HAProxyExtra  time.Duration
	YodaExtra     time.Duration
}

// Table1Result reproduces Table 1 (and extends it with the Yoda column:
// the same failure under Yoda is invisible to the user).
type Table1Result struct {
	Rows []Table1Row
}

// RunTable1 breaks one established connection per website by failing the
// proxy that carries it, and classifies the user-visible impact.
func RunTable1(seed int64) *Table1Result {
	res := &Table1Result{}
	for i, site := range Table1Websites() {
		hImpact, hExtra := table1Arm(seed+int64(i)*10, site, false)
		yImpact, yExtra := table1Arm(seed+int64(i)*10+5, site, true)
		res.Rows = append(res.Rows, Table1Row{
			Website:       site.Name,
			HAProxyImpact: hImpact,
			YodaImpact:    yImpact,
			HAProxyExtra:  hExtra,
			YodaExtra:     yExtra,
		})
	}
	return res
}

// table1Arm loads one large object ("the established connection"),
// fails the carrying LB instance mid-transfer, and classifies the result.
func table1Arm(seed int64, site WebsiteProfile, yoda bool) (string, time.Duration) {
	objSize := 300 * 1024
	b := testbed.New(testbed.Config{
		Seed: seed, Objects: oneObject("/stream", objSize),
		Backends: 2, Stores: 3, LBs: 2, HAProxy: !yoda,
	})

	ccfg := httpsim.DefaultClientConfig()
	ccfg.Timeout = site.Timeout
	ccfg.Retries = 0
	if !site.Session {
		ccfg.Retries = site.Retries
	}
	cl := b.C.NewClient(ccfg)
	var res *httpsim.FetchResult
	cl.Get(b.Addr, "/stream", func(r *httpsim.FetchResult) { res = r })

	// Baseline transfer time without failure, for the "+extra" column.
	base := table1Baseline(seed, yoda, objSize)

	// Fail the instance that carries the flow mid-transfer; the bed
	// stands in for the monitor and withdraws it a ping interval later.
	b.C.Net.RunFor(200 * time.Millisecond)
	b.FailBusiest(1)
	b.C.Net.RunFor(2 * site.Timeout)
	if res == nil {
		return "no result (bug)", 0
	}
	extra := res.Elapsed() - base
	if extra < 0 {
		extra = 0
	}
	switch {
	case res.Err != nil:
		return "session reset", extra
	case res.TimedOut:
		return fmt.Sprintf("page timed-out (+%.0fs)", extra.Seconds()), extra
	case extra > 5*time.Second:
		return fmt.Sprintf("page delayed (+%.1fs)", extra.Seconds()), extra
	default:
		return fmt.Sprintf("none (+%.1fs)", extra.Seconds()), extra
	}
}

func table1Baseline(seed int64, yoda bool, objSize int) time.Duration {
	b := testbed.New(testbed.Config{
		Seed: seed + 1000, Objects: oneObject("/stream", objSize),
		Backends: 1, Stores: 3, LBs: 1, HAProxy: !yoda,
	})
	cl := b.C.NewClient(httpsim.DefaultClientConfig())
	var base time.Duration
	cl.Get(b.Addr, "/stream", func(r *httpsim.FetchResult) { base = r.Elapsed() })
	b.C.Net.RunFor(time.Minute)
	return base
}

// String prints the table with the added Yoda column.
func (r *Table1Result) String() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{row.Website, row.HAProxyImpact, row.YodaImpact})
	}
	return "Table 1 — impact of proxy failure on one established connection\n" +
		table([]string{"website", "impact (HAProxy)", "impact (YODA)"}, rows)
}
