package rules

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/httpsim"
)

// FuzzSelectDifferential drives the compiled engine and the retained
// linear scan from fuzzer-chosen inputs: a seed picks a random rule
// table (through the same generator the differential test uses) and the
// raw strings shape the request directly, so the fuzzer can explore
// paths/hosts/cookies the hand-written corpora never contain. Any
// divergence in Decision — winner, OK, Scanned, or rule identity — is a
// crash.
func FuzzSelectDifferential(f *testing.F) {
	f.Add(int64(1), "/a.jpg", "svc", "GET", "session=u1", uint16(0))
	f.Add(int64(2), "/api/v1/users", "", "POST", "", uint16(7))
	f.Add(int64(3), "/exact/path", "tenant-a", "GET", "session=u1; theme=dark", uint16(12345))
	f.Add(int64(4), "", "other.com", "PUT", "a=b;;c==d;  session = u1", uint16(999))
	f.Add(int64(5), "/img/x.png", "svc", "HEAD", "session=", uint16(1))

	backends := diffBackends()
	f.Fuzz(func(t *testing.T, tableSeed int64, path, host, method, cookie string, rndBits uint16) {
		if strings.ContainsAny(path+host+method+cookie, "\r\n") {
			return // not representable in a parsed request
		}
		rng := rand.New(rand.NewSource(tableSeed))
		rs, e, tables, info := randomDiffTable(rng, backends)

		req := &httpsim.Request{Method: method, Path: path, Version: "HTTP/1.1"}
		if host != "" {
			req.SetHeader("Host", host)
		}
		if cookie != "" {
			req.SetHeader("Cookie", cookie)
		}
		rnd := float64(rndBits) / (1 << 16) // uniform in [0,1)

		got := e.Select(req, rnd, info)
		lin := e.SelectLinear(req, rnd, info)
		if got.OK != lin.OK || got.Backend != lin.Backend || got.Scanned != lin.Scanned || got.Rule != lin.Rule {
			t.Fatalf("compiled vs linear diverged:\n rules=%v\n req=%q %q host=%q cookie=%q rnd=%v\n compiled=%+v\n linear=%+v",
				rs, method, path, host, cookie, rnd, got, lin)
		}
		// The oracle re-implements cookie lookup through the same request
		// accessor, so it also cross-checks the memoized cookie view.
		wantB, wantOK, wantScanned := referenceSelect(rs, tables, req, rnd, info)
		if got.OK != wantOK || got.Backend != wantB || got.Scanned != wantScanned {
			t.Fatalf("compiled vs oracle diverged:\n rules=%v\n req=%q %q host=%q cookie=%q rnd=%v\n compiled=(%v,%v,%d) oracle=(%v,%v,%d)",
				rs, method, path, host, cookie, rnd,
				got.Backend, got.OK, got.Scanned, wantB, wantOK, wantScanned)
		}
	})
}
