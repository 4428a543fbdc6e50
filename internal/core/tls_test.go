package core_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/securesim"
	"repro/internal/testbed"
	"repro/internal/workload"
)

type tlsBed struct {
	*testbed.Bed
	id   *securesim.Identity
	objs map[string][]byte
}

func newTLSBed(t *testing.T, seed int64, nYoda int) *tlsBed {
	t.Helper()
	objs := map[string][]byte{
		"/secret":     []byte("classified payload"),
		"/secret-big": workload.SynthBody("/secret-big", 150*1024),
	}
	b := testbed.New(testbed.Config{Seed: seed, Objects: objs, Backends: 2, Stores: 3, LBs: nYoda})
	id := securesim.NewIdentity([]byte("-----CERT securesite-----"), []byte("shared-service-secret"))
	for _, in := range b.C.Yoda {
		in.InstallTLS(b.VIP, id)
	}
	return &tlsBed{Bed: b, id: id, objs: objs}
}

func (b *tlsBed) fetch(t *testing.T, path string, pinned []byte, timeout time.Duration) securesim.FetchResult {
	t.Helper()
	host := b.C.ClientHost()
	var res *securesim.FetchResult
	securesim.Fetch(host, b.Addr, pinned,
		httpsim.NewRequest(path, "securesite"), func(r securesim.FetchResult) { res = &r })
	b.C.Net.RunFor(timeout)
	if res == nil {
		t.Fatal("secure fetch never resolved")
	}
	return *res
}

func TestTLSTerminationEndToEnd(t *testing.T) {
	b := newTLSBed(t, 71, 2)
	res := b.fetch(t, "/secret", b.id.Cert, 10*time.Second)
	if res.Err != nil {
		t.Fatalf("secure fetch: %v", res.Err)
	}
	if string(res.Resp.Body) != "classified payload" {
		t.Fatalf("body: %q", res.Resp.Body)
	}
}

func TestTLSLargeTransferDecryptsIntact(t *testing.T) {
	b := newTLSBed(t, 72, 2)
	res := b.fetch(t, "/secret-big", b.id.Cert, 30*time.Second)
	if res.Err != nil {
		t.Fatalf("secure fetch: %v", res.Err)
	}
	if !bytes.Equal(res.Resp.Body, b.objs["/secret-big"]) {
		t.Fatalf("large encrypted body corrupted: %d bytes", len(res.Resp.Body))
	}
}

func TestTLSWireIsActuallyEncrypted(t *testing.T) {
	b := newTLSBed(t, 73, 1)
	plaintext := []byte("classified payload")
	leaked := false
	b.C.Net.SetTracer(func(ev netsim.TraceEvent) {
		pkt := ev.Packet
		// Only the VIP<->client leg must be opaque; the instance->backend
		// leg is terminated plaintext by design.
		clientLeg := pkt.Src.IP == b.VIP || pkt.Dst.IP == b.VIP
		backendLeg := pkt.Dst.Port == 80 && pkt.Src.Port >= 20000 || pkt.Src.Port == 80
		if clientLeg && !backendLeg && bytes.Contains(pkt.Payload, plaintext) {
			leaked = true
		}
	})
	res := b.fetch(t, "/secret", b.id.Cert, 10*time.Second)
	if res.Err != nil {
		t.Fatalf("secure fetch: %v", res.Err)
	}
	if leaked {
		t.Fatal("plaintext observed on the client leg")
	}
}

func TestTLSCertificatePinningRejectsImpostor(t *testing.T) {
	b := newTLSBed(t, 74, 1)
	res := b.fetch(t, "/secret", []byte("-----CERT someone-else-----"), 10*time.Second)
	if res.Err != securesim.ErrBadCert {
		t.Fatalf("err = %v, want certificate mismatch", res.Err)
	}
}

func TestTLSFlowSurvivesInstanceFailure(t *testing.T) {
	// The headline composition: an encrypted, terminated flow migrates to
	// a surviving instance — session key from TCPStore, keystream offsets
	// from sequence numbers — without the client noticing.
	b := newTLSBed(t, 75, 2)
	host := b.C.ClientHost()
	var res *securesim.FetchResult
	securesim.Fetch(host, b.Addr, b.id.Cert,
		httpsim.NewRequest("/secret-big", "securesite"), func(r securesim.FetchResult) { res = &r })
	b.C.Net.RunFor(200 * time.Millisecond) // mid-transfer
	victim := b.FailBusiest(1)[0]
	b.C.Net.RunFor(30 * time.Second)
	if res == nil {
		t.Fatal("secure fetch never resolved")
	}
	if res.Err != nil {
		t.Fatalf("encrypted flow broke across failover: %v", res.Err)
	}
	if !bytes.Equal(res.Resp.Body, b.objs["/secret-big"]) {
		t.Fatal("body corrupted across encrypted failover")
	}
	if b.C.Yoda[1-victim].Recovered == 0 {
		t.Fatal("survivor did not recover the TLS flow from TCPStore")
	}
}

func TestTLSAndPlaintextCoexistOnOneVIP(t *testing.T) {
	b := newTLSBed(t, 76, 1)
	// Plain HTTP on the TLS-enabled VIP still works (the hello sniffing
	// only diverts streams that start with the protocol magic).
	cl := b.C.NewClient(httpsim.DefaultClientConfig())
	var plain *httpsim.FetchResult
	cl.Get(b.Addr, "/secret", func(r *httpsim.FetchResult) { plain = r })
	b.C.Net.RunFor(10 * time.Second)
	if plain == nil || plain.Err != nil {
		t.Fatalf("plain fetch on TLS VIP: %+v", plain)
	}
	sec := b.fetch(t, "/secret", b.id.Cert, 10*time.Second)
	if sec.Err != nil {
		t.Fatalf("secure fetch: %v", sec.Err)
	}
}

func TestTLSRecordRoundTrip(t *testing.T) {
	r := &core.Record{
		Phase:     core.PhaseConn,
		Client:    netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
		VIP:       netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
		ClientISN: 7,
		TLS:       &core.TLSState{ServerHelloLen: 92},
	}
	for i := range r.TLS.Key {
		r.TLS.Key[i] = byte(i * 3)
	}
	got, err := core.UnmarshalRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if got.TLS == nil || got.TLS.Key != r.TLS.Key || got.TLS.ServerHelloLen != 92 {
		t.Fatalf("TLS state lost: %+v", got.TLS)
	}
}
