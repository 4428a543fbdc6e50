package core

import (
	"testing"
	"testing/quick"

	"repro/internal/netsim"
)

func TestRecordRoundTripConnPhase(t *testing.T) {
	for _, header := range []string{"", "GET /10k HTTP/1.1\r\n"} {
		for _, tls := range []*TLSState{nil, {Key: [32]byte{7}, ServerHelloLen: 300}} {
			r := &Record{
				Phase:     PhaseConn,
				Client:    netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
				VIP:       netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
				ClientISN: 0xDEADBEEF,
				TLS:       tls,
				header:    header,
			}
			got, err := UnmarshalRecord(r.Marshal())
			if err != nil {
				t.Fatal(err)
			}
			if got.header != r.header || (got.TLS == nil) != (tls == nil) || tls != nil && *got.TLS != *tls {
				t.Fatalf("round trip: %+v != %+v", got, r)
			}
			got.TLS, r.TLS = nil, nil
			if *got != *r {
				t.Fatalf("round trip: %+v != %+v", got, r)
			}
		}
	}
}

func TestRecordRoundTripTunnelPhase(t *testing.T) {
	r := &Record{
		Phase:       PhaseTunnel,
		Client:      netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
		VIP:         netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
		ClientISN:   1,
		Server:      netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 9), Port: 80},
		SNAT:        netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 22001},
		C:           0xCAFEBABE,
		S:           0x12345678,
		Delta:       0xCAFEBABE - 0x12345678,
		KeepAlive:   true,
		BackendName: "srv-7",
	}
	got, err := UnmarshalRecord(r.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *r {
		t.Fatalf("round trip: %+v != %+v", got, r)
	}
}

func TestRecordRoundTripProperty(t *testing.T) {
	f := func(cip, vip, sip uint32, cport, vport, sport, snat uint16,
		isn, cc, ss uint32, ka bool, name string) bool {
		r := &Record{
			Phase:       PhaseTunnel,
			Client:      netsim.HostPort{IP: netsim.IP(cip), Port: cport},
			VIP:         netsim.HostPort{IP: netsim.IP(vip), Port: vport},
			ClientISN:   isn,
			Server:      netsim.HostPort{IP: netsim.IP(sip), Port: sport},
			SNAT:        netsim.HostPort{IP: netsim.IP(vip), Port: snat},
			C:           cc,
			S:           ss,
			Delta:       cc - ss,
			KeepAlive:   ka,
			BackendName: name,
		}
		got, err := UnmarshalRecord(r.Marshal())
		return err == nil && *got == *r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{recordMagic},
		{recordMagic, 99},                // bad phase
		{recordMagic, byte(PhaseConn)},   // truncated
		{recordMagic, byte(PhaseTunnel)}, // truncated
	}
	for i, c := range cases {
		if _, err := UnmarshalRecord(c); err == nil {
			t.Errorf("case %d: no error", i)
		}
	}
	// Truncated mid-record.
	good := (&Record{Phase: PhaseTunnel, BackendName: "abc"}).Marshal()
	for cut := 1; cut < len(good); cut++ {
		if _, err := UnmarshalRecord(good[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestFlowKeyDistinct(t *testing.T) {
	a := netsim.FourTuple{
		Src: netsim.HostPort{IP: netsim.IPv4(1, 2, 3, 4), Port: 10},
		Dst: netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
	}
	b := a
	b.Src.Port = 11
	key := func(t netsim.FourTuple) string { return string(AppendFlowKey(nil, t)) }
	if key(a) == key(b) {
		t.Fatal("distinct tuples share a key")
	}
	if key(a) != key(a) {
		t.Fatal("key not deterministic")
	}
}

func TestISNHashDeterministicAndSpread(t *testing.T) {
	vip := netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80}
	seen := make(map[uint32]bool)
	for p := uint16(1); p <= 1000; p++ {
		cl := netsim.HostPort{IP: netsim.IPv4(100, 0, 0, 1), Port: p}
		a := isnHash(cl, vip)
		if a != isnHash(cl, vip) {
			t.Fatal("isnHash not deterministic")
		}
		seen[a] = true
	}
	if len(seen) < 990 {
		t.Fatalf("isnHash collisions: %d distinct of 1000", len(seen))
	}
}

func TestSeqDiff(t *testing.T) {
	if seqDiff(5, 3) != 2 || seqDiff(3, 5) != -2 {
		t.Fatal("basic diff")
	}
	// Wraparound.
	if seqDiff(2, 0xFFFFFFFE) != 4 {
		t.Fatalf("wrap diff = %d", seqDiff(2, 0xFFFFFFFE))
	}
}

func TestFrameRequests(t *testing.T) {
	r1 := []byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\n")
	r2 := []byte("POST /b HTTP/1.1\r\nHost: h\r\nContent-Length: 4\r\n\r\nBODY")
	buf := append(append([]byte(nil), r1...), r2...)
	frame := func(held []byte) *kaState {
		ka := &kaState{held: held, heldSeq: 7}
		ka.frame()
		return ka
	}
	ka := frame(buf)
	if len(ka.queue) != 2 || len(ka.held) != 0 || ka.heldSeq != 7+uint32(len(buf)) {
		t.Fatalf("frames=%d held=%d heldSeq=%d", len(ka.queue), len(ka.held), ka.heldSeq)
	}
	if ka.queue[0].req.Path != "/a" || ka.queue[1].req.Path != "/b" {
		t.Fatalf("paths: %s %s", ka.queue[0].req.Path, ka.queue[1].req.Path)
	}
	if string(ka.queue[1].raw) != string(r2) || ka.queue[1].startSeq != 7+uint32(len(r1)) {
		t.Fatalf("frame 2: %q at %d", ka.queue[1].raw, ka.queue[1].startSeq)
	}
	// Partial request: nothing framed, nothing given up.
	if ka = frame(r2[:20]); len(ka.queue) != 0 || len(ka.held) != 20 || ka.heldSeq != 7 {
		t.Fatalf("partial framed: %d %d", len(ka.queue), len(ka.held))
	}
	// Partial body: the first request goes, the second stays held.
	if ka = frame(buf[:len(buf)-2]); len(ka.queue) != 1 || string(ka.held) != string(r2[:len(r2)-2]) {
		t.Fatalf("partial body framed: %d %q", len(ka.queue), ka.held)
	}
}

// TestRecordUnmarshalIntoScratch: an adopter decodes every record into
// the same instance scratch. Each decode must equal a fresh
// UnmarshalRecord, whatever the record before it held (a TLS section, a
// tunnel's fields), and once a backend's name has been seen its decode
// allocates nothing.
func TestRecordUnmarshalIntoScratch(t *testing.T) {
	tunnel := Record{
		Phase:  PhaseTunnel,
		Client: netsim.HostPort{IP: netsim.IPv4(100, 1, 2, 3), Port: 41000},
		VIP:    netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 80},
		Server: netsim.HostPort{IP: netsim.IPv4(10, 0, 2, 9), Port: 80},
		SNAT:   netsim.HostPort{IP: netsim.IPv4(10, 255, 0, 1), Port: 22001},
		C:      7, S: 9, Delta: 0xFFFFFFFE, BackendName: "srv-7",
		TLS: &TLSState{Key: [32]byte{1, 2, 3}, ServerHelloLen: 77},
	}
	conn := Record{Phase: PhaseConn, Client: tunnel.Client, VIP: tunnel.VIP, ClientISN: 5}
	other := tunnel
	other.TLS, other.BackendName = nil, "srv-8"
	var scratch Record
	var ts TLSState
	var ns names
	for _, want := range []Record{tunnel, conn, other, tunnel, other} {
		b := want.Marshal()
		if err := scratch.unmarshal(b, &ts, &ns); err != nil {
			t.Fatal(err)
		}
		fresh, err := UnmarshalRecord(b)
		if err != nil {
			t.Fatal(err)
		}
		got, wantR := scratch, *fresh
		if (got.TLS == nil) != (wantR.TLS == nil) || got.TLS != nil && *got.TLS != *wantR.TLS {
			t.Fatalf("TLS: %+v, want %+v", got.TLS, wantR.TLS)
		}
		got.TLS, wantR.TLS = nil, nil
		if got != wantR {
			t.Fatalf("decoded into scratch: %+v, want %+v", got, wantR)
		}
	}
	b := other.Marshal()
	if allocs := testing.AllocsPerRun(100, func() { _ = scratch.unmarshal(b, &ts, &ns) }); allocs != 0 {
		t.Fatalf("decoding a record with a known backend name allocates %.1f objects", allocs)
	}
}
