package securesim

import (
	"bytes"
	"crypto/ecdh"
	"math/rand"
	"testing"
	"testing/quick"
)

func testIdentity() *Identity {
	return NewIdentity([]byte("-----CERT mysite-----"), []byte("service-secret-42"))
}

func clientKey(t testing.TB, seed int64) *ecdh.PrivateKey {
	t.Helper()
	priv, err := ecdh.P256().GenerateKey(RandReader(rand.New(rand.NewSource(seed))))
	if err != nil {
		t.Fatal(err)
	}
	return priv
}

func TestHandshakeAgreesOnKey(t *testing.T) {
	id := testIdentity()
	priv := clientKey(t, 1)
	hello, err := MarshalClientHello(priv.PublicKey().Bytes())
	if err != nil {
		t.Fatal(err)
	}
	serverHello, serverKey, err := id.ServerAccept(hello)
	if err != nil {
		t.Fatal(err)
	}
	cert, serverPub, n, err := ParseServerHello(serverHello)
	if err != nil || n != len(serverHello) {
		t.Fatalf("parse server hello: %v n=%d/%d", err, n, len(serverHello))
	}
	if !bytes.Equal(cert, id.Cert) {
		t.Fatal("certificate not transferred")
	}
	clientSide, err := ClientFinish(priv, serverPub)
	if err != nil {
		t.Fatal(err)
	}
	if clientSide != serverKey {
		t.Fatal("key disagreement")
	}
}

func TestHandshakeDeterministicAcrossInstances(t *testing.T) {
	// The recovery property: two independent "instances" holding the same
	// identity produce byte-identical ServerHellos and the same key for
	// the same client hello.
	priv := clientKey(t, 2)
	hello, _ := MarshalClientHello(priv.PublicKey().Bytes())
	a, keyA, errA := testIdentity().ServerAccept(hello)
	b, keyB, errB := testIdentity().ServerAccept(hello)
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	if !bytes.Equal(a, b) || keyA != keyB {
		t.Fatal("handshake not deterministic across instances")
	}
	// A different secret yields different keys.
	other := NewIdentity(testIdentity().Cert, []byte("other-secret"))
	_, keyC, _ := other.ServerAccept(hello)
	if keyC == keyA {
		t.Fatal("different secrets produced the same key")
	}
}

func TestIsClientHello(t *testing.T) {
	priv := clientKey(t, 3)
	hello, _ := MarshalClientHello(priv.PublicKey().Bytes())
	if is, complete := IsClientHello(hello); !is || !complete {
		t.Fatal("full hello not recognized")
	}
	if is, complete := IsClientHello(hello[:10]); !is || complete {
		t.Fatal("partial hello misclassified")
	}
	if is, _ := IsClientHello([]byte("GET / HTTP/1.1\r\n")); is {
		t.Fatal("HTTP request classified as hello")
	}
	if is, _ := IsClientHello([]byte("YT")); !is {
		t.Fatal("hello prefix rejected")
	}
	if is, _ := IsClientHello(nil); !is {
		t.Fatal("empty prefix must stay ambiguous-positive")
	}
}

func TestParseServerHelloIncremental(t *testing.T) {
	id := testIdentity()
	priv := clientKey(t, 4)
	hello, _ := MarshalClientHello(priv.PublicKey().Bytes())
	serverHello, _, _ := id.ServerAccept(hello)
	for cut := 0; cut < len(serverHello); cut++ {
		_, _, n, err := ParseServerHello(serverHello[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if n != 0 {
			t.Fatalf("cut %d: claimed completion", cut)
		}
	}
	_, _, n, err := ParseServerHello(serverHello)
	if err != nil || n != len(serverHello) {
		t.Fatalf("full parse: %v n=%d", err, n)
	}
}

func TestKeystreamInvolution(t *testing.T) {
	var key [32]byte
	for i := range key {
		key[i] = byte(i)
	}
	f := func(data []byte, offset uint32) bool {
		enc := KeystreamXOR(key, DirClientToServer, uint64(offset), data)
		dec := KeystreamXOR(key, DirClientToServer, uint64(offset), enc)
		return bytes.Equal(dec, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeystreamOffsetSplitting(t *testing.T) {
	// Encrypting a stream in one shot must equal encrypting it in
	// arbitrary packet-sized pieces at the right offsets — the property
	// per-packet tunnel rewriting relies on.
	var key [32]byte
	key[0] = 7
	rng := rand.New(rand.NewSource(5))
	data := make([]byte, 10000)
	rng.Read(data)
	whole := KeystreamXOR(key, DirServerToClient, 0, data)
	var pieced []byte
	off := 0
	for off < len(data) {
		n := 1 + rng.Intn(700)
		if off+n > len(data) {
			n = len(data) - off
		}
		pieced = append(pieced, KeystreamXOR(key, DirServerToClient, uint64(off), data[off:off+n])...)
		off += n
	}
	if !bytes.Equal(whole, pieced) {
		t.Fatal("piecewise keystream diverges from whole-stream")
	}
}

func TestKeystreamDirectionsDiffer(t *testing.T) {
	var key [32]byte
	data := make([]byte, 64)
	a := KeystreamXOR(key, DirClientToServer, 0, data)
	b := KeystreamXOR(key, DirServerToClient, 0, data)
	if bytes.Equal(a, b) {
		t.Fatal("directions share a keystream")
	}
}

func TestBadHellos(t *testing.T) {
	id := testIdentity()
	if _, _, err := id.ServerAccept([]byte("short")); err == nil {
		t.Fatal("short hello accepted")
	}
	bogus := append([]byte("YTLS"), bytes.Repeat([]byte{0xFF}, 65)...)
	if _, _, err := id.ServerAccept(bogus); err == nil {
		t.Fatal("invalid point accepted")
	}
	if _, _, _, err := ParseServerHello([]byte("NOPExxxxxx")); err == nil {
		t.Fatal("bad server hello magic accepted")
	}
}
