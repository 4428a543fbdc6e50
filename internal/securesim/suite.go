// Package securesim implements the SSL termination described in §5.2 as
// a simplified TLS-like protocol engineered to coexist with Yoda's two
// availability mechanisms:
//
//   - The cipher is length-preserving (AES-256-CTR keystream XOR), so the
//     ciphertext of a byte stream occupies exactly the same sequence
//     space as its plaintext. Yoda can therefore keep tunneling encrypted
//     flows at L3 — decrypting client payloads toward the backend and
//     encrypting backend payloads toward the client by keystream offset
//     (derived from the TCP sequence number), packet by packet, with no
//     buffering and no reframing.
//
//   - The handshake is deterministic given the client's hello and a
//     per-service secret: the server-side ECDH key is derived as
//     HKDF(serviceSecret, clientHello), so *any* Yoda instance — before
//     or after a failure — recomputes the same session key and the same
//     ServerHello bytes, exactly as the deterministic SYN-ACK ISN lets
//     any instance resume a handshake (§4.1). On failure during the
//     certificate transfer the next instance simply resends the identical
//     ServerHello, which is the behaviour the paper prescribes.
//
// The trade-off versus real TLS is documented and deliberate: no per-
// connection forward secrecy (the service secret plus a captured hello
// reproduce the session key) and no record-level integrity. What is real:
// X25519-style ECDH on P-256 via crypto/ecdh, AES-256 from crypto/aes,
// and SHA-256 key derivation.
package securesim

import (
	"crypto/aes"
	"crypto/ecdh"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Protocol constants.
var (
	helloMagic = []byte("YTLS")
	// P-256 uncompressed points are 65 bytes.
	pubKeySize = 65
)

// ClientHelloSize is the wire size of a ClientHello.
var ClientHelloSize = len(helloMagic) + pubKeySize

// Errors.
var (
	ErrBadHello      = errors.New("securesim: malformed hello")
	ErrBadCert       = errors.New("securesim: certificate mismatch")
	ErrKeyDerivation = errors.New("securesim: key derivation failed")
)

// Identity is a service's TLS-side configuration: the certificate bytes
// presented to clients and the secret all Yoda instances share for
// deterministic key derivation (installed by the operator alongside the
// certificate, as §5.2's "security certificates set by the operators").
type Identity struct {
	Cert   []byte
	Secret []byte
}

// NewIdentity builds an identity from operator-supplied material.
func NewIdentity(cert, secret []byte) *Identity {
	return &Identity{Cert: append([]byte(nil), cert...), Secret: append([]byte(nil), secret...)}
}

// MarshalClientHello produces the client's first flight for the given
// ephemeral public key.
func MarshalClientHello(clientPub []byte) ([]byte, error) {
	if len(clientPub) != pubKeySize {
		return nil, ErrBadHello
	}
	out := make([]byte, 0, ClientHelloSize)
	out = append(out, helloMagic...)
	out = append(out, clientPub...)
	return out, nil
}

// IsClientHello reports whether data begins with a (possibly incomplete)
// ClientHello. Complete tells whether all bytes are present.
func IsClientHello(data []byte) (is, complete bool) {
	n := len(helloMagic)
	if len(data) < n {
		// Could still become a hello; match the available prefix.
		for i := range data {
			if data[i] != helloMagic[i] {
				return false, false
			}
		}
		return true, false
	}
	for i := 0; i < n; i++ {
		if data[i] != helloMagic[i] {
			return false, false
		}
	}
	return true, len(data) >= ClientHelloSize
}

// ParseClientHello extracts the client's public key.
func ParseClientHello(data []byte) ([]byte, error) {
	if is, complete := IsClientHello(data); !is || !complete {
		return nil, ErrBadHello
	}
	return append([]byte(nil), data[len(helloMagic):ClientHelloSize]...), nil
}

// MarshalServerHello produces the server's reply: magic, certificate
// (length-prefixed) and the server public key.
func MarshalServerHello(cert, serverPub []byte) []byte {
	out := make([]byte, 0, len(helloMagic)+2+len(cert)+pubKeySize)
	out = append(out, helloMagic...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(cert)))
	out = append(out, cert...)
	out = append(out, serverPub...)
	return out
}

// ParseServerHello extracts the certificate and server public key,
// returning the number of bytes consumed. n=0 with nil error means more
// data is needed.
func ParseServerHello(data []byte) (cert, serverPub []byte, n int, err error) {
	head := len(helloMagic) + 2
	if len(data) < head {
		return nil, nil, 0, nil
	}
	for i := range helloMagic {
		if data[i] != helloMagic[i] {
			return nil, nil, 0, ErrBadHello
		}
	}
	certLen := int(binary.BigEndian.Uint16(data[len(helloMagic):]))
	total := head + certLen + pubKeySize
	if len(data) < total {
		return nil, nil, 0, nil
	}
	cert = append([]byte(nil), data[head:head+certLen]...)
	serverPub = append([]byte(nil), data[head+certLen:total]...)
	return cert, serverPub, total, nil
}

// deriveServerKey deterministically derives the service-side ECDH key for
// a given client hello: priv = H(secret ‖ clientPub ‖ counter), retrying
// the counter until the bytes form a valid P-256 scalar.
func (id *Identity) deriveServerKey(clientPub []byte) (*ecdh.PrivateKey, error) {
	curve := ecdh.P256()
	for ctr := byte(0); ctr < 64; ctr++ {
		h := sha256.New()
		h.Write(id.Secret)
		h.Write(clientPub)
		h.Write([]byte{ctr})
		if priv, err := curve.NewPrivateKey(h.Sum(nil)); err == nil {
			return priv, nil
		}
	}
	return nil, ErrKeyDerivation
}

// ServerAccept runs the service side of the handshake: given the client's
// hello, it returns the ServerHello bytes and the session key. The result
// is a pure function of (identity, hello), so any instance produces
// byte-identical output — the recovery property.
func (id *Identity) ServerAccept(clientHello []byte) (serverHello []byte, key [32]byte, err error) {
	clientPub, err := ParseClientHello(clientHello)
	if err != nil {
		return nil, key, err
	}
	curve := ecdh.P256()
	peer, err := curve.NewPublicKey(clientPub)
	if err != nil {
		return nil, key, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	priv, err := id.deriveServerKey(clientPub)
	if err != nil {
		return nil, key, err
	}
	shared, err := priv.ECDH(peer)
	if err != nil {
		return nil, key, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	key = sha256.Sum256(shared)
	return MarshalServerHello(id.Cert, priv.PublicKey().Bytes()), key, nil
}

// ClientFinish derives the session key on the client side from its own
// ephemeral private key and the server's public key.
func ClientFinish(clientPriv *ecdh.PrivateKey, serverPub []byte) (key [32]byte, err error) {
	peer, err := ecdh.P256().NewPublicKey(serverPub)
	if err != nil {
		return key, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	shared, err := clientPriv.ECDH(peer)
	if err != nil {
		return key, fmt.Errorf("%w: %v", ErrBadHello, err)
	}
	return sha256.Sum256(shared), nil
}

// KeystreamXOR encrypts/decrypts data in place-semantics (returning a new
// slice) at the given absolute stream offset: AES-256-CTR where the
// counter block is offset/16 and the intra-block position offset%16.
// Because XOR is an involution the same call decrypts. Offsets make the
// operation stateless per packet — exactly what per-packet tunnel
// rewriting needs.
func KeystreamXOR(key [32]byte, dir byte, offset uint64, data []byte) []byte {
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic("securesim: aes.NewCipher: " + err.Error()) // 32-byte key cannot fail
	}
	out := make([]byte, len(data))
	var ctr [16]byte
	var ks [16]byte
	blockIdx := offset / 16
	within := int(offset % 16)
	for i := 0; i < len(data); {
		ctr[0] = dir // domain-separate the two directions
		binary.BigEndian.PutUint64(ctr[8:], blockIdx)
		block.Encrypt(ks[:], ctr[:])
		for ; within < 16 && i < len(data); within++ {
			out[i] = data[i] ^ ks[within]
			i++
		}
		within = 0
		blockIdx++
	}
	return out
}

// Directions for KeystreamXOR's domain separation.
const (
	DirClientToServer byte = 1
	DirServerToClient byte = 2
)
