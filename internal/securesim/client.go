package securesim

import (
	"bytes"
	"crypto/ecdh"
	"io"
	"math/rand"

	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// rngReader adapts the simulation's deterministic RNG to the io.Reader
// that key generation expects, keeping runs reproducible.
type rngReader struct{ rng *rand.Rand }

func (r rngReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.rng.Intn(256))
	}
	return len(p), nil
}

// RandReader returns a deterministic entropy source for key generation.
func RandReader(rng *rand.Rand) io.Reader { return rngReader{rng} }

// FetchResult is the outcome of a secure fetch.
type FetchResult struct {
	Resp *httpsim.Response
	Err  error
}

// Fetch performs one HTTPS-style request through the simulated network:
// TCP connect, securesim handshake (verifying the server's certificate
// against the pinned expectation), encrypted request, decrypted response.
// done fires inside the event loop.
func Fetch(host *netsim.Host, addr netsim.HostPort, pinnedCert []byte, req *httpsim.Request, done func(FetchResult)) {
	rng := host.Network().Rand()
	priv, err := ecdh.P256().GenerateKey(RandReader(rng))
	if err != nil {
		done(FetchResult{Err: err})
		return
	}
	hello, err := MarshalClientHello(priv.PublicKey().Bytes())
	if err != nil {
		done(FetchResult{Err: err})
		return
	}

	r := req.Clone()
	r.SetHeader("Connection", "close")
	plainReq := r.Marshal()

	var key [32]byte
	handshakeDone := false
	var inBuf bytes.Buffer // pre-handshake server bytes
	recvOffset := uint64(0)
	parser := &httpsim.ResponseParser{}
	finished := false
	finish := func(res FetchResult) {
		if finished {
			return
		}
		finished = true
		done(res)
	}

	tcp.Dial(host, addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			c.Write(hello)
		},
		OnData: func(c *tcp.Conn, d []byte) {
			if !handshakeDone {
				inBuf.Write(d)
				cert, serverPub, n, perr := ParseServerHello(inBuf.Bytes())
				if perr != nil {
					c.Abort()
					finish(FetchResult{Err: perr})
					return
				}
				if n == 0 {
					return // incomplete ServerHello
				}
				if !bytes.Equal(cert, pinnedCert) {
					c.Abort()
					finish(FetchResult{Err: ErrBadCert})
					return
				}
				key, perr = ClientFinish(priv, serverPub)
				if perr != nil {
					c.Abort()
					finish(FetchResult{Err: perr})
					return
				}
				handshakeDone = true
				// Send the encrypted request.
				c.Write(KeystreamXOR(key, DirClientToServer, 0, plainReq))
				// Any bytes past the hello are already application data.
				d = inBuf.Bytes()[n:]
				if len(d) == 0 {
					return
				}
			}
			plain := KeystreamXOR(key, DirServerToClient, recvOffset, d)
			recvOffset += uint64(len(d))
			resps, perr := parser.Feed(plain)
			if perr != nil {
				c.Abort()
				finish(FetchResult{Err: perr})
				return
			}
			if len(resps) > 0 {
				c.Close()
				finish(FetchResult{Resp: resps[0]})
			}
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
		OnFail: func(c *tcp.Conn, err error) {
			finish(FetchResult{Err: err})
		},
	}, tcp.DefaultConfig())
}
