package core

import (
	"repro/internal/netsim"
	"repro/internal/securesim"
)

// SSL termination (§5.2). The securesim protocol is engineered so that
// termination composes with Yoda's availability machinery:
//
//   - ciphertext is length-preserving, so the tunnel keeps doing pure
//     sequence translation and per-packet keystream XOR (no buffering);
//   - the ServerHello is a deterministic function of the client's hello
//     and the service identity, so any instance can (re)send it — the
//     paper's "another YODA instance resends the entire certificate";
//   - the session key is persisted to TCPStore *before* the ServerHello
//     ACKs the client's hello, honouring the storage-before-ACK rule.
//
// TLS flows are pinned to their backend for the connection's lifetime
// (keep-alive re-selection would require re-inspecting ciphertext
// mid-stream; documented simplification).

// flowTLS is the in-memory secure-session state.
type flowTLS struct {
	key            [32]byte
	serverHelloLen int
}

// InstallTLS configures SSL termination for a VIP: the certificate
// presented to clients and the shared service secret from which every
// instance derives identical handshake keys.
func (in *Instance) InstallTLS(vip netsim.IP, id *securesim.Identity) {
	in.tlsIdents[vip] = id
}

// clientDataBase returns the sequence number of the first application
// byte from the client (after the SYN, and after the ClientHello for
// TLS flows).
func (f *flow) clientDataBase() uint32 {
	base := f.clientISN + 1
	if f.tls != nil {
		base += uint32(securesim.ClientHelloSize)
	}
	return base
}

// toClientDataBase returns the first application-byte sequence number in
// the instance→client direction (after the SYN-ACK, and after the
// ServerHello for TLS flows).
func (f *flow) toClientDataBase() uint32 {
	base := f.c + 1
	if f.tls != nil {
		base += uint32(f.tls.serverHelloLen)
	}
	return base
}

// tlsAdvance processes TLS framing in the connection phase. It returns
// true when the packet is fully handled (handshake still in progress) and
// HTTP parsing must not run yet. prevLen is len(reqBuf) before this
// packet's bytes were assembled; on exit reqBuf holds plaintext
// application data only.
func (in *Instance) tlsAdvance(f *flow, prevLen int) bool {
	if f.tls != nil {
		// Established: decrypt the newly assembled ciphertext in place.
		// Positions in reqBuf equal keystream offsets (length preserved).
		if len(f.reqBuf) > prevLen {
			dec := securesim.KeystreamXOR(f.tls.key, securesim.DirClientToServer,
				uint64(prevLen), f.reqBuf[prevLen:])
			copy(f.reqBuf[prevLen:], dec)
		}
		return false
	}
	id := in.tlsIdents[f.vip.IP]
	if id == nil {
		return false
	}
	is, complete := securesim.IsClientHello(f.reqBuf)
	if !is {
		return false // plaintext HTTP on a TLS-enabled VIP is still served
	}
	if !complete {
		// ACK what we have and wait for the rest of the hello.
		in.net.Send(&netsim.Packet{
			Src: f.vip, Dst: f.client,
			Flags: netsim.FlagACK, Seq: f.c + 1, Ack: f.clientNextSeq,
		})
		return true
	}
	serverHello, key, err := id.ServerAccept(f.reqBuf[:securesim.ClientHelloSize])
	if err != nil {
		in.reject(f, 400, "bad TLS hello")
		return true
	}
	tail := f.reqBuf[securesim.ClientHelloSize:]
	f.tls = &flowTLS{key: key, serverHelloLen: len(serverHello)}
	if len(tail) > 0 {
		f.reqBuf = securesim.KeystreamXOR(key, securesim.DirClientToServer, 0, tail)
	} else {
		f.reqBuf = nil
	}
	// Persist the session key before the ServerHello acknowledges the
	// hello (the hello will never be retransmitted once ACKed, and the
	// key cannot be recomputed without it). Under StrictPersist a flow
	// whose key is unrecoverable is dropped before the hello is ACKed:
	// the client's hello retransmissions hit a dead tuple and it retries
	// with a fresh connection.
	in.writeBarrier(f, in.barrierEntries(f, PhaseConn, false), func() {
		in.sendServerHello(f, serverHello)
		// Early data may already contain the full request.
		in.tryDispatchRequest(f)
	}, func(error) {
		in.teardown(f, false)
	})
	return true
}

// sendServerHello emits the deterministic handshake reply.
func (in *Instance) sendServerHello(f *flow, serverHello []byte) {
	in.net.Send(&netsim.Packet{
		Src: f.vip, Dst: f.client,
		Flags:   netsim.FlagACK | netsim.FlagPSH,
		Seq:     f.c + 1,
		Ack:     f.clientNextSeq,
		Window:  1 << 20,
		Payload: serverHello,
	})
}

// tlsDecryptFromClient transforms a tunneled client payload to plaintext.
func (f *flow) tlsDecryptFromClient(seq uint32, payload []byte) []byte {
	if f.tls == nil || len(payload) == 0 {
		return payload
	}
	return securesim.KeystreamXOR(f.tls.key, securesim.DirClientToServer,
		uint64(seq-f.clientDataBase()), payload)
}

// tlsEncryptToClient transforms a tunneled server payload to ciphertext.
func (f *flow) tlsEncryptToClient(serverSeq uint32, payload []byte) []byte {
	if f.tls == nil || len(payload) == 0 {
		return payload
	}
	return securesim.KeystreamXOR(f.tls.key, securesim.DirServerToClient,
		uint64(serverSeq-(f.s+1)), payload)
}
