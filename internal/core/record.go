// Package core implements the Yoda instance: the packet driver that
// terminates client connections using the VIP, selects backends by L7
// rules, dials the backend reusing the client's initial sequence number,
// decouples every piece of per-flow TCP state into TCPStore before
// acknowledging the packet that created it, and tunnels established flows
// at L3 with pure sequence-number translation (§3–§4 of the paper).
//
// An instance never runs a kernel-style TCP state machine for balanced
// flows: like the paper's nfqueue-based packet driver, it crafts and
// rewrites raw segments. Its only real TCP endpoints are the long-lived
// connections of its TCPStore (Memcached) client.
package core

import (
	"encoding/binary"
	"errors"

	"repro/internal/netsim"
)

// FlowPhase marks how far a flow has progressed, and therefore what a
// recovering instance must do with it.
type FlowPhase byte

// Flow phases as persisted in TCPStore.
const (
	// PhaseConn is the connection phase: the client SYN has been
	// acknowledged (storage-a) but no backend connection exists yet.
	PhaseConn FlowPhase = 1
	// PhaseTunnel is the tunneling phase: the backend handshake finished
	// and both translation constants are pinned (storage-b).
	PhaseTunnel FlowPhase = 2
)

// Record is the flow state decoupled into TCPStore. A PhaseConn record is
// written at storage-a (Figure 3) before the SYN-ACK is sent; a
// PhaseTunnel record replaces it at storage-b before the ACK to the
// server. Either suffices for another instance to take the flow over.
type Record struct {
	Phase     FlowPhase
	Client    netsim.HostPort // client endpoint
	VIP       netsim.HostPort // VIP-side endpoint the client talks to
	ClientISN uint32          // client's initial sequence number

	// Tunnel-phase fields (valid when Phase == PhaseTunnel).
	Server netsim.HostPort // selected backend
	SNAT   netsim.HostPort // VIP-side endpoint used toward the backend
	C      uint32          // instance ISN facing the client
	S      uint32          // backend ISN
	// Delta is the server→client sequence translation: seqToClient =
	// seqFromServer + Delta, ackToServer = ackFromClient − Delta. It
	// starts as C−S and is rebased when HTTP/1.1 re-selection switches
	// backends mid-connection.
	Delta       uint32
	KeepAlive   bool
	BackendName string

	// TLS carries the session's symmetric state when the flow is an SSL-
	// terminated connection (§5.2): the key plus the handshake sizes that
	// pin the keystream offsets. It must be persisted with storage-a as
	// soon as the handshake completes — the ServerHello ACKs the client's
	// hello, so the hello's contents (the key material) would otherwise
	// be unrecoverable after a failure.
	TLS *TLSState
}

// TLSState is the recoverable secure-session state.
type TLSState struct {
	Key [32]byte
	// ServerHelloLen is the size of the ServerHello in the instance→client
	// byte stream (the client hello size is a protocol constant).
	ServerHelloLen uint16
}

// ErrBadRecord reports a corrupt or truncated TCPStore value.
var ErrBadRecord = errors.New("core: malformed flow record")

const recordMagic = 0xF7

// Marshal encodes the record into the compact binary format stored in
// TCPStore.
func (r *Record) Marshal() []byte {
	size := 2 + 12 + 4
	if r.Phase == PhaseTunnel {
		size += 12 + 4 + 4 + 4 + 1 + 2 + len(r.BackendName)
	}
	return r.AppendMarshal(make([]byte, 0, size+40))
}

// AppendMarshal appends the record's encoding to b (usually caller-owned
// scratch) and returns the extended slice. The bytes are identical to
// Marshal's.
func (r *Record) AppendMarshal(b []byte) []byte {
	b = append(b, recordMagic, byte(r.Phase))
	b = appendHostPort(b, r.Client)
	b = appendHostPort(b, r.VIP)
	b = binary.BigEndian.AppendUint32(b, r.ClientISN)
	if r.Phase == PhaseTunnel {
		b = appendHostPort(b, r.Server)
		b = appendHostPort(b, r.SNAT)
		b = binary.BigEndian.AppendUint32(b, r.C)
		b = binary.BigEndian.AppendUint32(b, r.S)
		b = binary.BigEndian.AppendUint32(b, r.Delta)
		if r.KeepAlive {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.BigEndian.AppendUint16(b, uint16(len(r.BackendName)))
		b = append(b, r.BackendName...)
	}
	// Trailing optional TLS section (both phases).
	if r.TLS != nil {
		b = append(b, 1)
		b = append(b, r.TLS.Key[:]...)
		b = binary.BigEndian.AppendUint16(b, r.TLS.ServerHelloLen)
	} else {
		b = append(b, 0)
	}
	return b
}

// UnmarshalRecord decodes a TCPStore value.
func UnmarshalRecord(b []byte) (*Record, error) {
	if len(b) < 2 || b[0] != recordMagic {
		return nil, ErrBadRecord
	}
	r := &Record{Phase: FlowPhase(b[1])}
	if r.Phase != PhaseConn && r.Phase != PhaseTunnel {
		return nil, ErrBadRecord
	}
	p := b[2:]
	var ok bool
	if r.Client, p, ok = readHostPort(p); !ok {
		return nil, ErrBadRecord
	}
	if r.VIP, p, ok = readHostPort(p); !ok {
		return nil, ErrBadRecord
	}
	if len(p) < 4 {
		return nil, ErrBadRecord
	}
	r.ClientISN = binary.BigEndian.Uint32(p)
	p = p[4:]
	if r.Phase == PhaseConn {
		return r, readTLSTrailer(r, p)
	}
	if r.Server, p, ok = readHostPort(p); !ok {
		return nil, ErrBadRecord
	}
	if r.SNAT, p, ok = readHostPort(p); !ok {
		return nil, ErrBadRecord
	}
	if len(p) < 4+4+4+1+2 {
		return nil, ErrBadRecord
	}
	r.C = binary.BigEndian.Uint32(p)
	r.S = binary.BigEndian.Uint32(p[4:])
	r.Delta = binary.BigEndian.Uint32(p[8:])
	r.KeepAlive = p[12] == 1
	nameLen := int(binary.BigEndian.Uint16(p[13:]))
	p = p[15:]
	if len(p) < nameLen {
		return nil, ErrBadRecord
	}
	r.BackendName = string(p[:nameLen])
	return r, readTLSTrailer(r, p[nameLen:])
}

// readTLSTrailer decodes the optional TLS section at the record's tail.
func readTLSTrailer(r *Record, p []byte) error {
	if len(p) < 1 {
		return ErrBadRecord
	}
	switch p[0] {
	case 0:
		return nil
	case 1:
		if len(p) < 1+32+2 {
			return ErrBadRecord
		}
		st := &TLSState{}
		copy(st.Key[:], p[1:33])
		st.ServerHelloLen = binary.BigEndian.Uint16(p[33:35])
		r.TLS = st
		return nil
	default:
		return ErrBadRecord
	}
}

func appendHostPort(b []byte, hp netsim.HostPort) []byte {
	b = binary.BigEndian.AppendUint32(b, uint32(hp.IP))
	b = binary.BigEndian.AppendUint16(b, hp.Port)
	return b
}

func readHostPort(b []byte) (netsim.HostPort, []byte, bool) {
	if len(b) < 6 {
		return netsim.HostPort{}, nil, false
	}
	hp := netsim.HostPort{
		IP:   netsim.IP(binary.BigEndian.Uint32(b)),
		Port: binary.BigEndian.Uint16(b[4:]),
	}
	return hp, b[6:], true
}

const hexDigits = "0123456789abcdef"

// FlowKeyLen is the fixed encoded length of a flow key:
// "yoda:f:" + 8 + ':' + 4 + ':' + 8 + ':' + 4.
const FlowKeyLen = 7 + 8 + 1 + 4 + 1 + 8 + 1 + 4

// AppendFlowKey appends the TCPStore key for a flow as seen from one
// direction to dst and returns the extended slice. Both the client tuple
// (client→VIP) and the SNAT return tuple (server→VIP) map to the same
// record so that a recovering instance can look the flow up from
// whichever side retransmits first. The bytes are the
// "yoda:f:%08x:%04x:%08x:%04x" rendering — the on-the-wire key format is
// pinned by recovery (a record written by one instance must be found by
// another) — built without fmt's reflection or allocation.
func AppendFlowKey(dst []byte, t netsim.FourTuple) []byte {
	dst = append(dst, "yoda:f:"...)
	dst = appendHex32(dst, uint32(t.Src.IP))
	dst = append(dst, ':')
	dst = appendHex16(dst, t.Src.Port)
	dst = append(dst, ':')
	dst = appendHex32(dst, uint32(t.Dst.IP))
	dst = append(dst, ':')
	dst = appendHex16(dst, t.Dst.Port)
	return dst
}

func appendHex32(dst []byte, v uint32) []byte {
	return append(dst,
		hexDigits[v>>28&0xf], hexDigits[v>>24&0xf],
		hexDigits[v>>20&0xf], hexDigits[v>>16&0xf],
		hexDigits[v>>12&0xf], hexDigits[v>>8&0xf],
		hexDigits[v>>4&0xf], hexDigits[v&0xf])
}

func appendHex16(dst []byte, v uint16) []byte {
	return append(dst,
		hexDigits[v>>12&0xf], hexDigits[v>>8&0xf],
		hexDigits[v>>4&0xf], hexDigits[v&0xf])
}
