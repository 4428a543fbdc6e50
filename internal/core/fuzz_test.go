package core

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalRecord must never panic on arbitrary TCPStore values —
// after a failure an instance decodes bytes written by another process
// version, so corrupt input is a real input class.
func FuzzUnmarshalRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add((&Record{Phase: PhaseConn}).Marshal())
	f.Add((&Record{Phase: PhaseTunnel, BackendName: "srv"}).Marshal())
	bad := (&Record{Phase: PhaseTunnel, BackendName: "srv"}).Marshal()
	bad[1] = 99
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := UnmarshalRecord(data)
		if err != nil {
			return
		}
		// Accepted records must re-marshal to an equivalent record.
		again, err2 := UnmarshalRecord(rec.Marshal())
		if err2 != nil {
			t.Fatalf("re-unmarshal of accepted record failed: %v", err2)
		}
		if *again != *rec {
			t.Fatalf("round trip changed record: %+v vs %+v", again, rec)
		}
	})
}

// FuzzFrameRequests must never panic, and the frames plus what stays
// held must be exactly the bytes given, in order.
func FuzzFrameRequests(f *testing.F) {
	f.Add([]byte("GET /a HTTP/1.1\r\nHost: h\r\n\r\n"))
	f.Add([]byte("POST /b HTTP/1.1\r\nContent-Length: 4\r\n\r\nBODY"))
	f.Add([]byte("\r\n\r\n\r\n\r\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		ka := &kaState{held: data, heldSeq: 1000}
		ka.frame()
		var joined []byte
		seq := uint32(1000)
		for _, fr := range ka.queue {
			if fr.startSeq != seq {
				t.Fatalf("frame starts at %d, want %d", fr.startSeq, seq)
			}
			seq += uint32(len(fr.raw))
			joined = append(joined, fr.raw...)
		}
		if ka.heldSeq != seq || !bytes.Equal(append(joined, ka.held...), data) {
			t.Fatalf("%d frames + %d held bytes (seq %d) do not add up to the %d given", len(ka.queue), len(ka.held), ka.heldSeq, len(data))
		}
	})
}
