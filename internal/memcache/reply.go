package memcache

import (
	"bytes"
)

// ReplyType classifies a server response.
type ReplyType int

// Reply types.
const (
	ReplyStored ReplyType = iota
	ReplyNotFound
	ReplyDeleted
	ReplyValues // get result (possibly empty) terminated by END
	ReplyError
	ReplyMStored // batched mset result; N carries the stored count
)

// Reply is one parsed server response.
type Reply struct {
	Type  ReplyType
	Items []ReplyItem // for ReplyValues
	N     int         // stored-record count for ReplyMStored
}

// ReplyItem is one VALUE block of a get reply. Key and Value are lent
// from the parser's scratch for the FeedFunc callback only: a caller that
// keeps either copies it.
type ReplyItem struct {
	Key   []byte
	Flags uint32
	Value []byte
}

// ReplyParser incrementally parses the server side of the text protocol.
// It must be told whether the next expected reply is for a get, because
// those are multi-line and terminated by END while storage replies are
// single-line. Callers enqueue the expectation when they send the request.
//
// Replies parse without allocating once the scratch is warm: lines are
// matched as bytes, and a VALUE reply's keys and values are copied into
// scratch the parser reuses after the reply's callback returns.
type ReplyParser struct {
	buf bytes.Buffer
	// pending expectation ring: multi[mhead:] are outstanding replies,
	// true = multi-line (END-terminated). The consumed prefix is reclaimed
	// once the ring drains, so steady-state traffic never reallocates.
	multi []bool
	mhead int
	// in-progress multi-line accumulation: the items, and the bytes of
	// their keys and values (a VALUE block may arrive in an earlier Feed
	// than its reply's END, so its bytes cannot stay in buf)
	items []ReplyItem
	held  []byte
	// fields is the VALUE-line tokenizer scratch.
	fields [][]byte
}

// Expect registers that the next reply is multi-line (get) or
// single-line.
func (p *ReplyParser) Expect(multiLine bool) {
	if p.mhead == len(p.multi) {
		p.multi = p.multi[:0]
		p.mhead = 0
	}
	p.multi = append(p.multi, multiLine)
}

// FeedFunc consumes bytes and invokes fn for each completed reply, in
// order, without building a reply slice. The Reply's Items are lent for
// the call only: the parser reuses their arrays for the next reply.
func (p *ReplyParser) FeedFunc(data []byte, fn func(Reply)) {
	p.buf.Write(data)
	for p.mhead < len(p.multi) {
		r, ok := p.step()
		if !ok {
			break
		}
		fn(r)
		p.items, p.held = p.items[:0], p.held[:0]
	}
}

// consumeExpect retires the reply currently being parsed.
func (p *ReplyParser) consumeExpect() {
	p.mhead++
	if p.mhead == len(p.multi) {
		p.multi = p.multi[:0]
		p.mhead = 0
	}
}

func (p *ReplyParser) step() (Reply, bool) {
	isMulti := p.multi[p.mhead]
	for {
		raw := p.buf.Bytes()
		nl := bytes.Index(raw, []byte("\r\n"))
		if nl < 0 {
			return Reply{}, false
		}
		line := raw[:nl]
		r := Reply{Type: ReplyError} // anything unrecognised, mid-retrieval included
		switch {
		case !isMulti:
			r = singleLineReply(line)
		case string(line) == "END":
			r = Reply{Type: ReplyValues, Items: p.items}
		case bytes.HasPrefix(line, []byte("VALUE ")):
			p.fields = appendFields(p.fields[:0], line)
			fields := p.fields
			if len(fields) < 4 {
				break
			}
			size, serr := atoiField(fields[3])
			if serr || size < 0 {
				break
			}
			need := nl + 2 + size + 2
			if len(raw) < need {
				return Reply{}, false
			}
			flags, _ := parseUintField(fields[2], 32)
			// A grow of held may move it; the items taken before keep the
			// old array, whose bytes do not change.
			at := len(p.held)
			p.held = append(append(p.held, fields[1]...), raw[nl+2:nl+2+size]...)
			kv := p.held[at:len(p.held):len(p.held)]
			p.items = append(p.items, ReplyItem{
				Key:   kv[:len(fields[1]):len(fields[1])],
				Flags: uint32(flags),
				Value: kv[len(fields[1]):],
			})
			p.buf.Next(need)
			continue
		}
		p.buf.Next(nl + 2)
		p.consumeExpect()
		return r, true
	}
}

func singleLineReply(line []byte) Reply {
	switch {
	case string(line) == "STORED":
		return Reply{Type: ReplyStored}
	case string(line) == "NOT_FOUND":
		return Reply{Type: ReplyNotFound}
	case string(line) == "DELETED":
		return Reply{Type: ReplyDeleted}
	case bytes.HasPrefix(line, []byte("MSTORED ")):
		if n, err := atoiField(line[len("MSTORED "):]); !err && n >= 0 {
			return Reply{Type: ReplyMStored, N: n}
		}
	}
	return Reply{Type: ReplyError}
}
