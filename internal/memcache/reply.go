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
	Items []Item // for ReplyValues
	N     int    // stored-record count for ReplyMStored
}

// ReplyParser incrementally parses the server side of the text protocol.
// It must be told whether the next expected reply is for a get, because
// those are multi-line and terminated by END while storage replies are
// single-line. Callers enqueue the expectation when they send the request.
//
// Single-line replies (the storage-write steady state) parse without
// allocating: lines are matched as bytes. Multi-line VALUE replies still
// copy keys and values out — they cross into caller-owned Items.
type ReplyParser struct {
	buf bytes.Buffer
	// pending expectation ring: multi[mhead:] are outstanding replies,
	// true = multi-line (END-terminated). The consumed prefix is reclaimed
	// once the ring drains, so steady-state traffic never reallocates.
	multi []bool
	mhead int
	// in-progress multi-line accumulation
	items []Item
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
// order, without building a reply slice. fn must not retain the Reply's
// Items beyond the call if it recycles them (the parser itself does not).
func (p *ReplyParser) FeedFunc(data []byte, fn func(Reply)) {
	p.buf.Write(data)
	for p.mhead < len(p.multi) {
		r, ok := p.step()
		if !ok {
			break
		}
		fn(r)
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
			p.items = append(p.items, Item{
				Key:   string(fields[1]),
				Flags: uint32(flags),
				Value: append([]byte(nil), raw[nl+2:nl+2+size]...),
			})
			p.buf.Next(need)
			continue
		}
		p.buf.Next(nl + 2)
		p.items = nil
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
