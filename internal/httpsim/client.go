package httpsim

import (
	"bytes"
	"errors"
	"math/bits"
	"slices"
	"sync"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Client-side fetch outcomes.
var (
	ErrHTTPTimeout = errors.New("httpsim: request timed out")
	ErrConnReset   = errors.New("httpsim: connection reset")
	ErrConnFailed  = errors.New("httpsim: connection failed")
)

// FetchResult reports the outcome of one object fetch. Client.Fetch
// lends it to done (see there): a caller that keeps it keeps a Clone.
type FetchResult struct {
	Resp     *Response
	Err      error
	Started  time.Duration // virtual time the fetch began (first attempt)
	Finished time.Duration // virtual time the fetch completed or failed
	Attempts int           // 1 = no retry
	// TimedOut is true when the HTTP timeout elapsed on any attempt.
	TimedOut bool
	// Conn is the TCP connection of the last attempt, for done to read
	// its stats (retransmits). It is valid only until done returns: the
	// client then releases it (tcp.Conn.Release) once it has closed.
	Conn *tcp.Conn
}

// Elapsed returns the end-to-end fetch duration.
func (r *FetchResult) Elapsed() time.Duration { return r.Finished - r.Started }

// Clone returns a copy of r that outlives done: its response, header
// set and body copied, and no Conn.
func (r *FetchResult) Clone() *FetchResult {
	c := *r
	c.Conn = nil
	if r.Resp != nil {
		c.Resp = &Response{Version: r.Resp.Version, StatusCode: r.Resp.StatusCode, Status: r.Resp.Status,
			Body: bytes.Clone(r.Resp.Body), header: slices.Clone(r.Resp.header)}
	}
	return &c
}

// ClientConfig tunes the browser-style client.
type ClientConfig struct {
	// Timeout is the HTTP timeout per attempt, e.g. 30s in the failure
	// experiment (§7.2) or 300s for the Firefox default (Table 1).
	Timeout time.Duration
	// Retries is how many additional attempts a timeout or reset triggers
	// (browser retry semantics from §7.2: 0 for noretry, 1 for retry).
	Retries int
	TCP     tcp.Config
}

// DefaultClientConfig uses the §7.2 settings (30 s timeout, no retry).
func DefaultClientConfig() ClientConfig {
	return ClientConfig{Timeout: 30 * time.Second, Retries: 0, TCP: tcp.DefaultConfig()}
}

// Client issues HTTP requests from a host, emulating browser behaviour:
// per-request timeout, optional retry on timeout or reset, one request
// per connection (HTTP/1.0-style; the Yoda keep-alive path is exercised
// through the KeepAliveClient below).
type Client struct {
	host   *netsim.Host
	cfg    ClientConfig
	spares netsim.Spares[*fetch] // fetches done with, for the next Fetch
	res    FetchResult           // the outcome lent to done
}

// NewClient creates a client on the given host.
func NewClient(host *netsim.Host, cfg ClientConfig) *Client {
	return &Client{host: host, cfg: cfg}
}

// Fetch requests path from addr and invokes done with the outcome. It
// drives the full TCP + HTTP exchange in virtual time. req is only read.
// The outcome is lent to done: the result is the client's, cleared when
// done returns and lent again with the next outcome, and the response,
// its header set and its body's array then go back to pools, cleared,
// and the next response is parsed into them. A done that keeps any of
// it keeps r.Clone() or what it copied; the result's Conn is valid only
// inside done too. done may start the next Fetch.
func (cl *Client) Fetch(addr netsim.HostPort, req *Request, done func(*FetchResult)) {
	f := cl.spares.Take()
	if f == nil {
		f = &fetch{cl: cl}
	}
	f.addr, f.req, f.retries, f.done = addr, req, cl.cfg.Retries, done
	f.started = cl.host.Network().Now()
	f.attempt()
}

// Get is a convenience wrapper fetching a path with a default request.
func (cl *Client) Get(addr netsim.HostPort, path string, done func(*FetchResult)) {
	cl.Fetch(addr, NewRequest(path, addr.IP.String()), done)
}

// fetch is one Fetch, the user word of its attempts' conns and the owner
// of their timeout timer (Fire). It is recycled as its outcome goes to
// done, while its last conn may still be closing: a callback whose conn
// is no longer the fetch's acts for nobody but releases the conn once it
// has closed.
type fetch struct {
	cl      *Client
	addr    netsim.HostPort
	req     *Request
	retries int // attempts still allowed after this one
	done    func(*FetchResult)
	conn    *tcp.Conn // the current attempt's
	timer   netsim.Timer
	parser  ResponseParser
	body    bodyLoan
	// The result so far, copied into the client's at finish.
	started  time.Duration
	attempts int
	timedOut bool
}

// attempt starts one try.
func (f *fetch) attempt() {
	f.attempts++
	f.parser = ResponseParser{}
	f.timer = f.cl.host.Network().Arm(f.cl.cfg.Timeout, f)
	f.conn = tcp.Dial(f.cl.host, f.addr, tcp.Callbacks{
		OnEstablished: fetchEstablished,
		OnData:        fetchData,
		OnPeerClose:   closeOnPeerClose,
		OnClose:       fetchClosed,
		OnFail:        fetchFailed,
		User:          f,
	}, f.cl.cfg.TCP)
}

// Fire times the attempt out.
func (f *fetch) Fire() {
	f.timedOut = true
	f.conn.Abort()
	f.finish(nil, ErrHTTPTimeout)
}

// finish resolves the attempt: a failure with retries left starts the
// next attempt, anything else is the fetch's outcome, and the fetch goes
// back to the spares first, for a done that fetches again. The response
// shell and the body array go back before the retry starts, or once done
// has returned; a failed attempt's never reach done. The outcome is
// cleared once done has returned, so an idle client holds neither the
// conn nor the shell. The conn is released once it has closed.
func (f *fetch) finish(resp *Response, err error) {
	nw, c := f.cl.host.Network(), f.conn
	nw.Stop(f.timer)
	shell := f.parser.p.cur // a failed attempt's response, parsed in part
	if resp != nil {
		shell = resp
	}
	if err != nil && f.retries > 0 {
		f.body.giveBack(nw)
		giveBackResponse(nw, shell)
		c.Release()
		f.retries--
		f.attempt()
		return
	}
	cl, done, body := f.cl, f.done, f.body
	cl.res = FetchResult{Resp: resp, Err: err, Started: f.started, Finished: nw.Now(),
		Attempts: f.attempts, TimedOut: f.timedOut, Conn: c}
	*f = fetch{cl: cl}
	cl.spares.Put(nw, f)
	done(&cl.res)
	cl.res = FetchResult{}
	body.giveBack(nw)
	giveBackResponse(nw, shell)
	if c.State() == tcp.StateClosed {
		c.Release()
	}
}

func fetchEstablished(c *tcp.Conn) {
	f := c.User().(*fetch)
	var head [256]byte // Writev copies it out before returning
	c.Writev(f.req.appendHead(head[:0], true), f.req.Body)
}

func fetchData(c *tcp.Conn, d []byte) {
	f := c.User().(*fetch)
	if f.conn != c {
		return // bytes past the response the fetch finished with
	}
	resps, err := f.parser.p.feed(d, takeResponse, parseResponse, (*Response).done, &f.body) // Feed, responses lent
	if err != nil {
		c.Abort()
		f.finish(nil, err)
		return
	}
	if len(resps) > 0 {
		c.Close()
		f.finish(resps[0], nil)
	}
}

func fetchFailed(c *tcp.Conn, err error) {
	f := c.User().(*fetch)
	if f.conn != c {
		c.Release()
	} else if errors.Is(err, tcp.ErrReset) {
		f.finish(nil, ErrConnReset)
	} else {
		f.finish(nil, ErrConnFailed)
	}
}

// fetchClosed releases a conn that closes after its fetch finished.
func fetchClosed(c *tcp.Conn) {
	if c.User().(*fetch).conn != c {
		c.Release()
	}
}

func closeOnPeerClose(c *tcp.Conn) { c.Close() }

// respShells holds the response shells Fetch has lent and taken back, for
// any client's next response: only a response still being parsed or read
// by done holds one, so an idle client pins none. Like bodyPools it is
// shared and locked, as experiments run on several goroutines at once.
var respShells struct {
	sync.Mutex
	netsim.Spares[*Response]
}

// takeResponse returns a shell from respShells, or nil if none is idle.
func takeResponse() *Response {
	respShells.Lock()
	defer respShells.Unlock()
	return respShells.Take()
}

// giveBackResponse reclaims a shell, if any, and files it in respShells
// (under PoisonReleasedBufs it is cleared but never reused).
func giveBackResponse(nw *netsim.Network, r *Response) {
	if r == nil {
		return
	}
	r.reclaim()
	respShells.Lock()
	respShells.Put(nw, r)
	respShells.Unlock()
}

// bodyPools holds the response-body arrays Fetch has lent and taken back,
// one bin per power-of-two size class: an array is filed under the power
// of two at or below its capacity and a body looks only in the bin of its
// own length, as netsim files send buffers, so a 2 KiB body never pins a
// 4 KiB array. A bin keeps at most bodyKeptBytes of arrays idle and drops
// one returned to it full: 16 arrays of a 512 KiB body's class, 4,096 of
// a 2 KiB body's, more than the bulk and short workloads' clients have in
// flight at once. A plain list, not a sync.Pool: a pool empties at every
// collection and the fetches after it make their arrays anew, so the bytes
// a request allocates would follow how often the collector runs. A lock
// per bin, as experiments run on several goroutines at once.
var bodyPools [bodyBins]struct {
	sync.Mutex
	kept []*[]byte
}

const bodyKeptBytes = 8 << 20

// bodyLoan is the one pooled array a fetch has borrowed for its
// response's body; box is nil while none is out. The pool's entries are
// *[]byte boxes that the borrowing fetch keeps, so a loan costs a fetch
// one word.
type bodyLoan struct{ box *[]byte }

// array returns an empty array for an n-byte body. A loan with none out
// borrows one from bodyPools: a warm hit is neither allocated nor zeroed.
// A nil loan, one whose array is already out (a second response in one
// segment) and an n over maxBodyPrealloc get a made array instead, of at
// most maxBodyPrealloc: a longer body grows as it actually arrives.
func (l *bodyLoan) array(n int) []byte {
	if l == nil || l.box != nil || n > maxBodyPrealloc {
		return make([]byte, 0, min(n, maxBodyPrealloc))
	}
	bin := &bodyPools[bits.Len(uint(n))-1]
	bin.Lock()
	if k := len(bin.kept); k > 0 {
		l.box, bin.kept[k-1] = bin.kept[k-1], nil
		bin.kept = bin.kept[:k-1]
	}
	bin.Unlock()
	if l.box == nil {
		l.box = new([]byte)
	}
	if cap(*l.box) < n {
		*l.box = make([]byte, 0, n) // too small for n: dropped, as netsim does
	}
	return *l.box // always empty: the parser appends through its own slice
}

// giveBack returns the borrowed array, if any, to bodyPools, after
// nw.ScrubReleased: under PoisonReleasedBufs a reader still holding the
// body sees 0xDD at once instead of the next response.
func (l *bodyLoan) giveBack(nw *netsim.Network) {
	if l.box == nil {
		return
	}
	b := *l.box
	nw.ScrubReleased(b[:cap(b)])
	class := bits.Len(uint(cap(b))) - 1
	bin := &bodyPools[class]
	bin.Lock()
	if len(bin.kept) < bodyKeptBytes>>class {
		bin.kept = append(bin.kept, l.box)
	}
	bin.Unlock()
	l.box = nil
}
