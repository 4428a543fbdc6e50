package httpsim

import (
	"errors"
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

// FetchResult reports the outcome of one object fetch.
type FetchResult struct {
	Resp     *Response
	Err      error
	Started  time.Duration // virtual time the fetch began (first attempt)
	Finished time.Duration // virtual time the fetch completed or failed
	Attempts int           // 1 = no retry
	// TimedOut is true when the HTTP timeout elapsed on any attempt.
	TimedOut bool
	// Conn is the TCP connection of the last attempt, retained so tests
	// and experiments can read per-conn stats (retransmits, elided ACKs)
	// after the fetch resolves.
	Conn *tcp.Conn
}

// Elapsed returns the end-to-end fetch duration.
func (r *FetchResult) Elapsed() time.Duration { return r.Finished - r.Started }

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
	host *netsim.Host
	cfg  ClientConfig
}

// NewClient creates a client on the given host.
func NewClient(host *netsim.Host, cfg ClientConfig) *Client {
	return &Client{host: host, cfg: cfg}
}

// Fetch requests path from addr and invokes done with the outcome. It
// drives the full TCP + HTTP exchange in virtual time. req is only read.
func (cl *Client) Fetch(addr netsim.HostPort, req *Request, done func(*FetchResult)) {
	cl.attempt(addr, req, FetchResult{Started: cl.host.Network().Now()}, cl.cfg.Retries, done)
}

// Get is a convenience wrapper fetching a path with a default request.
func (cl *Client) Get(addr netsim.HostPort, path string, done func(*FetchResult)) {
	cl.Fetch(addr, NewRequest(path, addr.IP.String()), done)
}

// fetch is one attempt, the user word of its conn (res.Conn) for the
// fetch* callbacks; timeout is the one closure an attempt binds.
type fetch struct {
	cl       *Client
	addr     netsim.HostPort
	req      *Request
	retries  int // attempts still allowed after this one
	done     func(*FetchResult)
	timer    netsim.Timer
	finished bool
	parser   ResponseParser
	res      FetchResult
}

// attempt starts one try with res, the result so far, carried over.
func (cl *Client) attempt(addr netsim.HostPort, req *Request, res FetchResult, retriesLeft int, done func(*FetchResult)) {
	f := &fetch{cl: cl, addr: addr, req: req, retries: retriesLeft, done: done, res: res}
	f.res.Attempts++
	f.timer = cl.host.Network().Schedule(cl.cfg.Timeout, f.timeout)
	f.res.Conn = tcp.Dial(cl.host, addr, tcp.Callbacks{
		OnEstablished: fetchEstablished,
		OnData:        fetchData,
		OnPeerClose:   closeOnPeerClose,
		OnFail:        fetchFailed,
		User:          f,
	}, cl.cfg.TCP)
}

func (f *fetch) timeout() {
	f.res.TimedOut = true
	f.res.Conn.Abort()
	f.finish(nil, ErrHTTPTimeout)
}

// finish resolves the attempt once: a failure with retries left starts
// the next attempt, anything else is the fetch's outcome.
func (f *fetch) finish(resp *Response, err error) {
	if f.finished {
		return
	}
	f.finished = true
	f.timer.Stop()
	if err != nil && f.retries > 0 {
		f.cl.attempt(f.addr, f.req, f.res, f.retries-1, f.done)
		return
	}
	f.res.Resp, f.res.Err, f.res.Finished = resp, err, f.cl.host.Network().Now()
	f.done(&f.res)
}

func fetchEstablished(c *tcp.Conn) {
	f := c.User().(*fetch)
	var head [256]byte // Writev copies it out before returning
	c.Writev(f.req.appendHead(head[:0], true), f.req.Body)
}

func fetchData(c *tcp.Conn, d []byte) {
	f := c.User().(*fetch)
	resps, err := f.parser.Feed(d)
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
	if errors.Is(err, tcp.ErrReset) {
		f.finish(nil, ErrConnReset)
	} else {
		f.finish(nil, ErrConnFailed)
	}
}

func closeOnPeerClose(c *tcp.Conn) { c.Close() }
