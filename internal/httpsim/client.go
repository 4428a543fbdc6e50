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
// drives the full TCP + HTTP exchange in virtual time.
func (cl *Client) Fetch(addr netsim.HostPort, req *Request, done func(*FetchResult)) {
	res := &FetchResult{Started: cl.host.Network().Now()}
	cl.attempt(addr, req, res, cl.cfg.Retries, done)
}

// Get is a convenience wrapper fetching a path with a default request.
func (cl *Client) Get(addr netsim.HostPort, path string, done func(*FetchResult)) {
	cl.Fetch(addr, NewRequest(path, addr.IP.String()), done)
}

func (cl *Client) attempt(addr netsim.HostPort, req *Request, res *FetchResult, retriesLeft int, done func(*FetchResult)) {
	res.Attempts++
	net := cl.host.Network()
	parser := &ResponseParser{}
	finished := false

	var conn *tcp.Conn
	var timeout netsim.Timer

	finish := func(resp *Response, err error) {
		if finished {
			return
		}
		finished = true
		timeout.Stop()
		if err != nil && retriesLeft > 0 {
			cl.attempt(addr, req, res, retriesLeft-1, done)
			return
		}
		res.Resp = resp
		res.Err = err
		res.Finished = net.Now()
		done(res)
	}

	timeout = net.Schedule(cl.cfg.Timeout, func() {
		res.TimedOut = true
		if conn != nil {
			conn.Abort()
		}
		finish(nil, ErrHTTPTimeout)
	})

	r := req.Clone() // so the Connection header tweak doesn't leak
	r.SetHeader("Connection", "close")

	conn = tcp.Dial(cl.host, addr, tcp.Callbacks{
		OnEstablished: func(c *tcp.Conn) {
			var head [256]byte // Writev copies it out before returning
			c.Writev(r.appendHead(head[:0]), r.Body)
		},
		OnData: func(c *tcp.Conn, d []byte) {
			resps, err := parser.Feed(d)
			if err != nil {
				c.Abort()
				finish(nil, err)
				return
			}
			if len(resps) > 0 {
				c.Close()
				finish(resps[0], nil)
			}
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
		OnFail: func(c *tcp.Conn, err error) {
			if errors.Is(err, tcp.ErrReset) {
				finish(nil, ErrConnReset)
			} else {
				finish(nil, ErrConnFailed)
			}
		},
	}, cl.cfg.TCP)
	res.Conn = conn
}
