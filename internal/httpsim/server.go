package httpsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Handler produces a response for a request. It runs inside the event
// loop and must not block; the server applies ProcessingDelay on its
// behalf. The returned body is transmitted in place (tcp.Conn.WriteStatic),
// not copied: do not modify it after returning, ever — packets in flight
// and the peer's reassembly queue reference it past the connection's end.
// Nor does the server modify the Response (a closing reply's Connection
// header is added as the head is serialized): returning one shared
// *Response to every request, as MapHandler does, is the intended use.
type Handler func(req *Request) *Response

// ServerConfig tunes an origin server.
type ServerConfig struct {
	// ProcessingDelay is charged (in virtual time) between receiving a
	// complete request and emitting the response, modelling application
	// work. The paper's baseline latency (133 ms end to end) is dominated
	// by Internet RTT plus this.
	ProcessingDelay time.Duration
	// CPUPerRequest is the virtual CPU cost charged per request served.
	CPUPerRequest time.Duration
	// TCP is the endpoint configuration.
	TCP tcp.Config
}

// DefaultServerConfig matches the testbed's dual-core Apache backends.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		ProcessingDelay: 5 * time.Millisecond,
		CPUPerRequest:   100 * time.Microsecond,
		TCP:             tcp.DefaultConfig(),
	}
}

// Server is a simulated origin (backend) server: it accepts TCP
// connections on a port, parses requests, and serves them through a
// Handler, honouring keep-alive.
type Server struct {
	host    *netsim.Host
	cfg     ServerConfig
	handler Handler
	lis     *tcp.Listener

	CPU *metrics.CPUMeter

	// Requests counts requests served.
	Requests int
	// ActiveConns tracks currently open connections.
	ActiveConns int

	head []byte // scratch for response heads; WriteStatic copies it out at once
}

// NewServer starts a server on host:port with the given handler.
func NewServer(host *netsim.Host, port uint16, handler Handler, cfg ServerConfig) *Server {
	s := &Server{host: host, cfg: cfg, handler: handler, CPU: metrics.NewCPUMeter(2)}
	s.lis = tcp.Listen(host, port, s.accept, cfg.TCP)
	return s
}

// Host returns the server's host.
func (s *Server) Host() *netsim.Host { return s.host }

// serverConn is an accepted connection's user word. pending holds the
// requests waiting out ProcessingDelay, inline until a pipelined burst
// outgrows it; equal delays fire in order, so each respond answers the
// oldest.
type serverConn struct {
	s       *Server
	conn    *tcp.Conn
	parser  RequestParser
	pending []*Request
	inline  [1]*Request
	respond func()
}

func (s *Server) accept(c *tcp.Conn) tcp.Callbacks {
	s.ActiveConns++
	sc := &serverConn{s: s, conn: c}
	sc.pending, sc.respond = sc.inline[:0], sc.sendNext
	return tcp.Callbacks{
		OnData:      serverConnData,
		OnPeerClose: closeOnPeerClose,
		OnClose:     serverConnClosed,
		OnFail:      func(c *tcp.Conn, _ error) { serverConnClosed(c) },
		User:        sc,
	}
}

func serverConnData(c *tcp.Conn, d []byte) {
	sc := c.User().(*serverConn)
	s := sc.s
	reqs, err := sc.parser.Feed(d)
	if err != nil {
		s.send(c, NewResponse(400, []byte("bad request")), false)
		c.Close()
		return
	}
	for _, req := range reqs {
		s.Requests++
		s.CPU.Charge(s.host.Network().Now(), s.cfg.CPUPerRequest)
		sc.pending = append(sc.pending, req)
		s.host.Network().Schedule(s.cfg.ProcessingDelay, sc.respond)
	}
}

func serverConnClosed(c *tcp.Conn) {
	if s := c.User().(*serverConn).s; s.ActiveConns > 0 {
		s.ActiveConns--
	}
}

func (sc *serverConn) sendNext() {
	req := sc.pending[0]
	sc.pending = slices.Delete(sc.pending, 0, 1)
	keepAlive := req.KeepAlive()
	resp := sc.s.handler(req)
	if resp == nil {
		resp = NewResponse(404, []byte("not found"))
	}
	sc.s.send(sc.conn, resp, !keepAlive)
	if !keepAlive {
		sc.conn.Close()
	}
}

// send is the one way a response leaves the server, whatever its size:
// the head is built in the server's scratch and copied into the
// connection's send buffer, the body is handed over where it lies (see
// Handler). The bytes and their segments are those of Marshal written
// whole; close adds Connection: close to the head, not to resp.
func (s *Server) send(c *tcp.Conn, resp *Response, close bool) {
	s.head = resp.appendHead(s.head[:0], close)
	c.WriteStatic(s.head, resp.Body)
}

// MapHandler serves objects from a path→body map, the shape used by the
// workload corpus. Each object's response is built once, here, and
// served to every request for it; the map is read only here.
func MapHandler(objects map[string][]byte) Handler {
	resps := make(map[string]*Response, len(objects))
	for path, body := range objects {
		resps[path] = NewResponse(200, body)
	}
	return func(req *Request) *Response {
		if resp, ok := resps[req.Path]; ok {
			return resp
		}
		return NewResponse(404, []byte(fmt.Sprintf("no such object: %s", req.Path)))
	}
}
