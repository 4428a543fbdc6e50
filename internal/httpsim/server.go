package httpsim

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/netsim"
	"repro/internal/tcp"
)

// Handler produces a response for a request. It runs inside the event
// loop and must not block; the server applies processingDelay on its
// behalf. req is lent for the call: the server parses its next request
// into the same object, so a handler keeps only strings taken from it
// and its Body, never req itself. The returned body is transmitted in place (tcp.Conn.WriteStatic),
// not copied: do not modify it after returning, ever — packets in flight
// and the peer's reassembly queue reference it past the connection's end.
// Nor does the server modify the Response (a closing reply's Connection
// header is added as the head is serialized): returning one shared
// *Response to every request, as MapHandler does, is the intended use.
type Handler func(req *Request) *Response

// The testbed's Apache backends: processingDelay is charged (in virtual
// time) between receiving a complete request and emitting the response,
// modelling application work — the paper's baseline latency (133 ms end
// to end) is dominated by Internet RTT plus this.
const processingDelay = 5 * time.Millisecond

// ServerConfig tunes an origin server.
type ServerConfig struct {
	// TCP is the endpoint configuration.
	TCP tcp.Config
}

// DefaultServerConfig serves over the testbed's default TCP endpoint.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{TCP: tcp.DefaultConfig()}
}

// Server is a simulated origin (backend) server: it accepts TCP
// connections on a port, parses requests, and serves them through a
// Handler, honouring keep-alive.
type Server struct {
	host    *netsim.Host
	handler Handler

	// Requests counts requests served.
	Requests int
	// ActiveConns tracks currently open connections.
	ActiveConns int

	head   []byte                     // scratch for response heads; WriteStatic copies it out at once
	spares netsim.Spares[*serverConn] // released serverConns, for the next accept
	// reqs are answered requests, for any connection's next parse;
	// takeReq is reqs.Take, bound once.
	reqs    netsim.Spares[*Request]
	takeReq func() *Request
}

// NewServer starts a server on host:port with the given handler.
func NewServer(host *netsim.Host, port uint16, handler Handler, cfg ServerConfig) *Server {
	s := &Server{host: host, handler: handler}
	s.takeReq = s.reqs.Take
	tcp.Listen(host, port, s.accept, cfg.TCP)
	return s
}

// Host returns the server's host.
func (s *Server) Host() *netsim.Host { return s.host }

// serverConn is an accepted connection's user word. pending holds the
// requests waiting out processingDelay, inline until a pipelined burst
// outgrows it; equal delays fire in order, so each of the serverConn's
// timers answers the oldest (Fire).
type serverConn struct {
	s       *Server
	conn    *tcp.Conn
	parser  RequestParser
	pending []*Request
	inline  [1]*Request
}

func (s *Server) accept(c *tcp.Conn) tcp.Callbacks {
	s.ActiveConns++
	sc := s.spares.Take()
	if sc == nil {
		sc = &serverConn{s: s}
	}
	sc.conn, sc.pending = c, sc.inline[:0]
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
	reqs, err := sc.parser.p.feed(d, s.takeReq, parseRequest, (*Request).done, nil) // Feed, requests recycled
	if err != nil {
		s.send(c, NewResponse(400, []byte("bad request")), false)
		c.Close()
		return
	}
	for _, req := range reqs {
		s.Requests++
		sc.pending = append(sc.pending, req)
		s.host.Network().Arm(processingDelay, sc)
	}
}

func serverConnClosed(c *tcp.Conn) {
	sc := c.User().(*serverConn)
	if s := sc.s; s.ActiveConns > 0 {
		s.ActiveConns--
	}
	sc.release()
}

// release recycles sc and its conn once it has closed and no response
// waits out its processingDelay. A spare keeps no conn: the released one
// is the network's spare, or garbage once that list is full.
func (sc *serverConn) release() {
	if len(sc.pending) == 0 && sc.conn.State() == tcp.StateClosed {
		sc.conn.Release()
		sc.conn, sc.parser = nil, RequestParser{}
		sc.s.spares.Put(sc.s.host.Network(), sc)
	}
}

// Fire answers the oldest pending request once its processingDelay is
// over.
func (sc *serverConn) Fire() {
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
	req.reclaim()
	sc.s.reqs.Put(sc.s.host.Network(), req)
	sc.release()
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
