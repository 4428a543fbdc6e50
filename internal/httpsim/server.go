package httpsim

import (
	"fmt"
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
// Serving one shared object to every request is exactly the intended use.
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

// Close stops accepting connections.
func (s *Server) Close() { s.lis.Close() }

// Host returns the server's host.
func (s *Server) Host() *netsim.Host { return s.host }

func (s *Server) accept(c *tcp.Conn) tcp.Callbacks {
	parser := &RequestParser{}
	s.ActiveConns++
	closeConn := func() {
		if s.ActiveConns > 0 {
			s.ActiveConns--
		}
	}
	return tcp.Callbacks{
		OnData: func(c *tcp.Conn, d []byte) {
			reqs, err := parser.Feed(d)
			if err != nil {
				s.send(c, NewResponse(400, []byte("bad request")))
				c.Close()
				return
			}
			for _, req := range reqs {
				s.serve(c, req)
			}
		},
		OnPeerClose: func(c *tcp.Conn) { c.Close() },
		OnClose:     func(c *tcp.Conn) { closeConn() },
		OnFail:      func(c *tcp.Conn, err error) { closeConn() },
	}
}

func (s *Server) serve(c *tcp.Conn, req *Request) {
	s.Requests++
	now := s.host.Network().Now()
	s.CPU.Charge(now, s.cfg.CPUPerRequest)
	keepAlive := req.KeepAlive()
	s.host.Network().Schedule(s.cfg.ProcessingDelay, func() {
		resp := s.handler(req)
		if resp == nil {
			resp = NewResponse(404, []byte("not found"))
		}
		if !keepAlive {
			resp.SetHeader("Connection", "close")
		}
		s.send(c, resp)
		if !keepAlive {
			c.Close()
		}
	})
}

// send is the one way a response leaves the server, whatever its size:
// the head is built in the server's scratch and copied into the
// connection's send buffer, the body is handed over where it lies (see
// Handler). The bytes and their segments are those of Marshal written whole.
func (s *Server) send(c *tcp.Conn, resp *Response) {
	s.head = resp.appendHead(s.head[:0])
	c.WriteStatic(s.head, resp.Body)
}

// MapHandler serves objects from a path→body map, the shape used by the
// workload corpus.
func MapHandler(objects map[string][]byte) Handler {
	return func(req *Request) *Response {
		if body, ok := objects[req.Path]; ok {
			return NewResponse(200, body)
		}
		return NewResponse(404, []byte(fmt.Sprintf("no such object: %s", req.Path)))
	}
}
