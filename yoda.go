// Package yoda is a from-scratch reproduction of "Yoda: A Highly
// Available Layer-7 Load Balancer" (EuroSys 2016): a multi-tenant L7
// load-balancer-as-a-service whose availability comes from decoupling
// per-flow TCP state into a replicated in-memory store (TCPStore) and
// from front-and-back VIP indirection through the cloud's L4 load
// balancer, so that any instance can transparently take over any flow
// when an instance fails.
//
// The package is a facade over the implementation packages:
//
//   - netsim     — deterministic discrete-event packet network
//   - tcp        — userspace TCP endpoints (clients, backends, TCPStore links)
//   - httpsim    — HTTP/1.0-1.1 parsing, origin servers, browser clients
//   - l4lb       — Ananta-style L4 mux: VIP ECMP split + SNAT
//   - memcache   — memcached-compatible engine with real-TCP and simulated transports
//   - tcpstore   — the replicated flow-state store client
//   - rules      — L7 rules: match/action/priority, the paper's policy interface
//   - core       — the Yoda instance: packet driver, connection & tunneling phases, recovery
//   - haproxy    — the proxy-style baseline the paper compares against
//   - controller — monitor, scaling, policy installation, assignment updates
//   - assignment — the Figure-7 ILP model with greedy/exhaustive solvers
//   - trace      — synthetic production traffic trace (§8)
//   - workload   — deterministic object bodies for the backends (§7)
//   - cluster    — testbed assembly
//   - experiments — one runner per table/figure of the paper
//
// # Quick start
//
//	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 1, Instances: 4, StoreServers: 3})
//	defer tb.Close()
//	vip := tb.AddService("mysite", map[string][]byte{"/": []byte("hello")}, 3)
//	res := tb.Fetch(vip, "/")
//	fmt.Println(res.Resp.StatusCode, res.Elapsed())
//
// Everything runs in simulated time: Testbed methods advance the virtual
// clock internally, so the snippet above is deterministic and finishes in
// microseconds of wall time.
package yoda

import (
	"repro/internal/assignment"
	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/haproxy"
	"repro/internal/httpsim"
	"repro/internal/l4lb"
	"repro/internal/memcache"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
	"repro/internal/trace"
)

// Re-exported core types. The aliases keep one import path for users of
// the library while the implementation stays layered.
type (
	// Cluster is a simulated testbed of clients, L4/L7 load balancers,
	// TCPStore servers and backends.
	Cluster = cluster.Cluster
	// Instance is one Yoda L7 load-balancer instance.
	Instance = core.Instance
	// InstanceConfig tunes a Yoda instance.
	InstanceConfig = core.Config
	// Controller supervises a cluster: monitoring, scaling, policies.
	Controller = controller.Controller
	// ControllerConfig tunes the controller.
	ControllerConfig = controller.Config
	// Rule is one L7 load-balancing rule (match/action/priority).
	Rule = rules.Rule
	// Backend identifies a backend server in rules.
	Backend = rules.Backend
	// StoreConfig tunes the TCPStore client (replication factor etc.).
	StoreConfig = tcpstore.Config
	// FlowRecord is the decoupled per-flow TCP state kept in TCPStore.
	FlowRecord = core.Record
	// AssignmentProblem is the Figure-7 VIP→instance ILP.
	AssignmentProblem = assignment.Problem
	// Assignment is a VIP→instance mapping.
	Assignment = assignment.Assignment
	// Trace is a synthetic one-day production traffic trace.
	Trace = trace.Trace
	// IP is an IPv4-style simulated address.
	IP = netsim.IP
	// HostPort is one endpoint of a connection.
	HostPort = netsim.HostPort
	// FetchResult is the outcome of one HTTP fetch.
	FetchResult = httpsim.FetchResult
	// HAProxyInstance is the proxy-style baseline LB.
	HAProxyInstance = haproxy.Instance
)

// Constructors and helpers re-exported for library users.
var (
	// NewCluster creates an empty simulated testbed.
	NewCluster = cluster.New
	// DefaultInstanceConfig is the calibrated Yoda instance profile.
	DefaultInstanceConfig = core.DefaultConfig
	// DefaultStoreConfig is the 2-replica TCPStore client profile.
	DefaultStoreConfig = tcpstore.DefaultConfig
	// DefaultControllerConfig mirrors the paper's 600ms monitor.
	DefaultControllerConfig = controller.DefaultConfig
	// NewController creates a controller over a cluster.
	NewController = controller.New
	// ParseRules parses the textual rule format of §5.1.
	ParseRules = rules.ParseRules
	// SolveAssignment runs the greedy Figure-7 solver.
	SolveAssignment = assignment.SolveGreedy
	// VerifyAssignment checks an assignment against all constraints.
	VerifyAssignment = assignment.Verify
	// GenerateTrace builds a synthetic production trace.
	GenerateTrace = trace.Generate
	// DefaultTraceConfig mirrors the §8 trace.
	DefaultTraceConfig = trace.DefaultConfig
	// DefaultMemcacheServerConfig is the calibrated Memcached profile.
	DefaultMemcacheServerConfig = memcache.DefaultSimServerConfig
	// DefaultL4Config mirrors the Ananta-style mux deployment.
	DefaultL4Config = l4lb.DefaultConfig
	// IPv4 assembles a simulated address.
	IPv4 = netsim.IPv4
)
