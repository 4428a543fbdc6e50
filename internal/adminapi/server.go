package adminapi

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/rules"
	"repro/internal/tcpstore"
)

// Server bridges HTTP requests to a simulated cluster and its
// controller. All access to the simulation is serialized by mu; the
// simulation only advances through the /v1/run endpoint (or the owning
// program while no request is in flight).
type Server struct {
	mu sync.Mutex
	c  *cluster.Cluster
	ct *controller.Controller

	httpSrv *http.Server
	lis     net.Listener
}

// NewServer creates a server over the cluster/controller pair.
func NewServer(c *cluster.Cluster, ct *controller.Controller) *Server {
	return &Server{c: c, ct: ct}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves in background
// goroutines until Close.
func (s *Server) Start(addr string) error {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.lis = lis
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/instances", s.handleInstances)
	mux.HandleFunc("/v1/instances/", s.handleInstanceAction)
	mux.HandleFunc("/v1/vips", s.handleVIPs)
	mux.HandleFunc("/v1/policies/", s.handlePolicy)
	mux.HandleFunc("/v1/backends", s.handleBackends)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/reconfig", s.handleReconfig)
	mux.HandleFunc("/v1/reconfig/status", s.handleReconfigStatus)
	mux.HandleFunc("/v1/run", s.handleRun)
	s.httpSrv = &http.Server{Handler: mux}
	go s.httpSrv.Serve(lis)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string {
	if s.lis == nil {
		return ""
	}
	return s.lis.Addr().String()
}

// Close shuts the server down.
func (s *Server) Close() {
	if s.httpSrv != nil {
		s.httpSrv.Close()
	}
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleInstances(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]InstanceInfo, 0, len(s.c.Yoda))
	for i, in := range s.c.Yoda {
		out = append(out, InstanceInfo{
			Index:     i,
			IP:        in.IP().String(),
			Alive:     in.Host().Alive(),
			Flows:     in.FlowCount(),
			Rules:     in.RuleCount(),
			Recovered: in.Recovered,
			CPUBusyMs: float64(in.CPU.BusyTotal()) / float64(time.Millisecond),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleInstanceAction handles POST /v1/instances/{idx}/fail.
func (s *Server) handleInstanceAction(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/instances/"), "/")
	if len(parts) != 2 || parts[1] != "fail" {
		writeErr(w, http.StatusNotFound, "unknown action; supported: fail")
		return
	}
	idx, err := strconv.Atoi(parts[0])
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad instance index %q", parts[0])
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if idx < 0 || idx >= len(s.c.Yoda) {
		writeErr(w, http.StatusNotFound, "instance %d out of range", idx)
		return
	}
	s.c.Yoda[idx].Fail()
	writeJSON(w, http.StatusOK, map[string]string{"status": "failed"})
}

func (s *Server) handleVIPs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]VIPInfo, 0, len(s.c.VIPs))
	names := make([]string, 0, len(s.c.VIPs))
	for name := range s.c.VIPs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		vip := s.c.VIPs[name]
		var insts []string
		nRules := 0
		for _, in := range s.c.Yoda {
			if in.HasVIP(vip) {
				insts = append(insts, in.IP().String())
			}
		}
		for _, in := range s.c.Yoda {
			if in.HasVIP(vip) {
				nRules = in.RuleCount()
				break
			}
		}
		out = append(out, VIPInfo{Service: name, VIP: vip.String(), Instances: insts, Rules: nRules})
	}
	writeJSON(w, http.StatusOK, out)
}

// handlePolicy handles PUT /v1/policies/{service}.
func (s *Server) handlePolicy(w http.ResponseWriter, r *http.Request) {
	service := strings.TrimPrefix(r.URL.Path, "/v1/policies/")
	if service == "" {
		writeErr(w, http.StatusBadRequest, "missing service name")
		return
	}
	if r.Method != http.MethodPut {
		writeErr(w, http.StatusMethodNotAllowed, "PUT only")
		return
	}
	var req PolicyRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	vip, ok := s.c.VIPs[service]
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown service %q", service)
		return
	}
	rs, err := rules.ParseRules(req.Rules, s.c.Resolver())
	if err != nil {
		writeErr(w, http.StatusBadRequest, "policy parse: %v", err)
		return
	}
	s.ct.UpdatePolicy(vip, rs)
	writeJSON(w, http.StatusOK, map[string]interface{}{"status": "installed", "rules": len(rs)})
}

func (s *Server) handleBackends(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.c.Backends))
	for name := range s.c.Backends {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]BackendInfo, 0, len(names))
	for _, name := range names {
		b := s.c.Backends[name]
		out = append(out, BackendInfo{
			Name:     name,
			Addr:     b.Rec.Addr.String(),
			Alive:    b.Server.Host().Alive(),
			Requests: b.Server.Requests,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	traffic := map[string]uint64{}
	for name, vip := range s.c.VIPs {
		traffic[name] = s.ct.Traffic[vip]
	}
	writeJSON(w, http.StatusOK, StatsInfo{
		VirtualTime:    s.c.Net.Now().String(),
		Detections:     s.ct.Detections,
		ScaleOuts:      s.ct.ScaleOuts,
		InstancesAdded: s.ct.InstancesAdded,
		TrafficPerVIP:  traffic,
	})
}

// handleReconfig handles POST /v1/reconfig: apply a target assignment
// through the reconfiguration engine, or start a rolling upgrade.
func (s *Server) handleReconfig(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req ReconfigRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch {
	case req.Upgrade:
		var delay time.Duration
		if req.RestartDelay != "" {
			d, err := parseDuration(req.RestartDelay)
			if err != nil || d <= 0 {
				writeErr(w, http.StatusBadRequest, "bad restartDelay %q", req.RestartDelay)
				return
			}
			delay = d
		}
		if err := s.ct.StartRollingUpgrade(core.DefaultConfig(), tcpstore.DefaultConfig(), delay); err != nil {
			writeErr(w, http.StatusConflict, "upgrade: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "upgrade started"})
	case len(req.Assignments) > 0:
		target := make(map[netsim.IP][]netsim.IP, len(req.Assignments))
		for service, idxs := range req.Assignments {
			vip, ok := s.c.VIPs[service]
			if !ok {
				writeErr(w, http.StatusNotFound, "unknown service %q", service)
				return
			}
			var ips []netsim.IP
			for _, idx := range idxs {
				if idx < 0 || idx >= len(s.c.Yoda) {
					writeErr(w, http.StatusBadRequest, "instance %d out of range", idx)
					return
				}
				ips = append(ips, s.c.Yoda[idx].IP())
			}
			target[vip] = ips
		}
		if err := s.ct.ApplyTarget(target); err != nil {
			writeErr(w, http.StatusConflict, "reconfig: %v", err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "reconfig started"})
	default:
		writeErr(w, http.StatusBadRequest, "need assignments or upgrade:true")
	}
}

// handleReconfigStatus handles GET /v1/reconfig/status.
func (s *Server) handleReconfigStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.ct.ReconfigStats()
	out := ReconfigStatus{
		Running:             st.Running,
		Done:                st.Done,
		Waves:               st.Waves,
		MovesApplied:        st.MovesApplied,
		MigratedFlows:       st.MigratedFlows,
		DrainedFlows:        st.DrainedFlows,
		ReleasedFlows:       st.ReleasedFlows,
		BrokenFlows:         st.BrokenFlows,
		ResurrectedFlows:    st.ResurrectedFlows,
		MaxWaveMigratedFrac: st.MaxWaveMigratedFrac,
		PeakInstanceFlows:   st.PeakInstanceFlows,
		RulesRemoved:        st.RulesRemoved,
		DurationMs:          float64(st.Duration) / float64(time.Millisecond),
	}
	if st.Instances > 0 { // the last operation was a rolling upgrade
		out.Upgrade = &UpgradeStatus{
			Instances: st.Instances,
			Upgraded:  st.Upgraded,
			Skipped:   st.Skipped,
			Running:   st.Running,
			Done:      st.Done,
			Phase:     st.Phase,
			Err:       st.Err,
		}
		if st.Current != 0 {
			out.Upgrade.Current = st.Current.String()
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req RunRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad body: %v", err)
		return
	}
	d, err := parseDuration(req.Duration)
	if err != nil || d <= 0 {
		writeErr(w, http.StatusBadRequest, "bad duration %q", req.Duration)
		return
	}
	if d > time.Hour {
		writeErr(w, http.StatusBadRequest, "duration %v too long (max 1h of virtual time per call)", d)
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.c.Net.RunFor(d)
	writeJSON(w, http.StatusOK, RunResponse{VirtualTime: s.c.Net.Now().String()})
}
