package experiments

import (
	"fmt"
	"time"

	"repro/internal/memcache"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/tcpstore"
)

// Fig10Config parameterizes the TCPStore latency/CPU experiment.
type Fig10Config struct {
	Seed int64
	// Servers is the Memcached fleet size. The paper uses 10; the figure's
	// x-axis is per-server rate, so a smaller fleet at the same per-server
	// rate reproduces the same queueing behaviour with fewer events.
	Servers int
	// RatesPerServer sweeps client requests per second per server
	// (paper: 4K, 20K, 40K).
	RatesPerServer []int
	// Duration of each measurement (paper: 60 s; queueing reaches steady
	// state within a second at these rates).
	Duration time.Duration
	// ValueBytes is the stored flow-state record size.
	ValueBytes int
	// HybridResidue, when positive, adds a third sweep modelling hybrid
	// stateful/stateless recovery: the same client flow rate, but only
	// this fraction of flows (the residue — TLS, keep-alive switches,
	// epoch-pinned flows) reaches TCPStore; the rest are derived from
	// packet-carried state and never touch it. 0 disables the arm.
	HybridResidue float64
}

// DefaultFig10Config uses 3 servers and shortened windows (see Servers).
func DefaultFig10Config() Fig10Config {
	return Fig10Config{
		Seed:           1,
		Servers:        3,
		RatesPerServer: []int{4000, 20000, 40000},
		Duration:       2 * time.Second,
		ValueBytes:     64,
		HybridResidue:  0.10,
	}
}

// Fig10Point is one (rate, replication) cell.
type Fig10Point struct {
	RatePerServer int
	Replicas      int
	// Hybrid marks the hybrid-recovery arm: RatePerServer is still the
	// client flow rate, but only the residue fraction reaches the store.
	Hybrid    bool
	SetMedian time.Duration
	GetMedian time.Duration
	DelMedian time.Duration
	// CPU is the mean Memcached server CPU utilization (Figure 11).
	CPU float64
}

// Fig10Result reproduces Figures 10 and 11: per-operation latency and
// server CPU for default Memcached (1 replica) versus TCPStore's
// 2-replica persistence.
type Fig10Result struct {
	Points []Fig10Point
	// OverheadAtMax is the relative set-latency overhead of replication at
	// the highest rate (paper: <24%).
	OverheadAtMax float64
	// CPURatioAtMax is replicated/default CPU at the highest rate
	// (paper: ~2x).
	CPURatioAtMax float64
	// HybridCPURatioAtMax is hybrid/replicated server CPU at the highest
	// rate: what taking derivable flows off the store buys back. With a
	// residue fraction f it approaches f.
	HybridCPURatioAtMax float64
}

// RunFig10 sweeps the ops rate for both replication settings, plus the
// hybrid-recovery arm when configured. Each cell builds its own
// simulation from the seed, so appending the hybrid sweep cannot
// perturb the default and replicated points.
func RunFig10(cfg Fig10Config) *Fig10Result {
	res := &Fig10Result{}
	byKey := map[string]*Fig10Point{}
	for _, replicas := range []int{1, 2} {
		for _, rate := range cfg.RatesPerServer {
			p := runFig10Cell(cfg, replicas, rate, rate)
			res.Points = append(res.Points, p)
			byKey[fmt.Sprintf("%d/%d", rate, replicas)] = &res.Points[len(res.Points)-1]
		}
	}
	maxRate := cfg.RatesPerServer[len(cfg.RatesPerServer)-1]
	d1 := byKey[fmt.Sprintf("%d/1", maxRate)]
	d2 := byKey[fmt.Sprintf("%d/2", maxRate)]
	if d1 != nil && d2 != nil && d1.SetMedian > 0 {
		res.OverheadAtMax = float64(d2.SetMedian-d1.SetMedian) / float64(d1.SetMedian)
		if d1.CPU > 0 {
			res.CPURatioAtMax = d2.CPU / d1.CPU
		}
	}
	if cfg.HybridResidue > 0 {
		var atMax *Fig10Point
		for _, rate := range cfg.RatesPerServer {
			opRate := int(float64(rate)*cfg.HybridResidue + 0.5)
			p := runFig10Cell(cfg, 2, rate, opRate)
			p.Hybrid = true
			res.Points = append(res.Points, p)
			if rate == maxRate {
				atMax = &res.Points[len(res.Points)-1]
			}
		}
		if atMax != nil && d2 != nil && d2.CPU > 0 {
			res.HybridCPURatioAtMax = atMax.CPU / d2.CPU
		}
	}
	return res
}

// runFig10Cell measures one cell. ratePerServer is the client flow rate
// the point is labelled with; opRate is the rate at which store
// operations are actually issued (lower in the hybrid arm, where only
// residue flows reach the store).
func runFig10Cell(cfg Fig10Config, replicas, ratePerServer, opRate int) Fig10Point {
	n := netsim.New(cfg.Seed)
	var servers []*memcache.SimServer
	var addrs []netsim.HostPort
	for i := 0; i < cfg.Servers; i++ {
		h := netsim.NewHost(n, netsim.IPv4(10, 0, 3, byte(i+1)))
		srv := memcache.NewSimServer(h, memcache.DefaultPort, memcache.DefaultSimServerConfig())
		servers = append(servers, srv)
		addrs = append(addrs, netsim.HostPort{IP: h.IP(), Port: memcache.DefaultPort})
	}
	clientHost := netsim.NewHost(n, netsim.IPv4(10, 0, 1, 1))
	scfg := tcpstore.DefaultConfig()
	scfg.Replicas = replicas
	store := tcpstore.New(clientHost, addrs, scfg)

	// Issue client requests open-loop at ratePerServer × Servers aggregate
	// (the figure's x-axis is client requests per server; with K replicas
	// the per-server *operation* rate is K× that, which is exactly what
	// makes the replicated mode hotter, as in the paper). Each request
	// performs one set — TCPStore's dominant operation — and a sampled 2%
	// additionally exercise get and delete to measure their latency
	// without perturbing the load.
	setLat := metrics.NewDurationHistogram()
	getLat := metrics.NewDurationHistogram()
	delLat := metrics.NewDurationHistogram()

	totalRate := opRate * cfg.Servers
	interval := time.Second / time.Duration(totalRate)
	idx := 0
	var tick func()
	tick = func() {
		if n.Now() >= cfg.Duration {
			return
		}
		key := []byte(fmt.Sprintf("flow:%d", idx))
		idx++
		sampled := idx%50 == 0
		value := make([]byte, cfg.ValueBytes)
		t0 := n.Now()
		store.Set(key, value, func(err error) {
			if err == nil {
				setLat.Add(n.Now() - t0)
			}
			if !sampled {
				return
			}
			t1 := n.Now()
			store.Get(key, func(v []byte, ok bool, err error) {
				if err == nil && ok {
					getLat.Add(n.Now() - t1)
				}
				t2 := n.Now()
				store.Delete([]tcpstore.Entry{{Key: key}}, func(err error) {
					if err == nil {
						delLat.Add(n.Now() - t2)
					}
				})
			})
		})
		n.Schedule(interval, tick)
	}
	tick()
	n.Run(cfg.Duration)
	cpu := 0.0
	for _, s := range servers {
		cpu += s.CPU.UtilizationClamped(s.CPU.BusyBefore(cfg.Duration), cfg.Duration)
	}
	cpu /= float64(len(servers))
	n.Run(cfg.Duration + 500*time.Millisecond)

	return Fig10Point{
		RatePerServer: ratePerServer,
		Replicas:      replicas,
		SetMedian:     setLat.Median(),
		GetMedian:     getLat.Median(),
		DelMedian:     delLat.Median(),
		CPU:           cpu,
	}
}

// String prints Figures 10 and 11 as one table.
func (r *Fig10Result) String() string {
	rows := make([][]string, 0, len(r.Points))
	hybrid := false
	for _, p := range r.Points {
		mode := "default"
		if p.Replicas == 2 {
			mode = "yoda (2 replicas)"
		}
		if p.Hybrid {
			mode = "hybrid (2 replicas)"
			hybrid = true
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.RatePerServer),
			mode,
			fmtMs(p.SetMedian), fmtMs(p.GetMedian), fmtMs(p.DelMedian),
			fmtPct(p.CPU),
		})
	}
	s := "Figures 10 & 11 — TCPStore operation latency (median) and server CPU\n"
	s += table([]string{"req/s/server", "mode", "set", "get", "delete", "CPU"}, rows)
	s += fmt.Sprintf("replication latency overhead at max rate = %s (paper: <24%%)\n", fmtPct(r.OverheadAtMax))
	s += fmt.Sprintf("replication CPU ratio at max rate = %.2fx (paper: ~2x)\n", r.CPURatioAtMax)
	if hybrid {
		s += fmt.Sprintf("hybrid store CPU at max rate = %.2fx of yoda (derivable flows never reach the store)\n",
			r.HybridCPURatioAtMax)
	}
	return s
}
