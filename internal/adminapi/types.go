// Package adminapi exposes the Yoda controller over a real HTTP/JSON
// interface — the "RESTful APIs" through which the paper's components
// and operators interact (§6). The server bridges real sockets to the
// simulated cluster: every request is serialized against the simulation
// (which is single-threaded by design), and a /run endpoint advances
// virtual time, so an operator — or the yodactl CLI — can drive a whole
// deployment from the shell.
package adminapi

import "time"

// InstanceInfo describes one Yoda instance.
type InstanceInfo struct {
	Index     int     `json:"index"`
	IP        string  `json:"ip"`
	Alive     bool    `json:"alive"`
	Flows     int     `json:"flows"`
	Rules     int     `json:"rules"`
	Recovered uint64  `json:"recovered"`
	CPUBusyMs float64 `json:"cpuBusyMs"`
}

// VIPInfo describes one VIP and its current mapping.
type VIPInfo struct {
	Service   string   `json:"service"`
	VIP       string   `json:"vip"`
	Instances []string `json:"instances"`
	Rules     int      `json:"rules"`
}

// BackendInfo describes one backend server.
type BackendInfo struct {
	Name     string `json:"name"`
	Addr     string `json:"addr"`
	Alive    bool   `json:"alive"`
	Requests int    `json:"requests"`
}

// StatsInfo is the controller's aggregate view.
type StatsInfo struct {
	VirtualTime    string            `json:"virtualTime"`
	Detections     int               `json:"detections"`
	ScaleOuts      int               `json:"scaleOuts"`
	InstancesAdded int               `json:"instancesAdded"`
	TrafficPerVIP  map[string]uint64 `json:"trafficPerVip"`
}

// PolicyRequest installs or updates a VIP's rules (the §5.1 text format).
type PolicyRequest struct {
	Rules string `json:"rules"`
}

// RunRequest advances the simulation.
type RunRequest struct {
	Duration string `json:"duration"` // Go duration string, e.g. "5s"
}

// RunResponse reports the clock after a run.
type RunResponse struct {
	VirtualTime string `json:"virtualTime"`
}

// ReconfigRequest triggers a live reconfiguration. Exactly one of the
// two modes is used: Assignments moves VIP→instance mappings to a target
// (service name → instance indexes, as listed by /v1/instances); Upgrade
// starts a rolling upgrade of every live instance under fresh default
// configs.
type ReconfigRequest struct {
	Assignments map[string][]int `json:"assignments,omitempty"`
	Upgrade     bool             `json:"upgrade,omitempty"`
	// RestartDelay overrides the simulated per-instance reboot time for
	// upgrades (Go duration string; empty = default).
	RestartDelay string `json:"restartDelay,omitempty"`
}

// ReconfigStatus reports the reconfiguration engine's current (or last
// finished) operation. The counters sum over every plan of it; Upgrade
// is present only when that operation is a rolling upgrade.
type ReconfigStatus struct {
	Running             bool    `json:"running"`
	Done                bool    `json:"done"`
	Waves               int     `json:"waves"`
	MovesApplied        int     `json:"movesApplied"`
	MigratedFlows       uint64  `json:"migratedFlows"`
	DrainedFlows        uint64  `json:"drainedFlows"`
	ReleasedFlows       uint64  `json:"releasedFlows"`
	BrokenFlows         uint64  `json:"brokenFlows"`
	ResurrectedFlows    uint64  `json:"resurrectedFlows"`
	MaxWaveMigratedFrac float64 `json:"maxWaveMigratedFrac"`
	PeakInstanceFlows   int     `json:"peakInstanceFlows"`
	RulesRemoved        int     `json:"rulesRemoved"`
	DurationMs          float64 `json:"durationMs"`

	Upgrade *UpgradeStatus `json:"upgrade,omitempty"`
}

// UpgradeStatus reports a rolling upgrade's progress.
type UpgradeStatus struct {
	Instances int    `json:"instances"`
	Upgraded  int    `json:"upgraded"`
	Skipped   int    `json:"skipped"`
	Running   bool   `json:"running"`
	Done      bool   `json:"done"`
	Current   string `json:"current,omitempty"`
	Phase     string `json:"phase,omitempty"`
	Err       string `json:"err,omitempty"`
}

// ErrorResponse carries an API error.
type ErrorResponse struct {
	Error string `json:"error"`
}

// parseDuration is a strict wrapper used by both server and client.
func parseDuration(s string) (time.Duration, error) {
	return time.ParseDuration(s)
}
