package adminapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"
)

// Client is a typed HTTP client for the admin API, used by the yodactl
// CLI and tests.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient creates a client for the server at addr ("host:port").
func NewClient(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 30 * time.Second},
	}
}

func (c *Client) get(path string, out interface{}) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeAPI(resp, out)
}

func (c *Client) send(method, path string, body, out interface{}) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, c.base+path, &buf)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decodeAPI(resp, out)
}

func decodeAPI(resp *http.Response, out interface{}) error {
	if resp.StatusCode/100 != 2 {
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err == nil && e.Error != "" {
			return fmt.Errorf("adminapi: %s (HTTP %d)", e.Error, resp.StatusCode)
		}
		return fmt.Errorf("adminapi: HTTP %d", resp.StatusCode)
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Instances lists the Yoda instances.
func (c *Client) Instances() ([]InstanceInfo, error) {
	var out []InstanceInfo
	err := c.get("/v1/instances", &out)
	return out, err
}

// VIPs lists the services and their mappings.
func (c *Client) VIPs() ([]VIPInfo, error) {
	var out []VIPInfo
	err := c.get("/v1/vips", &out)
	return out, err
}

// Backends lists backend servers and health.
func (c *Client) Backends() ([]BackendInfo, error) {
	var out []BackendInfo
	err := c.get("/v1/backends", &out)
	return out, err
}

// Stats returns the controller's aggregate view.
func (c *Client) Stats() (StatsInfo, error) {
	var out StatsInfo
	err := c.get("/v1/stats", &out)
	return out, err
}

// SetPolicy installs a rule set (text format, §5.1) for a service.
func (c *Client) SetPolicy(service, rulesText string) error {
	return c.send(http.MethodPut, "/v1/policies/"+service, PolicyRequest{Rules: rulesText}, nil)
}

// FailInstance kills Yoda instance idx.
func (c *Client) FailInstance(idx int) error {
	return c.send(http.MethodPost, fmt.Sprintf("/v1/instances/%d/fail", idx), struct{}{}, nil)
}

// Run advances the simulation by d of virtual time.
func (c *Client) Run(d time.Duration) (time.Duration, error) {
	var out RunResponse
	if err := c.send(http.MethodPost, "/v1/run", RunRequest{Duration: d.String()}, &out); err != nil {
		return 0, err
	}
	return time.ParseDuration(out.VirtualTime)
}
