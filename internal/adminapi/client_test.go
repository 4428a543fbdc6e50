package adminapi

import "net/http"

// The reconfiguration endpoints have no command in yodactl; the endpoint
// tests drive them through these two.

// Reconfig starts a reconfiguration: a target assignment or a rolling
// upgrade, as req says.
func (c *Client) Reconfig(req ReconfigRequest) error {
	return c.send(http.MethodPost, "/v1/reconfig", req, nil)
}

// ReconfigStatus reports the reconfiguration engine's stats.
func (c *Client) ReconfigStatus() (ReconfigStatus, error) {
	var out ReconfigStatus
	err := c.get("/v1/reconfig/status", &out)
	return out, err
}
