package yoda_test

import (
	"testing"
	"time"

	yoda "repro"
)

func TestTestbedQuickstart(t *testing.T) {
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 1})
	defer tb.Close()
	vip := tb.AddService("mysite", map[string][]byte{"/": []byte("hello world")}, 3)
	res := tb.Fetch(vip, "/")
	if res == nil || res.Err != nil {
		t.Fatalf("fetch: %+v", res)
	}
	if string(res.Resp.Body) != "hello world" {
		t.Fatalf("body: %q", res.Resp.Body)
	}
	if res.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestTestbedSurvivesInstanceFailure(t *testing.T) {
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 2, Instances: 3})
	defer tb.Close()
	vip := tb.AddService("svc", map[string][]byte{"/x": []byte("y")}, 2)
	if r := tb.Fetch(vip, "/x"); r == nil || r.Err != nil {
		t.Fatalf("warmup fetch: %+v", r)
	}
	var mid *yoda.FetchResult
	tb.FetchAsync(vip, "/x", func(r *yoda.FetchResult) { mid = r })
	tb.Run(50 * time.Millisecond) // request in flight
	for i := range tb.Cluster.Yoda {
		tb.KillInstance(i)
		break
	}
	tb.Run(30 * time.Second)
	if mid == nil || mid.Err != nil {
		t.Fatalf("flow across failure: %+v", mid)
	}
	// Subsequent fetches keep working.
	if r := tb.Fetch(vip, "/x"); r == nil || r.Err != nil {
		t.Fatalf("post-failure fetch: %+v", r)
	}
}

func TestTestbedPolicyText(t *testing.T) {
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 3})
	defer tb.Close()
	vip := tb.AddService("svc", map[string][]byte{"/a.jpg": []byte("img"), "/b.css": []byte("css")}, 2)
	err := tb.SetPolicy(vip, `
rule jpg prio=2 url=*.jpg split=svc-srv-1:1
rule css prio=1 url=*.css split=svc-srv-2:1
`)
	if err != nil {
		t.Fatal(err)
	}
	if r := tb.Fetch(vip, "/a.jpg"); r == nil || r.Err != nil || string(r.Resp.Body) != "img" {
		t.Fatalf("jpg fetch: %+v", r)
	}
	if r := tb.Fetch(vip, "/b.css"); r == nil || r.Err != nil || string(r.Resp.Body) != "css" {
		t.Fatalf("css fetch: %+v", r)
	}
	if tb.Cluster.Backends["svc-srv-1"].Server.Requests < 1 {
		t.Fatal("jpg backend unused")
	}
	// Unknown backend in policy text errors.
	if err := tb.SetPolicy(vip, "rule r prio=1 split=nope:1"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// An instance the controller provisions on scale-out gets the testbed's
// store profile, not the package default of 2 replicas.
func TestTestbedScaleOutKeepsReplicas(t *testing.T) {
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 4, StoreServers: 4, Replicas: 3})
	defer tb.Close()
	for _, in := range append(tb.Cluster.Yoda, tb.Controller.Provision()) {
		if n := in.Store().Replicas(); n != 3 {
			t.Fatalf("instance %v: store client keeps %d replicas, want 3", in.IP(), n)
		}
	}
}

func TestTestbedDefaults(t *testing.T) {
	tb := yoda.NewTestbed(yoda.TestbedConfig{})
	defer tb.Close()
	if len(tb.Cluster.Yoda) != 4 || len(tb.Cluster.StoreServers) != 3 {
		t.Fatalf("defaults: %d instances, %d stores", len(tb.Cluster.Yoda), len(tb.Cluster.StoreServers))
	}
	vip := tb.AddService("svc", map[string][]byte{"/": []byte("ok")}, 0) // 0 -> 1 backend
	if r := tb.Fetch(vip, "/"); r == nil || r.Err != nil {
		t.Fatalf("fetch: %+v", r)
	}
}
