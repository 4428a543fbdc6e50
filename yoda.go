// Package yoda is a from-scratch reproduction of "Yoda: A Highly
// Available Layer-7 Load Balancer" (EuroSys 2016): a multi-tenant L7
// load-balancer-as-a-service whose availability comes from decoupling
// per-flow TCP state into a replicated in-memory store (TCPStore) and
// from front-and-back VIP indirection through the cloud's L4 load
// balancer, so that any instance can transparently take over any flow
// when an instance fails.
//
// The package is the library's entry point: a Testbed is a running
// deployment (L4 mux, Yoda instances, TCPStore, backends and controller)
// behind a few methods. The implementation lives under internal/ (the
// README's module map); the experiments, one runner per table and figure
// of the paper, run through cmd/yodasim.
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

import "repro/internal/httpsim"

// FetchResult is the outcome of one HTTP fetch.
type FetchResult = httpsim.FetchResult
