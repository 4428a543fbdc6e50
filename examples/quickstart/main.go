// Quickstart: stand up a small Yoda deployment, serve requests through
// the VIP, kill an instance mid-flight, and watch the flow survive.
//
// Everything runs in simulated time, so this finishes instantly and
// deterministically:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"time"

	yoda "repro"
)

func main() {
	// A testbed with 4 Yoda instances and a 3-server TCPStore, supervised
	// by the controller (600ms failure detection, as in the paper).
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 42, Instances: 4, StoreServers: 3})
	defer tb.Close()

	// One online service with 3 backends behind a VIP.
	objects := map[string][]byte{
		"/":          []byte("<html>welcome to mysite</html>"),
		"/big.bin":   make([]byte, 200*1024),
		"/style.css": []byte("body { color: teal }"),
	}
	vip := tb.AddService("mysite", objects, 3)
	fmt.Printf("service mysite is live behind VIP %v\n", vip)

	// Plain request through the load balancer.
	res := tb.Fetch(vip, "/")
	fmt.Printf("GET /          -> %d, %d bytes in %v\n",
		res.Resp.StatusCode, len(res.Resp.Body), res.Elapsed())

	// Now the headline feature: start a large transfer, kill the instance
	// that carries it, and let TCPStore + VIP indirection recover the flow.
	var big *yoda.FetchResult
	tb.FetchAsync(vip, "/big.bin", func(r *yoda.FetchResult) { big = r.Clone() })
	tb.Run(80 * time.Millisecond) // the transfer is mid-flight now

	for i, inst := range tb.Cluster.Yoda {
		if inst.FlowCount() > 0 {
			fmt.Printf("killing instance %d while it carries the flow...\n", i)
			tb.KillInstance(i)
			break
		}
	}
	tb.Run(30 * time.Second)

	if big == nil || big.Err != nil {
		fmt.Printf("flow broke: %+v\n", big)
		return
	}
	fmt.Printf("GET /big.bin   -> %d, %d bytes in %v — survived the failure\n",
		big.Resp.StatusCode, len(big.Resp.Body), big.Elapsed())

	recovered := uint64(0)
	for _, inst := range tb.Cluster.Yoda {
		recovered += inst.Recovered
	}
	fmt.Printf("flows recovered from TCPStore by surviving instances: %d\n", recovered)
	fmt.Printf("controller failure detections: %d\n", tb.Controller.Detections)
}
