// Secure service: SSL termination at the load balancer (§5.2) composed
// with Yoda's availability story. The client speaks the securesim
// TLS-like protocol to the VIP; the instance terminates it (certificate
// transfer, ECDH key agreement, AES-CTR streams), selects the backend
// from the decrypted request, and tunnels the rest with per-packet
// keystream rewriting — so even an *encrypted* flow survives the death
// of the instance that terminated it.
//
//	go run ./examples/secureservice
package main

import (
	"bytes"
	"fmt"
	"time"

	yoda "repro"
	"repro/internal/httpsim"
	"repro/internal/netsim"
	"repro/internal/securesim"
	"repro/internal/workload"
)

func main() {
	tb := yoda.NewTestbed(yoda.TestbedConfig{Seed: 99, Instances: 3, StoreServers: 3})
	defer tb.Close()

	secret := workload.SynthBody("/download.bin", 200*1024)
	vip := tb.AddService("vault", map[string][]byte{
		"/login":        []byte("welcome, agent"),
		"/download.bin": secret,
	}, 2)

	// The operator installs the certificate and the shared service secret
	// on every instance — the §5.2 provisioning step.
	identity := securesim.NewIdentity(
		[]byte("-----BEGIN CERT----- vault.example -----END CERT-----"),
		[]byte("vault-service-secret"),
	)
	for _, in := range tb.Cluster.Yoda {
		in.InstallTLS(vip, identity)
	}
	fmt.Printf("vault is live behind VIP %v with SSL termination on %d instances\n\n",
		vip, len(tb.Cluster.Yoda))

	// Watch the wire to prove the client leg is opaque.
	leaked := false
	tb.Cluster.Net.SetTracer(func(ev netsim.TraceEvent) {
		p := ev.Packet
		if p != nil && (p.Src.IP == vip || p.Dst.IP == vip) && p.Src.Port != 80 && p.Dst.Port != 80 {
			if bytes.Contains(p.Payload, []byte("welcome, agent")) {
				leaked = true
			}
		}
	})

	host := tb.Cluster.ClientHost()
	var login securesim.FetchResult
	securesim.Fetch(host, netsim.HostPort{IP: vip, Port: 80}, identity.Cert,
		httpsim.NewRequest("/login", "vault"), func(r securesim.FetchResult) { login = r })
	tb.Run(5 * time.Second)
	fmt.Printf("HTTPS GET /login        -> %q (plaintext on the wire: %v)\n", login.Resp.Body, leaked)

	// Now the composition: kill the terminating instance mid-download.
	var download *securesim.FetchResult
	securesim.Fetch(host, netsim.HostPort{IP: vip, Port: 80}, identity.Cert,
		httpsim.NewRequest("/download.bin", "vault"), func(r securesim.FetchResult) { download = &r })
	tb.Run(150 * time.Millisecond)
	for i, in := range tb.Cluster.Yoda {
		if in.FlowCount() > 0 {
			fmt.Printf("killing instance %d while it holds the TLS session...\n", i)
			tb.KillInstance(i)
			break
		}
	}
	tb.Run(30 * time.Second)

	if download == nil || download.Err != nil {
		fmt.Printf("download failed: %+v\n", download)
		return
	}
	ok := bytes.Equal(download.Resp.Body, secret)
	fmt.Printf("HTTPS GET /download.bin -> %d bytes, intact=%v — the session key came back from TCPStore\n",
		len(download.Resp.Body), ok)

	// Pinning the wrong certificate is rejected before any request is sent.
	var mitm securesim.FetchResult
	securesim.Fetch(host, netsim.HostPort{IP: vip, Port: 80}, []byte("evil cert"),
		httpsim.NewRequest("/login", "vault"), func(r securesim.FetchResult) { mitm = r })
	tb.Run(5 * time.Second)
	fmt.Printf("pinned-cert mismatch    -> %v\n", mitm.Err)
}
