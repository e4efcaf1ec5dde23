// Heterogeneous trio: the paper's Fig. 3 network — a 1-antenna pair,
// a 2-antenna pair, and a 3-antenna pair contending for both time and
// degrees of freedom. This example runs the full event-driven
// CSMA/CA protocol on a synthetic testbed placement and prints the
// medium-access trace, in which the four contention outcomes of
// Fig. 5 can be observed: a 3-stream winner shutting everyone out,
// and staged joins of one or two extra streams.
//
// Run: go run ./examples/heterogeneous
package main

import (
	"fmt"
	"log"

	"nplus/internal/core"
	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/traffic"
)

func main() {
	nodes, links := core.TrioNodes()

	// Find a placement where every link is usable.
	var net *core.Network
	var err error
	for seed := int64(1); ; seed++ {
		net, err = core.NewNetwork(seed, nodes, links, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		if net.MinLinkSNRDB() >= 10 {
			fmt.Printf("placement seed %d:\n", seed)
			break
		}
	}
	for _, f := range net.Flows {
		fmt.Printf("  flow %d: %d→%d (%d×%d antennas), %.1f dB\n",
			f.ID, f.Tx, f.Rx, f.TxAntennas, f.RxAntennas,
			net.Deployment.LinkSNRDB(f.Tx, f.Rx))
	}

	const duration = 0.02
	res, err := net.RunTraffic(core.TrafficRun{
		Mode: mac.ModeNPlus, Duration: duration, Model: traffic.Saturated,
		Obs: obs.Config{Events: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nmedium-access trace (n+, first 20 ms):")
	for _, line := range obs.TraceLines(res.Events) {
		fmt.Println(line)
	}

	fmt.Println("per-flow throughput:")
	total := 0.0
	for _, f := range net.Flows {
		tput := res.PerFlow[f.ID].ThroughputMbps(duration)
		fmt.Printf("  flow %d: %6.2f Mb/s\n", f.ID, tput)
		total += tput
	}
	fmt.Printf("  total:  %6.2f Mb/s\n", total)

	// Compare against today's 802.11n on the same placement.
	legacy, err := net.RunTraffic(core.TrafficRun{Mode: mac.Mode80211n, Duration: duration, Model: traffic.Saturated})
	if err != nil {
		log.Fatal(err)
	}
	totalL := 0.0
	for _, f := range net.Flows {
		totalL += legacy.PerFlow[f.ID].ThroughputMbps(duration)
	}
	fmt.Printf("\n802.11n on the same placement: %.2f Mb/s total → n+ gain %.2fx\n",
		totalL, total/totalL)
}
