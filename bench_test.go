// Package nplus's repository-level benchmarks regenerate every table
// and figure of the paper's evaluation (§6) plus the §3.5 overhead
// numbers and two ablations: the §4 join threshold L and per-packet
// rate selection (§3.4). The figure
// benchmarks drive the exp registry — the same engine cmd/npexp uses
// — and run each experiment once per iteration, reporting the
// headline metrics through testing.B metrics, so
//
//	go test -bench=. -benchmem
//
// prints the paper-vs-measured comparison alongside the usual
// throughput numbers. EXPERIMENTS.md records a full run.
package nplus_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"nplus/internal/core"
	"nplus/internal/exp"
	"nplus/internal/mac"
	"nplus/internal/topo"
)

// runRegistered runs the named registry experiment b.N times with the
// given scaling overrides and returns the last result for metric
// reporting.
func runRegistered(b *testing.B, name string, o exp.Overrides) exp.Result {
	b.Helper()
	e, ok := exp.Get(name)
	if !ok {
		b.Fatalf("experiment %q not registered (have %v)", name, exp.Names())
	}
	cfg := e.DefaultConfig()
	if c, ok := cfg.(exp.Configurable); ok {
		cfg = c.WithOverrides(o)
	}
	var last exp.Result
	for i := 0; i < b.N; i++ {
		r, err := exp.Run(e, cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = r
	}
	return last
}

// BenchmarkRegistry runs every registered experiment at smoke scale,
// so `go test -bench . -benchtime 1x` exercises the whole registry
// and a new registration cannot silently rot.
func BenchmarkRegistry(b *testing.B) {
	smoke := exp.Overrides{Trials: 20, Placements: 4, Epochs: 20}
	for _, e := range exp.All() {
		b.Run(e.Name(), func(b *testing.B) {
			runRegistered(b, e.Name(), smoke)
		})
	}
}

// BenchmarkFig9aSensingPower — Fig. 9(a): RSSI jump when a weak tx2
// starts under a strong tx1, with and without projection (paper: 0.4
// vs 8.5 dB).
func BenchmarkFig9aSensingPower(b *testing.B) {
	last := runRegistered(b, "fig9", exp.Overrides{Trials: 60}).(*core.Fig9Result)
	b.ReportMetric(last.JumpRawDB, "raw-jump-dB")
	b.ReportMetric(last.JumpProjectedDB, "proj-jump-dB")
}

// BenchmarkFig9bCorrelation — Fig. 9(b): fraction of busy-medium
// correlations indistinguishable from idle (paper: ≈18% raw, ≈0%
// projected).
func BenchmarkFig9bCorrelation(b *testing.B) {
	last := runRegistered(b, "fig9", exp.Overrides{Trials: 150}).(*core.Fig9Result)
	b.ReportMetric(100*last.IndistinctRaw, "raw-indistinct-%")
	b.ReportMetric(100*last.IndistinctProjected, "proj-indistinct-%")
}

// BenchmarkFig11aNulling — Fig. 11(a): average SNR reduction of the
// wanted stream due to imperfect nulling, below the L=27 dB threshold
// (paper: 0.8 dB).
func BenchmarkFig11aNulling(b *testing.B) {
	last := runRegistered(b, "fig11", exp.Overrides{Placements: 120}).(*core.Fig11Result)
	b.ReportMetric(last.AvgNullingDB, "nulling-loss-dB")
}

// BenchmarkFig11bAlignment — Fig. 11(b): same for alignment (paper:
// 1.3 dB, worse than nulling because U must also be estimated).
func BenchmarkFig11bAlignment(b *testing.B) {
	last := runRegistered(b, "fig11", exp.Overrides{Placements: 120}).(*core.Fig11Result)
	b.ReportMetric(last.AvgAlignmentDB, "alignment-loss-dB")
}

// BenchmarkFig12Throughput — Fig. 12(a)–(d): trio throughput under n+
// vs 802.11n (paper: total ≈2×, 1-antenna ≈0.97×, 2-antenna ≈1.5×,
// 3-antenna ≈3.5×).
func BenchmarkFig12Throughput(b *testing.B) {
	last := runRegistered(b, "fig12", exp.Overrides{Placements: 15, Epochs: 80}).(*core.Fig12Result)
	b.ReportMetric(last.MeanGainTotal, "total-gain-x")
	b.ReportMetric(last.MeanGainFlow[1], "gain-1ant-x")
	b.ReportMetric(last.MeanGainFlow[2], "gain-2ant-x")
	b.ReportMetric(last.MeanGainFlow[3], "gain-3ant-x")
}

// BenchmarkFig13aVs80211n — Fig. 13(a): downlink scenario total gain
// over 802.11n (paper: ≈2.4×).
func BenchmarkFig13aVs80211n(b *testing.B) {
	last := runRegistered(b, "fig13", exp.Overrides{Placements: 12, Epochs: 80}).(*core.Fig13Result)
	b.ReportMetric(last.MeanGainVsLegacy, "gain-vs-80211n-x")
}

// BenchmarkFig13bVsBeamforming — Fig. 13(b): same scenario vs the
// multi-user beamforming baseline [7] (paper: ≈1.8×).
func BenchmarkFig13bVsBeamforming(b *testing.B) {
	last := runRegistered(b, "fig13", exp.Overrides{Placements: 12, Epochs: 80}).(*core.Fig13Result)
	b.ReportMetric(last.MeanGainVsBeamforming, "gain-vs-BF-x")
}

// BenchmarkHandshakeOverhead — §3.5: alignment-space size and total
// light-weight-handshake overhead (paper: ≈3 OFDM symbols, ≈4%).
func BenchmarkHandshakeOverhead(b *testing.B) {
	last := runRegistered(b, "overhead", exp.Overrides{Trials: 40}).(*core.OverheadResult)
	b.ReportMetric(last.DiffSymbols.Mean(), "align-symbols")
	b.ReportMetric(last.RawBytes.Mean()/last.DiffBytes.Mean(), "compression-x")
	b.ReportMetric(100*last.OverheadFraction, "overhead-%")
}

var (
	planner200Once sync.Once
	planner200Net  *core.Network
	planner200Err  error
)

// planner200Setup builds (once) the 200-node generated uplink
// deployment the planner benchmarks run on — the same scale as the
// CI workload smoke.
func planner200Setup(tb testing.TB) *core.Network {
	tb.Helper()
	planner200Once.Do(func() {
		layout, err := topo.Generate("disk-uplink", topo.GenConfig{Nodes: 200}, rand.New(rand.NewSource(42)))
		if err != nil {
			planner200Err = err
			return
		}
		planner200Net, planner200Err = core.NewNetworkFromLayout(7, layout, core.DefaultOptions())
	})
	if planner200Err != nil {
		tb.Fatal(planner200Err)
	}
	return planner200Net
}

// planner200Round returns one contention round of the join planner on
// the 200-node deployment: a primary win planned via PlanBest, then a
// secondary join against it. BenchmarkPlanner200NodeRound times it and
// TestPlannerRoundAllocs pins its allocations.
func planner200Round(tb testing.TB) func() {
	tb.Helper()
	net := planner200Setup(tb)
	sc, err := net.Scenario(99)
	if err != nil {
		tb.Fatal(err)
	}
	flows := net.Flows
	// A 2-antenna primary and a 3-antenna secondary joiner.
	var prim, join *mac.Flow
	for i := range flows {
		f := &flows[i]
		if prim == nil && f.TxAntennas == 2 {
			prim = f
		} else if join == nil && f.TxAntennas == 3 {
			join = f
		}
	}
	if prim == nil || join == nil {
		tb.Fatal("generated deployment lacks the mixed-antenna flows the round needs")
	}
	return func() {
		group, err := sc.PlanBest(mac.JoinRequest{Dests: []mac.Flow{*prim}}, nil, false, true)
		if err != nil {
			tb.Fatal(err)
		}
		if _, err := sc.PlanBest(mac.JoinRequest{Dests: []mac.Flow{*join}}, group, false, false); err != nil && err != mac.ErrNoDoF {
			tb.Fatal(err)
		}
	}
}

// BenchmarkPlanner200NodeRound measures one contention round of the
// join planner on a 200-node deployment. This is the MAC hot path
// that makes large event-driven runs planner-bound.
func BenchmarkPlanner200NodeRound(b *testing.B) {
	round := planner200Round(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
}

// BenchmarkProtocol200NodeSaturated runs the full event-driven n+
// protocol on the 200-node deployment under heavy open-loop load —
// the wall-clock view of the same hot path (plus delivery, traffic,
// and event-engine costs).
func BenchmarkProtocol200NodeSaturated(b *testing.B) {
	net := planner200Setup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := net.RunTraffic(core.TrafficRun{
			Mode: mac.ModeNPlus, Duration: 0.02, Model: "poisson", RatePPS: 800,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSpatialCampus1000 compares one cold, seeded,
// end-to-end run (deployment construction + simulation, exactly what
// runspec.Run pays) of the sharded spatial-reuse model against the
// same 1,000 nodes forced into one clique — the historical
// single-collision-domain model, which both serializes the whole
// campus behind one contention domain AND must materialize every
// pairwise channel, because under a global medium every planner
// decision can touch any cross-pair (the sparse floor is only sound
// when the hearing graph bounds who interacts). The clique carries
// roughly an eighth of the load while paying full-network contention
// and n² channel state, so the headline metric is wall-clock per
// served packet (ms-per-served) — the only basis on which the two
// runs carry comparable work. CI exports both as BENCH_spatial.json
// and gates the sharded/clique ratio at ≥3×.
func BenchmarkSpatialCampus1000(b *testing.B) {
	for _, cfg := range []struct {
		name  string
		cs    float64
		dense bool
	}{
		{"sharded", core.DefaultOptions().CSThresholdDB, false},
		{"clique", -200, true}, // hear everything, model every channel
	} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ResetTimer()
			var served int64
			var res *core.TrafficResult
			for i := 0; i < b.N; i++ {
				layout, err := topo.Generate("campus",
					topo.GenConfig{Nodes: 1000, Clusters: 8, InterClusterLossDB: topo.Auto},
					rand.New(rand.NewSource(7)))
				if err != nil {
					b.Fatal(err)
				}
				opts := core.DefaultOptions()
				opts.CSThresholdDB = cfg.cs
				if cfg.dense {
					opts.SparseSNRDB = 0 // historical dense draw
				}
				net, err := core.NewNetworkFromLayout(7, layout, opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err = net.RunTraffic(core.TrafficRun{
					Mode: mac.ModeNPlus, Duration: 0.03, Model: "poisson", RatePPS: 4000,
				})
				if err != nil {
					b.Fatal(err)
				}
				served = 0
				for _, fs := range res.PerFlow {
					served += fs.Served
				}
			}
			b.ReportMetric(float64(res.Components), "components")
			b.ReportMetric(float64(res.PeakBusyComponents), "peak-busy-comps")
			b.ReportMetric(float64(served), "served-pkts")
			if served > 0 {
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(served)/1e6, "ms-per-served")
			}
		})
	}
}

var (
	parallelCampusOnce sync.Once
	parallelCampusNet  *core.Network
	parallelCampusErr  error
)

// parallelCampusSetup builds (once, outside every timer) the
// 1,000-node, 8-cluster campus the parallel-execution benchmarks
// share, so the sub-benchmarks measure pure simulation cost at each
// worker count over the identical deployment.
func parallelCampusSetup(b *testing.B) *core.Network {
	b.Helper()
	parallelCampusOnce.Do(func() {
		layout, err := topo.Generate("campus",
			topo.GenConfig{Nodes: 1000, Clusters: 8, InterClusterLossDB: topo.Auto},
			rand.New(rand.NewSource(7)))
		if err != nil {
			parallelCampusErr = err
			return
		}
		parallelCampusNet, parallelCampusErr = core.NewNetworkFromLayout(7, layout, core.DefaultOptions())
	})
	if parallelCampusErr != nil {
		b.Fatal(parallelCampusErr)
	}
	return parallelCampusNet
}

// BenchmarkParallelCampus1000 measures the component-parallel
// scheduler on an 8-component campus at 1, 2, and 4 workers — results
// are bit-identical at every count, so the sub-benchmarks differ only
// in wall clock. CI exports this as BENCH_parallel.json and gates the
// workers1/workers4 ratio at ≥2× on its multi-core runners (a 1-CPU
// box reports ratio ≈1: the pool cannot beat GOMAXPROCS).
func BenchmarkParallelCampus1000(b *testing.B) {
	net := parallelCampusSetup(b)
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			var served int64
			for i := 0; i < b.N; i++ {
				res, err := net.RunTraffic(core.TrafficRun{
					Mode: mac.ModeNPlus, Duration: 0.03, Model: "poisson", RatePPS: 4000,
					Workers: w,
				})
				if err != nil {
					b.Fatal(err)
				}
				served = 0
				for _, fs := range res.PerFlow {
					served += fs.Served
				}
			}
			b.ReportMetric(float64(served), "served-pkts")
		})
	}
}

// BenchmarkStreamingDelayMemory pins the streaming-stats half of the
// parallel redesign: doubling the horizon doubles served packets while
// the quantile-sketch bucket count stays near-flat, because per-packet
// delays land in a bounded log-bucket range — the retained-sample
// design this replaced grew its footprint linearly here. The heavily
// loaded trio drives thousands of served packets per flow, deep into
// the regime where the sketch saturates. CI exports the horizon pair
// in BENCH_parallel.json and gates bucket growth well below the
// served-packet growth.
func BenchmarkStreamingDelayMemory(b *testing.B) {
	nodes, links := core.TrioNodes()
	net, err := core.NewNetwork(21, nodes, links, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, h := range []struct {
		name string
		dur  float64
	}{{"horizon1x", 1.0}, {"horizon2x", 2.0}} {
		b.Run(h.name, func(b *testing.B) {
			var served, buckets int64
			for i := 0; i < b.N; i++ {
				res, err := net.RunTraffic(core.TrafficRun{
					Mode: mac.ModeNPlus, Duration: h.dur, Model: "poisson", RatePPS: 3000,
				})
				if err != nil {
					b.Fatal(err)
				}
				served, buckets = 0, 0
				for _, fs := range res.PerFlow {
					served += fs.Served
					buckets += int64(fs.Delay.Footprint())
				}
			}
			b.ReportMetric(float64(served), "served-pkts")
			b.ReportMetric(float64(buckets), "delay-buckets")
		})
	}
}

// BenchmarkChurnGraphMaintenance measures hearing-graph maintenance
// under a dynamic population on the 1,000-node campus: a stream of
// membership and movement events (depart, re-arrive, move), each
// followed by a component query — the exact sequence the churn
// controller drives. "incremental" applies each event in place with
// AddNode/RemoveNode/UpdateNode (O(n) edge re-probes per event);
// "rebuild" reconstructs the whole graph from the live set per event
// (the O(n²) alternative an incremental structure exists to avoid).
// CI exports the pair as BENCH_churn.json and gates the ratio at ≥5×.
func BenchmarkChurnGraphMaintenance(b *testing.B) {
	net := parallelCampusSetup(b)
	hears := net.Deployment.HearsFunc(core.DefaultOptions().CSThresholdDB)
	ids := net.Deployment.LiveIDs()
	const events = 60

	// churnStep applies event i to the graph via the incremental API:
	// cycle a victim node through depart → re-arrive → move.
	churnStep := func(g *mac.HearingGraph, i int) {
		victim := ids[((i/3)*37)%len(ids)]
		switch i % 3 {
		case 0:
			g.RemoveNode(victim)
		case 1:
			g.AddNode(victim, hears)
		default:
			g.UpdateNode(victim, hears)
		}
	}

	b.Run("incremental", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			g := net.Deployment.HearingGraph(core.DefaultOptions().CSThresholdDB)
			for e := 0; e < events; e++ {
				// Keep the stream add-before-remove consistent: event
				// 3k removes the node event 3k+1 restores.
				churnStep(g, e)
				comps = g.NumComponents()
			}
		}
		b.ReportMetric(float64(comps), "components")
		b.ReportMetric(events, "events-per-op")
	})
	b.Run("rebuild", func(b *testing.B) {
		var comps int
		for i := 0; i < b.N; i++ {
			live := make(map[mac.NodeID]bool, len(ids))
			for _, id := range ids {
				live[id] = true
			}
			for e := 0; e < events; e++ {
				victim := ids[((e/3)*37)%len(ids)]
				switch e % 3 {
				case 0:
					live[victim] = false
				case 1:
					live[victim] = true
				}
				cur := make([]mac.NodeID, 0, len(ids))
				for _, id := range ids {
					if live[id] {
						cur = append(cur, id)
					}
				}
				comps = mac.NewHearingGraph(cur, hears).NumComponents()
			}
		}
		b.ReportMetric(float64(comps), "components")
		b.ReportMetric(events, "events-per-op")
	})
}

// BenchmarkAblationJoinThreshold sweeps the §4 join threshold L: with
// L far above practice (no power control) single-antenna incumbents
// suffer more residual interference; with L too low joiners give up
// capacity. The paper picks 27 dB.
func BenchmarkAblationJoinThreshold(b *testing.B) {
	nodes, links := core.TrioNodes()
	for _, l := range []float64{15, 27, 60} {
		b.Run(thName(l), func(b *testing.B) {
			var loss, tput float64
			for i := 0; i < b.N; i++ {
				opts := core.DefaultOptions()
				opts.JoinThresholdDB = l
				net, err := core.NewNetwork(11, nodes, links, opts)
				if err != nil {
					b.Fatal(err)
				}
				res, err := net.RunEpochs(mac.ModeNPlus, 60)
				if err != nil {
					b.Fatal(err)
				}
				loss = res.SNRLossDB[1]
				tput = res.TotalThroughputMbps()
			}
			b.ReportMetric(loss, "1ant-SNR-loss-dB")
			b.ReportMetric(tput, "total-Mbps")
		})
	}
}

func thName(l float64) string {
	switch {
	case l < 20:
		return "L15dB"
	case l < 40:
		return "L27dB"
	default:
		return "L60dB"
	}
}

// BenchmarkAblationPerPacketRate compares n+'s per-packet ESNR rate
// selection (§3.4) against a static mid-table rate, demonstrating why
// the angle-dependent post-projection SNR (Fig. 7) demands per-packet
// selection.
func BenchmarkAblationPerPacketRate(b *testing.B) {
	// Covered structurally: rates are re-selected per join in every
	// epoch. This bench reports the spread of rates actually chosen
	// across one run, which a static scheme could not follow.
	nodes, links := core.TrioNodes()
	net, err := core.NewNetwork(12, nodes, links, core.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	var total float64
	for i := 0; i < b.N; i++ {
		res, err := net.RunEpochs(mac.ModeNPlus, 60)
		if err != nil {
			b.Fatal(err)
		}
		total = res.TotalThroughputMbps()
	}
	b.ReportMetric(total, "total-Mbps")
}
