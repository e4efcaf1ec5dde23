// Package core is the public façade of the 802.11n+ library: it wires
// the testbed environment, the MAC scenario, and the experiment
// harness behind a small API. Applications describe nodes and links;
// core deploys them on a synthetic floor plan, draws channels, and
// runs either the epoch-based evaluation (the paper's methodology) or
// the full event-driven protocol.
//
// The Run* functions in fig*.go regenerate every figure of the
// paper's evaluation section; cmd/npexp and the repository-level
// benchmarks call them.
package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"nplus/internal/esnr"
	"nplus/internal/knob"
	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/sim"
	"nplus/internal/testbed"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// Node describes one radio. The canonical definition lives in package
// topo so deployment generators emit exactly the slices the scenario
// registry produces; core aliases it to keep its historical API.
type Node = topo.Node

// Link is a traffic flow between two nodes — backlogged by default,
// open-loop when the run attaches an arrival model.
type Link = topo.Link

// Options tunes a Network. Start from DefaultOptions for the
// calibrated §6 settings; the float fields below take any explicit
// value as given — including 0 — and use Auto (NaN) as the "pick the
// calibrated default" sentinel. (Earlier revisions silently replaced
// a zero JoinThresholdDB/PERWidth with the default, which made an
// explicit 0 unexpressible.)
type Options struct {
	Testbed testbed.Config
	// JoinThresholdDB is L of §4 (Auto → 27). An explicit value ≤ 0
	// disables the §4 admission check: joiners keep full power.
	JoinThresholdDB float64
	// AlignmentSpaceError is the advertised-U⊥ estimation error
	// (see mac.Scenario; DefaultOptions uses 0.05, zero means a
	// perfectly advertised space).
	AlignmentSpaceError float64
	// PERWidth is the delivery waterfall width in dB (Auto → 1). An
	// explicit 0 selects a hard delivery threshold (a step-function
	// waterfall).
	PERWidth float64
	// CSThresholdDB is the carrier-sense decode threshold: a node
	// hears a transmitter whose average link budget reaches it at or
	// above this many dB SNR (Auto → testbed.DefaultCSThresholdDB =
	// −30, calibrated so single-floor deployments stay one clique —
	// the historical global medium). Raising it shrinks decode range:
	// distant stations stop deferring to each other, hidden terminals
	// appear, and disconnected components of the resulting hearing
	// graph run as independent, sharded collision domains. An explicit
	// very low value (e.g. −200) forces everything into one clique.
	CSThresholdDB float64
	// Positions optionally pins every node to an explicit location in
	// meters (generated topologies carry their geometry here); nil
	// selects random placement on the testbed floor plan.
	Positions map[mac.NodeID]testbed.Point
	// LinkExtraLossDB adds per-ordered-pair attenuation in dB on top
	// of path loss (clustered topologies carry wall/shell loss here);
	// nil means none. Must be symmetric.
	LinkExtraLossDB func(a, b mac.NodeID) float64
	// SparseSNRDB skips materializing channels for pairs whose link
	// budget falls below it (see testbed.LinkModel). Auto (NaN)
	// inherits the layout's recommendation (clustered layouts set one
	// so an n-cluster deployment costs the sum of its clusters instead
	// of n² channels; everything else is dense); an explicit 0 — the
	// zero value — selects the historical dense draw even on a
	// clustered layout.
	SparseSNRDB float64
}

// Auto marks an Options float field as "use the calibrated default".
// It is knob.Auto (NaN), so the zero value of Options does NOT select
// defaults for JoinThresholdDB and PERWidth — zero there now means
// literal zero. Use DefaultOptions (or assign Auto explicitly) for
// the §6 calibration.
var Auto = knob.Auto

// DefaultOptions returns the calibrated defaults used throughout the
// evaluation.
func DefaultOptions() Options {
	return Options{
		Testbed:             testbed.DefaultConfig(),
		JoinThresholdDB:     27,
		AlignmentSpaceError: 0.05,
		PERWidth:            1,
		CSThresholdDB:       testbed.DefaultCSThresholdDB,
		SparseSNRDB:         Auto,
	}
}

// Network is a deployed set of nodes with drawn channels, ready to
// run MAC experiments.
type Network struct {
	Testbed    *testbed.Testbed
	Deployment *testbed.Deployment
	Flows      []mac.Flow
	opts       Options
	seed       int64
	hearing    *mac.HearingGraph
	// layout is retained for networks deployed from a generated
	// topology — dynamic (churn/mobility) runs need its cells and
	// cluster map to place arrivals and steer movement.
	layout *topo.Layout
}

// NewNetwork creates a testbed from seed, places the nodes at random
// distinct locations, draws every pairwise channel, and registers the
// links as backlogged flows.
func NewNetwork(seed int64, nodes []Node, links []Link, opts Options) (*Network, error) {
	opts.JoinThresholdDB = knob.Or(opts.JoinThresholdDB, 27)
	opts.PERWidth = knob.Or(opts.PERWidth, 1)
	opts.CSThresholdDB = knob.Or(opts.CSThresholdDB, testbed.DefaultCSThresholdDB)
	opts.SparseSNRDB = knob.Or(opts.SparseSNRDB, 0) // no layout recommendation: dense
	if opts.SparseSNRDB != 0 &&
		opts.CSThresholdDB > opts.SparseSNRDB && opts.CSThresholdDB < opts.SparseSNRDB+6 {
		// Every audible pair should have a materialized channel (with
		// margin): a carrier-sense threshold hovering just above the
		// sparse floor would make stations defer to transmitters whose
		// signals the synthesis rounds to zero. A threshold AT or BELOW
		// the floor is allowed deliberately — that is the "force one
		// global collision domain" regime, where deferral is the point
		// and the sub-floor signals are genuinely negligible.
		return nil, fmt.Errorf("core: carrier-sense threshold %g dB sits inside the 6 dB guard band above the sparse channel floor %g dB; raise it or force the global medium with a value at or below the floor",
			opts.CSThresholdDB, opts.SparseSNRDB)
	}
	if opts.Testbed.NumLocations == 0 {
		opts.Testbed = testbed.DefaultConfig()
	}
	if opts.Positions == nil && len(nodes) > opts.Testbed.NumLocations {
		// Random placement of more nodes than the floor plan holds:
		// grow the floor at constant density so large hand-built node
		// sets deploy without manual testbed tuning.
		scale := math.Sqrt(float64(len(nodes)) / float64(opts.Testbed.NumLocations))
		opts.Testbed.NumLocations = len(nodes)
		opts.Testbed.Width *= scale
		opts.Testbed.Height *= scale
	}
	tb, err := testbed.New(seed, opts.Testbed)
	if err != nil {
		return nil, err
	}
	specs := make([]testbed.NodeSpec, len(nodes))
	byID := make(map[mac.NodeID]Node, len(nodes))
	for i, n := range nodes {
		specs[i] = testbed.NodeSpec{ID: n.ID, Antennas: n.Antennas}
		byID[n.ID] = n
	}
	depRNG := rand.New(rand.NewSource(sim.DeriveSeed(seed, 1)))
	var dep *testbed.Deployment
	if opts.Positions != nil {
		dep, err = tb.DeployAtModel(depRNG, specs, opts.Positions, testbed.LinkModel{
			ExtraLossDB: opts.LinkExtraLossDB,
			SparseSNRDB: opts.SparseSNRDB,
		})
	} else {
		dep, err = tb.Deploy(depRNG, specs)
	}
	if err != nil {
		return nil, err
	}
	net := &Network{Testbed: tb, Deployment: dep, opts: opts, seed: seed}
	for _, l := range links {
		txn, ok := byID[l.Tx]
		if !ok {
			return nil, fmt.Errorf("core: link %d references unknown tx node %d", l.ID, l.Tx)
		}
		rxn, ok := byID[l.Rx]
		if !ok {
			return nil, fmt.Errorf("core: link %d references unknown rx node %d", l.ID, l.Rx)
		}
		net.Flows = append(net.Flows, mac.Flow{
			ID:         l.ID,
			Tx:         l.Tx,
			Rx:         l.Rx,
			TxAntennas: txn.Antennas,
			RxAntennas: rxn.Antennas,
			TxPower:    tb.TxPower(),
		})
	}
	return net, nil
}

// NewNetworkFromLayout deploys a generated topology: the layout's
// nodes, links, explicit positions, and link model (inter-cluster
// attenuation, sparse channel floor) run through the same channel and
// MAC stack as the hand-built scenarios.
func NewNetworkFromLayout(seed int64, l *topo.Layout, opts Options) (*Network, error) {
	opts.Positions = l.Positions
	if opts.LinkExtraLossDB == nil {
		opts.LinkExtraLossDB = l.ExtraLossDB()
	}
	if knob.IsAuto(opts.SparseSNRDB) {
		opts.SparseSNRDB = l.SparseSNRDB
	}
	net, err := NewNetwork(seed, l.Nodes, l.Links, opts)
	if err != nil {
		return nil, err
	}
	net.layout = l
	return net, nil
}

// HearingGraph returns (building once) the deployment's hearing graph
// at the network's carrier-sense threshold — the medium model the
// protocol engine runs under.
func (n *Network) HearingGraph() *mac.HearingGraph {
	if n.hearing == nil {
		n.hearing = n.Deployment.HearingGraph(n.opts.CSThresholdDB)
	}
	return n.hearing
}

// Scenario builds the MAC scenario view of this network with a fresh
// RNG derived from the network seed and the given salt.
func (n *Network) Scenario(salt int64) (*mac.Scenario, error) {
	return n.scenarioWith(n.Deployment, n.seed*7919+salt)
}

// scenarioWith is Scenario over an explicit channel provider and raw
// RNG seed — the form protocol runs use, so each shard can get its own
// provider fork and derived RNG stream.
func (n *Network) scenarioWith(provider mac.ChannelProvider, rngSeed int64) (*mac.Scenario, error) {
	sel, err := esnr.NewSelector(nil)
	if err != nil {
		return nil, err
	}
	return &mac.Scenario{
		Provider:            provider,
		Selector:            sel,
		RNG:                 rand.New(rand.NewSource(rngSeed)),
		NumBins:             n.Testbed.Params().NumDataCarriers(),
		JoinThresholdDB:     n.opts.JoinThresholdDB,
		PERWidth:            n.opts.PERWidth,
		AlignmentSpaceError: n.opts.AlignmentSpaceError,
	}, nil
}

// RunEpochs runs the epoch-based evaluation (the paper's §6.3
// methodology) over this network. All modes use the same scenario
// salt so mode comparisons are paired: the same placements see the
// same contention outcomes.
//
// The epoch methodology assumes one collision domain: every station
// hears every contention outcome, joiners defer to all incumbents.
// Deployments whose hearing graph is not a clique over the flow
// endpoints (hidden terminals, separated cells) would be modeled
// wrongly — epoch runs reject them instead of pretending.
func (n *Network) RunEpochs(mode mac.Mode, epochs int) (*mac.EpochResult, error) {
	if g := n.HearingGraph(); !g.CliqueOver(n.flowEndpoints()) {
		return nil, fmt.Errorf("core: the epoch engine assumes a single collision domain (every station hears every other), "+
			"but at carrier-sense threshold %g dB the hearing graph is not a clique over the flow endpoints "+
			"(%d components across the deployment); run the event-driven protocol engine, or force a clique with a very low CSThresholdDB",
			n.opts.CSThresholdDB, g.NumComponents())
	}
	sc, err := n.Scenario(13)
	if err != nil {
		return nil, err
	}
	cfg := mac.DefaultEpochConfig(mode)
	cfg.Epochs = epochs
	return mac.RunEpochs(sc, n.Flows, cfg)
}

// flowEndpoints returns the distinct transmitter and receiver ids of
// the network's flows, in first-appearance order.
func (n *Network) flowEndpoints() []mac.NodeID {
	seen := make(map[mac.NodeID]bool, 2*len(n.Flows))
	var out []mac.NodeID
	for _, f := range n.Flows {
		if !seen[f.Tx] {
			seen[f.Tx] = true
			out = append(out, f.Tx)
		}
		if !seen[f.Rx] {
			seen[f.Rx] = true
			out = append(out, f.Rx)
		}
	}
	return out
}

// TrafficRun describes one open-loop protocol run: every flow gets an
// arrival process from the named traffic model at the given mean rate
// and a share of its station's bounded queue.
type TrafficRun struct {
	Mode     mac.Mode
	Duration float64 // virtual seconds
	Model    string  // traffic registry name; traffic.Saturated keeps stations backlogged
	RatePPS  float64 // mean per-flow arrival rate, packets/second
	QueueCap int     // per-station queue bound (0 = default 64)
	// OnFraction and CycleSec parameterize the bursty model (ignored
	// by the others). They follow the traffic.Config sentinel rules:
	// traffic.Auto (NaN) selects the calibrated defaults, explicit
	// values are taken as given, and non-positive values — including
	// the zero value — are rejected by the model rather than silently
	// replaced.
	OnFraction float64
	CycleSec   float64
	// Obs selects observability: the typed event stream, the metrics
	// registry, and the probe cadence. The zero value observes nothing
	// and the protocol's emit paths reduce to nil checks. Like every
	// other result, the event stream and merged metrics are
	// bit-identical at any Workers value: each component's stream is a
	// function of (run seed, component id) and the merge key
	// (time, domain, sequence) is a total order.
	Obs obs.Config
	// Workers bounds the worker pool a multi-component run executes
	// on: each hearing-graph component runs the full protocol on its
	// own event queue, contender index, and RNG streams derived
	// splitmix64-style from (run seed, component id) — never from the
	// schedule — so results are bit-identical at any Workers value.
	// 0 or negative selects GOMAXPROCS. A single-component deployment
	// is the one-shard case: one engine at the historical seeds.
	Workers int
	// Churn / Mobility / Assoc make the population dynamic (see
	// dynamic.go). Any of them non-nil routes the run through the
	// single-engine dynamic controller (Workers becomes inert — results
	// are byte-identical at any worker count by construction); all nil
	// keeps the static sharded run, seed for seed. Assoc alone
	// is rejected: an association policy only acts on arrival or
	// movement.
	Churn    *ChurnConfig
	Mobility *MobilityConfig
	Assoc    *AssocConfig
}

// ComponentStats is one collision domain's share of a protocol run,
// in component order: which flows it held and its wins, served
// packets, and medium-occupancy split. Σ(DataTime+OverheadTime) over
// components can exceed the run duration — that excess is the spatial
// reuse, now attributable per domain.
type ComponentStats struct {
	Flows        int
	Wins         int64
	Served       int64
	DataTime     float64
	OverheadTime float64
}

// TrafficResult is the structured outcome of one protocol run: the
// per-flow statistics plus the medium-occupancy split the Report
// layer turns into airtime/overhead fractions.
type TrafficResult struct {
	PerFlow map[int]*mac.FlowStats
	// DataTime / OverheadTime are virtual seconds of medium occupancy
	// (data windows vs handshake+ACK phases), summed over collision
	// domains; with spatial reuse the sum can exceed the run duration.
	DataTime     float64
	OverheadTime float64
	// Spatial-reuse summary: how many collision domains the hearing
	// graph sharded the run into, and the peak number of concurrent
	// joint transmissions / busy domains observed (both 1-bounded by
	// definition under the historical single-domain model). On a
	// component-parallel run the domains evolve on independent virtual
	// clocks, so cross-component simultaneity is not observable:
	// PeakConcurrentTxns is then the sum of each component's own peak
	// and PeakBusyComponents counts components that transmitted at
	// all. Single-component runs keep the exact instantaneous gauges.
	Components         int
	PeakConcurrentTxns int
	PeakBusyComponents int
	// PerComponent attributes wins, served packets, and busy time to
	// each collision domain, in component order.
	PerComponent []ComponentStats
	// Events is the typed event stream (Obs.Events), merged across
	// components by (time, domain, sequence); obs.TraceLines renders it
	// as the text MAC trace.
	Events []obs.Event
	// Metrics is the merged metrics registry (Obs.Metrics).
	Metrics *obs.Metrics
	// FlowDefs maps every flow the run ever carried — including flows
	// of departed stations and post-handoff receivers — to its final
	// definition. Nil on static runs (the Network's Flows are then the
	// authoritative list).
	FlowDefs map[int]mac.Flow
	// Churn is the dynamic-population accounting; nil on static runs.
	Churn *ChurnStats
}

// RunTraffic runs the event-driven protocol under the given traffic
// model and returns the structured result. A saturated TrafficRun is
// the fully backlogged protocol run.
//
// A static run is one sharded loop: each hearing-graph component of
// the flow transmitters runs the full protocol on its own event queue
// and RNG streams, scheduled across a bounded worker pool (r.Workers),
// and the results merge deterministically in component order, so the
// outcome is bit-identical at any worker count. A single component is
// the one-shard case, run at the historical seeds. A dynamic run
// (dynamic.go) builds and collects its protocol with the same helpers
// on one engine over the whole network.
func (n *Network) RunTraffic(r TrafficRun) (*TrafficResult, error) {
	spec, ok := traffic.ByName(r.Model)
	if !ok {
		return nil, fmt.Errorf("core: unknown traffic model %q (have %v)", r.Model, traffic.Names())
	}
	if r.Churn != nil || r.Mobility != nil {
		return n.runTrafficDynamic(r, spec)
	}
	if r.Assoc != nil {
		return nil, fmt.Errorf("core: an association policy requires churn or mobility (it only acts on arrival or movement)")
	}
	return n.runTrafficSharded(r, spec)
}

// flowShard is one hearing-graph component's slice of the network:
// the flows whose transmitters it holds, in network flow order.
type flowShard struct {
	comp  int // hearing-graph component index (the RNG stream id)
	idx   int // dense shard index — the run's global domain label
	flows []mac.Flow
}

// componentFlows groups the network's flows by the hearing-graph
// component of their transmitter, in ascending component order. The
// component index — a function of the deployment alone, not of flow
// order or scheduling — keys each shard's derived RNG streams.
func (n *Network) componentFlows() []flowShard {
	g := n.HearingGraph()
	byComp := make(map[int][]mac.Flow)
	for _, f := range n.Flows {
		c := g.ComponentOf(f.Tx)
		byComp[c] = append(byComp[c], f)
	}
	comps := make([]int, 0, len(byComp))
	for c := range byComp {
		comps = append(comps, c)
	}
	sort.Ints(comps)
	shards := make([]flowShard, len(comps))
	for i, c := range comps {
		shards[i] = flowShard{comp: c, idx: i, flows: byComp[c]}
	}
	return shards
}

// runRoots are the randomness roots of one protocol instance: the
// channel provider it reads and its scenario and engine RNG seeds.
type runRoots struct {
	provider mac.ChannelProvider
	scenario int64
	engine   int64
}

// wholeRoots are the roots of a run over the whole network — the
// one-shard static case and the dynamic controller — at the seeds every
// pinned golden run was recorded under.
func (n *Network) wholeRoots(mode mac.Mode) runRoots {
	return runRoots{provider: n.Deployment, scenario: n.seed*7919 + int64(mode) + 29, engine: n.seed + 31}
}

// protocolRun is one wired protocol instance and the observability
// sinks its outcome is collected from.
type protocolRun struct {
	proto *mac.Protocol
	rec   *obs.Recorder
	met   *obs.Metrics
}

// newProtocolRun wires one protocol instance over flows: scenario and
// engine from roots, the hearing graph g, the run's arrival model, and
// its observability sinks, whose domains are labelled from domainBase.
// Static shards and the dynamic controller share it, so every run path
// builds the protocol the same way. With observation off the
// protocol's emit paths stay nil checks.
func (n *Network) newProtocolRun(r TrafficRun, spec traffic.Spec, flows []mac.Flow, g *mac.HearingGraph, roots runRoots, domainBase int) (*protocolRun, error) {
	sc, err := n.scenarioWith(roots.provider, roots.scenario)
	if err != nil {
		return nil, err
	}
	proto, err := mac.NewProtocol(sim.NewEngine(roots.engine), sc, flows, mac.DefaultEpochConfig(r.Mode))
	if err != nil {
		return nil, err
	}
	proto.SetHearing(g)
	var srcErr error
	proto.SetTraffic(func(f mac.Flow) traffic.Source {
		src, err := spec.New(traffic.Config{RatePPS: r.RatePPS, OnFraction: r.OnFraction, CycleSec: r.CycleSec})
		if err != nil && srcErr == nil {
			srcErr = err
		}
		return src
	}, r.QueueCap)
	if srcErr != nil {
		return nil, fmt.Errorf("core: traffic model %q: %w", r.Model, srcErr)
	}
	pr := &protocolRun{proto: proto}
	if r.Obs.Events {
		pr.rec = &obs.Recorder{}
	}
	if r.Obs.Metrics {
		pr.met = obs.NewMetrics()
	}
	proto.SetObserve(mac.ObserveConfig{
		Recorder: pr.rec, Metrics: pr.met,
		ProbeIntervalS: r.Obs.ProbeIntervalS, DomainBase: domainBase,
	})
	return pr, nil
}

// collect is the outcome of a finished protocol run, with one
// PerComponent entry per collision domain.
func (pr *protocolRun) collect() *TrafficResult {
	p := pr.proto
	res := &TrafficResult{
		PerFlow:            p.Stats(),
		Components:         p.Components(),
		PeakConcurrentTxns: p.PeakConcurrentTxns(),
		PeakBusyComponents: p.PeakBusyComponents(),
		Metrics:            pr.met,
	}
	if pr.rec != nil {
		res.Events = pr.rec.Events
	}
	flowCounts := p.DomainFlowCounts()
	for i, ds := range p.DomainBreakdown() {
		res.PerComponent = append(res.PerComponent, ComponentStats{
			Flows: flowCounts[i], Wins: ds.Wins, Served: ds.Served,
			DataTime: ds.DataTime, OverheadTime: ds.OverheadTime,
		})
	}
	res.DataTime, res.OverheadTime = p.MediumTime()
	return res
}

// runShard executes one shard as a self-contained protocol run. The
// one-shard case (whole) runs the whole network at the historical
// roots. Otherwise every seed derives from (run seed, component id) via
// sim.DeriveSeed — the same splitmix64 scheme internal/exp uses for
// per-trial sweep seeds — so the component's randomness is independent
// of its siblings and of which worker ran it, and a provider fork gives
// the shard private channel-response caches over the shared, immutable
// channel realizations.
func (n *Network) runShard(r TrafficRun, spec traffic.Spec, sh flowShard, whole bool) (*TrafficResult, error) {
	roots := n.wholeRoots(r.Mode)
	if !whole {
		stream := int64(sh.comp)
		roots = runRoots{
			provider: n.Deployment.Fork(),
			scenario: sim.DeriveSeed(roots.scenario, stream),
			engine:   sim.DeriveSeed(roots.engine, stream),
		}
	}
	pr, err := n.newProtocolRun(r, spec, sh.flows, n.HearingGraph(), roots, sh.idx)
	if err != nil {
		return nil, err
	}
	pr.proto.Run(r.Duration)
	return pr.collect(), nil
}

// runTrafficSharded fans the components over a bounded worker pool
// (the same atomic-counter pool as exp.Runner) and merges the outcomes
// in ascending component order, so the result is a pure function of
// (network, run) — workers only change wall-clock time. Merging a
// single outcome is the identity: its event stream stays in emission
// order and its metrics registry is returned as is.
func (n *Network) runTrafficSharded(r TrafficRun, spec traffic.Spec) (*TrafficResult, error) {
	shards := n.componentFlows() // also forces the lazy hearing graph before goroutines share it
	whole := len(shards) <= 1
	if whole { // one engine over every flow, even on a flowless network
		shards = []flowShard{{flows: n.Flows}}
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(shards) {
		workers = len(shards)
	}
	outs := make([]*TrafficResult, len(shards))
	errs := make([]error, len(shards))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				outs[i], errs[i] = n.runShard(r, spec, shards[i], whole)
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: component %d: %w", shards[i].comp, err)
		}
	}
	if whole {
		return outs[0], nil
	}

	res := &TrafficResult{PerFlow: make(map[int]*mac.FlowStats)}
	if r.Obs.Metrics {
		res.Metrics = obs.NewMetrics()
	}
	for i, out := range outs {
		if out.Components != 1 {
			return nil, fmt.Errorf("core: component %d sharded into %d domains (hearing graph inconsistent)", shards[i].comp, out.Components)
		}
		for id, fs := range out.PerFlow {
			res.PerFlow[id] = fs // flow ids are unique across components
		}
		res.DataTime += out.DataTime
		res.OverheadTime += out.OverheadTime
		res.Components++
		res.PeakConcurrentTxns += out.PeakConcurrentTxns
		res.PeakBusyComponents += out.PeakBusyComponents
		res.PerComponent = append(res.PerComponent, out.PerComponent...)
		res.Events = append(res.Events, out.Events...)
		if res.Metrics != nil {
			res.Metrics.Merge(out.Metrics) // ascending component order
		}
	}
	// Time ties break by (domain, per-engine sequence) — a pinned total
	// order, so the merged stream is byte-identical at any worker count.
	obs.SortEvents(res.Events)
	return res, nil
}

// MinLinkSNRDB returns the weakest flow SNR in the deployment —
// experiments skip placements with unusable links, as a physical
// testbed implicitly does.
func (n *Network) MinLinkSNRDB() float64 {
	min := 1e18
	for _, f := range n.Flows {
		if s := n.Deployment.LinkSNRDB(f.Tx, f.Rx); s < min {
			min = s
		}
	}
	return min
}

// TrioNodes returns the §6.3 node set: three transmitter-receiver
// pairs with 1, 2, and 3 antennas (Fig. 3). Node ids: tx 1,2,3 and
// rx 11,12,13; flow ids 1,2,3.
func TrioNodes() ([]Node, []Link) {
	nodes := []Node{
		{ID: 1, Antennas: 1}, {ID: 2, Antennas: 2}, {ID: 3, Antennas: 3},
		{ID: 11, Antennas: 1}, {ID: 12, Antennas: 2}, {ID: 13, Antennas: 3},
	}
	links := []Link{
		{ID: 1, Tx: 1, Rx: 11}, {ID: 2, Tx: 2, Rx: 12}, {ID: 3, Tx: 3, Rx: 13},
	}
	return nodes, links
}

// DownlinkNodes returns the §6.4 node set (Fig. 4): a 1-antenna
// client c1 (id 1) transmitting to a 2-antenna AP1 (id 11), and a
// 3-antenna AP2 (id 2) transmitting to two 2-antenna clients c2
// (id 12) and c3 (id 13). Flow ids 1 (uplink), 2 and 3 (downlink).
func DownlinkNodes() ([]Node, []Link) {
	nodes := []Node{
		{ID: 1, Antennas: 1}, {ID: 11, Antennas: 2},
		{ID: 2, Antennas: 3}, {ID: 12, Antennas: 2}, {ID: 13, Antennas: 2},
	}
	links := []Link{
		{ID: 1, Tx: 1, Rx: 11}, {ID: 2, Tx: 2, Rx: 12}, {ID: 3, Tx: 2, Rx: 13},
	}
	return nodes, links
}
