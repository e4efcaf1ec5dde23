package core

import (
	"fmt"
	"math/rand"
	"sort"

	"nplus/internal/assoc"
	"nplus/internal/knob"
	"nplus/internal/mac"
	"nplus/internal/sim"
	"nplus/internal/testbed"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// ChurnConfig switches a protocol run to a dynamic population:
// stations arrive as a Poisson process, hold an exponentially
// distributed session, and depart (draining any in-flight
// transmission first). Initial stations get sessions too, so the
// population converges to the ArrivalPerS·MeanSessionS steady state.
type ChurnConfig struct {
	// ArrivalPerS is the mean station arrival rate (stations/second of
	// virtual time).
	ArrivalPerS float64
	// MeanSessionS is the mean session length in virtual seconds.
	MeanSessionS float64
}

// MobilityConfig moves client stations between position updates drawn
// from a registered mobility model (topo.MobilityNames). Each moved
// station's link budgets and channels are recomputed incrementally,
// the hearing graph is updated in place, and the association policy
// re-evaluates its AP.
type MobilityConfig struct {
	// Model names a topo mobility registry entry ("waypoint",
	// "cluster-hop").
	Model string
	// SpeedMPS is the station speed in meters per virtual second.
	SpeedMPS float64
	// IntervalS is the position-update cadence (0 → 1 s).
	IntervalS float64
}

// AssocConfig selects the association policy deciding AP attachment
// on arrival and handoff on mobility. Nil with churn/mobility active
// defaults to "nearest" (the static generators' pairing rule).
type AssocConfig struct {
	// Policy names an assoc registry entry.
	Policy string
	// BiasDBPerAntenna follows the knob sentinel rules and is consumed
	// only by biased-sinr (knob.Auto → the calibrated default).
	BiasDBPerAntenna float64
}

// ChurnStats is the dynamic-population accounting of one run.
type ChurnStats struct {
	Arrivals       int `json:"arrivals"`
	Departures     int `json:"departures"`
	Handoffs       int `json:"handoffs"`
	HandoffRejects int `json:"handoff_rejects"`
	// PeakStations / FinalStations count client stations (not APs):
	// the most ever live at once, and the population at the end.
	PeakStations  int `json:"peak_stations"`
	FinalStations int `json:"final_stations"`
}

// Controller RNG stream salts: every dynamic draw comes from a stream
// derived from (network seed, salt[, entity id]) via sim.DeriveSeed,
// never from the event schedule, so a churning run is a pure function
// of its spec. Per-entity streams derive in two hops —
// DeriveSeed(DeriveSeed(seed, salt), id) — never by adding the salt
// to the seed, which the seedderive analyzer rejects as a
// correlated-stream hazard.
const (
	streamChurn    = 9001 // arrival times, placements, antennas, sessions
	streamMobility = 9002 // per-station movement + channel redraw streams
	streamArrFlow  = 9003 // per-flow packet-arrival streams of churned stations
)

// dynamicRun is the churn/mobility controller: the single-engine
// protocol run plus the population state it steers.
type dynamicRun struct {
	net    *Network
	r      TrafficRun
	spec   traffic.Spec
	eng    *sim.Engine
	proto  *mac.Protocol
	graph  *mac.HearingGraph
	layout *topo.Layout
	policy assoc.Policy

	// aps lists the access points (uplink receivers) in ascending id
	// order, with their antenna counts — the candidate set every
	// association decision scores.
	aps []testbed.NodeSpec

	// clients is the live client set in ascending id order; flowOf maps
	// a client to its uplink flow. departing marks clients whose
	// RemoveStation has been issued but whose detach has not landed.
	clients   []mac.NodeID
	flowOf    map[mac.NodeID]int
	departing map[mac.NodeID]bool

	churnRNG *rand.Rand
	mobRNG   map[mac.NodeID]*rand.Rand
	mobility map[mac.NodeID]topo.Mobility
	mobSpec  topo.MobilitySpec

	nextNode mac.NodeID
	nextFlow int

	defs  map[int]mac.Flow
	stats ChurnStats
}

// runTrafficDynamic runs the event-driven protocol with churn and/or
// mobility enabled. The run is always single-engine — membership
// changes rewire collision domains mid-run, so there is no static
// component partition to shard over — and r.Workers is accepted but
// inert: results are byte-identical at any worker count by
// construction.
//
// The run mutates the Network's deployment, layout, and hearing graph;
// build a fresh Network per dynamic run.
func (n *Network) runTrafficDynamic(r TrafficRun, spec traffic.Spec) (*TrafficResult, error) {
	if n.layout == nil {
		return nil, fmt.Errorf("core: churn/mobility require a generated topology (NewNetworkFromLayout)")
	}
	if len(n.layout.Cells) == 0 {
		return nil, fmt.Errorf("core: layout carries no cells (regenerate with a current topo generator)")
	}
	if r.Churn != nil && (r.Churn.ArrivalPerS <= 0 || r.Churn.MeanSessionS <= 0) {
		return nil, fmt.Errorf("core: churn requires positive arrival rate and session length (got %g/s, %g s)",
			r.Churn.ArrivalPerS, r.Churn.MeanSessionS)
	}

	d := &dynamicRun{
		net: n, r: r, spec: spec,
		layout:    n.layout,
		flowOf:    make(map[mac.NodeID]int),
		departing: make(map[mac.NodeID]bool),
		churnRNG:  rand.New(rand.NewSource(sim.DeriveSeed(n.seed, streamChurn))),
		mobRNG:    make(map[mac.NodeID]*rand.Rand),
		mobility:  make(map[mac.NodeID]topo.Mobility),
		defs:      make(map[int]mac.Flow),
	}
	if err := d.classify(); err != nil {
		return nil, err
	}

	policyName, acfg := assoc.DefaultPolicy, assoc.Config{BiasDBPerAntenna: knob.Auto}
	if r.Assoc != nil {
		policyName = r.Assoc.Policy
		acfg.BiasDBPerAntenna = r.Assoc.BiasDBPerAntenna
	}
	policy, err := assoc.New(policyName, acfg)
	if err != nil {
		return nil, err
	}
	d.policy = policy

	if r.Mobility != nil {
		ms, ok := topo.MobilityByName(r.Mobility.Model)
		if !ok {
			return nil, fmt.Errorf("core: unknown mobility model %q (have %v)", r.Mobility.Model, topo.MobilityNames())
		}
		if r.Mobility.SpeedMPS <= 0 {
			return nil, fmt.Errorf("core: mobility speed %g m/s must be positive", r.Mobility.SpeedMPS)
		}
		d.mobSpec = ms
	}

	// Single engine over the whole network at the historical seeds, on
	// a fresh mutable hearing graph (the Network's cached one must stay
	// static for other callers).
	d.graph = n.Deployment.HearingGraph(n.opts.CSThresholdDB)
	pr, err := n.newProtocolRun(r, spec, n.Flows, d.graph, n.wholeRoots(r.Mode), 0)
	if err != nil {
		return nil, err
	}
	d.proto, d.eng = pr.proto, pr.proto.Eng
	d.proto.SetOnDetach(d.onDetach)

	// Per-station mobility state for the initial clients.
	if r.Mobility != nil {
		for _, id := range d.clients {
			d.mobRNG[id] = rand.New(rand.NewSource(sim.DeriveSeed(sim.DeriveSeed(n.seed, streamMobility), int64(id))))
			d.mobility[id] = d.mobSpec.New()
		}
		iv := r.Mobility.IntervalS
		if iv <= 0 {
			iv = 1
		}
		var tick func()
		tick = func() {
			d.mobilityTick(iv)
			d.eng.Schedule(iv, tick)
		}
		d.eng.Schedule(iv, tick)
	}

	if r.Churn != nil {
		// Initial stations hold sessions too (drawn in ascending client
		// order before the run starts, a schedule-independent stream).
		for _, id := range d.clients {
			id := id
			session := d.churnRNG.ExpFloat64() * r.Churn.MeanSessionS
			d.eng.Schedule(session, func() { d.depart(id) })
		}
		var nextArrival func()
		nextArrival = func() {
			delay := d.churnRNG.ExpFloat64() / r.Churn.ArrivalPerS
			d.eng.Schedule(delay, func() {
				d.arrive()
				nextArrival()
			})
		}
		nextArrival()
	}

	d.stats.PeakStations = len(d.clients)
	d.proto.Run(r.Duration)
	d.stats.FinalStations = len(d.clients)

	res := pr.collect()
	res.FlowDefs, res.Churn = d.defs, &d.stats
	return res, nil
}

// classify splits the network's nodes into clients and APs from the
// flow set and validates the uplink shape churn requires: every flow
// terminates at an AP (a node that never transmits), and every client
// carries exactly one uplink flow.
func (d *dynamicRun) classify() error {
	n := d.net
	isTx := make(map[mac.NodeID]int)
	for _, f := range n.Flows {
		isTx[f.Tx]++
	}
	apSet := make(map[mac.NodeID]bool)
	for _, f := range n.Flows {
		if isTx[f.Rx] > 0 {
			return fmt.Errorf("core: churn/mobility require an uplink topology, but node %d both sends and receives (flow %d)", f.Rx, f.ID)
		}
		if isTx[f.Tx] > 1 {
			return fmt.Errorf("core: churn/mobility require one uplink flow per client, but node %d carries %d", f.Tx, isTx[f.Tx])
		}
		apSet[f.Rx] = true
		d.clients = append(d.clients, f.Tx)
		d.flowOf[f.Tx] = f.ID
		d.defs[f.ID] = f
		if f.ID >= d.nextFlow {
			d.nextFlow = f.ID + 1
		}
	}
	sort.Slice(d.clients, func(i, j int) bool { return d.clients[i] < d.clients[j] })
	for id, spec := range n.Deployment.Nodes {
		if apSet[id] {
			d.aps = append(d.aps, spec)
		}
		if id >= d.nextNode {
			d.nextNode = id + 1
		}
	}
	if len(d.aps) == 0 {
		return fmt.Errorf("core: churn/mobility require at least one access point")
	}
	sort.Slice(d.aps, func(i, j int) bool { return d.aps[i].ID < d.aps[j].ID })
	return nil
}

// chooseAP scores every AP for a client at pos and returns the
// policy's pick. Candidates are ordered by ascending AP id, the tie
// contract of the assoc package.
func (d *dynamicRun) chooseAP(id mac.NodeID, pos testbed.Point) testbed.NodeSpec {
	cands := make([]assoc.Candidate, len(d.aps))
	for i, ap := range d.aps {
		cands[i] = assoc.Candidate{
			AP:        ap.ID,
			Antennas:  ap.Antennas,
			DistanceM: pos.Distance(d.net.Deployment.Position[ap.ID]),
			SNRDB:     d.net.Deployment.LinkSNRDB(id, ap.ID),
		}
	}
	pick := d.policy.Choose(cands)
	for _, ap := range d.aps {
		if ap.ID == pick {
			return ap
		}
	}
	panic("core: association policy chose an unknown AP")
}

// arrive admits one station: a fresh node id, uniform placement in a
// uniformly chosen cell, incremental channel draw and hearing-graph
// insertion, association, and a scheduled departure.
func (d *dynamicRun) arrive() {
	n := d.net
	id := d.nextNode
	d.nextNode++
	ant := 1 + d.churnRNG.Intn(3)
	if m := n.Deployment.MaxAntennas(); ant > m {
		ant = m
	}
	cell := d.churnRNG.Intn(len(d.layout.Cells))
	pos := d.layout.Cells[cell].UniformIn(d.churnRNG)

	// Layout bookkeeping first: the deployment's extra-loss closure
	// reads ClusterOf, so the cell must be on record before channels
	// draw.
	d.layout.ClusterOf[id] = cell
	d.layout.Positions[id] = pos
	spec := testbed.NodeSpec{ID: id, Antennas: ant}
	if err := n.Deployment.AddNodeAt(d.churnRNG, spec, pos); err != nil {
		panic(fmt.Sprintf("core: churn arrival: %v", err))
	}
	d.graph.AddNode(id, n.Deployment.HearsFunc(n.opts.CSThresholdDB))

	ap := d.chooseAP(id, pos)
	fid := d.nextFlow
	d.nextFlow++
	flow := mac.Flow{
		ID: fid, Tx: id, Rx: ap.ID,
		TxAntennas: ant, RxAntennas: ap.Antennas,
		TxPower: n.Testbed.TxPower(),
	}
	src, err := d.spec.New(traffic.Config{RatePPS: d.r.RatePPS, OnFraction: d.r.OnFraction, CycleSec: d.r.CycleSec})
	if err != nil {
		panic(fmt.Sprintf("core: churn arrival: traffic model: %v", err))
	}
	if err := d.proto.AddStation(mac.StationConfig{
		Flows:    []mac.Flow{flow},
		Sources:  []traffic.Source{src},
		ArrSeeds: []int64{sim.DeriveSeed(sim.DeriveSeed(d.net.seed, streamArrFlow), int64(fid))},
		QueueCap: d.r.QueueCap,
	}); err != nil {
		panic(fmt.Sprintf("core: churn arrival: %v", err))
	}

	d.clients = insertSorted(d.clients, id)
	d.flowOf[id] = fid
	d.defs[fid] = flow
	if d.r.Mobility != nil {
		d.mobRNG[id] = rand.New(rand.NewSource(sim.DeriveSeed(sim.DeriveSeed(d.net.seed, streamMobility), int64(id))))
		d.mobility[id] = d.mobSpec.New()
	}
	d.stats.Arrivals++
	if live := len(d.clients); live > d.stats.PeakStations {
		d.stats.PeakStations = live
	}
	session := d.churnRNG.ExpFloat64() * d.r.Churn.MeanSessionS
	d.eng.Schedule(session, func() { d.depart(id) })
}

// depart begins a client's departure; the protocol drains any
// in-flight transmission and calls onDetach when the station is gone.
func (d *dynamicRun) depart(id mac.NodeID) {
	if d.departing[id] {
		return
	}
	d.departing[id] = true
	if err := d.proto.RemoveStation(id); err != nil {
		panic(fmt.Sprintf("core: churn departure: %v", err))
	}
}

// onDetach unwinds a fully departed station from the deployment,
// layout, and hearing graph, then reconciles the collision domains.
// It runs on a zero-delay protocol event, never inside another
// protocol transition.
func (d *dynamicRun) onDetach(id mac.NodeID) {
	if err := d.net.Deployment.RemoveNode(id); err != nil {
		panic(fmt.Sprintf("core: churn detach: %v", err))
	}
	d.graph.RemoveNode(id)
	delete(d.layout.Positions, id)
	delete(d.layout.ClusterOf, id)
	delete(d.departing, id)
	delete(d.flowOf, id)
	d.clients = removeSorted(d.clients, id)
	delete(d.mobRNG, id)
	delete(d.mobility, id)
	d.proto.SyncDomains()
	d.stats.Departures++
}

// mobilityTick advances every live, non-departing client by dt:
// position update, incremental channel redraw, hearing-graph row
// rewrite — then one domain reconciliation and an association check
// per moved client. All iteration is in ascending client id, and all
// randomness comes from per-station streams.
func (d *dynamicRun) mobilityTick(dt float64) {
	n := d.net
	moved := make([]mac.NodeID, 0, len(d.clients))
	for _, id := range d.clients {
		if d.departing[id] {
			continue
		}
		pos := n.Deployment.Position[id]
		rng := d.mobRNG[id]
		next, cell := d.mobility[id].Step(rng, d.layout, id, pos, d.r.Mobility.SpeedMPS, dt)
		if next == pos {
			continue
		}
		d.layout.Positions[id] = next
		d.layout.ClusterOf[id] = cell
		if err := n.Deployment.MoveNode(rng, id, next); err != nil {
			panic(fmt.Sprintf("core: mobility: %v", err))
		}
		d.graph.UpdateNode(id, n.Deployment.HearsFunc(n.opts.CSThresholdDB))
		moved = append(moved, id)
	}
	if len(moved) == 0 {
		return
	}
	d.proto.SyncDomains()
	for _, id := range moved {
		fid := d.flowOf[id]
		cur := d.defs[fid].Rx
		ap := d.chooseAP(id, n.Deployment.Position[id])
		if ap.ID == cur {
			continue
		}
		ok, err := d.proto.Rehome(fid, ap.ID, ap.Antennas)
		if err != nil {
			panic(fmt.Sprintf("core: handoff: %v", err))
		}
		if ok {
			f := d.defs[fid]
			f.Rx, f.RxAntennas = ap.ID, ap.Antennas
			d.defs[fid] = f
			d.stats.Handoffs++
		} else {
			d.stats.HandoffRejects++
		}
	}
}

// insertSorted adds id to an ascending slice, keeping order.
func insertSorted(s []mac.NodeID, id mac.NodeID) []mac.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// removeSorted drops id from an ascending slice, keeping order.
func removeSorted(s []mac.NodeID, id mac.NodeID) []mac.NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	if i < len(s) && s[i] == id {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}
