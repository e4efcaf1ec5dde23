package runspec

import (
	"fmt"
	"math/rand"

	"nplus/internal/core"
	"nplus/internal/knob"
	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// Run normalizes and executes one Spec and returns its structured
// Report. Equal specs produce byte-identical reports: every RNG in
// the run derives from the spec's seed, never from scheduling or
// wall-clock state.
func Run(s Spec) (*Report, error) {
	return RunTraced(s, false)
}

// RunTraced is Run with an optional protocol trace (protocol engine
// only; the epoch engine has no event trace). A traced run collects
// the typed event stream and embeds both it and its rendered text
// trace (Report.Trace) in the Report, so structured output keeps what
// the text view shows. When the spec's observe block names an events
// path, the stream is additionally written there as JSONL.
func RunTraced(s Spec, trace bool) (*Report, error) {
	n, err := s.Normalized()
	if err != nil {
		return nil, err
	}
	if trace && n.Engine != EngineProtocol {
		return nil, fmt.Errorf("runspec: tracing needs the protocol engine (got %s)", n.Engine)
	}
	net, err := BuildNetwork(n)
	if err != nil {
		return nil, err
	}
	mode, err := mac.ParseMode(n.Mode)
	if err != nil {
		return nil, err // unreachable after Normalized, kept for safety
	}

	if n.Engine == EngineEpoch {
		res, err := net.RunEpochs(mode, n.Epochs)
		if err != nil {
			return nil, err
		}
		return buildReport(n, net, res.PerFlow, nil, res.SNRLossDB, res.Elapsed, res.DataTime, res.OverheadTime, nil), nil
	}

	onFraction, cycleSec := traffic.Auto, traffic.Auto
	if n.OnFraction != nil {
		onFraction = *n.OnFraction
	}
	if n.CycleSec != nil {
		cycleSec = *n.CycleSec
	}
	obsCfg := obs.Config{}
	if o := n.Observe; o != nil {
		obsCfg.Events = o.Events != ""
		obsCfg.Metrics = len(o.Metrics) > 0
		obsCfg.ProbeIntervalS = o.ProbeIntervalS
	}
	if trace {
		// The trace is a rendered view over the typed event stream.
		obsCfg.Events = true
	}
	run := core.TrafficRun{
		Mode:       mode,
		Duration:   n.DurationS,
		Model:      n.Traffic,
		RatePPS:    n.RatePPS,
		QueueCap:   n.QueueCap,
		OnFraction: onFraction,
		CycleSec:   cycleSec,
		Workers:    n.Workers,
		Obs:        obsCfg,
	}
	if n.Churn != nil {
		run.Churn = &core.ChurnConfig{ArrivalPerS: n.Churn.ArrivalPerS, MeanSessionS: n.Churn.MeanSessionS}
	}
	if n.Mobility != nil {
		run.Mobility = &core.MobilityConfig{Model: n.Mobility.Model, SpeedMPS: n.Mobility.SpeedMPS, IntervalS: n.Mobility.IntervalS}
	}
	if a := n.Association; a != nil {
		// Normalized guarantees the block only survives on dynamic runs.
		cfg := &core.AssocConfig{Policy: a.Policy, BiasDBPerAntenna: knob.Auto}
		if a.BiasDBPerAntenna != nil {
			cfg.BiasDBPerAntenna = *a.BiasDBPerAntenna
		}
		run.Assoc = cfg
	}
	res, err := net.RunTraffic(run)
	if err != nil {
		return nil, err
	}
	spatial := &SpatialReport{
		Components:         res.Components,
		PeakConcurrentTxns: res.PeakConcurrentTxns,
		PeakBusyComponents: res.PeakBusyComponents,
	}
	for i, cs := range res.PerComponent {
		spatial.PerComponent = append(spatial.PerComponent, ComponentReport{
			Component: i, Flows: cs.Flows, Wins: cs.Wins, Served: cs.Served,
			DataTimeS: cs.DataTime, OverheadTimeS: cs.OverheadTime,
		})
	}
	rep := buildReport(n, net, res.PerFlow, res.FlowDefs, nil, n.DurationS, res.DataTime, res.OverheadTime, spatial)
	rep.Churn = res.Churn
	if res.Metrics != nil && n.Observe != nil {
		rep.Metrics = res.Metrics.Snapshot().Filter(n.Observe.Metrics)
	}
	if trace {
		rep.Trace = obs.TraceLines(res.Events)
		rep.Events = res.Events
	}
	if o := n.Observe; o != nil && o.Events != "" {
		if err := obs.WriteEventsFile(o.Events, res.Events); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// BuildNetwork deploys the spec's scenario or generated topology with
// its seed and options — the exact construction path the flag-driven
// drivers have always used, so a spec file and its flag twin build
// bit-identical networks.
func BuildNetwork(n Spec) (*core.Network, error) {
	opts := n.coreOptions()
	seed := n.SeedValue()
	if n.Topo != "" {
		gc := topo.GenConfig{Nodes: n.Nodes, Clusters: n.Clusters, InterClusterLossDB: topo.Auto}
		if n.InterClusterLossDB != nil {
			gc.InterClusterLossDB = *n.InterClusterLossDB
		}
		layout, err := topo.Generate(n.Topo, gc, rand.New(rand.NewSource(seed)))
		if err != nil {
			return nil, err
		}
		return core.NewNetworkFromLayout(seed, layout, opts)
	}
	spec, ok := core.ScenarioByName(n.Scenario)
	if !ok {
		return nil, fmt.Errorf("runspec: unknown scenario %q (have %v)", n.Scenario, core.ScenarioNames())
	}
	nodes, links := spec.Build()
	return core.NewNetwork(seed, nodes, links, opts)
}
