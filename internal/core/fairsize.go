package core

import (
	"fmt"
	"math/rand"

	"nplus/internal/exp"
	"nplus/internal/stats"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// FairSizeConfig parameterizes the fairness-vs-network-size
// experiment: generated deployments of increasing size, with Jain's
// fairness index over per-flow throughput compared between n+ and
// 802.11n. The n+ claim under test: secondary contention lets
// multi-antenna nodes use spare degrees of freedom *without starving*
// small nodes, so fairness should hold up as heterogeneous networks
// grow.
type FairSizeConfig struct {
	Topo       string // deployment generator (topo registry)
	Sizes      []int  // generated topology sizes to sweep
	Placements int    // independent deployments per size
	Duration   float64
	Traffic    string  // arrival model; saturated measures raw MAC fairness
	RatePPS    float64 // mean per-flow rate for open-loop models
	QueueCap   int
	Seed       int64
	Options    Options
}

// DefaultFairSizeConfig measures saturated MAC fairness on growing
// ad-hoc deployments.
func DefaultFairSizeConfig() FairSizeConfig {
	return FairSizeConfig{
		Topo:       "disk-adhoc",
		Sizes:      []int{10, 20, 40},
		Placements: 2,
		Duration:   0.06,
		Traffic:    traffic.Saturated,
		Seed:       1,
		Options:    DefaultOptions(),
	}
}

// BaseSeed implements exp.Config.
func (c FairSizeConfig) BaseSeed() int64 { return c.Seed }

// TrialCount implements exp.Config: one trial per (size, placement).
func (c FairSizeConfig) TrialCount() int { return len(c.Sizes) * c.Placements }

// Validate implements exp.Config.
func (c FairSizeConfig) Validate() error {
	if len(c.Sizes) == 0 || c.Placements < 1 || c.Duration <= 0 {
		return fmt.Errorf("core: bad fairsize config %+v", c)
	}
	for _, s := range c.Sizes {
		if s < 2 {
			return fmt.Errorf("core: network size %d too small", s)
		}
	}
	if _, ok := topo.ByName(c.Topo); !ok {
		return fmt.Errorf("core: unknown topology generator %q (have %v)", c.Topo, topo.Names())
	}
	if _, ok := traffic.ByName(c.Traffic); !ok {
		return fmt.Errorf("core: unknown traffic model %q (have %v)", c.Traffic, traffic.Names())
	}
	if c.Traffic != traffic.Saturated && c.RatePPS <= 0 {
		return fmt.Errorf("core: open-loop model %q needs a positive rate", c.Traffic)
	}
	return nil
}

// WithOverrides implements exp.Configurable.
func (c FairSizeConfig) WithOverrides(o exp.Overrides) exp.Config {
	if o.HasPlacements() {
		c.Placements = o.Placements
	}
	if o.HasSeed() {
		c.Seed = o.Seed
	}
	if o.HasTopo() {
		c.Topo = o.Topo
	}
	if o.HasTraffic() {
		c.Traffic = o.Traffic
		if c.RatePPS == 0 {
			c.RatePPS = 400
		}
	}
	if o.HasNodes() {
		// A single explicit size replaces the sweep.
		c.Sizes = []int{o.Nodes}
	}
	if o.HasDuration() {
		c.Duration = o.Duration
	}
	return c
}

// fairSizeSample is one (size, placement) trial: Jain index and total
// throughput per mode ([0]=n+, [1]=802.11n, as delayLoadModes).
type fairSizeSample struct {
	sizeIdx int
	flows   int
	jain    [2]float64
	total   [2]float64
}

type fairSizeExperiment struct{}

func (fairSizeExperiment) Name() string { return "fairsize" }
func (fairSizeExperiment) Description() string {
	return "Jain fairness vs network size on generated deployments, n+ vs 802.11n"
}
func (fairSizeExperiment) DefaultConfig() exp.Config { return DefaultFairSizeConfig() }

func (fairSizeExperiment) Trial(cfg exp.Config, i int, rng *rand.Rand) (exp.Sample, error) {
	c := cfg.(FairSizeConfig)
	sizeIdx := i / c.Placements
	layout, err := topo.Generate(c.Topo, topo.GenConfig{Nodes: c.Sizes[sizeIdx]}, rng)
	if err != nil {
		return nil, err
	}
	net, err := NewNetworkFromLayout(rng.Int63(), layout, c.Options)
	if err != nil {
		return nil, err
	}
	s := fairSizeSample{sizeIdx: sizeIdx, flows: len(net.Flows)}
	for mi, mode := range delayLoadModes {
		res, err := net.RunTraffic(TrafficRun{
			Mode:       mode,
			Duration:   c.Duration,
			Model:      c.Traffic,
			RatePPS:    c.RatePPS,
			QueueCap:   c.QueueCap,
			OnFraction: traffic.Auto,
			CycleSec:   traffic.Auto,
		})
		if err != nil {
			return nil, err
		}
		var tputs []float64
		for _, id := range sortedIDs(res.PerFlow) {
			tputs = append(tputs, res.PerFlow[id].ThroughputMbps(c.Duration))
		}
		s.jain[mi] = stats.JainFairness(tputs)
		for _, x := range tputs {
			s.total[mi] += x
		}
	}
	return s, nil
}

// FairSizePoint is one network size's reduced measurement (means
// across placements).
type FairSizePoint struct {
	Size  int
	Flows int
	Jain  [2]float64
	Total [2]float64
}

// FairSizeResult holds the sweep.
type FairSizeResult struct {
	Points     []FairSizePoint
	Placements int
}

func (fairSizeExperiment) Reduce(cfg exp.Config, samples []exp.Sample) (exp.Result, error) {
	c := cfg.(FairSizeConfig)
	res := &FairSizeResult{Placements: c.Placements}
	for si, size := range c.Sizes {
		var jain, total [2][]float64
		flows := 0
		for _, raw := range samples {
			if raw == nil {
				continue
			}
			s := raw.(fairSizeSample)
			if s.sizeIdx != si {
				continue
			}
			flows = s.flows
			for mi := range delayLoadModes {
				jain[mi] = append(jain[mi], s.jain[mi])
				total[mi] = append(total[mi], s.total[mi])
			}
		}
		if len(jain[0]) == 0 {
			continue
		}
		pt := FairSizePoint{Size: size, Flows: flows}
		for mi := range delayLoadModes {
			pt.Jain[mi] = stats.Mean(jain[mi])
			pt.Total[mi] = stats.Mean(total[mi])
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render prints fairness and total throughput per network size.
func (r *FairSizeResult) Render() string {
	t := &stats.Table{Header: []string{
		"nodes", "flows", "Jain n+", "Jain .11n", "total n+ Mb/s", "total .11n Mb/s",
	}}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Size), fmt.Sprint(p.Flows),
			stats.F(p.Jain[0]), stats.F(p.Jain[1]),
			stats.F(p.Total[0]), stats.F(p.Total[1]))
	}
	return fmt.Sprintf("%d placements per size\n%s", r.Placements, t.String())
}

// RunFairSize runs the experiment through the parallel engine.
func RunFairSize(cfg FairSizeConfig) (*FairSizeResult, error) {
	res, err := exp.Run(fairSizeExperiment{}, cfg)
	if err != nil {
		return nil, err
	}
	return res.(*FairSizeResult), nil
}
