package core

import (
	"fmt"
	"math/rand"
	"sort"

	"nplus/internal/exp"
	"nplus/internal/mac"
	"nplus/internal/stats"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// DelayLoadConfig parameterizes the delay-vs-offered-load experiment:
// generated deployments running open-loop traffic at a sweep of
// arrival rates, under n+ and under today's 802.11n. This is the
// delay-constrained question the related work centers on — the paper
// itself only measures backlogged throughput.
type DelayLoadConfig struct {
	Topo    string // deployment generator (topo registry)
	Nodes   int    // generated topology size
	Traffic string // arrival model (traffic registry)
	// LoadsPPS is the sweep of mean per-flow arrival rates.
	LoadsPPS []float64
	// Placements is the number of independent generated deployments
	// per load point.
	Placements int
	Duration   float64 // virtual seconds per protocol run
	QueueCap   int     // per-station queue bound
	Seed       int64
	Options    Options
}

// DefaultDelayLoadConfig sweeps light load into saturation on a
// moderate ad-hoc deployment. Generated links are kept as drawn —
// weak links are part of the workload, unlike the paper-figure
// experiments that reject unusable placements.
func DefaultDelayLoadConfig() DelayLoadConfig {
	return DelayLoadConfig{
		Topo:       "disk-adhoc",
		Nodes:      16,
		Traffic:    "poisson",
		LoadsPPS:   []float64{100, 200, 400, 800, 1600},
		Placements: 2,
		Duration:   0.08,
		QueueCap:   64,
		Seed:       1,
		Options:    DefaultOptions(),
	}
}

// BaseSeed implements exp.Config.
func (c DelayLoadConfig) BaseSeed() int64 { return c.Seed }

// TrialCount implements exp.Config: one trial per (load, placement).
func (c DelayLoadConfig) TrialCount() int { return len(c.LoadsPPS) * c.Placements }

// Validate implements exp.Config.
func (c DelayLoadConfig) Validate() error {
	if len(c.LoadsPPS) == 0 || c.Placements < 1 || c.Duration <= 0 || c.Nodes < 2 {
		return fmt.Errorf("core: bad delayload config %+v", c)
	}
	for _, l := range c.LoadsPPS {
		if l <= 0 {
			return fmt.Errorf("core: non-positive load %g pkt/s", l)
		}
	}
	if _, ok := topo.ByName(c.Topo); !ok {
		return fmt.Errorf("core: unknown topology generator %q (have %v)", c.Topo, topo.Names())
	}
	if _, ok := traffic.ByName(c.Traffic); !ok {
		return fmt.Errorf("core: unknown traffic model %q (have %v)", c.Traffic, traffic.Names())
	}
	if c.Traffic == traffic.Saturated {
		return fmt.Errorf("core: delayload needs an open-loop traffic model, not %q", c.Traffic)
	}
	return nil
}

// WithOverrides implements exp.Configurable.
func (c DelayLoadConfig) WithOverrides(o exp.Overrides) exp.Config {
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
	}
	if o.HasNodes() {
		c.Nodes = o.Nodes
	}
	if o.HasDuration() {
		c.Duration = o.Duration
	}
	return c
}

// delayLoadModes orders the two MACs compared at every load point.
var delayLoadModes = [2]mac.Mode{mac.ModeNPlus, mac.Mode80211n}

// delayLoadModeSample is one mode's pooled measurement on one
// generated deployment.
type delayLoadModeSample struct {
	delay           stats.Accumulator
	arrivals, drops int64
	bytes           int64
}

// delayLoadSample is one (load, placement) trial.
type delayLoadSample struct {
	loadIdx int
	flows   int
	modes   [2]delayLoadModeSample
}

type delayLoadExperiment struct{}

func (delayLoadExperiment) Name() string { return "delayload" }
func (delayLoadExperiment) Description() string {
	return "delay vs offered load on generated deployments, n+ vs 802.11n (open-loop traffic)"
}
func (delayLoadExperiment) DefaultConfig() exp.Config { return DefaultDelayLoadConfig() }

func (delayLoadExperiment) Trial(cfg exp.Config, i int, rng *rand.Rand) (exp.Sample, error) {
	c := cfg.(DelayLoadConfig)
	loadIdx := i / c.Placements
	layout, err := topo.Generate(c.Topo, topo.GenConfig{Nodes: c.Nodes}, rng)
	if err != nil {
		return nil, err
	}
	net, err := NewNetworkFromLayout(rng.Int63(), layout, c.Options)
	if err != nil {
		return nil, err
	}
	s := delayLoadSample{loadIdx: loadIdx, flows: len(net.Flows)}
	for mi, mode := range delayLoadModes {
		res, err := net.RunTraffic(TrafficRun{
			Mode:       mode,
			Duration:   c.Duration,
			Model:      c.Traffic,
			RatePPS:    c.LoadsPPS[loadIdx],
			QueueCap:   c.QueueCap,
			OnFraction: traffic.Auto,
			CycleSec:   traffic.Auto,
		})
		if err != nil {
			return nil, err
		}
		ms := &s.modes[mi]
		// Pool flows in stable ID order so reduction is deterministic.
		for _, id := range sortedIDs(res.PerFlow) {
			fs := res.PerFlow[id]
			ms.delay.Merge(&fs.Delay)
			ms.arrivals += fs.Arrivals
			ms.drops += fs.Drops
			ms.bytes += fs.DeliveredBytes
		}
	}
	return s, nil
}

func sortedIDs(m map[int]*mac.FlowStats) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// DelayLoadPoint is one load point's reduced measurement.
type DelayLoadPoint struct {
	LoadPPS     float64
	OfferedMbps float64 // mean offered load across the network
	// Per mode (indexed like delayLoadModes): delay summary over all
	// placements' served packets, drop rate, and delivered throughput.
	Delay      [2]stats.DelaySummary
	DropRate   [2]float64
	Throughput [2]float64
}

// DelayLoadResult holds the full sweep.
type DelayLoadResult struct {
	Points     []DelayLoadPoint
	Placements int
	Flows      int // flows per deployment (from the last placement)
}

func (delayLoadExperiment) Reduce(cfg exp.Config, samples []exp.Sample) (exp.Result, error) {
	c := cfg.(DelayLoadConfig)
	res := &DelayLoadResult{Placements: c.Placements}
	for li, load := range c.LoadsPPS {
		var pooled [2]stats.Accumulator
		var arrivals, drops [2]int64
		var bytes [2]int64
		n := 0
		for _, raw := range samples {
			if raw == nil {
				continue
			}
			s := raw.(delayLoadSample)
			if s.loadIdx != li {
				continue
			}
			n++
			res.Flows = s.flows
			for mi := range delayLoadModes {
				pooled[mi].Merge(&s.modes[mi].delay)
				arrivals[mi] += s.modes[mi].arrivals
				drops[mi] += s.modes[mi].drops
				bytes[mi] += s.modes[mi].bytes
			}
		}
		if n == 0 {
			continue
		}
		// Offered load uses the same packet size the protocol enqueues
		// (TrafficRun runs the MAC at its default epoch config).
		pktBytes := mac.DefaultEpochConfig(mac.ModeNPlus).PacketBytes
		pt := DelayLoadPoint{
			LoadPPS:     load,
			OfferedMbps: load * float64(res.Flows) * float64(pktBytes) * 8 / 1e6,
		}
		for mi := range delayLoadModes {
			pt.Delay[mi] = pooled[mi].Summary()
			if arrivals[mi] > 0 {
				pt.DropRate[mi] = float64(drops[mi]) / float64(arrivals[mi])
			}
			pt.Throughput[mi] = float64(bytes[mi]) * 8 / (c.Duration * float64(n)) / 1e6
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

// Render prints the delay/drop/throughput curves, one row per load.
func (r *DelayLoadResult) Render() string {
	t := &stats.Table{Header: []string{
		"pkt/s/flow", "offered Mb/s",
		"n+ p50 ms", "n+ p95 ms", "n+ p99 ms", "n+ drop%", "n+ Mb/s",
		".11n p50 ms", ".11n p95 ms", ".11n p99 ms", ".11n drop%", ".11n Mb/s",
	}}
	for _, p := range r.Points {
		t.AddRow(stats.F(p.LoadPPS), stats.F(p.OfferedMbps),
			stats.F(p.Delay[0].P50*1e3), stats.F(p.Delay[0].P95*1e3), stats.F(p.Delay[0].P99*1e3),
			stats.F(100*p.DropRate[0]), stats.F(p.Throughput[0]),
			stats.F(p.Delay[1].P50*1e3), stats.F(p.Delay[1].P95*1e3), stats.F(p.Delay[1].P99*1e3),
			stats.F(100*p.DropRate[1]), stats.F(p.Throughput[1]))
	}
	return fmt.Sprintf("%d flows per deployment, %d placements per load\n%s",
		r.Flows, r.Placements, t.String())
}

// RunDelayLoad runs the experiment through the parallel engine.
func RunDelayLoad(cfg DelayLoadConfig) (*DelayLoadResult, error) {
	res, err := exp.Run(delayLoadExperiment{}, cfg)
	if err != nil {
		return nil, err
	}
	return res.(*DelayLoadResult), nil
}
