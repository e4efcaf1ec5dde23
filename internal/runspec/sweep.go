package runspec

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"

	"nplus/internal/exp"
	"nplus/internal/stats"
)

// Sweep expands grid axes over a base Spec: every combination of the
// listed rates × nodes × modes × seeds becomes one expanded spec. An
// empty axis keeps the base value, so a sweep with only Modes listed
// compares MACs on otherwise identical runs. Expansion order is
// deterministic (rates outermost, seeds innermost), and each point is
// a self-contained Spec, so the sweep inherits the exp engine's
// bit-identical-at-any-worker-count contract.
type Sweep struct {
	Base Spec `json:"base"`

	// Rates sweeps the mean per-flow arrival rate (open-loop traffic).
	Rates []float64 `json:"rates,omitempty"`
	// Nodes sweeps generated-topology sizes (needs Base.Topo).
	Nodes []int `json:"nodes,omitempty"`
	// Modes sweeps MAC variants by CLI name.
	Modes []string `json:"modes,omitempty"`
	// Seeds sweeps placement/run seeds. Empty keeps the base seed on
	// every point, so cross-mode comparisons stay paired.
	Seeds []int64 `json:"seeds,omitempty"`
}

// MaxSweepPoints bounds a sweep's expanded grid. Expand checks the
// axis-length product against it before allocating, so a small
// document (an npserve /sweep body, say) cannot ask for gigabytes.
const MaxSweepPoints = 10_000

// Expand returns the normalized grid in deterministic order. Every
// point is validated; the first bad combination aborts the expansion
// with its coordinates, and a grid over MaxSweepPoints is rejected
// before any point is built.
func (sw Sweep) Expand() ([]Spec, error) {
	rates := sw.Rates
	if len(rates) == 0 {
		rates = []float64{sw.Base.RatePPS}
	}
	nodes := sw.Nodes
	if len(nodes) == 0 {
		nodes = []int{sw.Base.Nodes}
	}
	modes := sw.Modes
	if len(modes) == 0 {
		modes = []string{sw.Base.Mode}
	}
	seeds := sw.Seeds
	if len(seeds) == 0 {
		if sw.Base.Seed != nil {
			seeds = []int64{*sw.Base.Seed}
		} else {
			seeds = []int64{DefaultSeed}
		}
	}

	points := 1
	for _, n := range []int{len(rates), len(nodes), len(modes), len(seeds)} {
		// Dividing first keeps the product from overflowing.
		if points > MaxSweepPoints/n {
			return nil, fmt.Errorf("runspec: sweep grid %d × %d × %d × %d (rates × nodes × modes × seeds) exceeds %d points",
				len(rates), len(nodes), len(modes), len(seeds), MaxSweepPoints)
		}
		points *= n
	}
	specs := make([]Spec, 0, points)
	for _, rate := range rates {
		for _, nn := range nodes {
			for _, mode := range modes {
				for _, seed := range seeds {
					s := sw.Base
					s.RatePPS = rate
					s.Nodes = nn
					s.Mode = mode
					sd := seed
					s.Seed = &sd
					n, err := s.Normalized()
					if err != nil {
						return nil, fmt.Errorf("runspec: sweep point (rate=%g nodes=%d mode=%q seed=%d): %w",
							rate, nn, mode, seed, err)
					}
					specs = append(specs, n)
				}
			}
		}
	}
	// A per-point events file makes no sense on a grid: every point
	// would clobber the same path. Reject instead of letting the last
	// writer win silently.
	if len(specs) > 1 && sw.Base.Observe != nil && sw.Base.Observe.Events != "" {
		return nil, fmt.Errorf("runspec: observe.events names one output file but the sweep expands to %d points; drop the events path or run the point as a single spec", len(specs))
	}
	return specs, nil
}

// sweepConfig adapts an expanded sweep to the exp engine: one trial
// per grid point. Every point carries its own seed, so the trial RNG
// the runner derives is unused — determinism comes from the specs
// themselves.
type sweepConfig struct {
	specs []Spec
}

func (c sweepConfig) BaseSeed() int64 {
	if len(c.specs) == 0 {
		return 0
	}
	return c.specs[0].SeedValue()
}
func (c sweepConfig) TrialCount() int { return len(c.specs) }
func (c sweepConfig) Validate() error {
	if len(c.specs) == 0 {
		return fmt.Errorf("runspec: empty sweep")
	}
	return nil
}

// sweepExperiment runs one expanded spec per trial and folds the
// reports, in grid order, into a SweepResult.
type sweepExperiment struct{}

func (sweepExperiment) Name() string { return "runspec-sweep" }
func (sweepExperiment) Description() string {
	return "declarative spec grid through the parallel runner"
}
func (sweepExperiment) DefaultConfig() exp.Config { return sweepConfig{} }
func (sweepExperiment) Trial(cfg exp.Config, i int, _ *rand.Rand) (exp.Sample, error) {
	return Run(cfg.(sweepConfig).specs[i])
}
func (sweepExperiment) Reduce(cfg exp.Config, samples []exp.Sample) (exp.Result, error) {
	res := &SweepResult{}
	for _, raw := range samples {
		if raw == nil {
			continue
		}
		res.Reports = append(res.Reports, raw.(*Report))
	}
	return res, nil
}

// RunSweep expands the grid and fans it through the exp parallel
// runner. workers ≤ 0 selects GOMAXPROCS; the worker count never
// changes the result.
func RunSweep(sw Sweep, workers int) (*SweepResult, error) {
	specs, err := sw.Expand()
	if err != nil {
		return nil, err
	}
	res, err := (&exp.Runner{Workers: workers}).Run(sweepExperiment{}, sweepConfig{specs: specs})
	if err != nil {
		return nil, err
	}
	return res.(*SweepResult), nil
}

// SweepResult holds every grid point's Report in expansion order.
type SweepResult struct {
	Reports []*Report `json:"reports"`
}

// WriteJSONL emits one compact Report per line — the batch format
// downstream tooling ingests.
func (r *SweepResult) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rep := range r.Reports {
		if err := enc.Encode(rep); err != nil {
			return err
		}
	}
	return nil
}

// Render summarizes the sweep as one table row per grid point.
func (r *SweepResult) Render() string {
	t := &stats.Table{Header: []string{
		"deployment", "flows", "mode", "traffic", "rate", "seed",
		"Mb/s", "Jain", "p95 ms", "drop%", "air%",
	}}
	for _, rep := range r.Reports {
		s := rep.Spec
		dep := s.Scenario
		if s.Topo != "" {
			dep = s.Topo
		}
		p95, drop := "-", "-"
		if d := rep.Totals.Delay; d != nil {
			p95 = stats.F(d.P95Ms)
		}
		if rep.Totals.Arrivals > 0 {
			drop = fmt.Sprintf("%.1f", 100*rep.Totals.DropRate)
		}
		t.AddRow(dep, fmt.Sprint(len(rep.Flows)), s.Mode, s.Traffic,
			stats.F(s.RatePPS), fmt.Sprint(s.SeedValue()),
			stats.F(rep.Totals.ThroughputMbps), fmt.Sprintf("%.3f", rep.Totals.JainFairness),
			p95, drop, fmt.Sprintf("%.1f", 100*rep.Totals.AirtimeFrac))
	}
	return t.String()
}

// DecodeSweep parses a Sweep from JSON, rejecting unknown fields.
func DecodeSweep(data []byte) (Sweep, error) {
	var sw Sweep
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sw); err != nil {
		return Sweep{}, fmt.Errorf("runspec: decode sweep: %w", err)
	}
	return sw, nil
}

// LoadSweep reads a sweep file; a file holding a single Spec is
// promoted to a one-point sweep, so every spec file is also a valid
// batch input. The path "-" reads from standard input. A file is a
// sweep when it carries a "base" object or any sweep axis — including
// an axes-only file like {"modes": ["nplus", "80211n"]}, which sweeps
// over the default base.
func LoadSweep(path string) (Sweep, error) {
	data, err := readInput(path)
	if err != nil {
		return Sweep{}, err
	}
	return DecodeSweepOrSpec(data)
}

// DecodeSweepOrSpec parses a sweep document, promoting a single-spec
// document to a one-point sweep — the shared grammar of every batch
// input surface (npexp -spec files, npserve POST /sweep bodies).
func DecodeSweepOrSpec(data []byte) (Sweep, error) {
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(data, &probe); err != nil {
		return Sweep{}, fmt.Errorf("runspec: decode sweep: %w", err)
	}
	if looksLikeSweep(probe) {
		return DecodeSweep(data)
	}
	s, err := DecodeSpec(data)
	if err != nil {
		return Sweep{}, err
	}
	return Sweep{Base: s}, nil
}

// looksLikeSweep distinguishes a sweep document from a single spec.
// "nodes" exists in both vocabularies (spec int vs sweep axis), so it
// counts only when it is an array.
func looksLikeSweep(probe map[string]json.RawMessage) bool {
	for _, key := range []string{"base", "rates", "modes", "seeds"} {
		if _, ok := probe[key]; ok {
			return true
		}
	}
	v, ok := probe["nodes"]
	return ok && len(v) > 0 && v[0] == '['
}
