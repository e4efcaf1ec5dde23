package core

import (
	"math/rand"
	"reflect"
	"testing"

	"nplus/internal/exp"
	"nplus/internal/mac"
	"nplus/internal/topo"
)

// smokeOverrides shrinks each experiment to seconds-scale for the
// engine tests; determinism and registry wiring do not depend on
// sample counts.
var smokeOverrides = map[string]exp.Overrides{
	"fig9":     {Trials: 12},
	"fig11":    {Placements: 10},
	"fig12":    {Placements: 3, Epochs: 10},
	"fig13":    {Placements: 3, Epochs: 10},
	"overhead": {Trials: 8},
}

func TestRegistryHasAllPaperExperiments(t *testing.T) {
	for _, want := range []string{"fig9", "fig11", "fig12", "fig13", "overhead"} {
		e, ok := exp.Get(want)
		if !ok {
			t.Fatalf("experiment %q not registered (have %v)", want, exp.Names())
		}
		if e.Description() == "" {
			t.Fatalf("experiment %q has no description", want)
		}
		if e.DefaultConfig() == nil {
			t.Fatalf("experiment %q has no default config", want)
		}
	}
}

// TestEveryRegisteredExperimentRuns is the registry's contract: every
// experiment must run end-to-end from its default config. Sample
// counts are scaled down through the same Overrides path the drivers
// use; defaults themselves are validated as runnable.
func TestEveryRegisteredExperimentRuns(t *testing.T) {
	for _, e := range exp.All() {
		cfg := e.DefaultConfig()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%s: default config invalid: %v", e.Name(), err)
		}
		if o, ok := smokeOverrides[e.Name()]; ok {
			cfg = cfg.(exp.Configurable).WithOverrides(o)
		}
		res, err := exp.Run(e, cfg)
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if res == nil || res.Render() == "" {
			t.Fatalf("%s: empty result", e.Name())
		}
	}
}

// TestExperimentsDeterministicAcrossWorkers pins the engine's core
// contract on the real experiments: a fixed seed must produce
// bit-identical results at worker counts 1, 4, and 8.
func TestExperimentsDeterministicAcrossWorkers(t *testing.T) {
	for _, e := range exp.All() {
		o, ok := smokeOverrides[e.Name()]
		if !ok {
			t.Fatalf("%s: no smokeOverrides entry — add one so this test stays seconds-scale", e.Name())
		}
		cfg := e.DefaultConfig()
		if c, ok := cfg.(exp.Configurable); ok {
			cfg = c.WithOverrides(o)
		}
		var results []exp.Result
		for _, w := range []int{1, 4, 8} {
			r := &exp.Runner{Workers: w}
			res, err := r.Run(e, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", e.Name(), w, err)
			}
			results = append(results, res)
		}
		for i := 1; i < len(results); i++ {
			if !reflect.DeepEqual(results[0], results[i]) {
				t.Errorf("%s: results diverge between 1 and %d workers", e.Name(), []int{1, 4, 8}[i])
			}
			if results[0].Render() != results[i].Render() {
				t.Errorf("%s: rendered output diverges across worker counts", e.Name())
			}
		}
	}
}

func TestScenarioRegistry(t *testing.T) {
	names := ScenarioNames()
	if len(names) < 2 {
		t.Fatalf("expected at least trio and downlink, have %v", names)
	}
	for _, name := range []string{"trio", "downlink"} {
		s, ok := ScenarioByName(name)
		if !ok {
			t.Fatalf("scenario %q not registered (have %v)", name, names)
		}
		nodes, links := s.Build()
		if len(nodes) == 0 || len(links) == 0 {
			t.Fatalf("scenario %q builds an empty deployment", name)
		}
		if _, err := NewNetwork(1, nodes, links, DefaultOptions()); err != nil {
			t.Fatalf("scenario %q does not deploy: %v", name, err)
		}
	}
	if _, ok := ScenarioByName("no-such-scenario"); ok {
		t.Fatal("lookup of unregistered scenario succeeded")
	}
}

// TestGeneratedLargeTopologyRunsBothModes is the scale acceptance
// check: a 200-node generated deployment with Poisson traffic runs to
// completion under both 802.11n and n+ through the full
// channel/MAC stack.
func TestGeneratedLargeTopologyRunsBothModes(t *testing.T) {
	if testing.Short() {
		t.Skip("200-node deployment draws ~40k pairwise channels")
	}
	layout, err := topo.Generate("disk-uplink", topo.GenConfig{Nodes: 200}, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if len(layout.Nodes) != 200 {
		t.Fatalf("generated %d nodes, want 200", len(layout.Nodes))
	}
	net, err := NewNetworkFromLayout(7, layout, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []mac.Mode{mac.Mode80211n, mac.ModeNPlus} {
		res, err := net.RunTraffic(TrafficRun{
			Mode: mode, Duration: 0.01, Model: "poisson", RatePPS: 50,
		})
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		served := int64(0)
		for _, fs := range res.PerFlow {
			served += fs.Served
		}
		if served == 0 {
			t.Fatalf("mode %v: 200-node network served no packets", mode)
		}
	}
}
