package exp

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sumConfig drives the toy experiment below.
type sumConfig struct {
	seed   int64
	trials int
	failAt int // trial index that errors; -1 for none
}

func (c sumConfig) BaseSeed() int64 { return c.seed }
func (c sumConfig) TrialCount() int { return c.trials }
func (c sumConfig) Validate() error {
	if c.trials < 0 {
		return fmt.Errorf("negative trials %d", c.trials)
	}
	return nil
}

// sumSample records which trial produced it so ordering is testable.
type sumSample struct {
	trial int
	x     float64
}

type sumResult struct {
	samples []sumSample
	total   float64
}

func (r *sumResult) Render() string { return fmt.Sprintf("total %.6f", r.total) }

// sumExperiment draws one number per trial and sums them.
type sumExperiment struct{}

func (sumExperiment) Name() string          { return "sum" }
func (sumExperiment) Description() string   { return "toy experiment for engine tests" }
func (sumExperiment) DefaultConfig() Config { return sumConfig{seed: 9, trials: 16, failAt: -1} }

func (sumExperiment) Trial(cfg Config, i int, rng *rand.Rand) (Sample, error) {
	c := cfg.(sumConfig)
	if i == c.failAt {
		return nil, fmt.Errorf("boom at %d", i)
	}
	if i%5 == 4 {
		return nil, nil // rejected draw: reducers must skip nils
	}
	return sumSample{trial: i, x: rng.Float64()}, nil
}

func (sumExperiment) Reduce(cfg Config, samples []Sample) (Result, error) {
	res := &sumResult{}
	for _, s := range samples {
		if s == nil {
			continue
		}
		ss := s.(sumSample)
		res.samples = append(res.samples, ss)
		res.total += ss.x
	}
	return res, nil
}

func TestTrialSeedDerivation(t *testing.T) {
	bases := []int64{0, 1, -7, 1 << 40}
	seen := map[int64]bool{}
	first := map[[2]int64]int64{}
	for _, seed := range bases {
		for i := 0; i < 2000; i++ {
			s := TrialSeed(seed, i)
			if seen[s] {
				t.Fatalf("seed collision at base %d trial %d", seed, i)
			}
			seen[s] = true
			first[[2]int64{seed, int64(i)}] = s
		}
	}
	// Recompute after the full sweep: the derivation must not depend
	// on call order or any mutable state.
	for _, seed := range bases {
		for i := 0; i < 2000; i++ {
			if TrialSeed(seed, i) != first[[2]int64{seed, int64(i)}] {
				t.Fatalf("TrialSeed(%d, %d) not stable across calls", seed, i)
			}
		}
	}
	if TrialSeed(3, 0) == TrialSeed(4, 0) {
		t.Fatal("different base seeds gave the same trial seed")
	}
}

func TestRunnerDeterministicAcrossWorkers(t *testing.T) {
	cfg := sumConfig{seed: 42, trials: 64, failAt: -1}
	var results []*sumResult
	for _, w := range []int{1, 4, 8} {
		r := &Runner{Workers: w}
		res, err := r.Run(sumExperiment{}, cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		results = append(results, res.(*sumResult))
	}
	for i := 1; i < len(results); i++ {
		if !reflect.DeepEqual(results[0], results[i]) {
			t.Fatalf("worker counts diverged:\n%+v\nvs\n%+v", results[0], results[i])
		}
	}
}

func TestRunnerPreservesTrialOrder(t *testing.T) {
	cfg := sumConfig{seed: 1, trials: 50, failAt: -1}
	res, err := (&Runner{Workers: 8}).Run(sumExperiment{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, s := range res.(*sumResult).samples {
		if s.trial <= prev {
			t.Fatalf("samples out of trial order: %d after %d", s.trial, prev)
		}
		prev = s.trial
	}
}

func TestRunnerErrorPropagation(t *testing.T) {
	cfg := sumConfig{seed: 1, trials: 30, failAt: 17}
	_, err := (&Runner{Workers: 4}).Run(sumExperiment{}, cfg)
	if err == nil {
		t.Fatal("expected trial error")
	}
	if !strings.Contains(err.Error(), "trial 17") || !strings.Contains(err.Error(), "sum") {
		t.Fatalf("error %q missing experiment/trial context", err)
	}
}

func TestRunnerValidatesConfig(t *testing.T) {
	_, err := Run(sumExperiment{}, sumConfig{trials: -1})
	if err == nil || !strings.Contains(err.Error(), "negative trials") {
		t.Fatalf("expected validation error, got %v", err)
	}
}

func TestRunnerNilConfigUsesDefault(t *testing.T) {
	res, err := Run(sumExperiment{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Run(sumExperiment{}, sumExperiment{}.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, want) {
		t.Fatal("nil config did not select the default")
	}
}

func TestRunnerZeroTrials(t *testing.T) {
	res, err := Run(sumExperiment{}, sumConfig{seed: 1, trials: 0, failAt: -1})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.(*sumResult).total; got != 0 {
		t.Fatalf("empty run produced total %g", got)
	}
}

// named wraps sumExperiment under a distinct registry name.
type named struct {
	sumExperiment
	name string
}

func (n named) Name() string { return n.name }

func TestRegistry(t *testing.T) {
	Register(named{name: "zz-test-b"})
	Register(named{name: "zz-test-a"})
	if _, ok := Get("zz-test-a"); !ok {
		t.Fatal("registered experiment not found")
	}
	if _, ok := Get("zz-test-missing"); ok {
		t.Fatal("lookup of unregistered name succeeded")
	}
	names := Names()
	ia, ib := -1, -1
	for i, n := range names {
		if n == "zz-test-a" {
			ia = i
		}
		if n == "zz-test-b" {
			ib = i
		}
	}
	if ia < 0 || ib < 0 || ia > ib {
		t.Fatalf("Names() not sorted or incomplete: %v", names)
	}
	all := All()
	if len(all) != len(names) {
		t.Fatalf("All() has %d entries, Names() %d", len(all), len(names))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(named{name: "zz-test-a"})
}

// An explicit zero override (the -seed 0 case) must be distinguishable
// from "not provided": the Set marks carry presence, and the nonzero
// convention still works for callers that never fill them.
func TestOverridePresence(t *testing.T) {
	var o Overrides
	if o.HasSeed() || o.HasTrials() || o.HasPlacements() || o.HasEpochs() {
		t.Fatal("zero Overrides reports fields as present")
	}
	o.Seed = 7
	if !o.HasSeed() {
		t.Fatal("nonzero seed not reported present (legacy convention)")
	}
	var zero Overrides
	zero.Set.Seed = true
	if !zero.HasSeed() || zero.Seed != 0 {
		t.Fatal("explicitly marked seed 0 not expressible")
	}
	zero.Set.Epochs = true
	if !zero.HasEpochs() {
		t.Fatal("explicitly marked epochs not reported present")
	}
}
