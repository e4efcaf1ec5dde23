// Package exp is the unified Monte Carlo experiment engine. Every
// paper figure and ablation is expressed as an Experiment: a named
// unit with a default configuration, an independent per-trial body,
// and a reduction that folds the trial samples into a renderable
// result. A global registry lets drivers (cmd/npexp, cmd/npsim, the
// repository benchmarks) enumerate and run experiments by name, and a
// parallel runner shards trials across a worker pool.
//
// Determinism is the engine's core contract: trial i always runs with
// an RNG seeded by TrialSeed(cfg.BaseSeed(), i), and Reduce always
// sees samples in trial order, so an experiment's output is
// bit-identical at any worker count.
package exp

import "math/rand"

// Config describes one experiment run. Concrete configs are plain
// structs (so they can be copied and overridden freely) that also
// implement these three methods for the runner.
type Config interface {
	// BaseSeed is the root seed of the run; trial i derives its RNG
	// from TrialSeed(BaseSeed(), i).
	BaseSeed() int64
	// TrialCount is the number of independent trials to run.
	TrialCount() int
	// Validate rejects unusable parameter combinations before any
	// trial runs.
	Validate() error
}

// Overrides carries the command-line scaling knobs shared by the
// drivers. Zero fields leave the corresponding config field at its
// default; experiments apply only the knobs they understand.
//
// Because the zero value doubles as "keep the default", an explicit
// zero (notably -seed 0) is inexpressible through the values alone.
// Drivers that know which flags the user actually passed (via
// flag.Visit) set the matching Set bools; configs consult the Has*
// helpers, which treat either an explicit mark or a nonzero value as
// present.
type Overrides struct {
	Trials     int
	Placements int
	Epochs     int
	Seed       int64

	// Set marks fields explicitly provided by the user, making
	// explicit zeros expressible. Constructing Overrides with plain
	// nonzero values and no Set marks keeps working.
	Set OverrideSet
}

// OverrideSet mirrors Overrides field-for-field with presence bools.
type OverrideSet struct {
	Trials     bool
	Placements bool
	Epochs     bool
	Seed       bool
}

// HasTrials reports whether the trial-count override applies.
func (o Overrides) HasTrials() bool { return o.Set.Trials || o.Trials > 0 }

// HasPlacements reports whether the placement-count override applies.
func (o Overrides) HasPlacements() bool { return o.Set.Placements || o.Placements > 0 }

// HasEpochs reports whether the epoch-count override applies.
func (o Overrides) HasEpochs() bool { return o.Set.Epochs || o.Epochs > 0 }

// HasSeed reports whether the seed override applies — explicitly
// marked, or nonzero for callers that never fill Set.
func (o Overrides) HasSeed() bool { return o.Set.Seed || o.Seed != 0 }

// Configurable is implemented by configs that can absorb Overrides,
// letting drivers scale any registered experiment without knowing its
// concrete config type.
type Configurable interface {
	Config
	WithOverrides(o Overrides) Config
}

// Sample is one trial's output. A nil Sample means the trial
// contributed nothing (experiments use this for rejected draws);
// reducers must skip nils.
type Sample any

// Result is a reduced experiment outcome. Render returns the
// plain-text report the drivers print.
type Result interface {
	Render() string
}

// Experiment is one registered Monte Carlo experiment.
type Experiment interface {
	// Name is the registry key and command-line name.
	Name() string
	// Description is a one-line summary for usage output.
	Description() string
	// DefaultConfig returns the calibrated default configuration.
	DefaultConfig() Config
	// Trial runs trial i. rng is deterministically derived from the
	// config seed and i, so the sample cannot depend on scheduling.
	// Trials must not share mutable state: the runner calls them
	// concurrently.
	Trial(cfg Config, i int, rng *rand.Rand) (Sample, error)
	// Reduce aggregates the samples, given in trial order, into the
	// experiment's result.
	Reduce(cfg Config, samples []Sample) (Result, error)
}
