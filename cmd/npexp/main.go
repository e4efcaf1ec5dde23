// Command npexp regenerates the paper's evaluation figures through
// the parallel experiment engine, and runs declarative runspec sweeps
// as batch jobs. Experiments are enumerated from the exp registry, so
// a newly registered experiment shows up here with no driver changes.
//
// Usage:
//
//	npexp -exp fig9             # carrier sense (Fig. 9a/9b)
//	npexp -exp fig12 -workers 8 # trio throughput CDFs on 8 workers
//	npexp -exp all              # everything registered
//	npexp -exp fig13 -json      # structured result as JSON
//	npexp -spec sweep.json -json  # runspec grid → one Report per line (JSONL)
//	npexp -spec examples/specs/fairsize.json -topo grid-uplink
//	npexp -list                 # names and descriptions
//
// With -spec, every Spec-field flag of runspec's flag table (the same
// table npsim uses, minus -workers) overrides the sweep's base spec
// field-for-field when explicitly passed. A flag for a field a sweep
// axis lists (-rate, -nodes, -mode, -seed over rates, nodes, modes,
// seeds) is rejected, since expansion would overwrite it on every
// point; -trials/-placements have no spec counterpart and are
// rejected too. -events needs a single-point sweep (each point would
// clobber the same file); -metrics adds a metrics section to every
// point's Report. -pprof profiles either path: <prefix>.cpu.pprof,
// <prefix>.heap.pprof, and a runtime/metrics snapshot
// <prefix>.runtime.json.
//
// -placements / -epochs / -trials / -seed scale the registry
// experiments (each experiment applies the knobs it understands, and
// an unpassed knob keeps the experiment's own default); the defaults
// reproduce the paper's shapes in a couple of minutes. Every other
// Spec-field flag is rejected there: the figure experiments are not
// specs and would ignore it. Only flags the user actually passed are
// applied, so an explicit -seed 0 really runs seed 0. Results are
// bit-identical at any -workers value: trial i always derives its RNG
// from hash(seed, i).
//
// -workers sizes the pool of *trials*; inside each protocol-engine
// run, the spec's own "workers" field independently parallelizes the
// hearing graph's collision-domain components with the same
// guarantee — component c derives its RNG from hash(seed, c), so a
// run's Report is byte-identical at any worker count.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	_ "nplus/internal/core" // registers the paper's experiments
	"nplus/internal/exp"
	"nplus/internal/obs"
	"nplus/internal/runspec"
)

func main() {
	names := strings.Join(exp.Names(), ", ")
	// -workers sizes the trial pool here, so the table's per-run
	// workers field has no flag in npexp.
	specFlags := runspec.BindFlags(flag.CommandLine, "workers")
	expName := flag.String("exp", "all", "experiment to run: all, or one of: "+names)
	fig := flag.String("fig", "", "deprecated alias for -exp (accepts 9 for fig9, etc.)")
	specPath := flag.String("spec", "", "runspec file (single spec or sweep, or - for stdin): run it through the parallel engine")
	jsonOut := flag.Bool("json", false, "emit structured results as JSON (JSONL for -spec sweeps)")
	list := flag.Bool("list", false, "list registered experiments and exit")
	workers := flag.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS)")
	placements := flag.Int("placements", 0, "random placements (0 = default per experiment)")
	trials := flag.Int("trials", 0, "trials for fig9 / overhead (0 = default)")
	pprofPrefix := flag.String("pprof", "", "profile the run: <prefix>.cpu.pprof, <prefix>.heap.pprof, and a Go runtime/metrics snapshot <prefix>.runtime.json")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-10s %s\n", e.Name(), e.Description())
		}
		return
	}

	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	if *specPath != "" {
		if set["exp"] || set["fig"] {
			usagef("-spec and -exp/-fig are mutually exclusive")
		}
		// Registry-experiment knobs have no spec-field counterpart;
		// reject them rather than silently dropping them.
		if set["trials"] || set["placements"] {
			usagef("-trials/-placements are registry-experiment knobs; a sweep's size is its grid")
		}
		sw, err := runspec.LoadSweep(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
		if err := specFlags.ApplySweep(&sw); err != nil {
			usagef("%v", err)
		}
		prof := startProfile(*pprofPrefix)
		runSweep(sw, *workers, *jsonOut)
		stopProfile(prof)
		return
	}

	// Registry experiments are not specs: of the table's flags they
	// take only -seed and -epochs, and every other one would be
	// silently ignored, so it is rejected.
	for _, name := range specFlags.Passed() {
		if name != "seed" && name != "epochs" {
			usagef("-%s sets a spec field; registry experiments take only -seed and -epochs (run a spec file with -spec)", name)
		}
	}
	var scale runspec.Spec
	if err := specFlags.Apply(&scale); err != nil {
		usagef("%v", err)
	}

	name := *expName
	if *fig != "" {
		if *expName != "all" {
			usagef("-fig and -exp are mutually exclusive (use -exp)")
		}
		name = *fig
	}
	// Accept the historical bare figure numbers ("-fig 9").
	if _, ok := exp.Get(name); !ok && name != "all" {
		if _, ok := exp.Get("fig" + name); ok {
			name = "fig" + name
		}
	}

	var selected []exp.Experiment
	if name == "all" {
		selected = exp.All()
	} else {
		e, ok := exp.Get(name)
		if !ok {
			usagef("unknown experiment %q (have: all, %s)", name, names)
		}
		selected = []exp.Experiment{e}
	}

	// The Set marks make an explicit zero such as -seed 0 apply. scale
	// holds only passed flags, so no table default reaches the
	// overrides.
	o := exp.Overrides{
		Trials: *trials, Placements: *placements, Epochs: scale.Epochs,
		Set: exp.OverrideSet{
			Trials: set["trials"], Placements: set["placements"],
			Epochs: set["epochs"], Seed: scale.Seed != nil,
		},
	}
	if scale.Seed != nil {
		o.Seed = *scale.Seed
	}
	runner := &exp.Runner{Workers: *workers}
	prof := startProfile(*pprofPrefix)
	defer stopProfile(prof)
	for _, e := range selected {
		if !*jsonOut {
			fmt.Printf("==== %s: %s ====\n", e.Name(), e.Description())
		}
		cfg := e.DefaultConfig()
		if c, ok := cfg.(exp.Configurable); ok {
			cfg = c.WithOverrides(o)
		}
		res, err := runner.Run(e, cfg)
		if err != nil {
			fatalf("%s: %v", e.Name(), err)
		}
		if *jsonOut {
			// The structured payload of every registered experiment:
			// results are plain structs (CDFs serialize as summaries),
			// one envelope object per experiment.
			data, err := json.MarshalIndent(map[string]any{
				"experiment": e.Name(),
				"result":     res,
			}, "", "  ")
			if err != nil {
				fatalf("%s: marshal: %v", e.Name(), err)
			}
			fmt.Println(string(data))
			continue
		}
		fmt.Println(res.Render())
	}
}

// startProfile begins CPU profiling when a -pprof prefix was given.
func startProfile(prefix string) *obs.Profile {
	if prefix == "" {
		return nil
	}
	prof, err := obs.StartProfile(prefix)
	if err != nil {
		fatalf("%v", err)
	}
	return prof
}

// stopProfile flushes the CPU profile and writes the heap profile and
// runtime/metrics snapshot.
func stopProfile(prof *obs.Profile) {
	if prof == nil {
		return
	}
	if err := prof.Stop(); err != nil {
		fatalf("%v", err)
	}
}

// runSweep executes a declarative sweep through the parallel runner:
// JSONL (one Report per line) with -json, the summary table
// otherwise.
func runSweep(sw runspec.Sweep, workers int, jsonOut bool) {
	res, err := runspec.RunSweep(sw, workers)
	if err != nil {
		fatalf("%v", err)
	}
	if jsonOut {
		if err := res.WriteJSONL(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	fmt.Print(res.Render())
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "npexp: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a bad flag or spec combination with the usage exit
// code.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "npexp: "+format+"\n", args...)
	os.Exit(2)
}
