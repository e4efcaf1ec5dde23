package runspec

import (
	"errors"
	"flag"
	"fmt"
	"slices"
	"strings"

	"nplus/internal/assoc"
	"nplus/internal/core"
	"nplus/internal/mac"
	"nplus/internal/testbed"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

// specFlag is one row of the flag table: the command-line name and
// usage of one Spec field, and bind, which defines the flag on a
// FlagSet and returns the setter that writes its value into a Spec.
type specFlag struct {
	name, usage string
	bind        func(fs *flag.FlagSet, name, usage string) func(*Spec)
}

// field builds a row's bind from a typed flag constructor such as
// (*flag.FlagSet).Int, the default the usage output shows, and the
// field setter. The default is never written into a Spec: only flags
// the user passed apply, and normalization resolves the rest.
func field[T any](define func(*flag.FlagSet, string, T, string) *T, def T, set func(*Spec, T)) func(*flag.FlagSet, string, string) func(*Spec) {
	return func(fs *flag.FlagSet, name, usage string) func(*Spec) {
		p := define(fs, name, def, usage)
		return func(s *Spec) { set(s, *p) }
	}
}

// block returns the optional block *p points at, allocating an empty
// one first, so a flag can set one field of a block the spec lacks.
func block[T any](p **T) *T {
	if *p == nil {
		*p = new(T)
	}
	return *p
}

// specFlags is the one flag table of the Spec: every field a flag can
// set, with the same meaning as the matching key of a spec file. The
// usage strings name the live registries, so the table is built when a
// binary binds it, after every registry is filled.
func specFlags() []specFlag {
	var (
		intFlag    = (*flag.FlagSet).Int
		int64Flag  = (*flag.FlagSet).Int64
		floatFlag  = (*flag.FlagSet).Float64
		stringFlag = (*flag.FlagSet).String
	)
	return []specFlag{
		{"scenario", "hand-built deployment, one of: " + strings.Join(core.ScenarioNames(), ", "),
			field(stringFlag, DefaultScenario, func(s *Spec, v string) { s.Scenario, s.Topo = v, "" })},
		{"topo", "generated deployment instead of -scenario, one of: " + strings.Join(topo.Names(), ", "),
			field(stringFlag, "", func(s *Spec, v string) { s.Topo, s.Scenario = v, "" })},
		{"nodes", "generated topology size (with -topo)",
			field(intFlag, DefaultNodes, func(s *Spec, v int) { s.Nodes = v })},
		{"clusters", "spatial cells for clustered topologies (campus, multiroom)",
			field(intFlag, DefaultClusters, func(s *Spec, v int) { s.Clusters = v })},
		{"cluster-loss", "inter-cluster attenuation in dB (clustered topologies; default: generator calibration)",
			field(floatFlag, 0, func(s *Spec, v float64) { s.InterClusterLossDB = &v })},
		{"cs-threshold", "carrier-sense hearing threshold in dB SNR (very low forces one collision domain)",
			field(floatFlag, testbed.DefaultCSThresholdDB, func(s *Spec, v float64) { block(&s.Options).CSThresholdDB = &v })},
		{"traffic", "arrival model, one of: " + strings.Join(traffic.Names(), ", "),
			field(stringFlag, traffic.Saturated, func(s *Spec, v string) { s.Traffic = v })},
		{"rate", "mean per-flow arrival rate, packets/s (open-loop models)",
			field(floatFlag, DefaultRatePPS, func(s *Spec, v float64) { s.RatePPS = v })},
		{"queue", "per-station packet queue bound (open-loop models)",
			field(intFlag, DefaultQueueCap, func(s *Spec, v int) { s.QueueCap = v })},
		{"mode", "MAC variant, one of: " + strings.Join(mac.ModeNames(), ", "),
			field(stringFlag, DefaultMode, func(s *Spec, v string) { s.Mode = v })},
		{"engine", "execution engine: epoch, protocol (default: auto)",
			field(stringFlag, "", func(s *Spec, v string) { s.Engine = v })},
		{"seed", "placement seed",
			field(int64Flag, DefaultSeed, func(s *Spec, v int64) { s.Seed = &v })},
		{"epochs", "contention rounds (epoch engine)",
			field(intFlag, DefaultEpochs, func(s *Spec, v int) { s.Epochs = v })},
		{"duration", "virtual seconds (protocol engine)",
			field(floatFlag, DefaultDuration, func(s *Spec, v float64) { s.DurationS = v })},
		{"workers", "worker pool for component-parallel protocol runs, 0 = all CPUs (results are identical at any value)",
			field(intFlag, 0, func(s *Spec, v int) { s.Workers = v })},
		{"churn-rate", "station arrival rate, stations/s — switches to a dynamic population (generated uplink topologies)",
			field(floatFlag, 0, func(s *Spec, v float64) { block(&s.Churn).ArrivalPerS = v })},
		{"session", "mean station session length in virtual seconds (with -churn-rate)",
			field(floatFlag, 0, func(s *Spec, v float64) { block(&s.Churn).MeanSessionS = v })},
		{"mobility", "station mobility model, one of: " + strings.Join(topo.MobilityNames(), ", "),
			field(stringFlag, "", func(s *Spec, v string) { block(&s.Mobility).Model = v })},
		{"speed", "station speed in m/s (with -mobility)",
			field(floatFlag, 0, func(s *Spec, v float64) { block(&s.Mobility).SpeedMPS = v })},
		{"move-interval", "position-update cadence in virtual seconds (with -mobility; 0 = 1 s)",
			field(floatFlag, 0, func(s *Spec, v float64) { block(&s.Mobility).IntervalS = v })},
		{"assoc", "association policy for dynamic runs, one of: " + strings.Join(assoc.Names(), ", "),
			field(stringFlag, "", func(s *Spec, v string) { block(&s.Association).Policy = v })},
		{"assoc-bias", "biased-sinr bias in dB per AP antenna beyond the first (with -assoc biased-sinr)",
			field(floatFlag, 0, func(s *Spec, v float64) { block(&s.Association).BiasDBPerAntenna = &v })},
		{"events", "write the typed protocol event stream to this file as JSONL (protocol engine)",
			field(stringFlag, "", func(s *Spec, v string) { block(&s.Observe).Events = v })},
		{"metrics", "comma-separated metrics for the report's metrics section, or \"all\" (protocol engine)",
			field(stringFlag, "", func(s *Spec, v string) { block(&s.Observe).Metrics = splitList(v) })},
		{"probe", "time-series probe cadence in virtual seconds: per-domain queue depth, in-flight transmissions, CW distribution (protocol engine, 0 = off)",
			field(floatFlag, 0, func(s *Spec, v float64) { block(&s.Observe).ProbeIntervalS = v })},
	}
}

// splitList parses a comma-separated flag value, dropping empty
// elements so "-metrics wins," and "-metrics ”" behave sensibly.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// Flags is the Spec flag table bound to one FlagSet.
type Flags struct {
	fs  *flag.FlagSet
	set map[string]func(*Spec)
}

// BindFlags defines every Spec-field flag on fs except those named in
// omit, which a binary leaves out to give the name its own meaning.
func BindFlags(fs *flag.FlagSet, omit ...string) *Flags {
	f := &Flags{fs: fs, set: map[string]func(*Spec){}}
	for _, row := range specFlags() {
		if !slices.Contains(omit, row.name) {
			f.set[row.name] = row.bind(fs, row.name, row.usage)
		}
	}
	return f
}

// Passed returns the table flags given on the command line, sorted by
// name.
func (f *Flags) Passed() []string {
	var names []string
	f.fs.Visit(func(fl *flag.Flag) {
		if f.set[fl.Name] != nil {
			names = append(names, fl.Name)
		}
	})
	return names
}

// Apply writes every passed flag into s, over whatever a spec file set,
// so an explicit zero such as -seed 0 stays explicit and an unpassed
// flag keeps the file's value. A spec that observes something and pins
// no engine gets the protocol engine, the only one with an event
// stream; a pinned epoch engine is left for normalization to reject.
func (f *Flags) Apply(s *Spec) error {
	passed := f.Passed()
	if slices.Contains(passed, "scenario") && slices.Contains(passed, "topo") {
		return errors.New("-scenario and -topo are mutually exclusive")
	}
	for _, name := range passed {
		f.set[name](s)
	}
	if s.Engine == "" && !s.Observe.zero() {
		s.Engine = EngineProtocol
	}
	return nil
}

// ApplySweep applies the passed flags to the sweep's base spec. A flag
// for a field one of the sweep's axes lists is rejected, because
// expansion would overwrite it on every point.
func (f *Flags) ApplySweep(sw *Sweep) error {
	passed := f.Passed()
	for _, ax := range []struct {
		flag, axis string
		n          int
	}{
		{"rate", "rates", len(sw.Rates)},
		{"nodes", "nodes", len(sw.Nodes)},
		{"mode", "modes", len(sw.Modes)},
		{"seed", "seeds", len(sw.Seeds)},
	} {
		if ax.n > 0 && slices.Contains(passed, ax.flag) {
			return fmt.Errorf("-%s would be overwritten by the sweep's %q axis; edit the axis instead", ax.flag, ax.axis)
		}
	}
	return f.Apply(&sw.Base)
}
