package runspec

import (
	"bytes"
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// parseFlags binds the table to a fresh FlagSet (minus omit) and
// parses args.
func parseFlags(t *testing.T, args []string, omit ...string) *Flags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := BindFlags(fs, omit...)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %v: %v", args, err)
	}
	return f
}

func ptr[T any](v T) *T { return &v }

// Every table flag sets exactly its own field on an empty spec, and
// every table row has a case here.
func TestFlagsSetTheirFields(t *testing.T) {
	cases := map[string]struct {
		args []string
		want Spec
	}{
		"scenario":      {[]string{"-scenario", "downlink"}, Spec{Scenario: "downlink"}},
		"topo":          {[]string{"-topo", "campus"}, Spec{Topo: "campus"}},
		"nodes":         {[]string{"-nodes", "80"}, Spec{Nodes: 80}},
		"clusters":      {[]string{"-clusters", "3"}, Spec{Clusters: 3}},
		"cluster-loss":  {[]string{"-cluster-loss", "12"}, Spec{InterClusterLossDB: ptr(12.0)}},
		"cs-threshold":  {[]string{"-cs-threshold", "-60"}, Spec{Options: &OptionsSpec{CSThresholdDB: ptr(-60.0)}}},
		"traffic":       {[]string{"-traffic", "poisson"}, Spec{Traffic: "poisson"}},
		"rate":          {[]string{"-rate", "250"}, Spec{RatePPS: 250}},
		"queue":         {[]string{"-queue", "8"}, Spec{QueueCap: 8}},
		"mode":          {[]string{"-mode", "80211n"}, Spec{Mode: "80211n"}},
		"engine":        {[]string{"-engine", "protocol"}, Spec{Engine: EngineProtocol}},
		"seed":          {[]string{"-seed", "9"}, Spec{Seed: ptr(int64(9))}},
		"epochs":        {[]string{"-epochs", "30"}, Spec{Epochs: 30}},
		"duration":      {[]string{"-duration", "0.5"}, Spec{DurationS: 0.5}},
		"workers":       {[]string{"-workers", "3"}, Spec{Workers: 3}},
		"churn-rate":    {[]string{"-churn-rate", "5"}, Spec{Churn: &ChurnSpec{ArrivalPerS: 5}}},
		"session":       {[]string{"-session", "0.3"}, Spec{Churn: &ChurnSpec{MeanSessionS: 0.3}}},
		"mobility":      {[]string{"-mobility", "waypoint"}, Spec{Mobility: &MobilitySpec{Model: "waypoint"}}},
		"speed":         {[]string{"-speed", "2"}, Spec{Mobility: &MobilitySpec{SpeedMPS: 2}}},
		"move-interval": {[]string{"-move-interval", "0.1"}, Spec{Mobility: &MobilitySpec{IntervalS: 0.1}}},
		"assoc":         {[]string{"-assoc", "max-snr"}, Spec{Association: &AssociationSpec{Policy: "max-snr"}}},
		"assoc-bias":    {[]string{"-assoc-bias", "1.5"}, Spec{Association: &AssociationSpec{BiasDBPerAntenna: ptr(1.5)}}},
		// Observe flags also pick the protocol engine (see
		// TestFlagsObserveSelectsProtocolEngine).
		"events":  {[]string{"-events", "e.jsonl"}, Spec{Engine: EngineProtocol, Observe: &ObserveSpec{Events: "e.jsonl"}}},
		"metrics": {[]string{"-metrics", "wins, joins,"}, Spec{Engine: EngineProtocol, Observe: &ObserveSpec{Metrics: []string{"wins", "joins"}}}},
		"probe":   {[]string{"-probe", "0.01"}, Spec{Engine: EngineProtocol, Observe: &ObserveSpec{ProbeIntervalS: 0.01}}},
	}
	for _, row := range specFlags() {
		if _, ok := cases[row.name]; !ok {
			t.Errorf("table flag -%s has no case", row.name)
		}
	}
	for name, c := range cases {
		f := parseFlags(t, c.args)
		if got := f.Passed(); !reflect.DeepEqual(got, []string{name}) {
			t.Errorf("%s: passed %v", name, got)
		}
		var s Spec
		if err := f.Apply(&s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s, c.want) {
			t.Errorf("%s: applied %+v, want %+v", name, s, c.want)
		}
	}
}

// Applying only the passed flags keeps every other field of the spec
// file, nested blocks included, and keeps explicit zeros explicit.
func TestFlagsOverrideOnlyPassedFields(t *testing.T) {
	file, err := LoadSpec("../../examples/specs/churn.json")
	if err != nil {
		t.Fatal(err)
	}
	s := file
	s.Seed = ptr(int64(0))
	s.Churn = &ChurnSpec{ArrivalPerS: file.Churn.ArrivalPerS, MeanSessionS: 0.5}
	s.Engine = EngineProtocol // the file observes and pins no engine

	got, err := LoadSpec("../../examples/specs/churn.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := parseFlags(t, []string{"-seed", "0", "-session", "0.5"}).Apply(&got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, s) {
		t.Fatalf("applied %+v, want %+v", got, s)
	}

	// -seed 0 and -cluster-loss 0 are values, not "use the default".
	var z Spec
	if err := parseFlags(t, []string{"-topo", "campus", "-seed", "0", "-cluster-loss", "0"}).Apply(&z); err != nil {
		t.Fatal(err)
	}
	n, err := z.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if n.SeedValue() != 0 || n.InterClusterLossDB == nil || *n.InterClusterLossDB != 0 {
		t.Fatalf("explicit zeros lost: seed %d, cluster loss %v", n.SeedValue(), n.InterClusterLossDB)
	}
}

func TestFlagsRejectScenarioWithTopo(t *testing.T) {
	var s Spec
	err := parseFlags(t, []string{"-scenario", "trio", "-topo", "campus"}).Apply(&s)
	if err == nil || !strings.Contains(err.Error(), "mutually exclusive") {
		t.Fatalf("-scenario with -topo: err = %v", err)
	}
}

// An observe flag on a spec that pins no engine selects the protocol
// engine, the only one with an event stream; a pinned epoch engine is
// kept, so normalization reports the contradiction.
func TestFlagsObserveSelectsProtocolEngine(t *testing.T) {
	var s Spec
	if err := parseFlags(t, []string{"-metrics", "all"}).Apply(&s); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Normalized(); err != nil || s.Engine != EngineProtocol {
		t.Fatalf("observed trio: engine %q, err %v", s.Engine, err)
	}

	var pinned Spec
	if err := parseFlags(t, []string{"-engine", "epoch", "-metrics", "all"}).Apply(&pinned); err != nil {
		t.Fatal(err)
	}
	if _, err := pinned.Normalized(); err == nil || !strings.Contains(err.Error(), "observe") {
		t.Fatalf("observe on a pinned epoch engine: err = %v", err)
	}
}

// The flag twin of examples/specs/churn.json (minus its name) sets
// every nested block the file sets: churn, mobility, association and
// observe.
func TestFlagsChurnTwinMatchesSpecFile(t *testing.T) {
	file, err := LoadSpec("../../examples/specs/churn.json")
	if err != nil {
		t.Fatal(err)
	}
	file.Name = ""
	want, err := file.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var s Spec
	args := strings.Fields(`-topo campus -nodes 64 -clusters 4 -traffic poisson -rate 2000 -duration 0.05 -seed 21
		-churn-rate 400 -session 0.02 -mobility cluster-hop -speed 120 -move-interval 0.005
		-assoc biased-sinr -probe 0.01
		-metrics station_arrivals,station_departures,handoffs,handoff_rejects`)
	if err := parseFlags(t, args).Apply(&s); err != nil {
		t.Fatal(err)
	}
	got, err := s.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flag twin:\n%s\nspec file:\n%s", got, want)
	}
}

// A binary that omits a table flag frees the name for its own flag.
func TestBindFlagsOmit(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs, "workers")
	if fs.Lookup("workers") != nil || fs.Lookup("seed") == nil {
		t.Fatal("omit did not leave out exactly -workers")
	}
	fs.Int("workers", 0, "the binary's own flag") // must not panic
}

// A flag for a field a sweep axis lists would be overwritten on every
// point, so it is rejected with the axis named; a flag for an unswept
// field sets the base.
func TestFlagsApplySweepRejectsSweptAxes(t *testing.T) {
	sweep := func() Sweep {
		return Sweep{
			Base:  Spec{Topo: "disk-adhoc", Traffic: "poisson"},
			Rates: []float64{100, 200},
			Nodes: []int{10, 20},
			Modes: []string{"nplus", "80211n"},
			Seeds: []int64{1, 2},
		}
	}
	for _, c := range []struct {
		args []string
		axis string
	}{
		{[]string{"-rate", "5"}, `"rates"`},
		{[]string{"-nodes", "40"}, `"nodes"`},
		{[]string{"-mode", "80211n"}, `"modes"`},
		{[]string{"-seed", "99"}, `"seeds"`},
		{[]string{"-seed", "0"}, `"seeds"`},
	} {
		sw := sweep()
		err := parseFlags(t, c.args).ApplySweep(&sw)
		if err == nil || !strings.Contains(err.Error(), c.axis) {
			t.Errorf("%v over a swept axis: err = %v, want one naming %s", c.args, err, c.axis)
		}
	}

	sw := sweep()
	if err := parseFlags(t, []string{"-duration", "0.2"}).ApplySweep(&sw); err != nil || sw.Base.DurationS != 0.2 {
		t.Fatalf("unswept -duration: err %v, base duration %g", err, sw.Base.DurationS)
	}
	unswept := Sweep{Base: Spec{Topo: "disk-adhoc"}, Modes: []string{"nplus", "80211n"}}
	if err := parseFlags(t, []string{"-seed", "99", "-nodes", "12"}).ApplySweep(&unswept); err != nil {
		t.Fatal(err)
	}
	if unswept.Base.SeedValue() != 99 || unswept.Base.Nodes != 12 {
		t.Fatalf("base after -seed 99 -nodes 12: %+v", unswept.Base)
	}
}
