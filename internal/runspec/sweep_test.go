package runspec

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// testSweep is the acceptance-criterion grid: ≥3 loads × 2 MACs on a
// generated deployment, small enough for the race detector.
func testSweep() Sweep {
	seed := int64(1)
	return Sweep{
		Base: Spec{
			Topo:      "disk-adhoc",
			Nodes:     10,
			Traffic:   "poisson",
			DurationS: 0.02,
			Seed:      &seed,
		},
		Rates: []float64{200, 400, 800},
		Modes: []string{"nplus", "80211n"},
	}
}

func TestSweepExpansion(t *testing.T) {
	specs, err := testSweep().Expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(specs) != 6 {
		t.Fatalf("expanded to %d specs, want 6 (3 rates × 2 modes)", len(specs))
	}
	// Deterministic order: rates outermost, modes inner.
	wantRates := []float64{200, 200, 400, 400, 800, 800}
	wantModes := []string{"nplus", "80211n", "nplus", "80211n", "nplus", "80211n"}
	for i, s := range specs {
		if s.RatePPS != wantRates[i] || s.Mode != wantModes[i] {
			t.Fatalf("spec %d = rate %g mode %q, want %g/%q", i, s.RatePPS, s.Mode, wantRates[i], wantModes[i])
		}
		if s.SeedValue() != 1 {
			t.Fatalf("spec %d seed = %d, want paired base seed 1", i, s.SeedValue())
		}
	}
	// A bad grid point reports its coordinates.
	bad := testSweep()
	bad.Modes = []string{"nplus", "warp-drive"}
	if _, err := bad.Expand(); err == nil {
		t.Fatal("bad mode axis expanded without error")
	}
}

// The acceptance criterion: a sweep over 3 loads × 2 MACs emits
// byte-identical JSONL at 1, 4, and 8 workers.
func TestSweepWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("protocol sweep in -short mode")
	}
	sw := testSweep()
	var outputs [][]byte
	for _, workers := range []int{1, 4, 8} {
		res, err := RunSweep(sw, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Reports) != 6 {
			t.Fatalf("workers=%d: %d reports, want 6", workers, len(res.Reports))
		}
		var buf bytes.Buffer
		if err := res.WriteJSONL(&buf); err != nil {
			t.Fatalf("workers=%d: jsonl: %v", workers, err)
		}
		outputs = append(outputs, buf.Bytes())
	}
	if !bytes.Equal(outputs[0], outputs[1]) || !bytes.Equal(outputs[0], outputs[2]) {
		t.Fatal("sweep JSONL differs across worker counts")
	}
	// The render view is a function of the same data, so it must be
	// stable too — and non-empty.
	res, err := RunSweep(sw, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Render()) == 0 {
		t.Fatal("empty sweep render")
	}
}

func TestLoadSweepPromotesSingleSpec(t *testing.T) {
	sw, err := LoadSweep("../../examples/specs/trio.json")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(specs) != 1 || specs[0].Scenario != "trio" {
		t.Fatalf("promoted spec = %+v", specs)
	}
}

// An axes-only document (no "base" key) is still a sweep — over the
// default base — not a typo'd single spec.
func TestLoadSweepAxesOnly(t *testing.T) {
	path := t.TempDir() + "/axes.json"
	if err := os.WriteFile(path, []byte(`{"modes":["nplus","80211n"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	sw, err := LoadSweep(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	specs, err := sw.Expand()
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(specs) != 2 || specs[0].Scenario != DefaultScenario {
		t.Fatalf("axes-only sweep expanded to %+v", specs)
	}
}

// A grid is bounded before expansion allocates anything: one point
// over MaxSweepPoints is rejected, a grid at the cap expands, and axis
// lengths whose product overflows an int (65,536⁴ = 2⁶⁴ wraps to 0)
// are rejected rather than wrapping into a small allocation.
func TestSweepExpansionBounded(t *testing.T) {
	rates := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(i + 1)
		}
		return out
	}
	base := Spec{Topo: "disk-adhoc", Traffic: "poisson"}
	overCap := func(err error) bool { return err != nil && strings.Contains(err.Error(), "exceeds") }

	if _, err := (Sweep{Base: base, Rates: rates(MaxSweepPoints + 1)}).Expand(); !overCap(err) {
		t.Fatalf("%d-point grid: err = %v, want the %d-point cap", MaxSweepPoints+1, err, MaxSweepPoints)
	}
	specs, err := (Sweep{Base: base, Rates: rates(MaxSweepPoints / 2), Modes: []string{"nplus", "80211n"}}).Expand()
	if err != nil || len(specs) != MaxSweepPoints {
		t.Fatalf("grid at the cap: %d points, err %v", len(specs), err)
	}

	// The base is invalid, so a bound that let the wrapped product
	// through fails fast on the first point instead of expanding.
	const side = 1 << 16
	huge := Sweep{
		Base:  Spec{Topo: "no-such-generator"},
		Rates: make([]float64, side),
		Nodes: make([]int, side),
		Modes: make([]string, side),
		Seeds: make([]int64, side),
	}
	if _, err := huge.Expand(); !overCap(err) {
		t.Fatalf("overflowing grid: err = %v, want the cap", err)
	}
}

// The two workload sweeps beyond the paper keep their headline
// shapes: every point serves packets under both MACs; across the load
// sweep n+ delivers at least as much as 802.11n in aggregate
// (secondary contention can only add air time); and every fairness
// point has a Jain index in (0, 1].
func TestWorkloadSweepsCompareBothMACs(t *testing.T) {
	run := func(file string) []*Report {
		t.Helper()
		sw, err := LoadSweep("../../examples/specs/" + file)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunSweep(sw, 0)
		if err != nil {
			t.Fatal(err)
		}
		modes := map[string]bool{}
		for _, rep := range res.Reports {
			modes[rep.Spec.Mode] = true
			if rep.Totals.ThroughputMbps <= 0 {
				t.Errorf("%s: %s point %+v delivered nothing", file, rep.Spec.Mode, rep.Spec)
			}
		}
		if !modes["nplus"] || !modes["80211n"] {
			t.Fatalf("%s does not compare both MACs: %v", file, modes)
		}
		return res.Reports
	}

	totals := map[string]float64{}
	for _, rep := range run("delay-sweep.json") {
		if rep.Totals.Served == 0 || rep.Totals.Delay == nil {
			t.Errorf("load %g mode %s served no packets", rep.Spec.RatePPS, rep.Spec.Mode)
		}
		totals[rep.Spec.Mode] += rep.Totals.ThroughputMbps
	}
	if totals["nplus"] < totals["80211n"] {
		t.Errorf("n+ delivered %.2f Mb/s < 802.11n %.2f Mb/s across the load sweep", totals["nplus"], totals["80211n"])
	}

	for _, rep := range run("fairsize.json") {
		if j := rep.Totals.JainFairness; j <= 0 || j > 1 {
			t.Errorf("%d nodes mode %s seed %d: Jain index %g outside (0, 1]",
				rep.Spec.Nodes, rep.Spec.Mode, rep.Spec.SeedValue(), j)
		}
	}
}
