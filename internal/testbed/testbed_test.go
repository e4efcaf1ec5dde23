package testbed

import (
	"math"
	"math/rand"
	"testing"

	"nplus/internal/mac"
)

func TestNewPlacesAllLocations(t *testing.T) {
	tb, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Locations) != 20 {
		t.Fatalf("%d locations", len(tb.Locations))
	}
	// Spacing respected.
	for i := range tb.Locations {
		for j := i + 1; j < len(tb.Locations); j++ {
			if d := tb.Locations[i].Distance(tb.Locations[j]); d < tb.Cfg.MinSpacing {
				t.Fatalf("locations %d,%d only %.2f m apart", i, j, d)
			}
		}
	}
	// Determinism.
	tb2, _ := New(1, DefaultConfig())
	for i := range tb.Locations {
		if tb.Locations[i] != tb2.Locations[i] {
			t.Fatal("same seed, different floor plan")
		}
	}
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumLocations = 1
	if _, err := New(1, cfg); err == nil {
		t.Fatal("expected location-count error")
	}
	cfg = DefaultConfig()
	cfg.Width = -1
	if _, err := New(1, cfg); err == nil {
		t.Fatal("expected geometry error")
	}
	// Impossible spacing.
	cfg = DefaultConfig()
	cfg.Width, cfg.Height, cfg.MinSpacing = 3, 3, 10
	if _, err := New(1, cfg); err == nil {
		t.Fatal("expected placement failure")
	}
}

func deployTrio(t *testing.T, seed int64) *Deployment {
	t.Helper()
	tb, err := New(seed, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d, err := tb.Deploy(rand.New(rand.NewSource(seed)), []NodeSpec{
		{ID: 1, Antennas: 1}, {ID: 2, Antennas: 2}, {ID: 3, Antennas: 3},
		{ID: 11, Antennas: 1}, {ID: 12, Antennas: 2}, {ID: 13, Antennas: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeployChannels(t *testing.T) {
	d := deployTrio(t, 2)
	h := d.Channel(2, 13)
	if len(h) != 48 {
		t.Fatalf("%d bins", len(h))
	}
	if h[0].Rows() != 3 || h[0].Cols() != 2 {
		t.Fatalf("channel 2→13 is %d×%d, want 3×2", h[0].Rows(), h[0].Cols())
	}
	// Caching returns the same object.
	if &d.Channel(2, 13)[0] == &h[0] {
		_ = h // same backing array is fine; just ensure no panic
	}
	if d.NoisePower() != 1 {
		t.Fatal("noise floor must be unit")
	}
}

func TestReciprocity(t *testing.T) {
	d := deployTrio(t, 3)
	fwd := d.Channel(2, 12)
	rev := d.Channel(12, 2)
	for _, bin := range []int{0, 20, 47} {
		if !rev[bin].EqualApprox(fwd[bin].Transpose(), 1e-9) {
			t.Fatalf("bin %d: reverse channel is not the transpose", bin)
		}
	}
}

func TestEstimateErrorProperties(t *testing.T) {
	d := deployTrio(t, 4)
	rng := rand.New(rand.NewSource(9))
	truth := d.Channel(3, 13)
	est := d.Estimate(3, 13, rng, nil)
	if len(est) != len(truth) {
		t.Fatal("estimate bin count mismatch")
	}
	// Nonzero but small relative error (the ~25–27 dB cancellation
	// floor corresponds to ~4.5–5.5% rms error).
	var rel float64
	for b := range truth {
		rel += est[b].Sub(truth[b]).FrobeniusNorm() / truth[b].FrobeniusNorm()
	}
	rel /= float64(len(truth))
	if rel < 0.01 || rel > 0.15 {
		t.Fatalf("relative estimation error %.3f out of range", rel)
	}
}

func TestLinkSNRRange(t *testing.T) {
	// Across seeds, most links must land in a plausible indoor range.
	in, total := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		d := deployTrio(t, seed)
		for _, pair := range [][2]mac.NodeID{{1, 11}, {2, 12}, {3, 13}} {
			snr := d.LinkSNRDB(pair[0], pair[1])
			total++
			if snr > -5 && snr < 50 {
				in++
			}
		}
	}
	if float64(in)/float64(total) < 0.9 {
		t.Fatalf("only %d/%d links in range", in, total)
	}
}

func TestDeployValidation(t *testing.T) {
	tb, _ := New(5, DefaultConfig())
	rng := rand.New(rand.NewSource(1))
	// Too many nodes.
	specs := make([]NodeSpec, 21)
	for i := range specs {
		specs[i] = NodeSpec{ID: mac.NodeID(i), Antennas: 1}
	}
	if _, err := tb.Deploy(rng, specs); err == nil {
		t.Fatal("expected too-many-nodes error")
	}
	// Duplicate ids.
	if _, err := tb.Deploy(rng, []NodeSpec{{ID: 1, Antennas: 1}, {ID: 1, Antennas: 2}}); err == nil {
		t.Fatal("expected duplicate-id error")
	}
	// Bad antennas.
	if _, err := tb.Deploy(rng, []NodeSpec{{ID: 1, Antennas: 0}}); err == nil {
		t.Fatal("expected antenna error")
	}
}

func TestChannelPanicsOnUnknownPair(t *testing.T) {
	d := deployTrio(t, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown pair")
		}
	}()
	d.Channel(1, 99)
}

func TestPointDistance(t *testing.T) {
	if d := (Point{0, 0}).Distance(Point{3, 4}); math.Abs(d-5) > 1e-12 {
		t.Fatalf("distance %g", d)
	}
}

func TestTxPower(t *testing.T) {
	tb, _ := New(7, DefaultConfig())
	if p := tb.TxPower(); math.Abs(10*math.Log10(p)-tb.Cfg.TxPowerDB) > 1e-9 {
		t.Fatalf("TxPower %g", p)
	}
	if tb.Params().NumDataCarriers() != 48 {
		t.Fatal("params wrong")
	}
}

// spatialFixture deploys a deterministic (shadowing-free) 4-node line
// — two near pairs {1,2} and {3,4} separated by a wide gap with extra
// wall loss — under a sparse link model.
func spatialFixture(t *testing.T) *Deployment {
	t.Helper()
	cfg := DefaultConfig()
	cfg.ShadowDB = 0
	tb, err := New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nodes := []NodeSpec{{ID: 1, Antennas: 2}, {ID: 2, Antennas: 1}, {ID: 3, Antennas: 1}, {ID: 4, Antennas: 3}}
	pos := map[mac.NodeID]Point{
		1: {X: 0, Y: 0}, 2: {X: 4, Y: 0},
		3: {X: 500, Y: 0}, 4: {X: 504, Y: 0},
	}
	cell := func(id mac.NodeID) int {
		if id <= 2 {
			return 0
		}
		return 1
	}
	d, err := tb.DeployAtModel(rand.New(rand.NewSource(5)), nodes, pos, LinkModel{
		ExtraLossDB: func(a, b mac.NodeID) float64 {
			if cell(a) == cell(b) {
				return 0
			}
			return 40
		},
		SparseSNRDB: -40,
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestLinkModelHearingAndSparseChannels(t *testing.T) {
	d := spatialFixture(t)
	// Link budgets: 4 m in-cell ≈ 81−40−18 = +23 dB; 500 m cross-cell
	// ≈ 81−40−81−40(wall) ≈ −80 dB.
	if s := d.HearingSNRDB(1, 2); s < 15 || s > 30 {
		t.Fatalf("in-cell budget %.1f dB, want ≈23", s)
	}
	if s := d.HearingSNRDB(1, 3); s > -60 {
		t.Fatalf("cross-cell budget %.1f dB, want far below noise (wall + distance)", s)
	}
	// Budgets are symmetric (one path-loss draw per unordered pair).
	if d.HearingSNRDB(1, 3) != d.HearingSNRDB(3, 1) {
		t.Fatal("asymmetric link budget")
	}
	// The hearing graph at the default threshold splits the cells.
	g := d.HearingGraph(DefaultCSThresholdDB)
	if g.NumComponents() != 2 || g.IsClique() {
		t.Fatalf("components = %d (clique=%v), want 2 cells", g.NumComponents(), g.IsClique())
	}
	if !g.Hears(1, 2) || g.Hears(1, 3) {
		t.Fatal("hearing relation wrong")
	}
	// Forcing the threshold below every budget restores one clique —
	// the global-medium escape hatch.
	if forced := d.HearingGraph(-200); !forced.IsClique() {
		t.Fatal("threshold below every budget must produce a clique")
	}
	// In-cell channels are materialized; cross-cell ones read as zero
	// (and so do their reciprocity estimates), never panic.
	if meanGainOf(d.Channel(1, 2)) <= 0 {
		t.Fatal("in-cell channel not materialized")
	}
	if meanGainOf(d.Channel(1, 3)) != 0 {
		t.Fatal("sub-floor channel not zero")
	}
	est := d.Estimate(1, 3, rand.New(rand.NewSource(9)), nil)
	for _, m := range est {
		for i := 0; i < m.Rows(); i++ {
			for j := 0; j < m.Cols(); j++ {
				if m.At(i, j) != 0 {
					t.Fatal("estimate of a zero channel must be zero")
				}
			}
		}
	}
	if s := d.LinkSNRDB(1, 3); s != -300 {
		t.Fatalf("sub-floor LinkSNRDB %.1f, want the -300 dB clamp (JSON-safe, no -Inf)", s)
	}
}

// The zero LinkModel must reproduce DeployAt draw-for-draw — the
// seeded figure pipeline depends on the RNG stream.
func TestDeployAtModelZeroModelIsDense(t *testing.T) {
	cfg := DefaultConfig()
	tb, _ := New(3, cfg)
	nodes := []NodeSpec{{ID: 1, Antennas: 2}, {ID: 2, Antennas: 3}, {ID: 3, Antennas: 1}}
	pos := map[mac.NodeID]Point{1: {X: 0, Y: 0}, 2: {X: 7, Y: 2}, 3: {X: 3, Y: 9}}
	a, err := tb.DeployAt(rand.New(rand.NewSource(11)), nodes, pos)
	if err != nil {
		t.Fatal(err)
	}
	tb2, _ := New(3, cfg)
	b, err := tb2.DeployAtModel(rand.New(rand.NewSource(11)), nodes, pos, LinkModel{})
	if err != nil {
		t.Fatal(err)
	}
	for _, from := range []mac.NodeID{1, 2, 3} {
		for _, to := range []mac.NodeID{1, 2, 3} {
			if from == to {
				continue
			}
			ca, cb := a.Channel(from, to), b.Channel(from, to)
			for k := range ca {
				for i := 0; i < ca[k].Rows(); i++ {
					for j := 0; j < ca[k].Cols(); j++ {
						if ca[k].At(i, j) != cb[k].At(i, j) {
							t.Fatalf("channel %d→%d bin %d differs under the zero link model", from, to, k)
						}
					}
				}
			}
		}
	}
}
