package core

import (
	"math"
	"strings"
	"testing"

	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/traffic"
)

func TestNewNetworkValidation(t *testing.T) {
	nodes, links := TrioNodes()
	if _, err := NewNetwork(1, nodes, links, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	badLinks := []Link{{ID: 1, Tx: 99, Rx: 11}}
	if _, err := NewNetwork(1, nodes, badLinks, DefaultOptions()); err == nil {
		t.Fatal("expected unknown-node error")
	}
	badLinks = []Link{{ID: 1, Tx: 1, Rx: 99}}
	if _, err := NewNetwork(1, nodes, badLinks, DefaultOptions()); err == nil {
		t.Fatal("expected unknown-rx error")
	}
	// Zero-value options still deploy (the zero testbed config selects
	// the default floor plan) — but JoinThresholdDB/PERWidth zeros are
	// now literal values, not default requests; see TestOptionSentinels.
	if _, err := NewNetwork(1, nodes, links, Options{}); err != nil {
		t.Fatal(err)
	}
}

// TestOptionSentinels pins the Auto/explicit-zero semantics: NaN
// (Auto) selects the calibrated default, while an explicit 0 — which
// the old zero-value merging silently replaced with 27 and 1 — now
// reaches the scenario untouched (disabling the §4 admission check
// and selecting a hard delivery threshold respectively).
func TestOptionSentinels(t *testing.T) {
	nodes, links := TrioNodes()
	build := func(opts Options) *mac.Scenario {
		net, err := NewNetwork(1, nodes, links, opts)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := net.Scenario(1)
		if err != nil {
			t.Fatal(err)
		}
		return sc
	}
	auto := build(Options{JoinThresholdDB: Auto, PERWidth: Auto})
	if auto.JoinThresholdDB != 27 || auto.PERWidth != 1 {
		t.Fatalf("Auto sentinels resolved to L=%g width=%g, want 27 and 1", auto.JoinThresholdDB, auto.PERWidth)
	}
	def := build(DefaultOptions())
	if def.JoinThresholdDB != 27 || def.PERWidth != 1 {
		t.Fatalf("DefaultOptions resolved to L=%g width=%g", def.JoinThresholdDB, def.PERWidth)
	}
	zero := build(Options{JoinThresholdDB: 0, PERWidth: 0})
	if zero.JoinThresholdDB != 0 || zero.PERWidth != 0 {
		t.Fatalf("explicit zeros were overridden: L=%g width=%g", zero.JoinThresholdDB, zero.PERWidth)
	}
	custom := build(Options{JoinThresholdDB: 90, PERWidth: 2.5})
	if custom.JoinThresholdDB != 90 || custom.PERWidth != 2.5 {
		t.Fatalf("explicit values were overridden: L=%g width=%g", custom.JoinThresholdDB, custom.PERWidth)
	}
}

func TestNetworkDeterminism(t *testing.T) {
	nodes, links := TrioNodes()
	run := func() float64 {
		net, err := NewNetwork(5, nodes, links, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.RunEpochs(mac.ModeNPlus, 20)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalThroughputMbps()
	}
	if run() != run() {
		t.Fatal("same seed diverged")
	}
}

func TestNetworkSNRRangeMatchesPaper(t *testing.T) {
	// Across placements, link SNRs must mostly land inside the paper's
	// 5–32.5 dB operating range — this validates the testbed
	// calibration.
	nodes, links := TrioNodes()
	in, total := 0, 0
	for seed := int64(1); seed <= 30; seed++ {
		net, err := NewNetwork(seed, nodes, links, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range net.Flows {
			s := net.Deployment.LinkSNRDB(f.Tx, f.Rx)
			total++
			if s >= 0 && s <= 45 {
				in++
			}
		}
	}
	if frac := float64(in) / float64(total); frac < 0.8 {
		t.Fatalf("only %.0f%% of link SNRs in a sane range", 100*frac)
	}
}

func TestRunFig12SmallShape(t *testing.T) {
	cfg := DefaultFig12Config()
	cfg.Placements = 6
	cfg.Epochs = 40
	res, err := RunFig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements != 6 {
		t.Fatalf("placements %d", res.Placements)
	}
	// The paper's headline: total gain ≈ 2×. Allow a generous band at
	// this sample size; the bench uses the full configuration.
	if res.MeanGainTotal < 1.3 {
		t.Fatalf("total gain %.2f — n+ should clearly beat 802.11n", res.MeanGainTotal)
	}
	// 3-antenna flow gains the most.
	if res.MeanGainFlow[3] < res.MeanGainFlow[1] {
		t.Fatalf("3-antenna gain %.2f below 1-antenna %.2f", res.MeanGainFlow[3], res.MeanGainFlow[1])
	}
	// Single-antenna flow must not collapse (paper: −3%).
	if res.MeanGainFlow[1] < 0.6 {
		t.Fatalf("single-antenna flow gain %.2f", res.MeanGainFlow[1])
	}
	out := res.Render()
	if !strings.Contains(out, "mean gains") {
		t.Fatal("render missing summary")
	}
	// Config validation.
	bad := cfg
	bad.Placements = 0
	if _, err := RunFig12(bad); err == nil {
		t.Fatal("expected config error")
	}
}

func TestRunFig13SmallShape(t *testing.T) {
	cfg := DefaultFig13Config()
	cfg.Placements = 5
	cfg.Epochs = 40
	res, err := RunFig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanGainVsLegacy <= 1 {
		t.Fatalf("gain vs 802.11n %.2f, want > 1", res.MeanGainVsLegacy)
	}
	if res.MeanGainVsBeamforming <= 0.9 {
		t.Fatalf("gain vs beamforming %.2f", res.MeanGainVsBeamforming)
	}
	// Beamforming is a stronger baseline than plain 802.11n, so the
	// gain over it must be smaller (paper: 2.4× vs 1.8×).
	if res.MeanGainVsBeamforming >= res.MeanGainVsLegacy {
		t.Fatalf("gain vs BF %.2f not below gain vs legacy %.2f",
			res.MeanGainVsBeamforming, res.MeanGainVsLegacy)
	}
	if !strings.Contains(res.Render(), "mean total gain") {
		t.Fatal("render missing summary")
	}
}

func TestRunFig11SmallShape(t *testing.T) {
	cfg := DefaultFig11Config()
	cfg.Placements = 60
	res, err := RunFig11(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Residuals must be positive and small; alignment worse than
	// nulling (paper: 0.8 vs 1.3 dB).
	if res.AvgNullingDB <= 0 || res.AvgNullingDB > 3 {
		t.Fatalf("nulling residual %.2f dB out of range", res.AvgNullingDB)
	}
	if res.AvgAlignmentDB <= 0 || res.AvgAlignmentDB > 4.5 {
		t.Fatalf("alignment residual %.2f dB out of range", res.AvgAlignmentDB)
	}
	if res.AvgAlignmentDB <= res.AvgNullingDB {
		t.Fatalf("alignment residual %.2f not above nulling %.2f",
			res.AvgAlignmentDB, res.AvgNullingDB)
	}
	// Loss grows with the interferer's strength: the top unwanted band
	// must show more loss than the bottom one (summed over wanted
	// bands with samples).
	lossAt := func(loss [][]float64, count [][]int, band int) (float64, bool) {
		var s float64
		n := 0
		for w := range loss[band] {
			if count[band][w] > 0 {
				s += loss[band][w]
				n++
			}
		}
		if n == 0 {
			return 0, false
		}
		return s / float64(n), true
	}
	lo, okLo := lossAt(res.NullingLoss, res.NullingCount, 0)
	hi, okHi := lossAt(res.NullingLoss, res.NullingCount, len(res.NullingLoss)-1)
	if okLo && okHi && hi <= lo {
		t.Fatalf("nulling loss not increasing with interferer SNR: %.2f → %.2f", lo, hi)
	}
	if !strings.Contains(res.Render(), "averages below L=27") {
		t.Fatal("render missing summary")
	}
}

func TestRunFig9Shape(t *testing.T) {
	cfg := DefaultFig9Config()
	cfg.Trials = 120
	res, err := RunFig9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Projection must reveal tx2 far more clearly than raw power
	// (paper: 0.4 dB vs 8.5 dB jump).
	if res.JumpProjectedDB < res.JumpRawDB+3 {
		t.Fatalf("projected jump %.2f dB not well above raw %.2f dB",
			res.JumpProjectedDB, res.JumpRawDB)
	}
	if res.JumpRawDB > 2 {
		t.Fatalf("raw jump %.2f dB — tx2 should be buried under tx1", res.JumpRawDB)
	}
	// Correlation separability (paper: ≈18% indistinguishable raw, ≈0
	// projected).
	if res.IndistinctProjected > 0.05 {
		t.Fatalf("projected indistinguishable fraction %.2f", res.IndistinctProjected)
	}
	if res.IndistinctRaw < res.IndistinctProjected {
		t.Fatal("projection made detection worse")
	}
	if !strings.Contains(res.Render(), "Fig 9(a)") {
		t.Fatal("render missing panel a")
	}
	if _, err := RunFig9(Fig9Config{Trials: 1}); err == nil {
		t.Fatal("expected trials validation error")
	}
}

func TestRunOverheadShape(t *testing.T) {
	cfg := DefaultOverheadConfig()
	cfg.Trials = 30
	res, err := RunOverhead(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Differential must beat raw by a solid factor.
	if res.DiffBytes.Mean() >= res.RawBytes.Mean()*0.7 {
		t.Fatalf("differential %.0fB vs raw %.0fB — compression too weak",
			res.DiffBytes.Mean(), res.RawBytes.Mean())
	}
	// A handful of symbols (the paper reports ≈3 with its coarser
	// quantization; our int8 I/Q codec lands somewhat higher — see
	// EXPERIMENTS.md) and single-digit total overhead.
	if res.DiffSymbols.Mean() > 14 {
		t.Fatalf("alignment space occupies %.1f symbols", res.DiffSymbols.Mean())
	}
	if res.OverheadFraction <= 0 || res.OverheadFraction > 0.15 {
		t.Fatalf("overhead fraction %.3f out of range", res.OverheadFraction)
	}
	if !strings.Contains(res.Render(), "Handshake overhead") {
		t.Fatal("render broken")
	}
	if _, err := RunOverhead(OverheadConfig{}); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestRunProtocolOnTestbed(t *testing.T) {
	nodes, links := TrioNodes()
	var net *Network
	var err error
	// Find a placement with usable links.
	for seed := int64(1); ; seed++ {
		net, err = NewNetwork(seed, nodes, links, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if net.MinLinkSNRDB() >= 8 {
			break
		}
		if seed > 50 {
			t.Fatal("no usable placement found")
		}
	}
	res, err := net.RunTraffic(TrafficRun{
		Mode: mac.ModeNPlus, Duration: 0.3, Model: traffic.Saturated,
		Obs: obs.Config{Events: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, fs := range res.PerFlow {
		total += fs.ThroughputMbps(0.3)
	}
	if total <= 0 {
		t.Fatalf("no throughput on testbed; trace:\n%s", strings.Join(obs.TraceLines(res.Events), "\n"))
	}
}

func TestMinLinkSNRDB(t *testing.T) {
	nodes, links := TrioNodes()
	net, err := NewNetwork(2, nodes, links, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	min := net.MinLinkSNRDB()
	if math.IsNaN(min) || math.IsInf(min, 0) {
		t.Fatalf("min SNR %g", min)
	}
	for _, f := range net.Flows {
		if net.Deployment.LinkSNRDB(f.Tx, f.Rx) < min {
			t.Fatal("MinLinkSNRDB not the minimum")
		}
	}
}

func TestDownlinkNodesShape(t *testing.T) {
	nodes, links := DownlinkNodes()
	if len(nodes) != 5 || len(links) != 3 {
		t.Fatalf("downlink config %d nodes %d links", len(nodes), len(links))
	}
	// Flows 2 and 3 share the AP transmitter.
	if links[1].Tx != links[2].Tx {
		t.Fatal("downlink flows must share the AP")
	}
}
