// Package testbed synthesizes the paper's evaluation environment
// (Fig. 10): twenty node locations on an office floor plan, log-
// distance path loss with shadowing calibrated so link SNRs span the
// 5–32.5 dB range of §6.2, Rayleigh multipath channels per node pair,
// and reciprocity-based channel estimates with calibration error —
// the ChannelProvider behind every MAC experiment.
//
// This package substitutes for the USRP2 testbed: we have no radios,
// so geometry + a standard propagation model generate the same SNR
// statistics the paper's placements produced.
package testbed

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"nplus/internal/channel"
	"nplus/internal/cmplxmat"
	"nplus/internal/mac"
	"nplus/internal/ofdm"
)

// Point is a 2-D location in meters.
type Point struct{ X, Y float64 }

// Distance returns the Euclidean distance to q.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// Config tunes the synthetic environment. Zero values select the
// calibrated defaults.
type Config struct {
	NumLocations int     // node positions on the floor (20 like Fig. 10)
	Width        float64 // floor width, meters
	Height       float64 // floor height, meters
	MinSpacing   float64 // minimum distance between locations

	PathLossExp float64 // log-distance exponent
	RefGainDB   float64 // gain at 1 m, dB (combined with TxPowerDB)
	ShadowDB    float64 // log-normal shadowing σ
	TxPowerDB   float64 // default transmit power over the noise floor

	Profile channel.Profile // multipath profile

	// Channel-estimation model: processing gain of the LTF (samples
	// effectively averaged) and the multiplicative error floor from
	// residual hardware calibration — together these set the ~25–27 dB
	// cancellation depth of §6.2.
	EstGain  float64
	EstFloor float64
}

// DefaultConfig returns the calibrated environment.
func DefaultConfig() Config {
	return Config{
		NumLocations: 20,
		Width:        30,
		Height:       20,
		MinSpacing:   2,
		PathLossExp:  3.0,
		RefGainDB:    -40,
		ShadowDB:     3.5,
		TxPowerDB:    81,
		Profile:      channel.DefaultProfile,
		EstGain:      128,
		EstFloor:     0.045,
	}
}

// Testbed is a generated floor plan.
type Testbed struct {
	Cfg       Config
	Locations []Point
	params    *ofdm.Params
}

// New generates a testbed with the given seed. The same seed always
// yields the same floor plan.
func New(seed int64, cfg Config) (*Testbed, error) {
	if cfg.NumLocations < 2 {
		return nil, fmt.Errorf("testbed: %d locations", cfg.NumLocations)
	}
	if cfg.Width <= 0 || cfg.Height <= 0 || cfg.MinSpacing < 0 {
		return nil, fmt.Errorf("testbed: bad floor geometry %+v", cfg)
	}
	rng := rand.New(rand.NewSource(seed))
	tb := &Testbed{Cfg: cfg, params: ofdm.Default()}
	const maxTries = 10000
	for len(tb.Locations) < cfg.NumLocations {
		tries := 0
		for {
			tries++
			if tries > maxTries {
				return nil, fmt.Errorf("testbed: cannot place %d locations with spacing %g", cfg.NumLocations, cfg.MinSpacing)
			}
			p := Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
			ok := true
			for _, q := range tb.Locations {
				if p.Distance(q) < cfg.MinSpacing {
					ok = false
					break
				}
			}
			if ok {
				tb.Locations = append(tb.Locations, p)
				break
			}
		}
	}
	return tb, nil
}

// NodeSpec describes one node to deploy.
type NodeSpec struct {
	ID       mac.NodeID
	Antennas int
}

// DefaultCSThresholdDB is the calibrated carrier-sense threshold: a
// node hears (decodes the light-weight handshakes of) a transmitter
// whose average link SNR reaches it at or above this many dB. The
// default is deliberately conservative — well below the weakest link
// any single-floor deployment produces — so every legacy scenario
// remains one clique (the historical global medium) and only
// deployments engineered for spatial separation (multi-building
// campuses, wall-attenuated rooms) shard into components or grow
// hidden terminals.
const DefaultCSThresholdDB = -30

// LinkModel tunes channel synthesis beyond pure geometry.
type LinkModel struct {
	// ExtraLossDB returns extra attenuation in dB applied on top of
	// log-distance path loss for the ordered pair (a, b) — wall loss
	// between rooms, building shells across a campus. nil means none.
	// It must be symmetric (reciprocity ties the two directions).
	ExtraLossDB func(a, b mac.NodeID) float64
	// SparseSNRDB, when non-zero, skips materializing Rayleigh taps
	// for pairs whose average path SNR (dB) falls below it: such links
	// are indistinguishable from the noise floor, and on a clustered
	// deployment they are the quadratic bulk — a 1,000-node campus
	// stores the sum of its clusters instead of n² channels. Skipped
	// pairs read as zero channels; their path gain is still recorded
	// for the hearing graph. Zero selects the historical dense draw.
	// Keep it comfortably below any carrier-sense threshold in use, so
	// every audible pair has a real channel.
	SparseSNRDB float64
}

// Deployment places nodes at distinct random locations and draws
// every pairwise channel. It implements mac.ChannelProvider.
type Deployment struct {
	tb       *Testbed
	Nodes    map[mac.NodeID]NodeSpec
	Position map[mac.NodeID]Point
	calib    *channel.Calibration
	lm       LinkModel
	// raw channel objects per ordered pair
	chans map[[2]mac.NodeID]*channel.MIMO
	// cached per-data-bin frequency responses
	freq map[[2]mac.NodeID][]*cmplxmat.Matrix
	// ids is the slot table of the dense gain matrix: ids[s] is the
	// node occupying slot s (stale for freed slots — liveness is
	// idx[ids[s]] == s). A static deployment fills slots in ascending
	// id order and never frees one; dynamic populations recycle freed
	// slots and double the matrix when full.
	ids []mac.NodeID
	idx map[mac.NodeID]int
	// freeSlots holds recycled slot indexes (LIFO).
	freeSlots []int
	// stride is the matrix row length (the slot capacity).
	stride int
	// maxAnt is the antenna count the calibration state was drawn for —
	// arriving nodes must fit under it.
	maxAnt int
	// gainDB[i*stride+j] is the average path gain of the ordered pair
	// (ids[i] → ids[j]) in dB — path loss, shadowing, and any extra
	// link loss, without the Rayleigh realization. It is recorded for
	// every pair, including sparse-skipped ones, and backs the hearing
	// graph at O(1) per pair where the realized-channel LinkSNRDB
	// would materialize 48 per-bin matrices.
	gainDB []float32
	// zero holds lazily built all-zero per-bin batches for
	// sparse-skipped pairs, keyed by rx×tx shape.
	zero map[[2]int][]*cmplxmat.Matrix
}

// newDeployment validates the node specs and builds the deployment
// shell, drawing the calibration state from rng — the first RNG use,
// an order pinned by the seeded figure outputs.
func (tb *Testbed) newDeployment(rng *rand.Rand, nodes []NodeSpec, lm LinkModel) (*Deployment, error) {
	maxAnt := 0
	for _, n := range nodes {
		if n.Antennas < 1 {
			return nil, fmt.Errorf("testbed: node %d has %d antennas", n.ID, n.Antennas)
		}
		if n.Antennas > maxAnt {
			maxAnt = n.Antennas
		}
	}
	// Pre-size the pairwise maps: n·(n−1) ordered pairs would force
	// repeated rehashing on large deployments. Sparse deployments skip
	// the quadratic bulk, so they start small and grow as needed.
	pairs := len(nodes) * (len(nodes) - 1)
	if lm.SparseSNRDB != 0 && pairs > 4*len(nodes) {
		pairs = 4 * len(nodes)
	}
	ids := make([]mac.NodeID, 0, len(nodes))
	for _, n := range nodes {
		ids = append(ids, n.ID)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	idx := make(map[mac.NodeID]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	return &Deployment{
		tb:       tb,
		Nodes:    make(map[mac.NodeID]NodeSpec, len(nodes)),
		Position: make(map[mac.NodeID]Point, len(nodes)),
		calib:    channel.NewCalibration(rng, maxAnt, tb.Cfg.EstFloor),
		lm:       lm,
		chans:    make(map[[2]mac.NodeID]*channel.MIMO, pairs),
		freq:     make(map[[2]mac.NodeID][]*cmplxmat.Matrix, pairs),
		ids:      ids,
		idx:      idx,
		stride:   len(ids),
		maxAnt:   maxAnt,
		gainDB:   make([]float32, len(ids)*len(ids)),
	}, nil
}

// drawChannels draws Rayleigh channels for every ordered node pair
// (reciprocity ties the two directions together: the reverse is the
// transpose), recording each pair's average path gain for the hearing
// graph. Pairs whose path SNR falls below the link model's sparse
// floor keep only the gain: their taps are never drawn, which both
// bounds memory to the sum of the clusters and — because the skipped
// draws would otherwise advance the RNG — is only enabled on
// deployments built for it (legacy dense deployments never skip, so
// their seeded channel realizations are untouched).
func (d *Deployment) drawChannels(rng *rand.Rand, nodes []NodeSpec) {
	tb := d.tb
	seen := make(map[[2]mac.NodeID]bool, len(nodes))
	for _, a := range nodes {
		for _, b := range nodes {
			if a.ID == b.ID {
				continue
			}
			if seen[[2]mac.NodeID{a.ID, b.ID}] {
				continue
			}
			seen[[2]mac.NodeID{a.ID, b.ID}] = true
			seen[[2]mac.NodeID{b.ID, a.ID}] = true
			dist := d.Position[a.ID].Distance(d.Position[b.ID])
			gain := channel.PathLoss(rng, dist, tb.Cfg.PathLossExp, channel.FromDB(tb.Cfg.RefGainDB), tb.Cfg.ShadowDB)
			if d.lm.ExtraLossDB != nil {
				if loss := d.lm.ExtraLossDB(a.ID, b.ID); loss != 0 {
					gain *= channel.FromDB(-loss)
				}
			}
			gdb := clampDB(channel.DB(gain))
			d.gainDB[d.idx[a.ID]*d.stride+d.idx[b.ID]] = float32(gdb)
			d.gainDB[d.idx[b.ID]*d.stride+d.idx[a.ID]] = float32(gdb)
			if d.lm.SparseSNRDB != 0 && tb.Cfg.TxPowerDB+gdb < d.lm.SparseSNRDB {
				continue // below the materialization floor: gain only
			}
			fwd := channel.NewRayleigh(rng, b.Antennas, a.Antennas, tb.Cfg.Profile, gain)
			d.chans[[2]mac.NodeID{a.ID, b.ID}] = fwd
			d.chans[[2]mac.NodeID{b.ID, a.ID}] = fwd.Reverse(nil)
		}
	}
}

// clampDB bounds a dB value away from ±Inf so gains stay finite (and
// JSON-safe) even for a zero channel.
func clampDB(x float64) float64 {
	if x < -300 {
		return -300
	}
	return x
}

// Deploy assigns the given nodes to random distinct testbed locations
// using rng and draws Rayleigh channels for every ordered node pair.
func (tb *Testbed) Deploy(rng *rand.Rand, nodes []NodeSpec) (*Deployment, error) {
	if len(nodes) > len(tb.Locations) {
		return nil, fmt.Errorf("testbed: %d nodes for %d locations", len(nodes), len(tb.Locations))
	}
	d, err := tb.newDeployment(rng, nodes, LinkModel{})
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(len(tb.Locations))
	for i, n := range nodes {
		if _, dup := d.Nodes[n.ID]; dup {
			return nil, fmt.Errorf("testbed: duplicate node id %d", n.ID)
		}
		d.Nodes[n.ID] = n
		d.Position[n.ID] = tb.Locations[perm[i]]
	}
	d.drawChannels(rng, nodes)
	return d, nil
}

// DeployAt places nodes at the given explicit positions (meters) —
// the entry point for generated topologies, whose geometry is decided
// by a deployment generator rather than the fixed floor plan — and
// draws channels exactly as Deploy does. Every node needs a position;
// the testbed's own location set is ignored.
func (tb *Testbed) DeployAt(rng *rand.Rand, nodes []NodeSpec, pos map[mac.NodeID]Point) (*Deployment, error) {
	return tb.DeployAtModel(rng, nodes, pos, LinkModel{})
}

// DeployAtModel is DeployAt under an explicit link model: clustered
// generators pass inter-cluster attenuation and a sparse
// materialization floor here. The zero LinkModel reproduces DeployAt
// draw-for-draw.
func (tb *Testbed) DeployAtModel(rng *rand.Rand, nodes []NodeSpec, pos map[mac.NodeID]Point, lm LinkModel) (*Deployment, error) {
	d, err := tb.newDeployment(rng, nodes, lm)
	if err != nil {
		return nil, err
	}
	for _, n := range nodes {
		if _, dup := d.Nodes[n.ID]; dup {
			return nil, fmt.Errorf("testbed: duplicate node id %d", n.ID)
		}
		p, ok := pos[n.ID]
		if !ok {
			return nil, fmt.Errorf("testbed: node %d has no position", n.ID)
		}
		d.Nodes[n.ID] = n
		d.Position[n.ID] = p
	}
	d.drawChannels(rng, nodes)
	return d, nil
}

// Params returns the OFDM numerology of the testbed.
func (tb *Testbed) Params() *ofdm.Params { return tb.params }

// Channel implements mac.ChannelProvider: the true per-data-bin
// matrices from node `from` to node `to`. A pair the sparse link
// model skipped reads as an all-zero channel — by construction its
// signal is far below the noise floor, so zero is the faithful (and
// allocation-free, via a per-shape cache) stand-in.
func (d *Deployment) Channel(from, to mac.NodeID) []*cmplxmat.Matrix {
	key := [2]mac.NodeID{from, to}
	if cached, ok := d.freq[key]; ok {
		return cached
	}
	ch, ok := d.chans[key]
	if !ok {
		fromSpec, okF := d.Nodes[from]
		toSpec, okT := d.Nodes[to]
		if d.lm.SparseSNRDB != 0 && okF && okT {
			shape := [2]int{toSpec.Antennas, fromSpec.Antennas}
			if d.zero == nil {
				d.zero = make(map[[2]int][]*cmplxmat.Matrix)
			}
			z, ok := d.zero[shape]
			if !ok {
				z = cmplxmat.NewBatch(len(d.tb.params.DataBins()), shape[0], shape[1])
				d.zero[shape] = z
			}
			return z
		}
		panic(fmt.Sprintf("testbed: no channel %d→%d", from, to))
	}
	bins := d.tb.params.DataBins()
	out := cmplxmat.NewBatch(len(bins), ch.N, ch.M)
	for k, bin := range bins {
		ch.FreqResponseInto(out[k], bin, d.tb.params.FFTSize)
	}
	d.freq[key] = out
	return out
}

// Estimate implements mac.ChannelProvider: reciprocity-derived
// estimate = true channel × per-antenna-pair calibration error +
// preamble-SNR-dependent noise, built in buf when it is non-nil.
func (d *Deployment) Estimate(from, to mac.NodeID, rng *rand.Rand, buf *cmplxmat.Batch) []*cmplxmat.Matrix {
	truth := d.Channel(from, to)
	if len(truth) == 0 {
		return nil
	}
	if buf == nil {
		buf = new(cmplxmat.Batch)
	}
	out := buf.Shape(len(truth), truth[0].Rows(), truth[0].Cols())
	// Preamble SNR at the estimating node: the reverse-link preamble
	// power over the noise floor.
	preambleSNR := channel.FromDB(d.tb.Cfg.TxPowerDB) * meanGainOf(truth)
	for k, h := range truth {
		channel.PerturbEstimateInto(rng, h, out[k], preambleSNR, d.tb.Cfg.EstGain, d.tb.Cfg.EstFloor)
	}
	return out
}

func meanGainOf(h []*cmplxmat.Matrix) float64 {
	if len(h) == 0 {
		return 0
	}
	var acc float64
	for _, m := range h {
		f := m.FrobeniusNorm()
		acc += f * f / float64(m.Rows()*m.Cols())
	}
	return acc / float64(len(h))
}

// NoisePower implements mac.ChannelProvider (unit reference floor).
func (d *Deployment) NoisePower() float64 { return 1 }

// Fork returns a view of the deployment safe for use from another
// goroutine alongside the original and its other forks. The channel
// realizations, gains, positions, and node specs are shared (they are
// immutable after construction); only the lazily built per-bin
// response caches (freq, zero) are private, because Channel populates
// them on demand — the one mutation a concurrent reader could race
// on. A fork therefore answers every query identically to its parent,
// at the cost of re-deriving cached frequency responses it has not
// seen yet.
func (d *Deployment) Fork() *Deployment {
	cp := *d
	cp.freq = make(map[[2]mac.NodeID][]*cmplxmat.Matrix, len(d.freq))
	for k, v := range d.freq {
		cp.freq[k] = v // built batches are read-only: share them
	}
	cp.zero = nil
	return &cp
}

// LinkSNRDB returns the average per-bin SNR of the from→to link at
// the testbed's default transmit power — the quantity the paper's
// experiments bin placements by. It averages the realized channel, so
// it carries the (small) Rayleigh fluctuation around the pair's link
// budget; HearingSNRDB is the budget itself.
func (d *Deployment) LinkSNRDB(from, to mac.NodeID) float64 {
	return clampDB(d.tb.Cfg.TxPowerDB + channel.DB(meanGainOf(d.Channel(from, to))))
}

// HearingSNRDB returns the average link budget of the from→to link in
// dB SNR: transmit power plus the pair's recorded path gain (path
// loss, shadowing, extra link loss), without the per-realization
// Rayleigh fluctuation that LinkSNRDB averages over. This is the
// quantity the carrier-sense comparator thresholds — it is O(1) per
// pair where LinkSNRDB materializes the 48 per-bin matrices, which is
// what makes an n²-pair hearing graph affordable — and the same
// quantity LinkSNRDB estimates from the realized channel (the two
// agree to within the fade average).
func (d *Deployment) HearingSNRDB(from, to mac.NodeID) float64 {
	i, okF := d.idx[from]
	j, okT := d.idx[to]
	if !okF || !okT || from == to {
		return math.Inf(1)
	}
	return d.tb.Cfg.TxPowerDB + float64(d.gainDB[i*d.stride+j])
}

// HearingGraph derives the per-ordered-pair hearing relation of the
// deployment against a carrier-sense threshold: node l hears node s
// when the s→l link budget reaches l at or above csThresholdDB (§3.2:
// a station senses occupied DoF from the handshakes it can decode).
// Nodes are enumerated in ascending id order, so equal deployments
// yield identical graphs and component numbering.
func (d *Deployment) HearingGraph(csThresholdDB float64) *mac.HearingGraph {
	return mac.NewHearingGraph(d.LiveIDs(), d.HearsFunc(csThresholdDB))
}

// HearsFunc returns the per-ordered-pair hearing predicate at the
// given carrier-sense threshold — the closure incremental
// HearingGraph updates re-query after a node arrives or moves.
func (d *Deployment) HearsFunc(csThresholdDB float64) func(listener, speaker mac.NodeID) bool {
	return func(listener, speaker mac.NodeID) bool {
		return d.HearingSNRDB(speaker, listener) >= csThresholdDB
	}
}

// LiveIDs returns the deployed node ids in ascending order. On a
// static deployment this is exactly the slot table; dynamic
// populations skip freed slots and re-sort (arrivals may reuse the
// slot of a departed higher id).
func (d *Deployment) LiveIDs() []mac.NodeID {
	if len(d.freeSlots) == 0 && len(d.ids) == len(d.idx) {
		return d.ids
	}
	out := make([]mac.NodeID, 0, len(d.idx))
	for s, id := range d.ids {
		if j, ok := d.idx[id]; ok && j == s {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TxPower returns the default transmit power (linear).
func (tb *Testbed) TxPower() float64 { return channel.FromDB(tb.Cfg.TxPowerDB) }

var _ mac.ChannelProvider = (*Deployment)(nil)
