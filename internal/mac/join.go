package mac

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strconv"

	"nplus/internal/channel"
	"nplus/internal/cmplxmat"
	"nplus/internal/esnr"
	"nplus/internal/mimo"
	"nplus/internal/modulation"
)

// Active describes one ongoing transmission: who is sending, with
// which precoding vectors (power folded in), at which rate, and which
// decoding space its receiver advertised for later joiners.
type Active struct {
	Flow    Flow
	Streams int
	// Vectors[stream][bin] is the power-scaled precoding vector in
	// transmit-antenna space.
	Vectors [][]cmplxmat.Vector
	// UPerp[bin] is the receiver's advertised decoding space (N×n):
	// later joiners must be invisible inside it (Claims 3.3/3.4).
	// Populated only on plans actually returned to the caller — the
	// advertisement rides the receiver's CTS, so candidate plans that
	// lose the rate-adaptation sweep never pay for (or draw RNG for)
	// a space nobody will hear.
	UPerp []*cmplxmat.Matrix
	// Rate is the bitrate chosen via ESNR at join time (§3.4).
	Rate modulation.Rate
	// RateOK is false when even the lowest rate was unsupported.
	RateOK bool
	// JoinSINRs[stream][bin]: post-projection SINR at the receiver at
	// join time (before any later joiner).
	JoinSINRs [][]float64
	// decoders[bin] is the receiver's designed ZF decoder.
	decoders []*mimo.Decoder
	// laterLeakage[j][bin] accumulates the true effective channels of
	// streams that joined AFTER this transmission began (unknown to
	// its decoder).
	laterLeakage [][]cmplxmat.Vector
	// baseLeakage[bin] holds interference directions present at join
	// time that the receiver could not (or need not) cancel: either
	// below the measurement floor or beyond its spare dimensions.
	baseLeakage [][]cmplxmat.Vector
	// PowerScale records the §4 join-threshold power reduction (1 =
	// no reduction).
	PowerScale float64
	// decodeSpace[bin] is the orthonormal basis of the interference
	// complement this receiver decodes in (nil = full space), kept
	// from finalizeAtReceiver so advertise can build UPerp on demand.
	decodeSpace []*cmplxmat.Matrix
	// effAt caches EffectiveAt results per receiver. Provider.Channel
	// is deterministic and Vectors never change after planning, so the
	// true effective channels of a transmission at any given node are
	// fixed for its lifetime — yet interference accounting used to
	// recompute the same NumBins matrix-vector products for every
	// candidate plan, every joiner, and every delivery.
	effAt map[NodeID][][]cmplxmat.Vector
}

// Scenario holds everything the join planner needs about the RF
// world. One Scenario is shared by the event-driven Protocol and the
// epoch-based Experiment.
type Scenario struct {
	Provider ChannelProvider
	Selector *esnr.Selector
	RNG      *rand.Rand
	// NumBins is the number of data subcarriers (48 for the default
	// numerology).
	NumBins int
	// JoinThresholdDB is L of §4: a joiner whose attenuated power at
	// an ongoing receiver exceeds L dB must reduce its power, because
	// practical nulling/alignment cancels at most ~L dB. A value ≤ 0
	// disables the admission check entirely (joiners keep full power).
	JoinThresholdDB float64
	// PERWidth is the dB width of the delivery waterfall (see
	// esnr.PacketSuccessProbability).
	PERWidth float64
	// AlignmentSpaceError is the relative rms error on the decoding
	// space a receiver advertises in its CTS: the receiver estimates
	// its unwanted subspace and quantizes U⊥ before broadcasting it.
	// This extra estimation step is why alignment leaves a larger
	// residual than nulling in practice (§6.2): when a receiver uses
	// all its dimensions (n = N) the advertised space is full-rank and
	// the error is immaterial, but a proper subspace (n < N) rotates
	// the alignment target.
	AlignmentSpaceError float64
	// noPlanMemo disables PlanBest's candidate memoization and
	// early-exit bounds, forcing the full subset × cap sweep. Tests
	// use it to assert the memoized sweep is result-equivalent.
	noPlanMemo bool
	// attempt is the state of the contention attempt being planned. It
	// lives as long as the Scenario so that its maps keep their storage
	// from one attempt to the next; beginAttempt clears it.
	attempt planCtx
}

// meanGain returns the average per-bin channel power gain
// ‖H‖²_F/(N·M) — the attenuation used for the §4 admission check.
func meanGain(h []*cmplxmat.Matrix) float64 {
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

// totalConstraints counts the constraint rows the current actives
// impose on a joiner (K of Claim 3.2).
func totalConstraints(actives []*Active) int {
	k := 0
	for _, a := range actives {
		k += a.Streams
	}
	return k
}

// EffectiveAt returns, per stream and per bin, the true effective
// channel of transmission a as observed at node rx with rxAnt
// antennas: √P·H_true·v. The result is cached on the Active — the
// true channel and the precoding vectors are both fixed for the
// transmission's lifetime — so repeat callers (candidate planning,
// later joiners, delivery accounting) share one computation. Callers
// must treat the returned vectors as read-only.
func (sc *Scenario) EffectiveAt(a *Active, rx NodeID, rxAnt int) [][]cmplxmat.Vector {
	if cached, ok := a.effAt[rx]; ok && len(cached[0][0]) == rxAnt {
		// A mismatched rxAnt (two flows claiming the same receiver id
		// with different antenna counts) falls through and recomputes
		// rather than returning wrong-dimension vectors.
		return cached
	}
	h := sc.Provider.Channel(a.Flow.Tx, rx)
	out := make([][]cmplxmat.Vector, a.Streams)
	// One flat backing array for all streams × bins keeps the cache
	// from fragmenting the heap.
	backing := make(cmplxmat.Vector, a.Streams*sc.NumBins*rxAnt)
	for s := 0; s < a.Streams; s++ {
		out[s] = make([]cmplxmat.Vector, sc.NumBins)
		for b := 0; b < sc.NumBins; b++ {
			dst := backing[:rxAnt:rxAnt]
			backing = backing[rxAnt:]
			out[s][b] = h[b].MulVecInto(dst, a.Vectors[s][b])
		}
	}
	if a.effAt == nil {
		a.effAt = make(map[NodeID][][]cmplxmat.Vector)
	}
	a.effAt[rx] = out
	return out
}

// planCtx is the state of one contention attempt: channel estimates
// drawn once per attempt (one RTS handshake yields one estimate, so
// every candidate subset and stream cap PlanBest evaluates must see
// the same channel view), the derived mean gains for the §4 admission
// check, each receiver's interference complement against the fixed
// incumbent set, and the stream allocations already planned. Sharing
// this across candidates is both the physically faithful model and
// the planner's main cost saving.
type planCtx struct {
	tx    NodeID
	est   map[NodeID][]*cmplxmat.Matrix
	gain  map[NodeID]float64
	uperp map[NodeID][]*cmplxmat.Matrix
	parts map[NodeID]*binPartition
	rows  map[*Active][]*cmplxmat.Matrix
	seen  map[string]bool
	// estBufs hold the attempt's estimates, one per receiver, in draw
	// order; the first nEst are in use. No plan keeps an estimate
	// (precoders and constraint rows copy what they read), so the next
	// attempt reuses the storage.
	estBufs []*cmplxmat.Batch
	nEst    int
}

// binPartition is the per-bin interference partition at one receiver
// against the attempt's incumbent set (capacity = all antennas),
// together with the orthogonal complement of each basis. A receiver
// finalizing a single-destination plan sees exactly this interference
// and can reuse the partition whenever its spare dimensions cover the
// basis (the common case), skipping a per-bin QR.
type binPartition struct {
	basis [][]cmplxmat.Vector
	leak  [][]cmplxmat.Vector
	comp  []*cmplxmat.Matrix
}

// beginAttempt starts a contention attempt by tx: it clears the
// Scenario's attempt state and returns it. Clearing is what keeps
// attempts apart, not just a saving: rows is keyed by *Active, and a
// stale entry under a recycled pointer would hand one plan another
// plan's rows.
func (sc *Scenario) beginAttempt(tx NodeID) *planCtx {
	ctx := &sc.attempt
	if ctx.est == nil {
		ctx.est = make(map[NodeID][]*cmplxmat.Matrix)
		ctx.gain = make(map[NodeID]float64)
		ctx.uperp = make(map[NodeID][]*cmplxmat.Matrix)
		ctx.parts = make(map[NodeID]*binPartition)
		ctx.rows = make(map[*Active][]*cmplxmat.Matrix)
		ctx.seen = make(map[string]bool)
	}
	ctx.tx = tx
	ctx.nEst = 0
	clear(ctx.est)
	clear(ctx.gain)
	clear(ctx.uperp)
	clear(ctx.parts)
	clear(ctx.rows)
	clear(ctx.seen)
	return ctx
}

// constraintRowsAt caches, per incumbent, the per-bin Eq. 7
// constraint rows U⊥ᴴ·H_est against the attempt's estimate: they are
// identical for every candidate subset and stream cap of the attempt.
func (sc *Scenario) constraintRowsAt(ctx *planCtx, a *Active, est []*cmplxmat.Matrix) []*cmplxmat.Matrix {
	if r, ok := ctx.rows[a]; ok {
		return r
	}
	out := make([]*cmplxmat.Matrix, sc.NumBins)
	for b := 0; b < sc.NumBins; b++ {
		out[b] = a.UPerp[b].ConjTransposeMul(est[b])
	}
	ctx.rows[a] = out
	return out
}

// estimateAt draws (once) and caches the attempt's channel estimate
// toward rx.
func (sc *Scenario) estimateAt(ctx *planCtx, rx NodeID) []*cmplxmat.Matrix {
	if e, ok := ctx.est[rx]; ok {
		return e
	}
	if ctx.nEst == len(ctx.estBufs) {
		ctx.estBufs = append(ctx.estBufs, new(cmplxmat.Batch))
	}
	e := sc.Provider.Estimate(ctx.tx, rx, sc.RNG, ctx.estBufs[ctx.nEst])
	ctx.nEst++
	ctx.est[rx] = e
	return e
}

// gainAt caches meanGain of the attempt's estimate toward rx.
func (sc *Scenario) gainAt(ctx *planCtx, rx NodeID) float64 {
	if g, ok := ctx.gain[rx]; ok {
		return g
	}
	g := meanGain(sc.estimateAt(ctx, rx))
	ctx.gain[rx] = g
	return g
}

// complementAt returns, per bin, an orthonormal basis of the
// orthogonal complement of the interference node rx currently sees
// from the given actives (identity when no interference), cached per
// receiver: the incumbent set is fixed for the whole attempt, so the
// per-bin partition and QR need not repeat across candidate subsets
// and stream caps. The raw partitions are kept on the ctx for
// finalizeAtReceiver to reuse.
func (sc *Scenario) complementAt(ctx *planCtx, rx NodeID, rxAnt int, actives []*Active) []*cmplxmat.Matrix {
	if u, ok := ctx.uperp[rx]; ok {
		return u
	}
	var interference [][]cmplxmat.Vector
	for _, a := range actives {
		interference = append(interference, sc.EffectiveAt(a, rx, rxAnt)...)
	}
	part := &binPartition{
		basis: make([][]cmplxmat.Vector, sc.NumBins),
		leak:  make([][]cmplxmat.Vector, sc.NumBins),
		comp:  make([]*cmplxmat.Matrix, sc.NumBins),
	}
	u := make([]*cmplxmat.Matrix, sc.NumBins)
	// One shared identity for interference-free bins: callers treat
	// the complements as read-only, and on an idle medium (the common
	// contention case) every bin takes this path.
	var id *cmplxmat.Matrix
	var scratch []interfCand
	noise := sc.Provider.NoisePower()
	for b := 0; b < sc.NumBins; b++ {
		// Floor-aware rank: imperfectly-aligned interference must not
		// inflate the space (see partitionInterference).
		var basis, leak []cmplxmat.Vector
		basis, leak, scratch = partitionInterferenceScratch(interference, b, noise, rxAnt, scratch)
		part.basis[b] = basis
		part.leak[b] = leak
		if len(basis) == 0 {
			if id == nil {
				id = cmplxmat.Identity(rxAnt)
			}
			u[b] = id
			continue
		}
		u[b] = cmplxmat.OrthogonalComplementOfColumns(basis, 0)
		part.comp[b] = u[b]
	}
	ctx.uperp[rx] = u
	ctx.parts[rx] = part
	return u
}

// seenAlloc reports whether the candidate plan (dests, alloc) was
// already planned in this attempt, and records it. The key is the
// destination flows and the per-destination stream counts: two
// candidates with the same key run the identical precoding problem on
// the identical attempt-wide estimates.
func (ctx *planCtx) seenAlloc(dests []Flow, alloc []int) bool {
	var buf [32]byte
	key := buf[:0]
	for d, f := range dests {
		key = strconv.AppendInt(key, int64(f.ID), 10)
		key = append(key, ':')
		key = strconv.AppendInt(key, int64(alloc[d]), 10)
		key = append(key, ';')
	}
	if ctx.seen[string(key)] {
		return true
	}
	ctx.seen[string(key)] = true
	return false
}

// errPlanMemo signals that a candidate allocation was already
// explored earlier in the same attempt (its outcome — success or
// failure — is already reflected in PlanBest's running best).
var errPlanMemo = errors.New("mac: candidate allocation already planned this attempt")

// JoinRequest describes one transmitter's attempt to start
// transmitting: usually a single destination flow, or several flows
// sharing the same transmitter for the multi-receiver case of Fig. 4
// (a single light-weight RTS may carry multiple receivers, §3.5).
type JoinRequest struct {
	Dests []Flow // all must share Tx, TxAntennas, TxPower
	// MaxTotalStreams caps the stream count across destinations
	// (0 = no cap). Rate adaptation uses it: fewer streams concentrate
	// transmit power and reduce zero-forcing noise amplification, so a
	// link that cannot sustain M streams may sustain M−1.
	MaxTotalStreams int
}

func (r JoinRequest) validate() error {
	if len(r.Dests) == 0 {
		return errors.New("mac: join request with no destinations")
	}
	first := r.Dests[0]
	for _, f := range r.Dests {
		if err := f.Validate(); err != nil {
			return err
		}
		if f.Tx != first.Tx || f.TxAntennas != first.TxAntennas || f.TxPower != first.TxPower {
			return fmt.Errorf("mac: join request mixes transmitters (%v vs %v)", f.Tx, first.Tx)
		}
	}
	return nil
}

// PlanJoin computes a new single-destination transmission for flow in
// the presence of the given actives (empty for a first winner). It
// returns an error when the flow cannot join without harming the
// incumbents.
func (sc *Scenario) PlanJoin(flow Flow, actives []*Active) (*Active, error) {
	as, err := sc.PlanJoinGroup(JoinRequest{Dests: []Flow{flow}}, actives)
	if err != nil {
		return nil, err
	}
	return as[0], nil
}

// PlanJoinGroup computes a (possibly multi-receiver) transmission.
// One Active is returned per destination flow; together they describe
// a single physical transmission whose streams are jointly precoded
// per Claim 3.5: shared protection of every ongoing receiver plus
// cross-receiver alignment among the transmitter's own receivers.
//
// Precoders are computed from channel *estimates* (reciprocity), but
// SINRs and advertised spaces come from true channels (receivers
// measure those directly from the precoded preamble) — which is
// exactly why residual interference is nonzero in practice (§6.2).
//
// A standalone call models one contention attempt: estimates toward
// each receiver are drawn once and shared between the admission check
// and the precoder (one RTS = one estimate).
func (sc *Scenario) PlanJoinGroup(req JoinRequest, actives []*Active) ([]*Active, error) {
	if len(req.Dests) == 0 {
		return nil, errors.New("mac: join request with no destinations")
	}
	group, err := sc.planJoinGroup(req, actives, sc.beginAttempt(req.Dests[0].Tx))
	if err != nil {
		return nil, err
	}
	return sc.advertiseGroup(group), nil
}

// planJoinGroup is PlanJoinGroup against an attempt-wide planCtx: all
// channel estimates, admission gains, and interference complements
// come from the shared ctx, and every stream allocation visited is
// recorded in ctx.seen so PlanBest's cap sweep never replans an
// identical candidate (errPlanMemo reports such a duplicate).
func (sc *Scenario) planJoinGroup(req JoinRequest, actives []*Active, ctx *planCtx) ([]*Active, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	tx := req.Dests[0]
	k := totalConstraints(actives)
	avail := mimo.MaxStreams(tx.TxAntennas, k)
	if avail < 1 {
		return nil, fmt.Errorf("mac: tx %d has %d antennas, %d DoF in use: %w", tx.Tx, tx.TxAntennas, k, ErrNoDoF)
	}

	// §4 admission: estimate attenuated power at every ongoing
	// receiver; reduce power so residual after ~L dB of cancellation
	// stays below the noise floor. L ≤ 0 disables the check.
	powerScale := 1.0
	if sc.JoinThresholdDB > 0 {
		lLin := channel.FromDB(sc.JoinThresholdDB)
		for _, a := range actives {
			pInt := tx.TxPower * sc.gainAt(ctx, a.Flow.Rx)
			if pInt > lLin {
				if s := lLin / pInt; s < powerScale {
					powerScale = s
				}
			}
		}
	}

	// Cross-receiver alignment spaces for the transmitter's own
	// receivers: the orthogonal complement of the interference each
	// currently sees (its CTS advertises this; with no interference it
	// degenerates to full nulling, UPerp = I).
	crossUPerp := make([][]*cmplxmat.Matrix, len(req.Dests))
	for d, f := range req.Dests {
		crossUPerp[d] = sc.complementAt(ctx, f.Rx, f.RxAntennas, actives)
	}

	// Stream allocation: round-robin one stream at a time, capped by
	// each receiver's antennas; feasibility of cross constraints is
	// verified by the precoder and the allocation shrinks on failure.
	if req.MaxTotalStreams > 0 && avail > req.MaxTotalStreams {
		avail = req.MaxTotalStreams
	}
	alloc := roundRobinAlloc(req.Dests, avail)

	ownEst := make([][]*cmplxmat.Matrix, len(req.Dests))
	for d, f := range req.Dests {
		ownEst[d] = sc.estimateAt(ctx, f.Rx)
	}
	ongoingEst := make([][]*cmplxmat.Matrix, len(actives))
	ongoingRows := make([][]*cmplxmat.Matrix, len(actives))
	for i, a := range actives {
		ongoingEst[i] = sc.estimateAt(ctx, a.Flow.Rx)
		ongoingRows[i] = sc.constraintRowsAt(ctx, a, ongoingEst[i])
	}

	for {
		if !sc.noPlanMemo && ctx.seenAlloc(req.Dests, alloc) {
			return nil, errPlanMemo
		}
		total := 0
		for _, s := range alloc {
			total += s
		}
		if total == 0 {
			return nil, fmt.Errorf("mac: tx %d: no feasible stream allocation: %w", tx.Tx, ErrNoDoF)
		}
		vectors, err := sc.precodeGroup(req, actives, ongoingEst, ongoingRows, ownEst, crossUPerp, alloc, tx.TxPower*powerScale, total)
		if err == nil {
			return sc.buildActives(req, actives, ctx, vectors, alloc, powerScale)
		}
		// Shrink: drop one stream from the most-loaded destination and
		// retry (cross-receiver constraints can make a count infeasible
		// even when raw DoF suffice).
		maxD := 0
		for d := range alloc {
			if alloc[d] > alloc[maxD] {
				maxD = d
			}
		}
		if alloc[maxD] == 0 {
			return nil, err
		}
		alloc[maxD]--
	}
}

// precodeGroup solves Eq. 7 on every bin for the requested
// allocation, returning per-dest per-stream per-bin scaled vectors.
func (sc *Scenario) precodeGroup(req JoinRequest, actives []*Active, ongoingEst, ongoingRows, ownEst [][]*cmplxmat.Matrix, crossUPerp [][]*cmplxmat.Matrix, alloc []int, power float64, total int) ([][][]cmplxmat.Vector, error) {
	tx := req.Dests[0]
	scale := complex(math.Sqrt(power/float64(total)), 0)
	vectors := make([][][]cmplxmat.Vector, len(req.Dests))
	for d := range vectors {
		vectors[d] = make([][]cmplxmat.Vector, alloc[d])
		for s := range vectors[d] {
			vectors[d][s] = make([]cmplxmat.Vector, sc.NumBins)
		}
	}
	// Per-bin scratch, allocated once: ComputePrecoder reads these
	// within the call and retains nothing.
	ongoing := make([]mimo.OngoingReceiver, len(actives))
	own := make([]mimo.OwnReceiver, 0, len(req.Dests))
	destOf := make([]int, 0, len(req.Dests))
	idx := make([]int, 0, len(req.Dests)) // next stream slot per own receiver
	for b := 0; b < sc.NumBins; b++ {
		for i, a := range actives {
			ongoing[i] = mimo.OngoingReceiver{H: ongoingEst[i][b], UPerp: a.UPerp[b], Rows: ongoingRows[i][b]}
		}
		own = own[:0]
		destOf = destOf[:0]
		for d := range req.Dests {
			if alloc[d] == 0 {
				continue
			}
			u := crossUPerp[d][b]
			if u.Rows() == u.Cols() { // identity → plain nulling
				u = nil
			}
			own = append(own, mimo.OwnReceiver{H: ownEst[d][b], UPerp: u, Streams: alloc[d]})
			destOf = append(destOf, d)
		}
		pre, err := mimo.ComputePrecoder(tx.TxAntennas, ongoing, own)
		if err != nil {
			return nil, fmt.Errorf("mac: tx %d bin %d: %w", tx.Tx, b, err)
		}
		idx = idx[:len(own)]
		for i := range idx {
			idx[i] = 0
		}
		for i, v := range pre.Vectors {
			d := destOf[pre.RxIndex[i]]
			v.ScaleInPlace(scale) // precoder vectors are freshly owned
			vectors[d][idx[pre.RxIndex[i]]][b] = v
			idx[pre.RxIndex[i]]++
		}
	}
	return vectors, nil
}

// buildActives wraps the computed vectors into one Active per
// destination and finalizes each receiver's state; siblings see each
// other as known interference.
func (sc *Scenario) buildActives(req JoinRequest, actives []*Active, ctx *planCtx, vectors [][][]cmplxmat.Vector, alloc []int, powerScale float64) ([]*Active, error) {
	var group []*Active
	for d, f := range req.Dests {
		if alloc[d] == 0 {
			continue
		}
		group = append(group, &Active{Flow: f, Streams: alloc[d], Vectors: vectors[d], PowerScale: powerScale})
	}
	for gi, a := range group {
		known := make([]*Active, 0, len(actives)+len(group)-1)
		known = append(known, actives...)
		for gj, sib := range group {
			if gj != gi {
				known = append(known, sib)
			}
		}
		// With no siblings, the interference this receiver sees is
		// exactly the attempt's incumbent set, whose partition
		// complementAt already cached on the ctx.
		var part *binPartition
		if len(group) == 1 {
			part = ctx.parts[a.Flow.Rx]
		}
		if err := sc.finalizeAtReceiver(a, known, part); err != nil {
			return nil, err
		}
	}
	if len(group) == 0 {
		return nil, ErrNoDoF
	}
	return group, nil
}

// finalizeAtReceiver computes, from true channels, the receiver-side
// state of a new transmission: its ZF decoders, join-time SINRs, and
// chosen rate — everything rate adaptation needs to score the plan.
// The advertised decoding space is deliberately NOT built here; see
// advertise. part optionally carries the attempt-cached interference
// partition at this receiver (valid only when actives is exactly the
// incumbent set the cache was built against); bins whose cached basis
// fits the receiver's spare dimensions skip the partition and its QR.
func (sc *Scenario) finalizeAtReceiver(a *Active, actives []*Active, part *binPartition) error {
	n := a.Flow.RxAntennas
	wanted := sc.EffectiveAt(a, a.Flow.Rx, n) // [stream][bin]
	// Interference this receiver currently sees (true effective
	// channels of all ongoing streams). Built lazily: when every bin
	// reuses the cached partition, the raw vectors are never needed.
	var interference [][]cmplxmat.Vector // [stream][bin]
	interferenceBuilt := false
	buildInterference := func() {
		if interferenceBuilt {
			return
		}
		interferenceBuilt = true
		for _, other := range actives {
			interference = append(interference, sc.EffectiveAt(other, a.Flow.Rx, n)...)
		}
	}

	noise := sc.Provider.NoisePower()
	a.decoders = make([]*mimo.Decoder, sc.NumBins)
	a.decodeSpace = make([]*cmplxmat.Matrix, sc.NumBins)
	a.baseLeakage = make([][]cmplxmat.Vector, sc.NumBins)
	a.JoinSINRs = make([][]float64, a.Streams)
	for s := range a.JoinSINRs {
		a.JoinSINRs[s] = make([]float64, sc.NumBins)
	}
	// Per-bin scratch: ColumnsToMatrix and NewDecoder copy what they
	// need, so these buffers are safely reused across bins.
	wantedBin := make([]cmplxmat.Vector, a.Streams)
	var scratch []interfCand
	for b := 0; b < sc.NumBins; b++ {
		// Partition interference: directions the receiver can and
		// should cancel go into the unwanted space; interference below
		// the measurement floor (it cannot even estimate those) or
		// beyond its spare dimensions stays as leakage. The unwanted
		// space is spanned by the returned noise-floor-aware basis —
		// re-deriving it from the raw vectors would rank-inflate on
		// imperfectly aligned interference.
		capacity := n - a.Streams
		var basis, leak []cmplxmat.Vector
		var uPerpInterf *cmplxmat.Matrix
		if part != nil && len(part.basis[b]) <= capacity {
			// The full-capacity partition never overflowed the spare
			// dimensions, so the capacity-limited one is identical —
			// reuse it and its precomputed complement.
			basis, leak = part.basis[b], part.leak[b]
			if len(basis) > 0 {
				uPerpInterf = part.comp[b]
			}
		} else {
			buildInterference()
			basis, leak, scratch = partitionInterferenceScratch(interference, b, noise, capacity, scratch)
			if len(basis) > 0 {
				uPerpInterf = cmplxmat.OrthogonalComplementOfColumns(basis, 0)
			}
		}
		a.baseLeakage[b] = leak
		a.decodeSpace[b] = uPerpInterf
		for s := 0; s < a.Streams; s++ {
			wantedBin[s] = wanted[s][b]
		}
		dec, err := mimo.NewDecoder(n, uPerpInterf, wantedBin)
		if err != nil {
			return fmt.Errorf("mac: flow %d bin %d: receiver cannot separate streams: %w", a.Flow.ID, b, err)
		}
		a.decoders[b] = dec
		for s := 0; s < a.Streams; s++ {
			sinr, err := dec.PostSINR(s, noise, leak)
			if err != nil {
				return err
			}
			a.JoinSINRs[s][b] = sinr
		}
	}

	// Per-packet bitrate from the weakest stream's ESNR (§3.4): one
	// rate covers all streams of the transmission.
	a.Rate, a.RateOK = sc.selectRate(a.JoinSINRs)
	return nil
}

// advertise builds a transmission's advertised decoding space (the
// UPerp its receiver broadcasts in its CTS): the directions actually
// used to decode — projections of the wanted channels onto the
// complement of the current interference, orthonormalized, blurred by
// AlignmentSpaceError. Dimension = wanted stream count n_j, giving
// later joiners exactly n_j constraints (the Σn_j = K accounting of
// §3.3).
//
// It runs once per plan actually handed back to a caller — only a
// returned plan's CTS is ever transmitted, so losing rate-adaptation
// candidates skip both the per-bin orthonormalization and the
// quantization-noise RNG draws. Idempotent.
func (sc *Scenario) advertise(a *Active) {
	if a.UPerp != nil {
		return
	}
	wanted := a.effAt[a.Flow.Rx] // cached by finalizeAtReceiver
	a.UPerp = make([]*cmplxmat.Matrix, sc.NumBins)
	n := a.Flow.RxAntennas
	// Per-bin scratch: the Uᴴ·v projection, then one direction per
	// stream. The directions only feed the basis, which copies them.
	scratch := make(cmplxmat.Vector, (1+a.Streams)*n)
	proj := scratch[:n]
	dirs := make([]cmplxmat.Vector, 0, a.Streams)
	for b := 0; b < sc.NumBins; b++ {
		uPerpInterf := a.decodeSpace[b]
		dirs = dirs[:0]
		for s := 0; s < a.Streams; s++ {
			v := wanted[s][b]
			dir := scratch[(1+s)*n : (2+s)*n]
			if uPerpInterf != nil {
				// U·(Uᴴ·v): two thin mat-vecs instead of building the
				// N×N projector per stream.
				v = uPerpInterf.MulVecInto(dir, uPerpInterf.ConjTransposeMulVecInto(proj[:uPerpInterf.Cols()], v))
			}
			if e := sc.AlignmentSpaceError; e > 0 {
				if uPerpInterf == nil {
					v = dir[:copy(dir, v)] // the EffectiveAt cache is read-only
				}
				sigma := e / math.Sqrt2
				for i := range v {
					mag := real(v[i])*real(v[i]) + imag(v[i])*imag(v[i])
					s := math.Sqrt(mag) * sigma
					v[i] += complex(sc.RNG.NormFloat64()*s, sc.RNG.NormFloat64()*s)
				}
			}
			dirs = append(dirs, v)
		}
		a.UPerp[b] = cmplxmat.OrthonormalBasisOfColumns(dirs, 0)
	}
}

// advertiseGroup runs advertise over every Active of a plan.
func (sc *Scenario) advertiseGroup(group []*Active) []*Active {
	for _, a := range group {
		sc.advertise(a)
	}
	return group
}

// selectRate picks the fastest rate supported by every stream.
func (sc *Scenario) selectRate(sinrs [][]float64) (modulation.Rate, bool) {
	if len(sinrs) == 0 {
		return modulation.Rates[0], false
	}
	best := modulation.Rates[len(modulation.Rates)-1]
	ok := true
	for _, streamSinrs := range sinrs {
		r, rok := sc.Selector.SelectRate(streamSinrs)
		if !rok {
			ok = false
		}
		if r.Index() < best.Index() {
			best = r
		}
	}
	return best, ok
}

// NoteJoiner records a later joiner's true leakage at an incumbent's
// receiver: the incumbent's decoder does not know these directions,
// so they degrade its delivery SINR (the §6.2/§6.3 residual).
func (sc *Scenario) NoteJoiner(incumbent, joiner *Active) {
	eff := sc.EffectiveAt(joiner, incumbent.Flow.Rx, incumbent.Flow.RxAntennas)
	incumbent.laterLeakage = append(incumbent.laterLeakage, eff...)
}

// partitionInterference splits per-bin interference into an
// orthonormal basis of the subspace the receiver cancels (at most
// `capacity` dimensions, strongest interferers first, ignoring
// anything 30 dB below the noise floor) and residual leakage vectors.
// Interference that lies within the already-cancelled subspace up to
// the floor is free — that is exactly what alignment buys (§2); its
// sub-floor residue is negligible by construction.
func partitionInterference(interference [][]cmplxmat.Vector, bin int, noise float64, capacity int) (basis, leak []cmplxmat.Vector) {
	basis, leak, _ = partitionInterferenceScratch(interference, bin, noise, capacity, nil)
	return basis, leak
}

// interfCand is one above-floor interference direction.
type interfCand struct {
	v  cmplxmat.Vector
	pw float64
}

// partitionInterferenceScratch is partitionInterference with a
// caller-owned candidate buffer: per-bin callers pass the returned
// scratch back in so the candidate slice is allocated once per
// receiver instead of once per bin.
func partitionInterferenceScratch(interference [][]cmplxmat.Vector, bin int, noise float64, capacity int, scratch []interfCand) (basis, leak []cmplxmat.Vector, _ []interfCand) {
	floor := noise * 1e-3
	cands := scratch[:0]
	for _, ivs := range interference {
		v := ivs[bin]
		pw := v.NormSq()
		if pw < floor {
			continue // unmeasurable and harmless
		}
		cands = append(cands, interfCand{v: v, pw: pw})
	}
	// Stable insertion sort by descending power: the candidate set is
	// a handful of streams, and this runs per bin per plan — the
	// reflection machinery of sort.SliceStable allocated on every
	// call.
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].pw > cands[j-1].pw; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	for _, c := range cands {
		r := c.v.Clone()
		for _, bv := range basis {
			r.SubScaledInPlace(bv, bv.Dot(r))
		}
		if r.NormSq() <= floor {
			continue // inside the cancelled subspace: free
		}
		if len(basis) < capacity {
			basis = append(basis, r.Normalize())
		} else {
			leak = append(leak, c.v)
		}
	}
	return basis, leak, cands
}

// DeliverySINRs returns the per-stream per-bin SINR at delivery time:
// the join-time decoder confronted with its uncancelled base leakage
// plus the leakage of every later joiner.
func (sc *Scenario) DeliverySINRs(a *Active) ([][]float64, error) {
	noise := sc.Provider.NoisePower()
	out := make([][]float64, a.Streams)
	for s := range out {
		out[s] = make([]float64, sc.NumBins)
	}
	// One leak buffer, rebuilt per bin and shared by every stream:
	// the leakage set does not depend on the stream, and PostSINR only
	// reads it.
	leak := make([]cmplxmat.Vector, 0, len(a.laterLeakage)+4)
	for b := 0; b < sc.NumBins; b++ {
		leak = append(leak[:0], a.baseLeakage[b]...)
		for _, l := range a.laterLeakage {
			leak = append(leak, l[b])
		}
		for s := 0; s < a.Streams; s++ {
			sinr, err := a.decoders[b].PostSINR(s, noise, leak)
			if err != nil {
				return nil, err
			}
			out[s][b] = sinr
		}
	}
	return out, nil
}

// StreamSuccess samples whether stream s of a delivers its payload,
// using the delivery-time SINRs against the rate chosen at join time.
func (sc *Scenario) StreamSuccess(a *Active, deliverySINRs [][]float64, s int) bool {
	if !a.RateOK {
		return false
	}
	p := sc.Selector.PacketSuccessProbability(deliverySINRs[s], a.Rate, sc.PERWidth)
	return sc.RNG.Float64() < p
}

// ErrNoDoF is returned when a flow cannot join because no degrees of
// freedom remain.
var ErrNoDoF = errors.New("mac: no degrees of freedom available")

// roundRobinAlloc spreads up to `avail` streams across destinations,
// one at a time, capped by each receiver's antenna count.
func roundRobinAlloc(dests []Flow, avail int) []int {
	alloc := make([]int, len(dests))
	remaining := avail
	progress := true
	for remaining > 0 && progress {
		progress = false
		for d, f := range dests {
			if remaining == 0 {
				break
			}
			if alloc[d] < f.RxAntennas {
				alloc[d]++
				remaining--
				progress = true
			}
		}
	}
	return alloc
}

// PlanBest performs rate adaptation over both the stream count and
// the destination set: it tries the largest feasible stream count and
// shrinks until every destination sustains a bitrate (real 802.11n
// rate control adapts the stream count the same way — a 3×3 link in a
// fade may support two streams but not three), and a multi-receiver
// transmitter drops destinations whose links cannot sustain any rate
// rather than starving the healthy ones.
//
// beamform selects the multi-user beamforming precoder of [7] (first
// winners with multiple receivers, and the ModeBeamforming baseline);
// otherwise the null-space precoder of Eq. 7 is used. mustTransmit
// distinguishes a primary winner (which sends at the rate floor even
// when no rate is supported — it owns the medium) from a joiner
// (which simply stays out, keeping the incumbents safe).
func (sc *Scenario) PlanBest(req JoinRequest, actives []*Active, beamform, mustTransmit bool) ([]*Active, error) {
	maxCap := req.Dests[0].TxAntennas
	if !beamform {
		maxCap = mimo.MaxStreams(req.Dests[0].TxAntennas, totalConstraints(actives))
	}
	if maxCap < 1 {
		return nil, ErrNoDoF
	}
	// One contention attempt = one channel estimate per receiver: the
	// ctx shares estimates, admission gains, interference complements,
	// and already-planned allocations across every candidate below.
	ctx := sc.beginAttempt(req.Dests[0].Tx)
	// Candidate destination subsets: the full set plus each receiver
	// solo (dropping a receiver whose link is in a fade often unlocks
	// higher aggregate rate than force-sharing streams with it).
	subsets := [][]Flow{req.Dests}
	if len(req.Dests) > 1 {
		for _, f := range req.Dests {
			subsets = append(subsets, []Flow{f})
		}
	}
	// No candidate can beat cap·topRate: once the running best clears
	// that bound the remaining (smaller) caps cannot win and the sweep
	// stops early.
	topRate := modulation.Rates[len(modulation.Rates)-1].DataRateMbps(20)
	var best []*Active
	bestCover := -1
	bestScore := -1.0
	var fallback []*Active
	var lastErr error
	for _, dests := range subsets {
		if best != nil && !sc.noPlanMemo && len(dests) < bestCover {
			continue // coverage dominates: a smaller subset cannot win
		}
		for cap := maxCap; cap >= 1; cap-- {
			if best != nil && !sc.noPlanMemo && bestCover >= len(dests) &&
				float64(cap)*topRate <= bestScore {
				break // no remaining cap can beat the running best
			}
			r := JoinRequest{Dests: dests, MaxTotalStreams: cap}
			var group []*Active
			var err error
			if beamform {
				group, err = sc.planBeamforming(r, ctx)
			} else {
				group, err = sc.planJoinGroup(r, actives, ctx)
			}
			if err == errPlanMemo {
				continue // duplicate allocation, outcome already counted
			}
			if err != nil {
				lastErr = err
				continue
			}
			if fallback == nil {
				fallback = group
			}
			score := 0.0
			allOK := true
			for _, a := range group {
				if a.RateOK {
					score += float64(a.Streams) * a.Rate.DataRateMbps(20)
				} else {
					allOK = false
				}
			}
			if !allOK {
				continue // partial plans lose air time to doomed streams
			}
			// Coverage dominates rate: the traffic demands every
			// destination, so a plan serving all of them beats a faster
			// plan that starves one (clients whose links are truly dead
			// still fall out, because no covering plan is feasible).
			if len(group) > bestCover || (len(group) == bestCover && score > bestScore) {
				bestCover = len(group)
				bestScore = score
				best = group
			}
			// Keep scanning smaller caps: fewer streams concentrate
			// power and can sustain a disproportionately higher rate.
		}
	}
	if best != nil {
		return sc.advertiseGroup(best), nil
	}
	if fallback != nil {
		if mustTransmit {
			// The medium is won: send at the floor.
			return sc.advertiseGroup(fallback), nil
		}
		return nil, fmt.Errorf("mac: tx %d: no destination sustains a rate", req.Dests[0].Tx)
	}
	if lastErr == nil {
		lastErr = ErrNoDoF
	}
	return nil, lastErr
}

// planBeamforming computes a multi-user beamforming transmission per
// Aryafar et al. [7] — the §6.4 baseline — against an attempt-wide
// planCtx (shared estimates + allocation memo), mirroring
// planJoinGroup. Beamforming has no notion of joining: the request
// must be the only transmission on the medium (the winner pre-codes
// all streams itself).
func (sc *Scenario) planBeamforming(req JoinRequest, ctx *planCtx) ([]*Active, error) {
	if err := req.validate(); err != nil {
		return nil, err
	}
	tx := req.Dests[0]
	// Stream allocation: round-robin up to each receiver's antennas,
	// bounded by transmit antennas.
	avail := tx.TxAntennas
	if req.MaxTotalStreams > 0 && avail > req.MaxTotalStreams {
		avail = req.MaxTotalStreams
	}
	alloc := roundRobinAlloc(req.Dests, avail)
	if !sc.noPlanMemo && ctx.seenAlloc(req.Dests, alloc) {
		return nil, errPlanMemo
	}
	total := 0
	for _, s := range alloc {
		total += s
	}
	if total == 0 {
		return nil, ErrNoDoF
	}
	scale := complex(math.Sqrt(tx.TxPower/float64(total)), 0)

	ownEst := make([][]*cmplxmat.Matrix, len(req.Dests))
	for d, f := range req.Dests {
		ownEst[d] = sc.estimateAt(ctx, f.Rx)
	}
	vectors := make([][][]cmplxmat.Vector, len(req.Dests))
	for d := range vectors {
		vectors[d] = make([][]cmplxmat.Vector, alloc[d])
		for s := range vectors[d] {
			vectors[d][s] = make([]cmplxmat.Vector, sc.NumBins)
		}
	}
	chans := make([]*cmplxmat.Matrix, len(req.Dests))
	idx := make([]int, len(req.Dests))
	for b := 0; b < sc.NumBins; b++ {
		for d := range req.Dests {
			chans[d] = ownEst[d][b]
		}
		pre, err := mimo.BeamformingPrecoder(tx.TxAntennas, chans, alloc)
		if err != nil {
			return nil, fmt.Errorf("mac: beamforming bin %d: %w", b, err)
		}
		for i := range idx {
			idx[i] = 0
		}
		for i, v := range pre.Vectors {
			d := pre.RxIndex[i]
			v.ScaleInPlace(scale) // precoder vectors are freshly owned
			vectors[d][idx[d]][b] = v
			idx[d]++
		}
	}
	return sc.buildActives(req, nil, ctx, vectors, alloc, 1)
}
