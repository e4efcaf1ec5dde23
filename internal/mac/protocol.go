package mac

import (
	"fmt"
	"math/rand"
	"sort"

	"nplus/internal/obs"
	"nplus/internal/sim"
	"nplus/internal/traffic"
)

// Protocol is the event-driven n+ MAC: per-node CSMA/CA with DIFS,
// slotted backoff with frozen counters, binary exponential backoff on
// loss, and — uniquely to n+ — secondary contention for unused
// degrees of freedom while the medium is occupied (§3.1). It runs on
// the sim engine and produces the medium-access behavior of Fig. 5.
//
// Carrier sense here operates at protocol level: a station knows the
// number of occupied degrees of freedom from the light-weight
// handshakes it decodes (the signal-level projection machinery that
// makes this possible is implemented and evaluated in package mimo /
// Fig. 9). A station with more antennas than occupied DoF keeps
// counting down its backoff; others freeze.
//
// Which handshakes a station decodes is governed by an optional
// HearingGraph (SetHearing). Without one, every station hears every
// transmission — the historical single collision domain, reproduced
// bit-for-bit. With one, medium state is per-station: a station
// senses only the transmissions it hears, so distant stations
// transmit concurrently, hidden terminals collide at a shared
// receiver, and secondary contention counts only locally heard DoF.
// The hearing graph's connected components shard all contention
// bookkeeping (contender index, in-flight transmissions, re-arm
// fan-out), so a multi-building deployment costs the sum of its
// parts: a medium transition touches only its own component.
type Protocol struct {
	Eng      *sim.Engine
	Sc       *Scenario
	Cfg      EpochConfig
	stations []*station
	graph    *HearingGraph
	// domains shard the medium: one per connected component of the
	// hearing graph (a single domain when no graph is set), in order
	// of each component's first station.
	domains []*domain
	stats   map[int]*FlowStats
	// startOf records when each active entered the medium: a joiner
	// only has the window from its join to the joint end, so its air
	// time (and byte credit) must not count the primary's head start.
	startOf map[*Active]float64
	// Spatial concurrency gauges: how many transmissions (and how many
	// distinct components) were in flight at once, at peak.
	inFlight           int
	busyDomains        int
	peakConcurrent     int
	peakBusyComponents int
	started            bool

	// Observability sinks (SetObserve). All nil/zero by default: the
	// disabled path is a nil check per call site, no event structs, no
	// formatting, no allocation.
	rec        *obs.Recorder
	met        *obs.Metrics
	probeEvery float64
	// domainBase offsets local domain ids into the global component
	// numbering, so events from sharded engines carry globally
	// meaningful domain labels.
	domainBase int
	// domQueue tracks each domain's total queued packets (metrics
	// only — maintained solely when a registry is attached).
	domQueue map[*domain]int

	// Dynamic-population state (see dynamic.go). byTx and flowAt index
	// the live stations; domainOf keys each domain by its component
	// anchor so domains survive renumbering across membership changes;
	// domainSeq hands out ids to domains born mid-run; retired absorbs
	// the accounting of domains whose stations all departed; onDetach
	// lets the run controller unwind a departed station's node from
	// the graph and deployment.
	byTx      map[NodeID]*station
	flowAt    map[int]flowRef
	domainOf  map[NodeID]*domain
	domainSeq int
	retired   DomainStats
	onDetach  func(NodeID)
}

// flowRef locates one flow inside its owning station.
type flowRef struct {
	st *station
	fi int
}

// domain is one collision domain: the contention bookkeeping of a
// single connected component of the hearing graph. All state a medium
// transition touches lives here, so transitions in one component
// never scan another component's stations.
type domain struct {
	id int
	// contenders indexes, sorted by station id, the stations of this
	// domain that can currently contend for the medium: not
	// transmitting, and (for open-loop stations) with a non-empty
	// queue. Medium transitions touch only this set, so thousands of
	// idle open-loop stations cost nothing.
	contenders []*station
	// txns are the in-flight joint transmissions of this domain, in
	// start order. A clique domain holds at most one (everyone defers
	// to it); with partial hearing, hidden terminals start concurrent
	// ones.
	txns []*transmission
	wins int64
	// served counts the open-loop packets this domain's stations
	// completed.
	served int64
	// dead marks a domain SyncDomains retired (its stations merged
	// elsewhere or departed); late bookings (an in-flight ACK window)
	// fall through to Protocol.retired.
	dead bool
	// dataTime / overheadTime decompose this domain's medium occupancy:
	// data is the primary transmission window (joiners overlap it),
	// overhead is primary handshakes plus the SIFS+ACK phase. Each
	// interval is booked only when the event that ends it fires, so a
	// run cut off mid-transmission never counts the unfinished window.
	// Keeping the books per domain attributes spatial-reuse excess
	// (Σ busy time > duration) to the component that earned it — and
	// gives a sharded parallel run nothing to merge but a slice append.
	dataTime     float64
	overheadTime float64
}

// transmission is one joint transmission: a primary winner plus any
// secondary joiners, sharing a single end time (§3.1: joiners must
// end with the first winner).
type transmission struct {
	dom *domain
	// stations in join order; groups holds each one's Actives.
	stations []*station
	groups   map[*station][]*Active
	// actives flattens the groups in join order — the incumbent list a
	// later (fully hearing) joiner plans against.
	actives []*Active
	end     float64
	dataDur float64
}

type station struct {
	id      int // index into Protocol.stations
	tx      NodeID
	dom     *domain
	flows   []Flow
	backoff int // remaining slots
	cw      int
	pending *sim.EventHandle
	// armedAt is when the pending countdown was armed: frozen-counter
	// crediting measures consumed DIFS+slots from this instant.
	armedAt float64
	// contending mirrors membership in dom.contenders.
	contending bool
	// txActive true while this station transmits
	txActive bool
	retries  int
	// departing is set by RemoveStation: the station finishes any
	// in-flight transmission, then detaches. gone marks a fully
	// detached station — it holds no protocol state beyond its
	// accumulated flow stats.
	departing bool
	gone      bool

	// Open-loop traffic state (nil queue = fully backlogged, the
	// seed behavior). srcs and arrRNGs parallel flows; a nil source
	// means that flow receives no arrivals.
	queue   *traffic.Queue
	srcs    []traffic.Source
	arrRNGs []*rand.Rand
	// credit[flowID] accumulates successfully carried bytes toward the
	// head-of-line packet: a transmission is sized to stripe one
	// payload over its streams (and a joiner gets whatever air time
	// remains), so a packet completes when enough bytes have been
	// delivered across transmissions — the fragmentation/aggregation
	// view of §3.1.
	credit map[int]float64
}

// openLoop reports whether the station transmits from a bounded queue
// fed by an arrival process rather than being always backlogged.
func (st *station) openLoop() bool { return st.queue != nil }

// wantsMedium reports whether a station belongs in the contender
// index: it has something to send and is not already transmitting.
func (st *station) wantsMedium() bool {
	return !st.txActive && (!st.openLoop() || st.queue.Len() > 0)
}

// addContender inserts st into its domain's id-sorted contender index.
func (p *Protocol) addContender(st *station) {
	if st.contending {
		return
	}
	st.contending = true
	d := st.dom
	i := sort.Search(len(d.contenders), func(i int) bool { return d.contenders[i].id >= st.id })
	d.contenders = append(d.contenders, nil)
	copy(d.contenders[i+1:], d.contenders[i:])
	d.contenders[i] = st
}

// removeContender drops st from its domain's contender index.
func (p *Protocol) removeContender(st *station) {
	if !st.contending {
		return
	}
	st.contending = false
	d := st.dom
	i := sort.Search(len(d.contenders), func(i int) bool { return d.contenders[i].id >= st.id })
	d.contenders = append(d.contenders[:i], d.contenders[i+1:]...)
}

// NewProtocol builds the event-driven MAC over the given flows
// (grouped by transmitter) with a fully backlogged traffic model and
// the global medium (call SetHearing to shard it).
func NewProtocol(eng *sim.Engine, sc *Scenario, flows []Flow, cfg EpochConfig) (*Protocol, error) {
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	groups, order := groupByTx(flows)
	p := &Protocol{
		Eng:     eng,
		Sc:      sc,
		Cfg:     cfg,
		stats:   make(map[int]*FlowStats),
		startOf: make(map[*Active]float64),
		byTx:    make(map[NodeID]*station),
		flowAt:  make(map[int]flowRef),
	}
	for i, tx := range order {
		st := &station{id: i, tx: tx, flows: groups[tx], cw: cfg.Timing.CWMin}
		p.stations = append(p.stations, st)
		p.byTx[tx] = st
		for fi, f := range groups[tx] {
			p.stats[f.ID] = &FlowStats{}
			p.flowAt[f.ID] = flowRef{st: st, fi: fi}
		}
	}
	p.buildDomains()
	return p, nil
}

// SetHearing installs the hearing graph the protocol senses the
// medium through and shards the contention bookkeeping along its
// connected components. A nil graph restores the global medium. Must
// be called before Start.
func (p *Protocol) SetHearing(g *HearingGraph) {
	if p.started {
		panic("mac: SetHearing after Start")
	}
	p.graph = g
	p.buildDomains()
}

// buildDomains partitions the stations into collision domains by the
// hearing graph's components, numbering domains in order of their
// first station so the layout is deterministic.
func (p *Protocol) buildDomains() {
	p.domains = nil
	p.domainOf = make(map[NodeID]*domain)
	byComp := make(map[int]*domain)
	for _, st := range p.stations {
		c := p.graph.ComponentOf(st.tx)
		d, ok := byComp[c]
		if !ok {
			d = &domain{id: len(p.domains)}
			byComp[c] = d
			p.domains = append(p.domains, d)
			if p.graph != nil {
				p.domainOf[p.graph.ComponentAnchor(st.tx)] = d
			}
		}
		st.dom = d
	}
	p.domainSeq = len(p.domains)
}

// ObserveConfig attaches observability sinks to a protocol run. Any
// subset may be nil/zero; the zero value observes nothing.
type ObserveConfig struct {
	// Recorder collects the typed event stream.
	Recorder *obs.Recorder
	// Metrics receives counters, gauges, and (when probing) histograms.
	Metrics *obs.Metrics
	// ProbeIntervalS samples each domain's queue depth, in-flight
	// transmissions, and CW distribution every interval of virtual
	// time. 0 disables probes. Probes read protocol state only — they
	// never draw from the RNG or mutate the MAC, so enabling them
	// leaves the simulated behavior bit-identical.
	ProbeIntervalS float64
	// DomainBase offsets this engine's local domain ids into the
	// global component numbering (a sharded engine passes its
	// component id; a whole-network engine passes 0).
	DomainBase int
}

// SetObserve installs observability sinks. Must be called before
// Start.
func (p *Protocol) SetObserve(cfg ObserveConfig) {
	if p.started {
		panic("mac: SetObserve after Start")
	}
	p.rec = cfg.Recorder
	p.met = cfg.Metrics
	p.probeEvery = cfg.ProbeIntervalS
	p.domainBase = cfg.DomainBase
	if p.met != nil {
		p.domQueue = make(map[*domain]int, len(p.domains))
	}
}

// emitting reports whether anything consumes typed events — the guard
// call sites use before building an Event (and any strings it needs).
func (p *Protocol) emitting() bool { return p.rec != nil }

// emit stamps an event with the current virtual time and the global
// domain id and records it. The text trace is rendered from the
// recorded stream (obs.TraceLines).
func (p *Protocol) emit(ev obs.Event) {
	ev.At = p.Eng.Now()
	ev.Domain += p.domainBase
	if p.emitting() {
		p.rec.Emit(ev)
	}
}

// gdom maps a domain to its global component id.
func (p *Protocol) gdom(d *domain) int { return d.id + p.domainBase }

// probe samples every domain's queue depth, in-flight transmissions,
// and contention windows, emits one probe event per domain, feeds the
// histograms, and re-arms itself. One pass over the stations serves
// all domains.
func (p *Protocol) probe() {
	// Domains are visited in p.domains order but indexed by position,
	// not id: domains born mid-run carry ids beyond the slice length.
	pos := make(map[*domain]int, len(p.domains))
	for i, d := range p.domains {
		pos[d] = i
	}
	queues := make([]int, len(p.domains))
	cwSum := make([]int, len(p.domains))
	nSt := make([]int, len(p.domains))
	for _, st := range p.stations {
		if st.gone {
			continue
		}
		i := pos[st.dom]
		if st.openLoop() {
			queues[i] += st.queue.Len()
		}
		cwSum[i] += st.cw
		nSt[i]++
		if p.met != nil {
			p.met.Observe(obs.MetricCW, p.gdom(st.dom), float64(st.cw))
		}
	}
	for i, d := range p.domains {
		mean := 0.0
		if nSt[i] > 0 {
			mean = float64(cwSum[i]) / float64(nSt[i])
		}
		if p.met != nil {
			g := p.gdom(d)
			p.met.Observe(obs.MetricQueueDepth, g, float64(queues[i]))
			p.met.Observe(obs.MetricInFlight, g, float64(len(d.txns)))
		}
		if p.emitting() {
			p.emit(obs.Event{
				Domain: d.id, Kind: obs.KindProbe, Station: -1, Node: -1,
				Probe: &obs.ProbeSample{Queue: queues[i], InFlight: len(d.txns), CWMean: mean},
			})
		}
	}
	p.Eng.Schedule(p.probeEvery, p.probe)
}

// Stats returns the per-flow statistics collected so far.
func (p *Protocol) Stats() map[int]*FlowStats { return p.stats }

// MediumTime returns the accumulated medium-occupancy split: data is
// virtual seconds spent in completed data-transmission windows,
// overhead is handshake plus completed ACK-phase time, both summed
// over all collision domains. A window the run cut off mid-flight is
// not counted. In a single domain data+overhead never exceeds the run
// duration; with spatial reuse the sum can exceed it (concurrent
// components each occupy their own medium).
func (p *Protocol) MediumTime() (data, overhead float64) {
	data, overhead = p.retired.DataTime, p.retired.OverheadTime
	for _, d := range p.domains {
		data += d.dataTime
		overhead += d.overheadTime
	}
	return data, overhead
}

// Components returns the number of collision domains the run is
// sharded into (1 without a hearing graph).
func (p *Protocol) Components() int { return len(p.domains) }

// PeakConcurrentTxns returns the maximum number of joint transmissions
// that were in flight simultaneously, across all domains. Values
// above 1 are impossible under the historical global medium: they
// require either sharded components or hidden terminals.
func (p *Protocol) PeakConcurrentTxns() int { return p.peakConcurrent }

// PeakBusyComponents returns the maximum number of distinct collision
// domains that held an in-flight transmission at the same instant —
// direct evidence of spatial reuse across components.
func (p *Protocol) PeakBusyComponents() int { return p.peakBusyComponents }

// DomainWins returns the number of primary contention wins per
// collision domain, in domain order.
func (p *Protocol) DomainWins() []int64 {
	out := make([]int64, len(p.domains))
	for i, d := range p.domains {
		out[i] = d.wins
	}
	return out
}

// DomainStats is one collision domain's share of a run: contention
// wins, open-loop packets served, and the medium-occupancy split. In a
// sharded deployment Σ(DataTime+OverheadTime) over domains can exceed
// the run duration — the per-domain breakdown attributes that
// spatial-reuse excess to the component that earned it.
type DomainStats struct {
	Wins         int64
	Served       int64
	DataTime     float64
	OverheadTime float64
}

// DomainBreakdown returns per-domain accounting, in domain order.
func (p *Protocol) DomainBreakdown() []DomainStats {
	out := make([]DomainStats, len(p.domains))
	for i, d := range p.domains {
		out[i] = DomainStats{Wins: d.wins, Served: d.served, DataTime: d.dataTime, OverheadTime: d.overheadTime}
	}
	return out
}

// SetTraffic switches stations from the fully backlogged model to
// open-loop arrivals: newSource is called once per flow (a nil return
// means that flow receives no arrivals; a station whose flows all
// return nil stays saturated), and each station gets a bounded packet
// queue of queueCap packets (default 64). Stations with a queue
// contend only while it is non-empty — they contend on arrival and go
// idle when drained — and record per-packet queueing+service delay.
// Every flow's arrival stream draws from its own RNG derived from the
// sim engine's seed, so the stream is deterministic and independent
// of how the MAC interleaves events. Must be called before Start.
func (p *Protocol) SetTraffic(newSource func(f Flow) traffic.Source, queueCap int) {
	if queueCap < 1 {
		queueCap = 64
	}
	for _, st := range p.stations {
		srcs := make([]traffic.Source, len(st.flows))
		rngs := make([]*rand.Rand, len(st.flows))
		any := false
		for i, f := range st.flows {
			srcs[i] = newSource(f)
			rngs[i] = rand.New(rand.NewSource(p.Eng.RNG().Int63()))
			if srcs[i] != nil {
				any = true
			}
		}
		if !any {
			continue // fully backlogged station
		}
		st.queue = traffic.NewQueue(queueCap)
		st.srcs = srcs
		st.arrRNGs = rngs
		st.credit = make(map[int]float64, len(st.flows))
	}
}

// Start arms every station's first contention and, for open-loop
// stations, primes each flow's arrival process.
func (p *Protocol) Start() {
	p.started = true
	if p.probeEvery > 0 && (p.met != nil || p.emitting()) {
		p.Eng.Schedule(p.probeEvery, p.probe)
	}
	for _, st := range p.stations {
		st.backoff = p.Sc.RNG.Intn(st.cw + 1)
		if st.wantsMedium() {
			p.addContender(st)
			p.armCountdown(st)
		}
		if st.openLoop() {
			for fi, src := range st.srcs {
				if src != nil {
					p.scheduleArrival(st, fi)
				}
			}
		}
	}
}

// scheduleArrival books flow fi's next packet arrival at this station.
func (p *Protocol) scheduleArrival(st *station, fi int) {
	delay := st.srcs[fi].Next(st.arrRNGs[fi])
	p.Eng.Schedule(delay, func() { p.arrive(st, fi) })
}

// arrive enqueues one packet for flow fi; if the station was idle
// (empty queue), it begins contending immediately — the open-loop
// counterpart of "always backlogged".
func (p *Protocol) arrive(st *station, fi int) {
	if st.gone || st.departing {
		return // departed (or draining out): stop the arrival process
	}
	f := st.flows[fi]
	fs := p.stats[f.ID]
	fs.Arrivals++
	if p.met != nil {
		p.met.Count(obs.MetricArrivals, p.gdom(st.dom), 1)
	}
	wasEmpty := st.queue.Len() == 0
	if !st.queue.Enqueue(traffic.Packet{Flow: f.ID, Bytes: p.Cfg.PacketBytes, ArrivedAt: p.Eng.Now()}) {
		fs.Drops++
		if p.met != nil {
			p.met.Count(obs.MetricDrops, p.gdom(st.dom), 1)
		}
		if p.emitting() {
			p.emit(obs.Event{Domain: st.dom.id, Kind: obs.KindDrop, Station: st.id, Node: int(st.tx), Flow: f.ID})
		}
	} else {
		if p.met != nil {
			p.domQueue[st.dom]++
			p.met.GaugeMax(obs.MetricPeakQueue, p.gdom(st.dom), float64(p.domQueue[st.dom]))
		}
		if wasEmpty && !st.txActive {
			p.addContender(st)
			p.armCountdown(st)
		}
	}
	p.scheduleArrival(st, fi)
}

// heardState collects the medium as station st senses it: the total
// degrees of freedom occupied by transmissions it can hear, the
// in-flight transmissions it hears at least one member of, and the
// heard incumbents themselves (in join order — the actives a plan may
// protect; unheard members of a heard transmission stay invisible, a
// joiner cannot null toward a handshake it never decoded). Under a
// clique (or no graph) this is exactly the domain's full incumbent
// set, reproducing the historical global medium state.
func (p *Protocol) heardState(st *station) (k int, heard []*transmission, known []*Active) {
	for _, txn := range st.dom.txns {
		h := false
		for _, ms := range txn.stations {
			if p.graph.Hears(st.tx, ms.tx) {
				h = true
				for _, a := range txn.groups[ms] {
					k += a.Streams
					known = append(known, a)
				}
			}
		}
		if h {
			heard = append(heard, txn)
		}
	}
	return k, heard, known
}

// heardCount is the allocation-free core of heardState for the hot
// eligibility path: the heard DoF, the number of distinct heard
// transmissions, and the one heard transmission (nil unless exactly
// one). Every medium transition re-evaluates eligibility for each
// contender that hears it, so this must not allocate — the full
// slice-building heardState runs only in win().
func (p *Protocol) heardCount(st *station) (k, heardTxns int, only *transmission) {
	for _, txn := range st.dom.txns {
		h := false
		for _, ms := range txn.stations {
			if p.graph.Hears(st.tx, ms.tx) {
				h = true
				for _, a := range txn.groups[ms] {
					k += a.Streams
				}
			}
		}
		if h {
			heardTxns++
			only = txn
		}
	}
	if heardTxns != 1 {
		only = nil
	}
	return k, heardTxns, only
}

// eligible reports whether a station may currently contend: its local
// medium idle, or n+ secondary contention with spare antennas beyond
// the locally heard DoF and enough remaining air time to be useful. A
// station hearing members of two distinct concurrent transmissions
// stays frozen: there is no single joint end time to align with.
func (p *Protocol) eligible(st *station) bool {
	if st.txActive {
		return false
	}
	if st.openLoop() && st.queue.Len() == 0 {
		return false // nothing to send: idle until the next arrival
	}
	k, heardTxns, only := p.heardCount(st)
	if heardTxns == 0 {
		return true
	}
	if p.Cfg.Mode != ModeNPlus {
		return false
	}
	if heardTxns > 1 {
		return false
	}
	if st.flows[0].TxAntennas <= k {
		return false
	}
	remaining := only.end - p.Eng.Now()
	return remaining > p.Cfg.Timing.HandshakeOverhead()+p.Cfg.Timing.DIFS
}

// armCountdown schedules the end of a station's DIFS+backoff
// countdown if it is eligible; ineligible stations stay frozen and
// re-arm on the next medium transition they hear.
func (p *Protocol) armCountdown(st *station) {
	if !p.eligible(st) {
		return
	}
	t := p.Cfg.Timing
	delay := t.DIFS + float64(st.backoff)*t.Slot
	p.Eng.Cancel(st.pending)
	st.armedAt = p.Eng.Now()
	st.pending = p.Eng.Schedule(delay, func() { p.win(st) })
}

// freeze cancels a station's live countdown, crediting the slots it
// consumed since ITS OWN countdown was armed (frozen counters, as in
// 802.11): a station that sensed the medium free for DIFS plus k
// slots resumes the next round with backoff reduced by k. Time inside
// the station's DIFS earns no credit, and a countdown that already
// fired or froze is left untouched.
func (p *Protocol) freeze(st *station) {
	if !st.pending.Live() {
		return
	}
	if p.met != nil {
		p.met.Count(obs.MetricFreezes, p.gdom(st.dom), 1)
	}
	if p.emitting() {
		p.emit(obs.Event{Domain: st.dom.id, Kind: obs.KindFreeze, Station: st.id, Node: int(st.tx)})
	}
	p.Eng.Cancel(st.pending)
	elapsed := p.Eng.Now() - st.armedAt - p.Cfg.Timing.DIFS
	if elapsed > 0 {
		consumed := int(elapsed / p.Cfg.Timing.Slot)
		st.backoff -= consumed
		if st.backoff < 0 {
			st.backoff = 0
		}
	}
}

// notePeak refreshes the spatial-concurrency gauges after a
// transmission starts.
func (p *Protocol) notePeak() {
	if p.inFlight > p.peakConcurrent {
		p.peakConcurrent = p.inFlight
	}
	if p.busyDomains > p.peakBusyComponents {
		p.peakBusyComponents = p.busyDomains
	}
}

// win fires when a station's backoff expires: it transmits (primary,
// possibly concurrently with transmissions it cannot hear) or joins
// the one transmission it hears (secondary).
func (p *Protocol) win(st *station) {
	dests := st.flows
	if st.openLoop() {
		// Serve only flows with queued packets: an AP with one busy
		// client must not waste streams on drained ones.
		dests = make([]Flow, 0, len(st.flows))
		for _, f := range st.flows {
			if st.queue.CountFlow(f.ID) > 0 {
				dests = append(dests, f)
			}
		}
		if len(dests) == 0 {
			p.removeContender(st)
			return // drained since arming; idle until the next arrival
		}
	}
	k, heard, known := p.heardState(st)
	isPrimary := len(heard) == 0
	if !isPrimary && len(heard) > 1 {
		// Ambiguous joint end (two concurrent transmissions audible):
		// stay frozen until a transition re-arms us.
		return
	}
	req := JoinRequest{Dests: dests}
	beamform := isPrimary && (p.Cfg.Mode == ModeBeamforming || len(req.Dests) > 1)
	group, err := p.Sc.PlanBest(req, known, beamform, isPrimary)
	if err != nil {
		// Cannot transmit without harming incumbents: back off again
		// and wait for the local medium to clear. With a busy medium
		// the finish() transition re-arms every hearer; with an idle
		// one no transition may ever come, so re-arm directly — an
		// open-loop station could otherwise stall with a full queue
		// until another station happens to transmit.
		if p.met != nil {
			p.met.Count(obs.MetricBlocked, p.gdom(st.dom), 1)
		}
		if p.emitting() {
			p.emit(obs.Event{Domain: st.dom.id, Kind: obs.KindBlocked, Station: st.id, Node: int(st.tx), Detail: err.Error()})
		}
		st.backoff = p.Sc.RNG.Intn(st.cw + 1)
		if isPrimary {
			p.armCountdown(st)
		}
		return
	}
	st.txActive = true
	p.removeContender(st)
	st.backoff = p.Sc.RNG.Intn(st.cw + 1) // fresh draw for next round
	t := p.Cfg.Timing

	var txn *transmission
	if isPrimary {
		totalStreams := 0
		rate := group[0].Rate
		for _, a := range group {
			totalStreams += a.Streams
			if a.Rate.Index() < rate.Index() {
				rate = a.Rate
			}
			p.stats[a.Flow.ID].Wins++
		}
		bps := rate.DataRateMbps(p.Cfg.BandwidthMHz) * 1e6
		dataDur := float64(p.Cfg.PacketBytes*8) / (bps * float64(totalStreams))
		txn = &transmission{
			dom:     st.dom,
			groups:  make(map[*station][]*Active),
			end:     p.Eng.Now() + t.HandshakeOverhead() + dataDur,
			dataDur: dataDur,
		}
		if len(st.dom.txns) == 0 {
			p.busyDomains++
		}
		st.dom.txns = append(st.dom.txns, txn)
		st.dom.wins++
		p.inFlight++
		p.notePeak()
		p.Eng.ScheduleAt(txn.end, func() { p.finish(txn) })
		if p.met != nil {
			g := p.gdom(st.dom)
			p.met.Count(obs.MetricWins, g, 1)
			p.met.GaugeMax(obs.MetricPeakInFlight, g, float64(len(st.dom.txns)))
		}
		if p.emitting() {
			p.emit(obs.Event{
				Domain: st.dom.id, Kind: obs.KindContentionWin, Station: st.id, Node: int(st.tx),
				Flows: flowIDs(group), Streams: totalStreams, Rate: rate.String(),
			})
		}
	} else {
		txn = heard[0]
		for _, inc := range known {
			for _, a := range group {
				p.Sc.NoteJoiner(inc, a)
			}
		}
		n := 0
		for _, a := range group {
			p.stats[a.Flow.ID].Joins++
			n += a.Streams
		}
		if p.met != nil {
			p.met.Count(obs.MetricJoins, p.gdom(st.dom), 1)
		}
		if p.emitting() {
			p.emit(obs.Event{
				Domain: st.dom.id, Kind: obs.KindJoin, Station: st.id, Node: int(st.tx),
				Flows: flowIDs(group), Streams: n, DoF: k + n,
			})
		}
	}
	txn.stations = append(txn.stations, st)
	txn.groups[st] = group
	txn.actives = append(txn.actives, group...)
	for _, a := range group {
		p.startOf[a] = p.Eng.Now()
	}
	p.crossLeakage(st, group, known)

	// Medium state changed for every contender that hears this
	// transmitter: they re-evaluate (the winner itself just left the
	// index). Contenders out of earshot keep counting down — that is
	// the spatial reuse. Under a clique this touches every contender,
	// in id order, exactly as the global medium did.
	for _, other := range st.dom.contenders {
		if p.graph.Hears(other.tx, st.tx) {
			p.freeze(other)
			p.armCountdown(other)
		}
	}
}

// flowIDs lists a planned group's flow ids, for event payloads.
func flowIDs(group []*Active) []int {
	ids := make([]int, len(group))
	for i, a := range group {
		ids[i] = a.Flow.ID
	}
	return ids
}

// crossLeakage wires the interference between a freshly started group
// and every concurrent active the planner did NOT know about (hidden
// terminals: members of other transmissions — or unheard members of
// the joined one — whose handshakes st never decoded). Neither side's
// precoder protects the other, so wherever a receiver can hear the
// opposing transmitter the signal lands as uncancelled leakage and
// degrades delivery SINR — the collision-at-the-shared-receiver that
// the single-domain model could never produce. Signals below the
// hearing threshold are treated as noise-floor residue and skipped.
// Under a clique every active is known, so this is a no-op and the
// historical behavior (and RNG stream) is untouched.
func (p *Protocol) crossLeakage(st *station, group, known []*Active) {
	knownSet := make(map[*Active]bool, len(known))
	for _, a := range known {
		knownSet[a] = true
	}
	for _, txn := range st.dom.txns {
		for _, o := range txn.actives {
			if knownSet[o] || o.Flow.Tx == st.tx {
				continue
			}
			for _, a := range group {
				if p.graph.Hears(o.Flow.Rx, st.tx) {
					p.Sc.NoteJoiner(o, a) // victim's receiver collects our signal
				}
				if p.graph.Hears(a.Flow.Rx, o.Flow.Tx) {
					p.Sc.NoteJoiner(a, o) // our receiver collects theirs
				}
			}
		}
	}
}

// serveCredit adds delivered bytes to a flow's credit and completes
// as many queued packets as the credit covers (half a byte of slack
// absorbs float rounding on exactly-sized transmissions). Credit
// never outlives the backlog it pays for.
func (p *Protocol) serveCredit(st *station, flowID int, delivered float64) {
	fs := p.stats[flowID]
	cr := st.credit[flowID] + delivered
	for cr+0.5 >= float64(p.Cfg.PacketBytes) {
		pkt, got := st.queue.DequeueFlow(flowID)
		if !got {
			break
		}
		fs.Served++
		st.dom.served++
		if p.met != nil {
			p.met.Count(obs.MetricServed, p.gdom(st.dom), 1)
			p.domQueue[st.dom]--
		}
		fs.Delay.Observe(p.Eng.Now() - pkt.ArrivedAt)
		cr -= float64(pkt.Bytes)
	}
	if cr < 0 || st.queue.CountFlow(flowID) == 0 {
		cr = 0 // credit cannot pre-pay packets that have not arrived
	}
	st.credit[flowID] = cr
}

// finish ends one joint transmission: concurrent ACKs, delivery
// sampling, stats, and a fresh contention round for the stations that
// heard it. Other transmissions — in other domains, or hidden in this
// one — are untouched.
func (p *Protocol) finish(txn *transmission) {
	t := p.Cfg.Timing
	// Stable station order: join order could differ from id order.
	// (Insertion sort: at most a handful of concurrent transmitters,
	// and sort.Slice's reflection swapper allocates per call.)
	stations := append([]*station(nil), txn.stations...)
	for i := 1; i < len(stations); i++ {
		for j := i; j > 0 && stations[j].id < stations[j-1].id; j-- {
			stations[j], stations[j-1] = stations[j-1], stations[j]
		}
	}
	for _, st := range stations {
		group := txn.groups[st]
		// One transmission, one verdict: a station's contention window
		// reacts to whether ITS transmission survived, regardless of
		// how many flows (Actives) it striped onto the medium.
		// Per-active updates would double the CW several times for a
		// single lost multi-flow transmission and let the last active's
		// outcome clobber the earlier ones.
		stOK := true
		for _, a := range group {
			fs := p.stats[a.Flow.ID]
			fs.StreamSum += int64(a.Streams)
			delivery, err := p.Sc.DeliverySINRs(a)
			if err != nil {
				panic(fmt.Sprintf("mac: delivery SINR: %v", err))
			}
			// Air time this active actually had: from ITS join (not the
			// primary's start) minus its handshake, so a late joiner is
			// only credited for the window it really transmitted in.
			air := txn.end - p.startOf[a] - t.HandshakeOverhead()
			if air < 0 {
				air = 0
			}
			bps := a.Rate.DataRateMbps(p.Cfg.BandwidthMHz) * 1e6
			bytesPerStream := int64(air * bps / 8)
			if max := int64(p.Cfg.PacketBytes); bytesPerStream > max {
				bytesPerStream = max
			}
			// Open-loop stations serve real queued packets by byte
			// credit: each successful stream contributes the bytes it
			// carried (a transmission stripes one payload over its
			// streams, and a joiner gets only the remaining air time),
			// and a packet completes — recording its queueing+service
			// delay — once the flow's credited bytes cover it: the
			// fragmentation/aggregation view of §3.1. Lost bytes are
			// never credited, so a starved packet stays queued for
			// retransmission.
			exactPerStream := air * bps / 8
			if m := float64(p.Cfg.PacketBytes); exactPerStream > m {
				exactPerStream = m
			}
			delivered := 0.0
			lost := 0
			for s := 0; s < a.Streams; s++ {
				if bytesPerStream <= 0 {
					continue
				}
				fs.SentPackets++
				if p.Sc.StreamSuccess(a, delivery, s) {
					fs.DeliveredBytes += bytesPerStream
					delivered += exactPerStream
				} else {
					fs.LostPackets++
					lost++
					stOK = false
				}
			}
			if lost > 0 {
				if p.met != nil {
					p.met.Count(obs.MetricStreamLosses, p.gdom(st.dom), int64(lost))
				}
				if p.emitting() {
					p.emit(obs.Event{
						Domain: st.dom.id, Kind: obs.KindCollision, Station: st.id, Node: int(st.tx),
						Flow: a.Flow.ID, Streams: lost,
					})
				}
			}
			if st.openLoop() {
				p.serveCredit(st, a.Flow.ID, delivered)
			}
		}
		if stOK {
			st.cw = t.CWMin
			st.retries = 0
		} else {
			// Binary exponential backoff on loss, applied once per
			// station per transmission.
			st.cw = st.cw*2 + 1
			if st.cw > t.CWMax {
				st.cw = t.CWMax
			}
			st.retries++
		}
		st.txActive = false
		if st.departing {
			p.detach(st) // drained: complete the deferred departure
		} else if st.wantsMedium() {
			p.addContender(st)
		}
	}
	if p.met != nil {
		p.met.Count(obs.MetricTxns, p.gdom(txn.dom), 1)
	}
	if p.emitting() {
		p.emit(obs.Event{Domain: txn.dom.id, Kind: obs.KindTxnEnd, Station: -1, Node: -1})
	}
	txn.dom.dataTime += txn.dataDur
	txn.dom.overheadTime += t.HandshakeOverhead()
	for _, a := range txn.actives {
		delete(p.startOf, a)
	}
	dom := txn.dom
	for i, other := range dom.txns {
		if other == txn {
			dom.txns = append(dom.txns[:i], dom.txns[i+1:]...)
			break
		}
	}
	p.inFlight--
	if len(dom.txns) == 0 {
		p.busyDomains--
	}

	// ACK phase then a new contention round for every contender that
	// heard this transmission (the index is id-sorted, so the order —
	// and any RNG the armed events later draw — is deterministic).
	// The ACK window is booked as overhead only once it completes — via
	// bookOverhead, because a churn event inside the ACK window can
	// retire dom before the booking fires.
	p.Eng.Schedule(t.SIFS+t.AckBodyDuration, func() {
		p.bookOverhead(dom, t.SIFS+t.AckBodyDuration)
		for _, other := range dom.contenders {
			if p.hearsAnyOf(other, stations) {
				p.armCountdown(other)
			}
		}
	})
}

// bookOverhead adds completed ACK/handshake time to a domain, or to
// the retired bucket if SyncDomains has since folded the domain away.
func (p *Protocol) bookOverhead(d *domain, x float64) {
	if d.dead {
		p.retired.OverheadTime += x
		return
	}
	d.overheadTime += x
}

// hearsAnyOf reports whether st hears any of the given transmitters.
func (p *Protocol) hearsAnyOf(st *station, txers []*station) bool {
	for _, o := range txers {
		if p.graph.Hears(st.tx, o.tx) {
			return true
		}
	}
	return false
}

// Run executes the protocol for the given virtual duration and
// returns per-flow throughput in Mb/s.
func (p *Protocol) Run(duration float64) map[int]float64 {
	p.Start()
	p.Eng.Run(p.Eng.Now() + duration)
	out := make(map[int]float64)
	for id, st := range p.stats {
		out[id] = st.ThroughputMbps(duration)
	}
	return out
}
