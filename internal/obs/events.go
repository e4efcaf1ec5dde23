// Package obs is the simulator's observability layer: a typed protocol
// event stream, a metrics registry of counters / gauges / histograms
// with per-collision-domain labels, and profiling helpers for long
// runs.
//
// The MAC protocol emits Events (structs, not strings) as it runs; the
// text MAC trace is a rendered view over the same events (TraceLines).
// Each emitting engine stamps its events with a monotone per-recorder
// sequence number, so the streams of a sharded,
// component-parallel run merge deterministically on the total order
// (time, domain, sequence) — byte-identical at any worker count,
// exactly like the run's statistics.
//
// Everything here is opt-in and costs nothing when disabled: the
// protocol's emit path is a nil-check, pinned by the planner-benchmark
// alloc gate in CI.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// Kind classifies a protocol event. The values are the JSONL schema's
// stable "kind" strings.
type Kind string

// Protocol event kinds.
const (
	// KindContentionWin: a station won primary contention and starts a
	// (possibly multi-flow) transmission.
	KindContentionWin Kind = "contention_win"
	// KindJoin: a station joined an in-flight transmission through
	// secondary contention, occupying spare degrees of freedom.
	KindJoin Kind = "join"
	// KindCollision: one of a transmission's streams was lost — at a
	// shared receiver this is the hidden-terminal collision the
	// single-domain model could never produce.
	KindCollision Kind = "collision"
	// KindDrop: an arriving packet was rejected at a full station queue.
	KindDrop Kind = "drop"
	// KindFreeze: a station froze a live backoff countdown because its
	// local medium went busy.
	KindFreeze Kind = "freeze"
	// KindBlocked: a contention winner could not transmit without
	// harming incumbents and backed off again.
	KindBlocked Kind = "blocked"
	// KindTxnEnd: a joint transmission ended and its ACK phase began.
	KindTxnEnd Kind = "txn_end"
	// KindProbe: a periodic time-series sample of one collision
	// domain's queue depth, in-flight transmissions, and contention
	// windows (see ProbeSample). Emitted only when a probe cadence is
	// configured.
	KindProbe Kind = "probe"
	// KindArrive: a station joined the population mid-run and attached
	// to the AP the association policy chose (Event.AP).
	KindArrive Kind = "arrive"
	// KindDepart: a station left the population (after draining any
	// in-flight transmission).
	KindDepart Kind = "depart"
	// KindHandoff: mobility re-associated a station's flow from
	// Event.PrevAP to Event.AP.
	KindHandoff Kind = "handoff"
	// KindHandoffReject: the policy wanted a handoff but the station
	// was mid-transmission; the flow stays on Event.PrevAP until a
	// later tick.
	KindHandoffReject Kind = "handoff_reject"
)

// Event is one typed protocol event. Station and Node are -1 for
// domain-level events (probes); the remaining optional fields apply
// only to the kinds that document them.
type Event struct {
	// At is the virtual time of the event in seconds.
	At float64 `json:"t"`
	// Domain is the global collision-domain id the event happened in.
	Domain int `json:"domain"`
	// Seq orders events within one emitting engine; the merge key
	// (At, Domain, Seq) is a total order over a whole run because a
	// domain's events come from exactly one engine.
	Seq  int64 `json:"seq"`
	Kind Kind  `json:"kind"`
	// Station is the protocol's station index (per engine); Node is the
	// global transmitter node id. Both are -1 on domain-level events.
	Station int `json:"station"`
	Node    int `json:"node"`
	// Flows lists the flow ids of a win/join group; Flow is the single
	// flow of a drop/collision.
	Flows []int `json:"flows,omitempty"`
	Flow  int   `json:"flow,omitempty"`
	// Streams is the stream count a win/join occupies, or the number of
	// streams a collision lost.
	Streams int `json:"streams,omitempty"`
	// DoF is the locally heard degrees of freedom after a join.
	DoF int `json:"dof,omitempty"`
	// Rate is the bitrate a primary win selected.
	Rate string `json:"rate,omitempty"`
	// Detail carries free-form context (the planner error of a blocked
	// event).
	Detail string `json:"detail,omitempty"`
	// AP and PrevAP are the association endpoints of churn events: the
	// AP attached on arrive/handoff, and the AP a handoff (or rejected
	// handoff) moved away from.
	AP     int `json:"ap,omitempty"`
	PrevAP int `json:"prev_ap,omitempty"`
	// Probe is present exactly on KindProbe events.
	Probe *ProbeSample `json:"probe,omitempty"`
}

// ProbeSample is one periodic observation of a collision domain.
type ProbeSample struct {
	// Queue is the total queued packets across the domain's open-loop
	// stations.
	Queue int `json:"queue"`
	// InFlight is the number of joint transmissions currently on the
	// domain's medium.
	InFlight int `json:"in_flight"`
	// CWMean is the mean contention window across the domain's
	// stations.
	CWMean float64 `json:"cw_mean"`
}

// Render is the text-trace view of an event: for the kinds the
// simulator has always traced it reproduces the historical line
// byte-for-byte, so the trace remains a stable, derived artifact.
func (e Event) Render() string {
	switch e.Kind {
	case KindContentionWin:
		return fmt.Sprintf("station %d (tx %d) wins primary contention: %d stream(s) at %s",
			e.Station, e.Node, e.Streams, e.Rate)
	case KindJoin:
		return fmt.Sprintf("station %d (tx %d) joins with %d stream(s), DoF now %d",
			e.Station, e.Node, e.Streams, e.DoF)
	case KindCollision:
		return fmt.Sprintf("station %d (tx %d) flow %d loses %d stream(s)",
			e.Station, e.Node, e.Flow, e.Streams)
	case KindDrop:
		return fmt.Sprintf("station %d (tx %d) drops a flow-%d packet: queue full",
			e.Station, e.Node, e.Flow)
	case KindFreeze:
		return fmt.Sprintf("station %d (tx %d) freezes backoff", e.Station, e.Node)
	case KindBlocked:
		return fmt.Sprintf("station %d (tx %d) blocked: %s", e.Station, e.Node, e.Detail)
	case KindTxnEnd:
		return "joint transmission ends; ACK phase"
	case KindArrive:
		return fmt.Sprintf("station %d (tx %d) arrives, associates with AP %d", e.Station, e.Node, e.AP)
	case KindDepart:
		return fmt.Sprintf("station %d (tx %d) departs", e.Station, e.Node)
	case KindHandoff:
		return fmt.Sprintf("station %d (tx %d) hands off AP %d → AP %d", e.Station, e.Node, e.PrevAP, e.AP)
	case KindHandoffReject:
		return fmt.Sprintf("station %d (tx %d) handoff to AP %d deferred: mid-transmission", e.Station, e.Node, e.AP)
	case KindProbe:
		if e.Probe == nil {
			return fmt.Sprintf("domain %d probe", e.Domain)
		}
		return fmt.Sprintf("domain %d probe: queue %d, %d in flight, mean CW %.1f",
			e.Domain, e.Probe.Queue, e.Probe.InFlight, e.Probe.CWMean)
	default:
		return fmt.Sprintf("%s event at station %d", e.Kind, e.Station)
	}
}

// TraceLines renders an event stream as the text MAC trace, one
// "<time>s <event>" line per event in stream order.
func TraceLines(evs []Event) []string {
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = fmt.Sprintf("%10.6fs %s", e.At, e.Render())
	}
	return out
}

// Recorder collects one engine's typed events, stamping each with the
// next sequence number. A nil Recorder records nothing — callers
// nil-check before constructing events, which is the zero-overhead
// disabled path.
type Recorder struct {
	Events []Event
	seq    int64
}

// Emit appends an event, assigning its sequence number.
func (r *Recorder) Emit(ev Event) {
	ev.Seq = r.seq
	r.seq++
	r.Events = append(r.Events, ev)
}

// SortEvents orders a merged event stream by (time, domain, sequence)
// — the total order that makes a multi-engine run's stream independent
// of scheduling. Within one domain the (At, Seq) pair already agrees
// with emission order, so sorting a single engine's stream is a no-op.
func SortEvents(evs []Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		return a.Seq < b.Seq
	})
}

// EncodeJSONL writes one compact JSON event per line — the stream
// format the -events flag and CI schema smoke consume.
func EncodeJSONL(w io.Writer, evs []Event) error {
	enc := json.NewEncoder(w)
	for i := range evs {
		if err := enc.Encode(&evs[i]); err != nil {
			return fmt.Errorf("obs: encode event %d: %w", i, err)
		}
	}
	return nil
}

// WriteEventsFile writes the event stream as JSONL to path.
func WriteEventsFile(path string, evs []Event) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := EncodeJSONL(f, evs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Config selects what a run observes. The zero value is fully
// disabled: no recorder is attached, no metrics are kept, no probes
// are scheduled, and the protocol's emit path reduces to a nil check.
type Config struct {
	// Events collects the typed event stream.
	Events bool
	// Metrics maintains the counters / gauges / histograms registry.
	Metrics bool
	// ProbeIntervalS samples each collision domain's queue depth,
	// in-flight transmissions, and CW distribution every interval
	// (virtual seconds). 0 disables probes.
	ProbeIntervalS float64
}

// Enabled reports whether any observation is requested.
func (c Config) Enabled() bool {
	return c.Events || c.Metrics || c.ProbeIntervalS > 0
}
