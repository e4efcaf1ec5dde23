package obs

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The rendered views must reproduce the historical trace lines
// byte-for-byte: the text trace is now derived from typed events, and
// existing tests (and eyes) depend on the old wording.
func TestRenderMatchesLegacyTraceLines(t *testing.T) {
	cases := []struct {
		ev   Event
		want string
	}{
		{
			Event{Kind: KindContentionWin, Station: 3, Node: 17, Streams: 2, Rate: "MCS 15 (130.0 Mbps)"},
			"station 3 (tx 17) wins primary contention: 2 stream(s) at MCS 15 (130.0 Mbps)",
		},
		{
			Event{Kind: KindJoin, Station: 1, Node: 9, Streams: 1, DoF: 3},
			"station 1 (tx 9) joins with 1 stream(s), DoF now 3",
		},
		{
			Event{Kind: KindDrop, Station: 5, Node: 2, Flow: 4},
			"station 5 (tx 2) drops a flow-4 packet: queue full",
		},
		{
			Event{Kind: KindBlocked, Station: 0, Node: 0, Detail: "no feasible rate"},
			"station 0 (tx 0) blocked: no feasible rate",
		},
		{
			Event{Kind: KindTxnEnd},
			"joint transmission ends; ACK phase",
		},
		{
			Event{Kind: KindFreeze, Station: 2, Node: 8},
			"station 2 (tx 8) freezes backoff",
		},
		{
			Event{Kind: KindCollision, Station: 4, Node: 11, Flow: 7, Streams: 2},
			"station 4 (tx 11) flow 7 loses 2 stream(s)",
		},
		{
			Event{Kind: KindProbe, Domain: 3, Probe: &ProbeSample{Queue: 12, InFlight: 2, CWMean: 23.5}},
			"domain 3 probe: queue 12, 2 in flight, mean CW 23.5",
		},
	}
	for _, c := range cases {
		if got := c.ev.Render(); got != c.want {
			t.Errorf("Render(%s):\n got %q\nwant %q", c.ev.Kind, got, c.want)
		}
	}
}

// TraceLines renders one "<time>s <event>" line per event, in stream
// order, with the time right-aligned to microseconds.
func TestTraceLines(t *testing.T) {
	lines := TraceLines([]Event{
		{At: 0.0015, Kind: KindTxnEnd},
		{At: 12.5, Kind: KindFreeze, Station: 2, Node: 8},
	})
	want := []string{
		"  0.001500s joint transmission ends; ACK phase",
		" 12.500000s station 2 (tx 8) freezes backoff",
	}
	if strings.Join(lines, "\n") != strings.Join(want, "\n") {
		t.Fatalf("TraceLines = %q, want %q", lines, want)
	}
	if got := TraceLines(nil); len(got) != 0 {
		t.Fatalf("TraceLines(nil) = %q", got)
	}
}

func TestRecorderStampsSequence(t *testing.T) {
	var r Recorder
	r.Emit(Event{At: 1, Kind: KindDrop})
	r.Emit(Event{At: 1, Kind: KindDrop})
	r.Emit(Event{At: 2, Kind: KindTxnEnd})
	if len(r.Events) != 3 {
		t.Fatalf("recorded %d events, want 3", len(r.Events))
	}
	for i, ev := range r.Events {
		if ev.Seq != int64(i) {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

// SortEvents must be a total order: shuffling a merged stream and
// re-sorting must restore it exactly, including time ties across
// domains.
func TestSortEventsTotalOrder(t *testing.T) {
	var evs []Event
	seqs := map[int]int64{}
	for i := 0; i < 200; i++ {
		dom := i % 3
		evs = append(evs, Event{
			At:     float64(i/10) * 0.5, // many exact time ties
			Domain: dom,
			Seq:    seqs[dom],
			Kind:   KindDrop,
		})
		seqs[dom]++
	}
	SortEvents(evs)
	want := append([]Event(nil), evs...)

	rng := rand.New(rand.NewSource(42))
	rng.Shuffle(len(evs), func(i, j int) { evs[i], evs[j] = evs[j], evs[i] })
	SortEvents(evs)
	for i := range evs {
		if evs[i].At != want[i].At || evs[i].Domain != want[i].Domain || evs[i].Seq != want[i].Seq {
			t.Fatalf("event %d differs after shuffle+sort: %+v vs %+v", i, evs[i], want[i])
		}
	}
}

func TestEventJSONLRoundTrip(t *testing.T) {
	evs := []Event{
		{At: 0.5, Domain: 1, Seq: 0, Kind: KindContentionWin, Station: 2, Node: 7,
			Flows: []int{3}, Streams: 2, Rate: "MCS 8 (26.0 Mbps)"},
		{At: 0.75, Domain: 1, Seq: 1, Kind: KindProbe, Station: -1, Node: -1,
			Probe: &ProbeSample{Queue: 4, InFlight: 1, CWMean: 16}},
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "events.jsonl")
	if err := WriteEventsFile(path, evs); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("wrote %d lines, want 2", len(lines))
	}
	for i, line := range lines {
		var got Event
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if got.At != evs[i].At || got.Kind != evs[i].Kind || got.Domain != evs[i].Domain {
			t.Fatalf("line %d round-tripped to %+v", i, got)
		}
	}
	// Schema pins: the probe line must nest its sample keys.
	if !strings.Contains(lines[1], `"probe":{"queue":4,"in_flight":1,"cw_mean":16}`) {
		t.Fatalf("probe line schema: %s", lines[1])
	}
}

func TestMetricsMergeIsExactAndOrderIndependent(t *testing.T) {
	build := func(seed int64, n int) *Metrics {
		m := NewMetrics()
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			dom := rng.Intn(4)
			m.Count(MetricWins, dom, 1)
			m.GaugeMax(MetricPeakQueue, dom, float64(rng.Intn(50)))
			m.Observe(MetricQueueDepth, dom, rng.Float64()*100)
		}
		return m
	}
	a1, b1 := build(1, 500), build(2, 300)
	a2, b2 := build(1, 500), build(2, 300)

	m1 := NewMetrics()
	m1.Merge(a1)
	m1.Merge(b1)
	m2 := NewMetrics()
	m2.Merge(b2)
	m2.Merge(a2)

	j1, _ := json.Marshal(m1.Snapshot())
	j2, _ := json.Marshal(m2.Snapshot())
	if string(j1) != string(j2) {
		t.Fatalf("merge order changed snapshot:\n%s\nvs\n%s", j1, j2)
	}

	// Exactness: merged counter equals the sum of the parts.
	var wantWins, gotWins float64
	for _, s := range a1.Snapshot().Series {
		if s.Name == MetricWins {
			wantWins += s.Value
		}
	}
	for _, s := range b1.Snapshot().Series {
		if s.Name == MetricWins {
			wantWins += s.Value
		}
	}
	for _, s := range m1.Snapshot().Series {
		if s.Name == MetricWins {
			gotWins += s.Value
		}
	}
	if gotWins != wantWins {
		t.Fatalf("merged wins %v, want %v", gotWins, wantWins)
	}
	m1.Merge(nil) // must be a no-op, not a panic
}

func TestSnapshotSortedAndFiltered(t *testing.T) {
	m := NewMetrics()
	m.Count(MetricWins, 2, 5)
	m.Count(MetricWins, 0, 3)
	m.Count(MetricDrops, 1, 1)
	m.Observe(MetricCW, 0, 16)
	snap := m.Snapshot()
	for i := 1; i < len(snap.Series); i++ {
		a, b := snap.Series[i-1], snap.Series[i]
		if a.Name > b.Name || (a.Name == b.Name && a.Domain >= b.Domain) {
			t.Fatalf("snapshot not sorted at %d: %+v then %+v", i, a, b)
		}
	}
	f := snap.Filter([]string{MetricWins})
	if len(f.Series) != 2 {
		t.Fatalf("filtered to %d series, want 2", len(f.Series))
	}
	for _, s := range f.Series {
		if s.Name != MetricWins {
			t.Fatalf("filter leaked %q", s.Name)
		}
	}
	if g := snap.Filter(nil); len(g.Series) != len(snap.Series) {
		t.Fatalf("empty filter dropped series")
	}
	if r := snap.Render(); !strings.Contains(r, MetricWins) || !strings.Contains(r, MetricCW) {
		t.Fatalf("render missing series:\n%s", r)
	}
}

func TestMetricNamesRegistry(t *testing.T) {
	names := MetricNames()
	if len(names) == 0 {
		t.Fatal("no registered metrics")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("MetricNames not sorted: %q before %q", names[i-1], names[i])
		}
	}
	for _, n := range names {
		if !ValidMetric(n) {
			t.Fatalf("registered name %q not valid", n)
		}
	}
	if ValidMetric("bogus") {
		t.Fatal("bogus metric accepted")
	}
}

func TestConfigEnabled(t *testing.T) {
	if (Config{}).Enabled() {
		t.Fatal("zero config reports enabled")
	}
	for _, c := range []Config{{Events: true}, {Metrics: true}, {ProbeIntervalS: 0.01}} {
		if !c.Enabled() {
			t.Fatalf("%+v reports disabled", c)
		}
	}
}

func TestProfileWritesArtifacts(t *testing.T) {
	prefix := filepath.Join(t.TempDir(), "prof")
	p, err := StartProfile(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".heap.pprof", ".runtime.json"} {
		fi, err := os.Stat(prefix + suffix)
		if err != nil {
			t.Fatalf("%s: %v", suffix, err)
		}
		if suffix == ".runtime.json" && fi.Size() == 0 {
			t.Fatal("empty runtime snapshot")
		}
	}
	var snap map[string]float64
	data, _ := os.ReadFile(prefix + ".runtime.json")
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("runtime snapshot not numeric JSON: %v", err)
	}
	if _, ok := snap["/sched/goroutines:goroutines"]; !ok {
		t.Fatalf("snapshot missing goroutine count; keys: %d", len(snap))
	}
}
