package core

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/topo"
)

// campusNet builds the 64-node, 4-cluster sharded fixture the worker
// tests share.
func campusNet(t *testing.T, seed int64) *Network {
	t.Helper()
	layout, err := topo.Generate("campus",
		topo.GenConfig{Nodes: 64, Clusters: 4, InterClusterLossDB: topo.Auto},
		rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	net, err := NewNetworkFromLayout(seed, layout, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// TestShardedRunWorkerInvariance is the core determinism pin (and the
// -race smoke target for the concurrent component scheduler): the same
// sharded run must produce identical per-flow stats, medium accounting,
// and per-component breakdowns at every worker-pool size, because each
// component's RNG streams derive from (seed, component id) rather than
// from goroutine scheduling.
func TestShardedRunWorkerInvariance(t *testing.T) {
	net := campusNet(t, 11)
	run := func(workers int) *TrafficResult {
		res, err := net.RunTraffic(TrafficRun{
			Mode: mac.ModeNPlus, Duration: 0.01, Model: "poisson", RatePPS: 2000,
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res
	}
	base := run(1)
	if base.Components != 4 || len(base.PerComponent) != 4 {
		t.Fatalf("fixture sharded into %d components (%d entries), want 4",
			base.Components, len(base.PerComponent))
	}
	for _, workers := range []int{4, 8, 0} {
		got := run(workers)
		if len(got.PerFlow) != len(base.PerFlow) {
			t.Fatalf("workers=%d: %d flows vs %d", workers, len(got.PerFlow), len(base.PerFlow))
		}
		for id, want := range base.PerFlow {
			fs := got.PerFlow[id]
			if fs == nil {
				t.Fatalf("workers=%d: flow %d missing", workers, id)
			}
			if fs.Served != want.Served || fs.Drops != want.Drops ||
				fs.Arrivals != want.Arrivals || fs.Wins != want.Wins ||
				fs.Joins != want.Joins || fs.DeliveredBytes != want.DeliveredBytes ||
				fs.SentPackets != want.SentPackets || fs.LostPackets != want.LostPackets {
				t.Fatalf("workers=%d: flow %d diverged: %+v vs %+v", workers, id, fs, want)
			}
			if fs.Delay.Summary() != want.Delay.Summary() {
				t.Fatalf("workers=%d: flow %d delay summary diverged", workers, id)
			}
		}
		if got.DataTime != base.DataTime || got.OverheadTime != base.OverheadTime {
			t.Fatalf("workers=%d: medium time (%g, %g) vs (%g, %g)",
				workers, got.DataTime, got.OverheadTime, base.DataTime, base.OverheadTime)
		}
		if got.PeakConcurrentTxns != base.PeakConcurrentTxns ||
			got.PeakBusyComponents != base.PeakBusyComponents {
			t.Fatalf("workers=%d: gauges (%d, %d) vs (%d, %d)", workers,
				got.PeakConcurrentTxns, got.PeakBusyComponents,
				base.PeakConcurrentTxns, base.PeakBusyComponents)
		}
		for i, want := range base.PerComponent {
			if got.PerComponent[i] != want {
				t.Fatalf("workers=%d: component %d diverged: %+v vs %+v",
					workers, i, got.PerComponent[i], want)
			}
		}
	}
}

// TestShardedTraceMergesInTimeOrder checks the merged event stream of
// a parallel run: events from all components interleave on the total
// order (time, domain, sequence), exactly as a single global observer
// would have logged them, and more than one domain contributes.
func TestShardedTraceMergesInTimeOrder(t *testing.T) {
	net := campusNet(t, 13)
	res, err := net.RunTraffic(TrafficRun{
		Mode: mac.ModeNPlus, Duration: 0.005, Model: "poisson", RatePPS: 1500,
		Workers: 4, Obs: obs.Config{Events: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) == 0 {
		t.Fatal("sharded traced run produced no events")
	}
	domains := map[int]bool{res.Events[0].Domain: true}
	for i := 1; i < len(res.Events); i++ {
		a, b := res.Events[i-1], res.Events[i]
		domains[b.Domain] = true
		if b.At < a.At || b.At == a.At && (b.Domain < a.Domain || b.Domain == a.Domain && b.Seq <= a.Seq) {
			t.Fatalf("event %d (t=%g, domain %d, seq %d) does not follow event %d (t=%g, domain %d, seq %d)",
				i, b.At, b.Domain, b.Seq, i-1, a.At, a.Domain, a.Seq)
		}
	}
	if len(domains) < 2 {
		t.Fatalf("merged stream holds %d domain(s), want ≥ 2", len(domains))
	}
}

// TestObservedRunWorkerInvariance pins the observability merge
// contract: the typed event stream (JSONL bytes), its rendered trace,
// and the merged metrics snapshot of a sharded run are byte-identical
// at 1, 4, and 8 workers. Events carry global domain labels and merge
// on the total order (time, domain, sequence); metrics merge by exact
// counter addition and bucket addition, so nothing depends on
// goroutine scheduling.
func TestObservedRunWorkerInvariance(t *testing.T) {
	net := campusNet(t, 17)
	type snap struct {
		events  []byte
		trace   string
		metrics string
	}
	run := func(workers int) snap {
		res, err := net.RunTraffic(TrafficRun{
			Mode: mac.ModeNPlus, Duration: 0.005, Model: "poisson", RatePPS: 1500,
			Workers: workers,
			Obs:     obs.Config{Events: true, Metrics: true, ProbeIntervalS: 0.001},
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(res.Events) == 0 {
			t.Fatalf("workers=%d: observed run produced no events", workers)
		}
		var buf bytes.Buffer
		if err := obs.EncodeJSONL(&buf, res.Events); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		ms, err := json.Marshal(res.Metrics.Snapshot())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return snap{events: buf.Bytes(), trace: strings.Join(obs.TraceLines(res.Events), "\n"), metrics: string(ms)}
	}
	base := run(1)
	seen := map[int]bool{}
	for _, line := range bytes.Split(base.events, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev obs.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		seen[ev.Domain] = true
	}
	if len(seen) < 2 {
		t.Fatalf("fixture exercised %d collision domains, want ≥ 2 for a real merge", len(seen))
	}
	for _, workers := range []int{4, 8} {
		got := run(workers)
		if !bytes.Equal(got.events, base.events) {
			t.Errorf("workers=%d: event stream diverged from workers=1", workers)
		}
		if got.trace != base.trace {
			t.Errorf("workers=%d: rendered trace diverged from workers=1", workers)
		}
		if got.metrics != base.metrics {
			t.Errorf("workers=%d: merged metrics snapshot diverged from workers=1", workers)
		}
	}
}

// TestSingleComponentIgnoresWorkers pins the one-shard case: a
// one-component deployment runs one engine at the historical seeds no
// matter the worker count, so legacy golden results stay byte-identical.
func TestSingleComponentIgnoresWorkers(t *testing.T) {
	run := func(workers int) *TrafficResult {
		net := chainNetwork(t, -30) // forced clique: one component
		res, err := net.RunTraffic(TrafficRun{
			Mode: mac.ModeNPlus, Duration: 0.02, Model: "saturated", Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(0), run(8)
	if a.Components != 1 || b.Components != 1 {
		t.Fatalf("clique chain sharded into %d/%d components", a.Components, b.Components)
	}
	for id, want := range a.PerFlow {
		fs := b.PerFlow[id]
		if fs.DeliveredBytes != want.DeliveredBytes || fs.Wins != want.Wins ||
			fs.SentPackets != want.SentPackets {
			t.Fatalf("flow %d diverged on the single-component path: %+v vs %+v", id, fs, want)
		}
	}
}
