package mac

import (
	"math/rand"
	"testing"

	"nplus/internal/obs"
	"nplus/internal/sim"
	"nplus/internal/traffic"
)

// never is an arrival source whose first packet lands far beyond any
// test horizon: an open-loop station that stays idle.
type never struct{}

func (never) Next(*rand.Rand) float64 { return 1e9 }

// newTrafficFixture builds the trio protocol with an open-loop source
// per flow (nil entries keep that station saturated).
func newTrafficFixture(t *testing.T, seed int64, mode Mode, srcFor map[int]traffic.Source, queueCap int) (*Protocol, *obs.Recorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flows, p := trioProvider(rng, 22, 0.03)
	eng := sim.NewEngine(seed + 100)
	sc := newScenario(p, seed+200)
	proto, err := NewProtocol(eng, sc, flows, DefaultEpochConfig(mode))
	if err != nil {
		t.Fatal(err)
	}
	proto.SetTraffic(func(f Flow) traffic.Source { return srcFor[f.ID] }, queueCap)
	rec := &obs.Recorder{}
	proto.SetObserve(ObserveConfig{Recorder: rec})
	return proto, rec
}

func poissonSrc(t *testing.T, rate float64) traffic.Source {
	t.Helper()
	src, err := traffic.NewSource("poisson", traffic.Config{RatePPS: rate})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func TestTrafficProtocolDeliversAndRecordsDelay(t *testing.T) {
	srcs := map[int]traffic.Source{}
	for id := 1; id <= 3; id++ {
		srcs[id] = poissonSrc(t, 300)
	}
	proto, rec := newTrafficFixture(t, 1, ModeNPlus, srcs, 64)
	proto.Run(0.5)
	for id := 1; id <= 3; id++ {
		fs := proto.Stats()[id]
		if fs.Arrivals == 0 {
			t.Fatalf("flow %d saw no arrivals", id)
		}
		if fs.Served == 0 {
			t.Fatalf("flow %d served nothing; trace:\n%s", id, traceOf(rec))
		}
		if fs.Delay.Count() != fs.Served {
			t.Fatalf("flow %d: %d delay samples for %d served packets", id, fs.Delay.Count(), fs.Served)
		}
		if fs.Delay.Min() <= 0 {
			t.Fatalf("flow %d recorded non-positive delay %g", id, fs.Delay.Min())
		}
		if fs.Served+fs.Drops > fs.Arrivals {
			t.Fatalf("flow %d accounting broken: %d served + %d dropped > %d arrivals",
				id, fs.Served, fs.Drops, fs.Arrivals)
		}
	}
}

// TestPartiallyLoadedMediumSecondaryJoin exercises the n+ join path
// under a *partially loaded* medium — the case the backlogged-only
// tests never reach. The 2-antenna station is saturated and holds the
// medium; the 3-antenna station receives open-loop arrivals and must
// join mid-transmission through secondary contention; the 1-antenna
// station is configured open-loop but receives no packets and must
// stay silent throughout.
func TestPartiallyLoadedMediumSecondaryJoin(t *testing.T) {
	srcs := map[int]traffic.Source{
		1: never{},             // idle station
		2: nil,                 // saturated: keeps the medium busy
		3: poissonSrc(t, 1200), // busy joiner
	}
	proto, rec := newTrafficFixture(t, 3, ModeNPlus, srcs, 64)
	proto.Run(0.5)

	idle := proto.Stats()[1]
	if idle.Wins+idle.Joins != 0 || idle.SentPackets != 0 {
		t.Fatalf("idle station transmitted: %+v; trace:\n%s", idle, traceOf(rec))
	}
	holder := proto.Stats()[2]
	if holder.Wins == 0 {
		t.Fatalf("saturated station never won the medium; trace:\n%s", traceOf(rec))
	}
	joiner := proto.Stats()[3]
	if joiner.Joins == 0 {
		t.Fatalf("3-antenna station never joined a busy medium (wins %d); trace:\n%s",
			joiner.Wins, traceOf(rec))
	}
	if joiner.Served == 0 {
		t.Fatal("joiner served no packets")
	}
	if !sawEvent(rec, isJoin) {
		t.Fatal("event stream missing join events")
	}
}

// The same partial load under 802.11n must never join: with the
// 2-antenna holder saturated, the 3-antenna station only transmits by
// winning an idle medium.
func TestPartiallyLoadedMediumLegacyNeverJoins(t *testing.T) {
	srcs := map[int]traffic.Source{
		1: never{},
		2: nil,
		3: poissonSrc(t, 1200),
	}
	proto, _ := newTrafficFixture(t, 4, Mode80211n, srcs, 64)
	proto.Run(0.5)
	if j := proto.Stats()[3].Joins; j != 0 {
		t.Fatalf("legacy mode joined %d times", j)
	}
	if proto.Stats()[3].Wins == 0 {
		t.Fatal("legacy joiner never transmitted at all — medium sharing broken")
	}
}

func TestTrafficQueueDropsUnderOverload(t *testing.T) {
	// 20k packets/s of 1500 B is ~240 Mb/s offered to a 10 MHz channel:
	// the queue must saturate and drop.
	srcs := map[int]traffic.Source{1: poissonSrc(t, 20000)}
	proto, _ := newTrafficFixture(t, 5, ModeNPlus, srcs, 8)
	proto.Run(0.2)
	fs := proto.Stats()[1]
	if fs.Drops == 0 {
		t.Fatalf("no drops at 20k pkt/s into an 8-packet queue (%+v)", fs)
	}
	if fs.Served+fs.Drops > fs.Arrivals {
		t.Fatalf("accounting broken: %+v", fs)
	}
}

// At light load every packet should be served with no queue buildup:
// the station contends on arrival and drains back to idle.
func TestTrafficLightLoadDrainsToIdle(t *testing.T) {
	srcs := map[int]traffic.Source{}
	for id := 1; id <= 3; id++ {
		src, err := traffic.NewSource("cbr", traffic.Config{RatePPS: 60})
		if err != nil {
			t.Fatal(err)
		}
		srcs[id] = src
	}
	proto, rec := newTrafficFixture(t, 6, ModeNPlus, srcs, 64)
	proto.Run(0.5)
	for id := 1; id <= 3; id++ {
		fs := proto.Stats()[id]
		if fs.Drops != 0 {
			t.Fatalf("flow %d dropped %d packets at light load", id, fs.Drops)
		}
		// Allow a small in-flight backlog at the horizon.
		if fs.Arrivals-fs.Served > 3 {
			t.Fatalf("flow %d: %d arrivals but only %d served; trace:\n%s",
				id, fs.Arrivals, fs.Served, traceOf(rec))
		}
	}
}

func TestTrafficProtocolDeterminism(t *testing.T) {
	run := func() map[int]*FlowStats {
		srcs := map[int]traffic.Source{}
		for id := 1; id <= 3; id++ {
			srcs[id] = poissonSrc(t, 500)
		}
		proto, _ := newTrafficFixture(t, 7, ModeNPlus, srcs, 32)
		proto.Run(0.3)
		return proto.Stats()
	}
	a, b := run(), run()
	for id := 1; id <= 3; id++ {
		if a[id].Served != b[id].Served || a[id].Drops != b[id].Drops ||
			a[id].DeliveredBytes != b[id].DeliveredBytes || a[id].Delay.Count() != b[id].Delay.Count() {
			t.Fatalf("flow %d diverged: %+v vs %+v", id, a[id], b[id])
		}
		if a[id].Delay.Summary() != b[id].Delay.Summary() {
			t.Fatalf("flow %d delay summaries diverged: %+v vs %+v",
				id, a[id].Delay.Summary(), b[id].Delay.Summary())
		}
	}
}

// Saturated runs must be byte-identical with and without SetTraffic
// when every source is nil — SetTraffic with all-nil sources is a
// no-op, preserving the seed repository's backlogged semantics.
func TestAllNilSourcesKeepBackloggedSemantics(t *testing.T) {
	run := func(set bool) map[int]float64 {
		rng := rand.New(rand.NewSource(9))
		flows, p := trioProvider(rng, 22, 0.03)
		eng := sim.NewEngine(109)
		sc := newScenario(p, 209)
		proto, err := NewProtocol(eng, sc, flows, DefaultEpochConfig(ModeNPlus))
		if err != nil {
			t.Fatal(err)
		}
		if set {
			proto.SetTraffic(func(Flow) traffic.Source { return nil }, 0)
		}
		return proto.Run(0.3)
	}
	with, without := run(true), run(false)
	for id := range without {
		if with[id] != without[id] {
			t.Fatalf("flow %d: %g with SetTraffic(nil) vs %g without", id, with[id], without[id])
		}
	}
}
