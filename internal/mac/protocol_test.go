package mac

import (
	"math/rand"
	"strings"
	"testing"

	"nplus/internal/obs"
	"nplus/internal/sim"
)

func newProtocolFixture(t *testing.T, seed int64, mode Mode, estErr float64) (*sim.Engine, *Protocol, *obs.Recorder) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	flows, p := trioProvider(rng, 22, estErr)
	eng := sim.NewEngine(seed + 100)
	sc := newScenario(p, seed+200)
	cfg := DefaultEpochConfig(mode)
	proto, err := NewProtocol(eng, sc, flows, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := &obs.Recorder{}
	proto.SetObserve(ObserveConfig{Recorder: rec})
	return eng, proto, rec
}

// traceOf renders a recorded event stream as the text trace, for
// failure messages.
func traceOf(rec *obs.Recorder) string {
	return strings.Join(obs.TraceLines(rec.Events), "\n")
}

// sawEvent reports whether rec holds an event matching match.
func sawEvent(rec *obs.Recorder, match func(obs.Event) bool) bool {
	for _, ev := range rec.Events {
		if match(ev) {
			return true
		}
	}
	return false
}

func isJoin(ev obs.Event) bool { return ev.Kind == obs.KindJoin }

func TestProtocolRunsAndDelivers(t *testing.T) {
	_, proto, rec := newProtocolFixture(t, 1, ModeNPlus, 0.03)
	tput := proto.Run(0.5)
	total := 0.0
	for _, x := range tput {
		total += x
	}
	if total <= 0 {
		t.Fatalf("no throughput; trace:\n%s", traceOf(rec))
	}
	// All three flows must have transmitted.
	for id := 1; id <= 3; id++ {
		if proto.Stats()[id].Wins+proto.Stats()[id].Joins == 0 {
			t.Fatalf("flow %d never transmitted; trace:\n%s", id, traceOf(rec))
		}
	}
}

func TestProtocolSecondaryContentionHappens(t *testing.T) {
	_, proto, rec := newProtocolFixture(t, 2, ModeNPlus, 0.03)
	proto.Run(0.5)
	joins := int64(0)
	for _, st := range proto.Stats() {
		joins += st.Joins
	}
	if joins == 0 {
		t.Fatalf("n+ protocol never joined; trace:\n%s", traceOf(rec))
	}
	if !sawEvent(rec, isJoin) {
		t.Fatal("event stream missing join events")
	}
}

func TestProtocolLegacyNeverJoins(t *testing.T) {
	_, proto, _ := newProtocolFixture(t, 3, Mode80211n, 0.03)
	proto.Run(0.3)
	for id, st := range proto.Stats() {
		if st.Joins != 0 {
			t.Fatalf("legacy mode: flow %d joined", id)
		}
	}
}

func TestProtocolNPlusBeatsLegacy(t *testing.T) {
	_, protoN, _ := newProtocolFixture(t, 4, ModeNPlus, 0.03)
	tputN := protoN.Run(0.5)
	_, protoL, _ := newProtocolFixture(t, 4, Mode80211n, 0.03)
	tputL := protoL.Run(0.5)
	totalN, totalL := 0.0, 0.0
	for _, x := range tputN {
		totalN += x
	}
	for _, x := range tputL {
		totalL += x
	}
	if totalN <= totalL {
		t.Fatalf("event-driven n+ %.2f Mb/s not above 802.11n %.2f Mb/s", totalN, totalL)
	}
}

// TestProtocolFig5Scenarios checks that all four contention outcomes
// of Fig. 5 occur across seeds: a full-DoF winner shutting everyone
// out, and staged joins.
func TestProtocolFig5Scenarios(t *testing.T) {
	sawFull := false   // Fig. 5(a): 3 streams at once, no joins that round
	sawStaged := false // Fig. 5(b/c/d): a join after a win
	for seed := int64(10); seed < 22 && !(sawFull && sawStaged); seed++ {
		_, proto, rec := newProtocolFixture(t, seed, ModeNPlus, 0.02)
		proto.Run(0.3)
		if sawEvent(rec, func(ev obs.Event) bool { return ev.Kind == obs.KindContentionWin && ev.Streams == 3 }) {
			sawFull = true
		}
		if sawEvent(rec, isJoin) {
			sawStaged = true
		}
	}
	if !sawFull {
		t.Fatal("never saw a 3-stream primary winner (Fig. 5a)")
	}
	if !sawStaged {
		t.Fatal("never saw a staged join (Fig. 5b-d)")
	}
}

func TestProtocolDeterminism(t *testing.T) {
	_, p1, _ := newProtocolFixture(t, 7, ModeNPlus, 0.03)
	r1 := p1.Run(0.3)
	_, p2, _ := newProtocolFixture(t, 7, ModeNPlus, 0.03)
	r2 := p2.Run(0.3)
	for id := range r1 {
		if r1[id] != r2[id] {
			t.Fatalf("flow %d diverged: %g vs %g", id, r1[id], r2[id])
		}
	}
}

func TestProtocolBackoffExpandsOnLoss(t *testing.T) {
	// At very low SNR every packet fails; contention windows must
	// grow and throughput must be ~zero without livelock.
	rng := rand.New(rand.NewSource(8))
	flows, p := trioProvider(rng, -5, 0.03) // hopeless links
	eng := sim.NewEngine(9)
	sc := newScenario(p, 10)
	proto, err := NewProtocol(eng, sc, flows, DefaultEpochConfig(ModeNPlus))
	if err != nil {
		t.Fatal(err)
	}
	tput := proto.Run(0.2)
	for id, x := range tput {
		if x > 0.01 {
			t.Fatalf("flow %d delivered %.3f Mb/s at -5 dB", id, x)
		}
	}
	grew := false
	for _, st := range proto.stations {
		if st.cw > DefaultTiming10MHz().CWMin {
			grew = true
		}
	}
	if !grew {
		t.Fatal("no station expanded its contention window despite losses")
	}
}

func TestProtocolRejectsBadTiming(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	flows, p := trioProvider(rng, 20, 0)
	cfg := DefaultEpochConfig(ModeNPlus)
	cfg.Timing.Slot = 0
	if _, err := NewProtocol(sim.NewEngine(1), newScenario(p, 1), flows, cfg); err == nil {
		t.Fatal("expected timing validation error")
	}
}
