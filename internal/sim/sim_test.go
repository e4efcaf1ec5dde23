package sim

import (
	"testing"
	"testing/quick"
)

func TestEventsRunInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var order []int
	e.Schedule(3, func() { order = append(order, 3) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Schedule(2, func() { order = append(order, 2) })
	e.Run(10)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if e.Now() != 10 {
		t.Fatalf("Now = %g, want 10", e.Now())
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	e.Run(2)
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var hits []float64
	e.Schedule(1, func() {
		hits = append(hits, e.Now())
		e.Schedule(1, func() { hits = append(hits, e.Now()) })
	})
	e.Run(5)
	if len(hits) != 2 || hits[0] != 1 || hits[1] != 2 {
		t.Fatalf("hits = %v", hits)
	}
}

func TestRunStopsAtHorizon(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.Schedule(5, func() { ran = true })
	n := e.Run(3)
	if n != 0 || ran {
		t.Fatal("event beyond horizon ran")
	}
	if e.Now() != 3 {
		t.Fatalf("Now = %g", e.Now())
	}
	e.Run(10)
	if !ran {
		t.Fatal("event never ran")
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	ran := false
	h := e.Schedule(1, func() { ran = true })
	e.Cancel(h)
	if !h.Cancelled() {
		t.Fatal("handle not marked cancelled")
	}
	e.Run(5)
	if ran {
		t.Fatal("cancelled event ran")
	}
	// Double-cancel is a no-op.
	e.Cancel(h)
	e.Cancel(nil)
}

func TestCancelAfterFire(t *testing.T) {
	e := NewEngine(1)
	h := e.Schedule(1, func() {})
	e.Run(5)
	e.Cancel(h) // must not panic
}

func TestStepAndPending(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	e.Schedule(2, func() {})
	if e.Pending() != 2 {
		t.Fatalf("pending = %d", e.Pending())
	}
	if !e.Step() || e.Pending() != 1 {
		t.Fatal("Step failed")
	}
	e.Step()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(1, func() {})
	e.Run(5)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.ScheduleAt(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Schedule(-1, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func() []float64 {
		e := NewEngine(42)
		var times []float64
		var tick func()
		tick = func() {
			times = append(times, e.Now())
			if len(times) < 50 {
				e.Schedule(e.RNG().Float64(), tick)
			}
		}
		e.Schedule(0, tick)
		e.Run(1e9)
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestPropTimeNeverGoesBackward(t *testing.T) {
	f := func(seed int64, delays []uint8) bool {
		e := NewEngine(seed)
		last := -1.0
		ok := true
		for _, d := range delays {
			e.Schedule(float64(d)/10, func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(1e9)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
