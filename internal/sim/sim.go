// Package sim provides the discrete-event engine under the MAC
// simulations: a virtual clock, a deterministic event queue, seeded
// randomness. All experiment randomness flows from the engine's RNG so
// every run is exactly reproducible from its seed.
package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
)

// Event is a scheduled callback.
type event struct {
	at  float64 // seconds of virtual time
	seq int64   // tie-break: FIFO among same-time events
	fn  func()
	idx int // heap index; -1 when cancelled
}

// EventHandle allows cancelling a scheduled event.
type EventHandle struct{ ev *event }

// Cancelled reports whether the event was cancelled.
func (h *EventHandle) Cancelled() bool { return h.ev.idx == -2 }

// Live reports whether the event is still scheduled — neither fired
// nor cancelled. A nil handle is not live.
func (h *EventHandle) Live() bool { return h != nil && h.ev.idx >= 0 }

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *eventHeap) Push(x any) {
	ev := x.(*event)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	ev.idx = -1
	return ev
}

// Engine is a single-threaded discrete-event scheduler.
type Engine struct {
	now    float64
	seq    int64
	events eventHeap
	rng    *rand.Rand
}

// NewEngine creates an engine whose randomness derives entirely from
// seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// RNG returns the engine's seeded random source.
func (e *Engine) RNG() *rand.Rand { return e.rng }

// Schedule runs fn after delay seconds of virtual time. A negative
// delay panics: causality violations are programming errors.
func (e *Engine) Schedule(delay float64, fn func()) *EventHandle {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	return e.ScheduleAt(e.now+delay, fn)
}

// ScheduleAt runs fn at absolute virtual time t ≥ Now.
func (e *Engine) ScheduleAt(t float64, fn func()) *EventHandle {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling into the past (%g < %g)", t, e.now))
	}
	e.seq++
	ev := &event{at: t, seq: e.seq, fn: fn}
	heap.Push(&e.events, ev)
	return &EventHandle{ev: ev}
}

// Cancel removes a scheduled event; cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(h *EventHandle) {
	if h == nil || h.ev.idx < 0 {
		return
	}
	heap.Remove(&e.events, h.ev.idx)
	h.ev.idx = -2
}

// Run processes events until the queue drains or virtual time would
// pass `until`. It returns the number of events processed.
func (e *Engine) Run(until float64) int {
	n := 0
	for len(e.events) > 0 {
		next := e.events[0]
		if next.at > until {
			break
		}
		heap.Pop(&e.events)
		e.now = next.at
		next.fn()
		n++
	}
	if e.now < until {
		e.now = until
	}
	return n
}

// Step processes exactly one event if any is pending, returning
// whether one ran.
func (e *Engine) Step() bool {
	if len(e.events) == 0 {
		return false
	}
	next := heap.Pop(&e.events).(*event)
	e.now = next.at
	next.fn()
	return true
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return len(e.events) }
