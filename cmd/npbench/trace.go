package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one operation share Op; Parent is the
// enclosing span's ID (0 for an operation's root span).
type span struct {
	Name    string  `json:"name"`
	Op      int64   `json:"op"`
	ID      int64   `json:"id"`
	Parent  int64   `json:"parent"`
	StartMs float64 `json:"start_ms"`
	EndMs   float64 `json:"end_ms"`
}

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay only a nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	last  int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// openSpan is a span that has started and not yet ended.
type openSpan struct {
	t     *tracer
	name  string
	op    int64
	id    int64
	pid   int64
	start time.Time
}

// begin opens a span; end closes and records it.
func (t *tracer) begin(name string, op int64, parent openSpan) openSpan {
	if t == nil {
		return openSpan{}
	}
	t.mu.Lock()
	t.last++
	id := t.last
	t.mu.Unlock()
	return openSpan{t: t, name: name, op: op, id: id, pid: parent.id, start: time.Now()}
}

func (s openSpan) end() {
	if s.t == nil {
		return
	}
	end := time.Now()
	ms := func(at time.Time) float64 { return float64(at.Sub(s.t.t0)) / 1e6 }
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{Name: s.name, Op: s.op, ID: s.id, Parent: s.pid, StartMs: ms(s.start), EndMs: ms(end)})
	s.t.mu.Unlock()
}

// medianMs returns the median duration, in ms, of the spans with the
// given name, or 0 when there are none.
func (t *tracer) medianMs(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d []float64
	for _, s := range t.spans {
		if s.Name == name {
			d = append(d, s.EndMs-s.StartMs)
		}
	}
	return median(d)
}

// writeTrace writes the spans (JSONL), the raw CPU profile and the
// per-layer metrics of a traced run into dir.
func writeTrace(dir string, t *tracer, prof []byte, layerMetrics map[string]float64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "spans.jsonl"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "cpu.pprof"), prof, 0o644); err != nil {
		return err
	}
	data, err := json.MarshalIndent(layerMetrics, "", "  ")
	if err != nil {
		return fmt.Errorf("encode layer metrics: %w", err)
	}
	return os.WriteFile(filepath.Join(dir, "layers.json"), append(data, '\n'), 0o644)
}

// usage is a snapshot of the process's cumulative resource counters.
type usage struct {
	cpu     time.Duration // user + system CPU
	alloc   uint64        // bytes allocated
	mallocs uint64
	numGC   uint32
	pauseNs uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		numGC:   ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

func (u usage) since(v usage) usage {
	return usage{
		cpu:     u.cpu - v.cpu,
		alloc:   u.alloc - v.alloc,
		mallocs: u.mallocs - v.mallocs,
		numGC:   u.numGC - v.numGC,
		pauseNs: u.pauseNs - v.pauseNs,
	}
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) / 1024                // Linux reports KiB
}

// median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of xs (0 for none):
// with fewer than 100 samples, p99 is the largest.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(i, len(s)-1))]
}
