package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"nplus/internal/runspec"
)

// workload is one named set of inputs. A batch workload runs one spec
// family locally, Spec to Report bytes; serve-mixed drives an
// in-process npserve over HTTP.
type workload struct {
	name string
	// spec is a batch workload's spec; its seed is the base seed of
	// the run's input slots. Empty for serve-mixed.
	spec  string
	serve bool
}

// The workloads and why each exists (BENCHMARK.json and README.md say
// the same):
//   - campus-cold: deployment build (serial) beside an 8-shard parallel
//     run; the only one where build, topo and shard merge weigh.
//   - uplink-saturated: one collision domain, planner- and
//     allocation-bound; a build change should not move it.
//   - churn-campus: pair-state rewrites and lazy channel
//     materialization on the write path, beside the planner.
//   - serve-mixed: cache hits skip the simulator and set the median;
//     misses set the tail and the capacity.
var workloads = []workload{
	{name: "campus-cold", spec: `{"topo":"campus","nodes":1000,"clusters":8,"traffic":"poisson","rate_pps":400,"duration_s":0.05,"mode":"nplus","seed":7,"workers":2}`},
	{name: "uplink-saturated", spec: `{"topo":"disk-uplink","nodes":200,"traffic":"poisson","rate_pps":800,"duration_s":1.0,"mode":"nplus","seed":4}`},
	{name: "churn-campus", spec: `{"topo":"campus","nodes":400,"clusters":8,"traffic":"poisson","rate_pps":200,"duration_s":0.2,"seed":21,"churn":{"arrival_per_s":2000,"mean_session_s":0.05},"mobility":{"model":"cluster-hop","speed_mps":60,"interval_s":0.01},"association":{"policy":"biased-sinr"}}`},
	{name: "serve-mixed", serve: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// setupRuns is how many times a run sets up; setup_s is their median.
// A batch workload's set-up i loads, validates and warms input slot i,
// so a run cycles over setupRuns distinct specs and every timed op
// re-runs a spec whose bytes are already known.
const setupRuns = 3

// goldenSeed is the workload seed the golden hashes are recorded at.
const goldenSeed = 1

// goldenFile maps a workload to the SHA-256 of each input's Report
// bytes at goldenSeed: one per slot for a batch workload, one per
// hot-set spec for serve-mixed.
//
//go:embed testdata/golden.json
var goldenFile []byte

func loadGolden() (map[string][]string, error) {
	var g map[string][]string
	if err := json.Unmarshal(goldenFile, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// window is what one measured stretch of a run observed.
type window struct {
	ops int // operations attempted
	// lat holds the latency of each successful operation, in ms.
	lat []float64
	// opsPerS is the workload's throughput over the window.
	opsPerS float64
	use     usage
}

// benchmark is one workload kind's implementation.
type benchmark interface {
	// setUp runs the i-th set-up.
	setUp(i int) error
	// measure runs the workload for d (at least one full input cycle),
	// recording spans when tr is non-nil.
	measure(d time.Duration, tr *tracer) window
	// layerMetrics adds the kind's own per-layer metrics after a traced
	// window.
	layerMetrics()
	close()
}

// runWorkload sets the workload up setupRuns times, then measures it.
// An untraced run measures for the whole duration and yields the
// end-to-end metrics. A traced run measures half the duration untraced
// as a baseline, then half with spans and a CPU profile, and yields
// the per-layer metrics.
func runWorkload(w workload, o options) (*result, error) {
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	g := golden[w.name]
	if len(g) == 0 {
		return nil, fmt.Errorf("golden.json has no hashes for %s", w.name)
	}
	res := newResult()
	var b benchmark
	if w.serve {
		b = &serveBench{res: res, seed: o.seed, golden: g}
	} else {
		if o.seed != goldenSeed {
			g = nil // other seeds are checked for identical bytes on every repeat
		}
		b = &batchBench{res: res, raw: w.spec, seed: o.seed, golden: g}
	}
	defer b.close()

	var setups []float64
	for i := range setupRuns {
		t0 := time.Now()
		if err := b.setUp(i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		win := measured(b, d, nil)
		res.metrics["lat_p50_ms"] = median(win.lat)
		res.metrics["ops_per_s"] = win.opsPerS
		res.metrics["cpu_s_per_op"] = win.use.cpu.Seconds() / float64(max(win.ops, 1))
		res.metrics["alloc_mb_per_op"] = float64(win.use.alloc) / 1e6 / float64(max(win.ops, 1))
		res.metrics["peak_rss_mb"] = peakRSSMB()
		res.metrics["setup_s"] = median(setups)
		res.counts["lat_p50_ms"] = len(win.lat)
		res.counts["setup_s"] = len(setups)
		return res, nil
	}

	base := measured(b, d/2, nil)
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	win := measured(b, d/2, tr)
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}

	for _, m := range perLayer {
		res.metrics[m.name] = 0
	}
	ops := float64(max(win.ops, 1))
	byLayer, total := newAttributor(layers).attribute(p)
	for name, ns := range byLayer {
		res.metrics[name] = float64(ns) / 1e9 / ops
	}
	res.metrics["trace.profile_cpu_s_per_op"] = float64(total) / 1e9 / ops
	if base.use.cpu > 0 && base.ops > 0 {
		res.metrics["trace.overhead_frac"] = win.use.cpu.Seconds()/ops/(base.use.cpu.Seconds()/float64(base.ops)) - 1
	}
	res.metrics["mem.mallocs_per_op"] = float64(win.use.mallocs) / ops
	res.metrics["mem.gc_cycles_per_op"] = float64(win.use.numGC) / ops
	res.metrics["mem.gc_pause_ms_per_op"] = float64(win.use.pauseNs) / 1e6 / ops
	res.metrics["proc.cpu_s_per_op"] = win.use.cpu.Seconds() / ops
	for _, name := range []string{"runspec.normalize", "runspec.hash", "runspec.run", "runspec.marshal"} {
		res.metrics[name+"_ms"] = tr.medianMs(name)
	}
	b.layerMetrics()
	if o.traceDir != "" {
		if err := writeTrace(o.traceDir, tr, prof.Bytes(), res.metrics); err != nil {
			return nil, fmt.Errorf("write trace: %w", err)
		}
	}
	return res, nil
}

// measured runs b.measure and records the resources it used.
func measured(b benchmark, d time.Duration, tr *tracer) window {
	u0 := readUsage()
	w := b.measure(d, tr)
	w.use = readUsage().since(u0)
	return w
}

// batchBench runs one spec family locally. Each op is the path a
// caller takes from a Spec to Report bytes: normalize, hash, run,
// marshal.
type batchBench struct {
	res    *result
	raw    string
	seed   int64
	golden []string // per slot; nil when the seed has no golden hashes
	slots  []*slot
	op     int64
}

// slot is one input of a batch run and the bytes its first run gave.
type slot struct {
	spec runspec.Spec
	ref  []byte
	rep  *runspec.Report
}

func (b *batchBench) setUp(i int) error {
	spec, err := runspec.DecodeSpec([]byte(b.raw))
	if err != nil {
		return err
	}
	seed := spec.SeedValue() + (b.seed-goldenSeed)*setupRuns + int64(i)
	spec.Seed = &seed
	if err := spec.Validate(); err != nil {
		return err
	}
	b.slots = append(b.slots, &slot{spec: spec})
	b.runOp(i, nil)
	return nil
}

func (b *batchBench) measure(d time.Duration, tr *tracer) window {
	var w window
	var busy float64
	start := time.Now()
	for i := 0; i < len(b.slots) || time.Since(start) < d; i++ {
		w.ops++
		if ms, ok := b.runOp(i%len(b.slots), tr); ok {
			w.lat = append(w.lat, ms)
			busy += ms
		}
	}
	if busy > 0 {
		w.opsPerS = float64(len(w.lat)) / (busy / 1e3)
	}
	return w
}

// runOp runs slot i once and checks its bytes: against the golden hash
// on its first run, when there is one, and against the first run's
// bytes after that. It returns the op's latency in ms.
func (b *batchBench) runOp(i int, tr *tracer) (float64, bool) {
	s := b.slots[i]
	b.op++
	b.res.attempted++
	fail := func(what string, err error) (float64, bool) {
		b.res.fail("slot %d (seed %d): %s: %v", i, s.spec.SeedValue(), what, err)
		return 0, false
	}

	t0 := time.Now()
	root := tr.begin("op", b.op, openSpan{})
	sp := tr.begin("runspec.normalize", b.op, root)
	n, err := s.spec.Normalized()
	sp.end()
	if err != nil {
		return fail("normalize", err)
	}
	sp = tr.begin("runspec.hash", b.op, root)
	_, err = n.CanonicalHash()
	sp.end()
	if err != nil {
		return fail("hash", err)
	}
	sp = tr.begin("runspec.run", b.op, root)
	rep, err := runspec.Run(n)
	sp.end()
	if err != nil {
		return fail("run", err)
	}
	sp = tr.begin("runspec.marshal", b.op, root)
	data, err := rep.JSON()
	sp.end()
	root.end()
	ms := float64(time.Since(t0)) / 1e6
	if err != nil {
		return fail("marshal", err)
	}

	switch {
	case s.ref == nil && b.golden != nil && (i >= len(b.golden) || sha256Hex(data) != b.golden[i]):
		return fail("golden check", fmt.Errorf("report SHA-256 %s is not the golden hash", sha256Hex(data)))
	case s.ref == nil:
		s.ref, s.rep = data, rep
	case !bytes.Equal(data, s.ref):
		return fail("repeat check", fmt.Errorf("report bytes differ from the slot's first run"))
	}
	return ms, true
}

func (b *batchBench) layerMetrics() {
	var reps []*runspec.Report
	var refs [][]byte
	for _, s := range b.slots {
		if s.rep != nil {
			reps = append(reps, s.rep)
			refs = append(refs, s.ref)
		}
	}
	addWork(b.res, reps, refs)
}

func (b *batchBench) close() {}

// addWork sets the work.* counts: the simulated work in the run's
// distinct inputs, summed. They are exact, so any change in them means
// a change in simulated behaviour.
func addWork(res *result, reps []*runspec.Report, raw [][]byte) {
	var wins, joins, served, arrivals, drops, comps, handoffs, size int64
	for i, r := range reps {
		if r == nil {
			continue // its failure is already recorded
		}
		wins += r.Totals.Wins
		joins += r.Totals.Joins
		served += r.Totals.Served
		arrivals += r.Totals.Arrivals
		drops += r.Totals.Drops
		if r.Spatial != nil {
			comps += int64(r.Spatial.Components)
		}
		if r.Churn != nil {
			handoffs += int64(r.Churn.Handoffs)
		}
		size += int64(len(raw[i]))
	}
	for name, v := range map[string]int64{
		"work.wins": wins, "work.joins": joins, "work.served": served, "work.arrivals": arrivals,
		"work.drops": drops, "work.components": comps, "work.handoffs": handoffs, "work.report_bytes": size,
	} {
		res.metrics[name] = float64(v)
	}
}
