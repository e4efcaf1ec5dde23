package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"text/tabwriter"
)

// metricDef declares one reported metric; BENCHMARK.json declares the
// same names and units (the tests hold the two in step).
type metricDef struct {
	name, unit string
}

// endToEnd metrics are printed by an untraced run (-trace 0).
var endToEnd = []metricDef{
	{"lat_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_s_per_op", "s"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer metrics are printed by a traced run (-trace 1). A layer a
// workload never enters reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runspec.normalize_ms", "ms"},
		{"runspec.hash_ms", "ms"},
		{"runspec.run_ms", "ms"},
		{"runspec.marshal_ms", "ms"},
		{"serve.hit_ms.p50", "ms"},
		{"serve.hit_ms.p99", "ms"},
		{"serve.miss_ms.p50", "ms"},
		{"serve.miss_ms.p99", "ms"},
		{"serve.exec_ms.p50", "ms"},
		{"serve.hit_ratio", "frac"},
		{"serve.coalesced", "count"},
		{"serve.rejected_busy", "count"},
		{"serve.peak_queue_depth", "count"},
		{"serve.runs_executed", "count"},
		{"loadgen.lag_ms.p99", "ms"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l.name, "s"})
	}
	return append(defs,
		metricDef{otherLayer, "s"},
		metricDef{"trace.profile_cpu_s_per_op", "s"},
		metricDef{"trace.overhead_frac", "frac"},
		metricDef{"work.wins", "count"},
		metricDef{"work.joins", "count"},
		metricDef{"work.served", "count"},
		metricDef{"work.arrivals", "count"},
		metricDef{"work.drops", "count"},
		metricDef{"work.components", "count"},
		metricDef{"work.handoffs", "count"},
		metricDef{"work.report_bytes", "count"},
		metricDef{"mem.mallocs_per_op", "count"},
		metricDef{"mem.gc_cycles_per_op", "count"},
		metricDef{"mem.gc_pause_ms_per_op", "ms"},
		metricDef{"proc.cpu_s_per_op", "s"},
	)
}()

// result is one workload run's outcome.
type result struct {
	attempted, failed int
	// problems describes every failed check; a non-empty list makes
	// the run incorrect even when no operation failed (an invalid
	// load generator, for one).
	problems []string
	metrics  map[string]float64
	// counts records the sample count behind each timing, for the
	// readable table.
	counts map[string]int
}

func newResult() *result {
	return &result{metrics: map[string]float64{}, counts: map[string]int{}}
}

// fail records a failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// invalid records a failed check that is not an operation.
func (r *result) invalid(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return r.failed == 0 && len(r.problems) == 0 }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result as the benchmark's one-line JSON summary,
// holding exactly the declared metrics. A declared metric the run did
// not compute, or a computed one not declared, is an error, so a
// metric cannot silently go missing or go unreported.
func (r *result) line(defs []metricDef) ([]byte, error) {
	if len(r.metrics) != len(defs) {
		return nil, fmt.Errorf("computed %d metrics for %d declared ones", len(r.metrics), len(defs))
	}
	out := resultLine{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		out.Metrics[d.name] = metricValue{v, d.unit}
	}
	return json.Marshal(out)
}

// table writes the declared metrics as a readable table.
func (r *result) table(w io.Writer, defs []metricDef) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tn")
	sorted := append([]metricDef(nil), defs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, d := range sorted {
		n := ""
		if c, ok := r.counts[d.name]; ok {
			n = fmt.Sprint(c)
		}
		fmt.Fprintf(tw, "%s\t%.6g\t%s\t%s\n", d.name, r.metrics[d.name], d.unit, n)
	}
	tw.Flush()
}
