package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"flag"
	"io"
	"math"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"nplus/internal/runspec"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from local runs at the golden seed")

// TestGoldenFile rewrites testdata/golden.json under -update. The
// hashes come from plain runspec.Run calls, independent of the
// benchmark's own paths, so the benchmark's served and repeated bytes
// are checked against a reference.
func TestGoldenFile(t *testing.T) {
	if !*update {
		t.Skip("run with -update to rewrite testdata/golden.json")
	}
	hashOf := func(s runspec.Spec) string {
		rep, err := runspec.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return sha256Hex(data)
	}
	g := map[string][]string{}
	for _, w := range workloads {
		if w.serve {
			for _, s := range hotSet() {
				g[w.name] = append(g[w.name], hashOf(s))
			}
			continue
		}
		for i := range setupRuns {
			s, err := runspec.DecodeSpec([]byte(w.spec))
			if err != nil {
				t.Fatal(err)
			}
			seed := s.SeedValue() + int64(i)
			s.Seed = &seed
			g[w.name] = append(g[w.name], hashOf(s))
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile("testdata/golden.json", append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestMetricNames holds the metric tables, the workload list and
// BENCHMARK.json in step: every printed name is well formed and
// declared with the same unit, and every declared name is printed.
func TestMetricNames(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mode     string
		printed  []metricDef
		declared []declared
	}{{"end_to_end", endToEnd, bf.EndToEnd}, {"per_layer", perLayer, bf.PerLayer}} {
		want := map[string]string{}
		for _, d := range c.declared {
			want[d.Name] = d.Unit
		}
		seen := map[string]bool{}
		for _, m := range c.printed {
			if !metricName.MatchString(m.name) {
				t.Errorf("%s metric %q does not match %s", c.mode, m.name, metricName)
			}
			if seen[m.name] {
				t.Errorf("%s metric %q printed twice", c.mode, m.name)
			}
			seen[m.name] = true
			if unit, ok := want[m.name]; !ok {
				t.Errorf("%s metric %q is printed but not declared", c.mode, m.name)
			} else if unit != m.unit {
				t.Errorf("%s metric %q has unit %q, declared %q", c.mode, m.name, m.unit, unit)
			}
		}
		for name := range want {
			if !seen[name] {
				t.Errorf("%s metric %q is declared but not printed", c.mode, name)
			}
		}
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, npbench has %s", got, want)
	}
}

// TestWorkloads runs every workload briefly, traced, and requires
// every check to pass, every per-layer metric to be printed, and the
// cpu.* layers to partition the profiled CPU. The two cheapest
// workloads also run untraced, for the end-to-end metrics.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res := runChecked(t, w, options{seed: goldenSeed, seconds: 1, trace: true}, perLayer)
			var sum float64
			for name, v := range res.metrics {
				if strings.HasPrefix(name, "cpu.") {
					sum += v
				}
			}
			total := res.metrics["trace.profile_cpu_s_per_op"]
			if total <= 0 || math.Abs(sum-total) > 0.01*total {
				t.Errorf("cpu.* layers sum to %g s/op, profiled CPU is %g s/op", sum, total)
			}
			if w.name == "uplink-saturated" || w.name == "serve-mixed" {
				runChecked(t, w, options{seed: 2, seconds: 1}, endToEnd)
			}
		})
	}
}

func runChecked(t *testing.T, w workload, o options, defs []metricDef) *result {
	t.Helper()
	res, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	if !res.correct() {
		t.Fatalf("checks failed: %s", strings.Join(res.problems, "; "))
	}
	line, err := res.line(defs)
	if err != nil {
		t.Fatal(err)
	}
	var parsed resultLine
	if err := json.Unmarshal(line, &parsed); err != nil {
		t.Fatal(err)
	}
	if !parsed.Correct || parsed.Attempted < 1 || parsed.Failed != 0 || len(parsed.Metrics) != len(defs) {
		t.Errorf("summary line %s", line)
	}
	return res
}

//go:noinline
func burn(d time.Duration) float64 {
	x := 1.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1e5; i++ {
			x = math.Sqrt(x + float64(i))
		}
	}
	return x
}

var sink float64

// TestProfileAttribution decodes a real CPU profile taken around a busy
// function and requires nearly all samples in that function's layer.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	sink = burn(time.Second)
	pprof.StopCPUProfile()
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if p.valueIndex("cpu") < 0 || len(p.samples) == 0 {
		t.Fatalf("profile has sample types %v and %d samples", p.sampleTypes, len(p.samples))
	}
	byLayer, total := newAttributor([]layer{{"busy", []string{`\.burn$`}}}).attribute(p)
	if total <= 0 || float64(byLayer["busy"]) < 0.9*float64(total) {
		t.Errorf("busy layer got %d of %d sampled ns (%v)", byLayer["busy"], total, byLayer)
	}
	if byLayer["busy"]+byLayer[otherLayer] != total {
		t.Errorf("layers sum to %d, total %d", byLayer["busy"]+byLayer[otherLayer], total)
	}

	// A truncated profile is an error, never a panic.
	raw := gunzipped(t, buf.Bytes())
	for _, n := range []int{1, len(raw) / 3, len(raw) - 1} {
		if _, err := parseProfile(raw[:n]); err == nil {
			t.Errorf("profile truncated to %d of %d bytes decoded without error", n, len(raw))
		}
	}
}

func gunzipped(t *testing.T, b []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}
