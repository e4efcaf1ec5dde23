package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nplus/internal/runspec"
)

// execCounter counts executions per canonical hash — the seam the
// exactly-once assertions read.
type execCounter struct {
	mu     sync.Mutex
	counts map[string]int
}

func newExecCounter() *execCounter { return &execCounter{counts: map[string]int{}} }

func (c *execCounter) inc(hash string) {
	c.mu.Lock()
	c.counts[hash]++
	c.mu.Unlock()
}

func (c *execCounter) get(hash string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.counts[hash]
}

func (c *execCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := 0
	for _, n := range c.counts {
		t += n
	}
	return t
}

// countingRun is a fast fake executor: it records the execution per
// canonical hash and returns a report that is a pure function of the
// spec, so duplicate responses must be byte-identical.
func countingRun(c *execCounter) func(runspec.Spec) (*runspec.Report, error) {
	return func(n runspec.Spec) (*runspec.Report, error) {
		hash, err := n.CanonicalHash()
		if err != nil {
			return nil, err
		}
		c.inc(hash)
		time.Sleep(time.Millisecond) // widen the coalescing window
		return &runspec.Report{Spec: n, ElapsedS: float64(n.SeedValue())}, nil
	}
}

// trioSpec builds a distinct valid spec per seed.
func trioSpec(seed int64) runspec.Spec {
	s := runspec.Spec{Scenario: "trio"}
	s.Seed = &seed
	return s
}

func postSpec(t *testing.T, url string, s runspec.Spec) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// metricValue reads one series value from a live /metrics snapshot.
func metricValue(t *testing.T, baseURL, name string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Series []struct {
			Name  string  `json:"name"`
			Value float64 `json:"value"`
		} `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	for _, sr := range snap.Series {
		if sr.Name == name {
			return sr.Value
		}
	}
	return 0
}

// TestConcurrentCacheSingleExecution is the concurrent-cache contract
// under -race: many goroutines hammering POST /run with a mix of
// identical and distinct specs must observe exactly one execution per
// distinct canonical hash — first requester runs, concurrent
// duplicates coalesce, later duplicates hit the cache — and every
// duplicate must read byte-identical response bodies.
func TestConcurrentCacheSingleExecution(t *testing.T) {
	counter := newExecCounter()
	s := New(Config{Run: countingRun(counter)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	const goroutines = 32
	const requestsPer = 8
	const distinct = 4

	var wg sync.WaitGroup
	responses := make([][][]byte, distinct) // [seed][]body
	var rmu sync.Mutex
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < requestsPer; r++ {
				seed := int64((g + r) % distinct)
				resp, data := postSpec(t, ts.URL+"/run", trioSpec(seed))
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("seed %d: status %d: %s", seed, resp.StatusCode, data)
					return
				}
				rmu.Lock()
				responses[seed] = append(responses[seed], data)
				rmu.Unlock()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for seed := 0; seed < distinct; seed++ {
		hash, err := trioSpec(int64(seed)).CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		if got := counter.get(hash); got != 1 {
			t.Errorf("seed %d: %d executions, want exactly 1", seed, got)
		}
		bodies := responses[seed]
		if len(bodies) != goroutines*requestsPer/distinct {
			t.Fatalf("seed %d: %d responses collected", seed, len(bodies))
		}
		for i, b := range bodies[1:] {
			if !bytes.Equal(b, bodies[0]) {
				t.Fatalf("seed %d: response %d differs from response 0:\n%s\nvs\n%s", seed, i+1, b, bodies[0])
			}
		}
	}
	if got := counter.total(); got != distinct {
		t.Errorf("%d total executions, want %d", got, distinct)
	}
	if hits := metricValue(t, ts.URL, MetricCacheHits); hits <= 0 {
		t.Errorf("cache_hits = %v, want > 0 after duplicate requests", hits)
	}
	if execs := metricValue(t, ts.URL, MetricRunsExecuted); execs != distinct {
		t.Errorf("runs_executed = %v, want %d", execs, distinct)
	}
}

// TestSweepStreamsIncrementally pins the streaming contract: a sweep
// row must arrive on the wire as soon as its grid point completes,
// while later points are still executing — the grid is never buffered
// whole.
func TestSweepStreamsIncrementally(t *testing.T) {
	gates := map[int64]chan struct{}{1: make(chan struct{}), 2: make(chan struct{})}
	run := func(n runspec.Spec) (*runspec.Report, error) {
		<-gates[n.SeedValue()]
		return &runspec.Report{Spec: n, ElapsedS: float64(n.SeedValue())}, nil
	}
	s := New(Config{Run: run, Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	sweep := `{"base": {"scenario": "trio"}, "seeds": [1, 2]}`
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(sweep))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}

	rows := make(chan string, 2)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			rows <- sc.Text()
		}
		close(rows)
	}()

	readRow := func(label string) string {
		t.Helper()
		select {
		case row, ok := <-rows:
			if !ok {
				t.Fatalf("%s: stream closed early", label)
			}
			return row
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no row within 5s — sweep is buffering instead of streaming", label)
			return ""
		}
	}

	// Point 2 is still gated when point 1 completes; row 1 must arrive
	// anyway.
	close(gates[1])
	row1 := readRow("row 1 (point 2 still running)")
	var rep1 runspec.Report
	if err := json.Unmarshal([]byte(row1), &rep1); err != nil {
		t.Fatalf("row 1 is not a Report: %v\n%s", err, row1)
	}
	if rep1.Spec.SeedValue() != 1 {
		t.Errorf("row 1 carries seed %d, want 1 (grid order)", rep1.Spec.SeedValue())
	}
	close(gates[2])
	row2 := readRow("row 2")
	var rep2 runspec.Report
	if err := json.Unmarshal([]byte(row2), &rep2); err != nil {
		t.Fatalf("row 2 is not a Report: %v\n%s", err, row2)
	}
	if rep2.Spec.SeedValue() != 2 {
		t.Errorf("row 2 carries seed %d, want 2 (grid order)", rep2.Spec.SeedValue())
	}
	if _, ok := <-rows; ok {
		t.Error("more than 2 rows for a 2-point sweep")
	}
}

// TestSweepSharedPointsComputeOnce pins the memoization half of the
// sweep path: grid points already served by /run (or by a previous
// sweep) are answered from the cache — no second execution — and a
// repeated sweep executes nothing at all.
func TestSweepSharedPointsComputeOnce(t *testing.T) {
	counter := newExecCounter()
	s := New(Config{Run: countingRun(counter)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	// Serve seed 1 through /run first.
	resp, runBody := postSpec(t, ts.URL+"/run", trioSpec(1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run status %d: %s", resp.StatusCode, runBody)
	}

	sweep := `{"base": {"scenario": "trio"}, "seeds": [1, 2, 3]}`
	post := func() []string {
		resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(sweep))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("sweep status %d", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
		return lines
	}

	rows1 := post()
	if len(rows1) != 3 {
		t.Fatalf("first sweep: %d rows, want 3", len(rows1))
	}
	if got := counter.total(); got != 3 { // seed 1 from /run + seeds 2, 3
		t.Errorf("after /run + first sweep: %d executions, want 3", got)
	}
	// The shared point's row must be the compact form of the /run bytes.
	var compact bytes.Buffer
	if err := json.Compact(&compact, runBody); err != nil {
		t.Fatal(err)
	}
	if rows1[0] != compact.String() {
		t.Errorf("shared grid point row differs from its /run report:\n%s\nvs\n%s", rows1[0], compact.String())
	}

	rows2 := post()
	if len(rows2) != 3 {
		t.Fatalf("second sweep: %d rows, want 3", len(rows2))
	}
	for i := range rows1 {
		if rows1[i] != rows2[i] {
			t.Errorf("row %d changed across sweeps:\n%s\nvs\n%s", i, rows1[i], rows2[i])
		}
	}
	if got := counter.total(); got != 3 {
		t.Errorf("repeated sweep re-executed: %d executions, want still 3", got)
	}
}

// TestBackpressure429 pins the bounded-queue contract: with one
// worker busy and the one queue slot taken, the next distinct spec is
// rejected immediately with ErrBusy (HTTP 429), and cache hits keep
// being served while the queue is full.
func TestBackpressure429(t *testing.T) {
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	run := func(n runspec.Spec) (*runspec.Report, error) {
		entered <- struct{}{}
		<-gate
		return &runspec.Report{Spec: n, ElapsedS: float64(n.SeedValue())}, nil
	}
	s := New(Config{Run: run, Workers: 1, QueueDepth: 1})
	defer s.Close()

	attach := func(seed int64) (ticket, error) {
		t.Helper()
		n, err := trioSpec(seed).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := n.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		return s.attach(n, hash)
	}

	// Seed 1 occupies the worker, seed 2 the single queue slot.
	tk1, err := attach(1)
	if err != nil {
		t.Fatal(err)
	}
	<-entered // worker picked up seed 1 and is blocked in run
	tk2, err := attach(2)
	if err != nil {
		t.Fatal(err)
	}
	// Seed 3 finds the queue full: explicit backpressure.
	if _, err := attach(3); err != ErrBusy {
		t.Fatalf("third distinct spec: err = %v, want ErrBusy", err)
	}
	// A duplicate of an in-flight spec still coalesces — backpressure
	// applies to new work, not to joining existing work.
	tkDup, err := attach(1)
	if err != nil {
		t.Fatalf("duplicate of in-flight spec rejected: %v", err)
	}
	if !tkDup.coalesced {
		t.Error("duplicate of in-flight spec did not coalesce")
	}

	close(gate)
	ctx := context.Background()
	for _, tk := range []ticket{tk1, tk2, tkDup} {
		if _, err := s.await(ctx, tk); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCancelledQueuedJobNeverRuns pins client-disconnect semantics: a
// job whose only waiter cancels while it is still queued is skipped,
// not executed.
func TestCancelledQueuedJobNeverRuns(t *testing.T) {
	counter := newExecCounter()
	gate := make(chan struct{})
	entered := make(chan struct{}, 8)
	run := func(n runspec.Spec) (*runspec.Report, error) {
		hash, _ := n.CanonicalHash()
		counter.inc(hash)
		entered <- struct{}{}
		<-gate
		return &runspec.Report{Spec: n}, nil
	}
	s := New(Config{Run: run, Workers: 1, QueueDepth: 4})
	defer s.Close()

	attach := func(seed int64) ticket {
		t.Helper()
		n, err := trioSpec(seed).Canonical()
		if err != nil {
			t.Fatal(err)
		}
		hash, err := n.CanonicalHash()
		if err != nil {
			t.Fatal(err)
		}
		tk, err := s.attach(n, hash)
		if err != nil {
			t.Fatal(err)
		}
		return tk
	}

	tk1 := attach(1)
	<-entered // seed 1 holds the only worker
	tk2 := attach(2)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.await(ctx, tk2); err != context.Canceled {
		t.Fatalf("await on cancelled context: %v", err)
	}

	close(gate)
	if _, err := s.await(context.Background(), tk1); err != nil {
		t.Fatal(err)
	}
	// Drain the pool so a skipped job would have had every chance to
	// run before we assert.
	s.Close()
	hash2, _ := trioSpec(2).CanonicalHash()
	if got := counter.get(hash2); got != 0 {
		t.Errorf("cancelled queued job executed %d times, want 0", got)
	}
}

// TestDrainCompletesQueuedWork pins graceful-drain semantics: Close
// rejects new work but every already-admitted execution completes and
// its waiters get their bytes.
func TestDrainCompletesQueuedWork(t *testing.T) {
	counter := newExecCounter()
	s := New(Config{Run: countingRun(counter)})

	n, err := trioSpec(7).Canonical()
	if err != nil {
		t.Fatal(err)
	}
	hash, err := n.CanonicalHash()
	if err != nil {
		t.Fatal(err)
	}
	tk, err := s.attach(n, hash)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		data, err := s.await(context.Background(), tk)
		if err == nil && len(data) == 0 {
			err = fmt.Errorf("empty response after drain")
		}
		done <- err
	}()
	s.Close()
	if err := <-done; err != nil {
		t.Fatalf("queued work did not complete across drain: %v", err)
	}
	if _, err := s.attach(n, hash); err != ErrDraining {
		t.Fatalf("attach after Close: %v, want ErrDraining", err)
	}
}

// TestLRUBoundEvicts pins the cache bound: beyond CacheCap memoized
// reports, the least-recently-used line is evicted and a repeat of it
// re-executes.
func TestLRUBoundEvicts(t *testing.T) {
	counter := newExecCounter()
	s := New(Config{Run: countingRun(counter), CacheCap: 2, Workers: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	for _, seed := range []int64{1, 2, 3} { // 3 distinct lines, cap 2: seed 1 evicted
		if resp, body := postSpec(t, ts.URL+"/run", trioSpec(seed)); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: status %d: %s", seed, resp.StatusCode, body)
		}
	}
	if resp, body := postSpec(t, ts.URL+"/run", trioSpec(1)); resp.StatusCode != http.StatusOK {
		t.Fatalf("re-run status %d: %s", resp.StatusCode, body)
	}
	hash1, _ := trioSpec(1).CanonicalHash()
	if got := counter.get(hash1); got != 2 {
		t.Errorf("evicted spec executed %d times, want 2 (initial + after eviction)", got)
	}
	if ev := metricValue(t, ts.URL, MetricCacheEvictions); ev < 1 {
		t.Errorf("cache_evictions = %v, want >= 1", ev)
	}
}

// TestBadSpecRejected pins validation at the edge: malformed JSON,
// unknown fields, registry violations, and server-side output paths
// are all 400s, and none of them reach the execution queue.
func TestBadSpecRejected(t *testing.T) {
	counter := newExecCounter()
	s := New(Config{Run: countingRun(counter)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	for name, body := range map[string]string{
		"malformed":     `{"scenario": `,
		"unknown field": `{"scenaario": "trio"}`,
		"bad registry":  `{"scenario": "no-such-scenario"}`,
		"bad knob":      `{"scenario": "trio", "rate_pps": 100}`,
		"events path":   `{"topo": "disk-uplink", "nodes": 16, "traffic": "poisson", "observe": {"events": "/tmp/evil.jsonl"}}`,
	} {
		resp, err := http.Post(ts.URL+"/run", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := counter.total(); got != 0 {
		t.Errorf("invalid specs reached execution %d times", got)
	}
	// Method discipline: /run is POST-only.
	resp, err := http.Get(ts.URL + "/run")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /run: status %d, want 405", resp.StatusCode)
	}
}

// TestSweepOverCapRejected pins the grid bound at the edge: a small
// /sweep body asking for more than runspec.MaxSweepPoints points is a
// 400 before any point is built or queued.
func TestSweepOverCapRejected(t *testing.T) {
	counter := newExecCounter()
	s := New(Config{Run: countingRun(counter)})
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	rates := make([]string, runspec.MaxSweepPoints+1)
	for i := range rates {
		rates[i] = fmt.Sprint(i + 1)
	}
	body := `{"base": {"topo": "disk-adhoc", "traffic": "poisson"}, "rates": [` + strings.Join(rates, ",") + `]}`
	resp, err := http.Post(ts.URL+"/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", resp.StatusCode, msg)
	}
	if depth := metricValue(t, ts.URL, MetricQueueDepth); depth != 0 {
		t.Errorf("queue_depth = %v after a rejected sweep, want 0", depth)
	}
	if got := counter.total(); got != 0 {
		t.Errorf("over-cap sweep reached execution %d times", got)
	}
}

// TestServedReportMatchesLocalRun is the end-to-end equivalence pin
// with the real executor: the served bytes for a spec are exactly
// what a local runspec.Run + Report.JSON produces, a repeated POST is
// a cache hit, and /healthz answers.
func TestServedReportMatchesLocalRun(t *testing.T) {
	s := New(Config{}) // real runspec.Run
	defer s.Close()
	ts := httptest.NewServer(s.Handler(false))
	defer ts.Close()

	seed := int64(4)
	spec := runspec.Spec{Topo: "disk-uplink", Nodes: 16, Traffic: "poisson", RatePPS: 100, DurationS: 0.005, Seed: &seed}
	rep, err := runspec.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	local, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	local = append(local, '\n')

	resp, served := postSpec(t, ts.URL+"/run", spec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, served)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first POST X-Cache = %q, want miss", resp.Header.Get("X-Cache"))
	}
	if !bytes.Equal(served, local) {
		t.Fatalf("served report differs from local run:\n%s\nvs\n%s", served, local)
	}

	resp2, served2 := postSpec(t, ts.URL+"/run", spec)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("second POST X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(served2, served) {
		t.Error("cache hit returned different bytes")
	}

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hbody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || string(hbody) != "ok\n" {
		t.Errorf("healthz: %d %q", hresp.StatusCode, hbody)
	}
}
