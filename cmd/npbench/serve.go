package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"nplus/internal/runspec"
	"nplus/internal/serve"
	"nplus/internal/sim"
)

// serve-mixed load shape.
const (
	// openLoopRPS is phase A's Poisson request rate.
	openLoopRPS = 80
	// mixBlock: of every mixBlock requests one is a fresh spec and the
	// rest repeat hot-set specs (75% hits).
	mixBlock = 4
	// openLoopShare of the measured time is phase A (open loop); the
	// rest is phase B (closed loop).
	openLoopShare = 0.25
	// openLoopConns caps phase A's connections. It is well above the
	// requests phase A has in flight, so a hit never waits for a
	// connection a miss holds: independent users do not queue behind
	// each other in the client.
	openLoopConns = 16
	// clients is the number of phase-B clients, each on one
	// connection: the CPU count of the reference box.
	clients = 2
	// maxLagMs bounds the generator's p99 lateness: beyond it the
	// generator, not the server, set the latencies, and the run is
	// invalid.
	maxLagMs = 5
	// requestTimeout bounds one request, so a stuck server fails the
	// run instead of hanging it.
	requestTimeout = 60 * time.Second
)

// The hot set is the delay-sweep family (examples/specs/delay-sweep.json):
// 16-node ad-hoc disks, 0.05 s, every rate × mode × seed below, in
// this order (golden.json follows it).
var (
	familyRates = []float64{100, 400, 1600}
	familyModes = []string{"nplus", "80211n"}
	hotSeeds    = []int64{1, 2, 3, 4}
)

func familySpec(rate float64, mode string, seed int64) runspec.Spec {
	return runspec.Spec{Name: "delay-sweep", Topo: "disk-adhoc", Nodes: 16, Traffic: "poisson",
		RatePPS: rate, Mode: mode, DurationS: 0.05, Seed: &seed}
}

func hotSet() []runspec.Spec {
	var out []runspec.Spec
	for _, seed := range hotSeeds {
		for _, rate := range familyRates {
			for _, mode := range familyModes {
				out = append(out, familySpec(rate, mode, seed))
			}
		}
	}
	return out
}

// request is one planned /run request.
type request struct {
	spec runspec.Spec
	body []byte
	// golden is the hot-set spec's report hash; empty for a fresh spec.
	golden string
}

// reply is what one request observed.
type reply struct {
	ms    float64 // from due time to the last body byte
	cache string  // X-Cache
	ok    bool
}

// serveBench drives an in-process npserve over loopback HTTP.
type serveBench struct {
	res    *result
	seed   int64
	golden []string
	hot    []request

	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client

	mu      sync.Mutex // guards res and the reports below
	reports []*runspec.Report
	raws    [][]byte
	window  int64
	misses  atomic.Int64 // fresh specs planned so far, for unique seeds
	op      atomic.Int64
	hitLat  []float64 // last window's phase-A latencies by cache outcome
	missLat []float64
	lags    []float64
}

// setUp starts a fresh server, waits for /healthz, and fills the hot
// set into its cache, checking every report against the golden hashes.
func (b *serveBench) setUp(int) error {
	b.close()
	specs := hotSet()
	if len(b.golden) != len(specs) {
		return fmt.Errorf("golden.json has %d serve hashes for %d hot-set specs", len(b.golden), len(specs))
	}
	b.hot = b.hot[:0]
	for i, s := range specs {
		if err := s.Validate(); err != nil {
			return err
		}
		body, err := json.Marshal(s)
		if err != nil {
			return err
		}
		b.hot = append(b.hot, request{spec: s, body: body, golden: b.golden[i]})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	// One CPU is left to the HTTP path and the in-process load
	// generator. With npserve's default of one execution worker per
	// CPU, two simulations hold both CPUs of a 2-CPU box and the
	// generator falls behind its schedule (lag p99 5.9 ms measured).
	b.srv = serve.New(serve.Config{Workers: max(1, runtime.NumCPU()-1)})
	b.hs = &http.Server{Handler: b.srv.Handler(false)}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.url = "http://" + ln.Addr().String()
	b.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: openLoopConns, MaxIdleConnsPerHost: openLoopConns},
		Timeout:   requestTimeout,
	}
	if err := b.waitHealthy(); err != nil {
		return err
	}

	b.reports, b.raws = make([]*runspec.Report, len(b.hot)), make([][]byte, len(b.hot))
	var next atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(b.hot); i = int(next.Add(1) - 1) {
				r := b.post(b.hot[i], time.Now(), nil, func(body []byte) {
					var rep runspec.Report
					if err := json.Unmarshal(body, &rep); err != nil {
						b.failf("hot-set report %d: %v", i, err)
						return
					}
					b.mu.Lock()
					b.reports[i], b.raws[i] = &rep, bytes.TrimSuffix(body, []byte("\n"))
					b.mu.Unlock()
				})
				if r.ok && r.cache != "miss" {
					b.failf("hot-set fill of spec %d answered X-Cache %q on a fresh server", i, r.cache)
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

func (b *serveBench) waitHealthy() error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := b.client.Get(b.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after 10 s: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (b *serveBench) failf(format string, args ...any) {
	b.mu.Lock()
	b.res.fail(format, args...)
	b.mu.Unlock()
}

// post sends one request and checks the answer: status 200, the
// X-Canonical-Hash of the locally normalized spec, and either the
// golden report hash (hot set) or a well-formed JSON body (fresh
// spec). The latency runs from due to the last body byte; the local
// normalize and hash come after it. onBody, if set, sees a checked
// body.
func (b *serveBench) post(r request, due time.Time, tr *tracer, onBody func([]byte)) reply {
	op := b.op.Add(1)
	b.mu.Lock()
	b.res.attempted++
	b.mu.Unlock()

	root := tr.begin("request", op, openSpan{})
	resp, err := b.client.Post(b.url+"/run", "application/json", bytes.NewReader(r.body))
	if err != nil {
		b.failf("POST /run: %v", err)
		return reply{}
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	root.end()
	out := reply{ms: float64(time.Since(due)) / 1e6, cache: resp.Header.Get("X-Cache")}
	if err != nil {
		b.failf("read /run response: %v", err)
		return reply{}
	}
	if resp.StatusCode != http.StatusOK {
		b.failf("POST /run: status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
		return reply{}
	}

	sp := tr.begin("runspec.normalize", op, root)
	n, err := r.spec.Normalized()
	sp.end()
	if err != nil {
		b.failf("normalize: %v", err)
		return reply{}
	}
	sp = tr.begin("runspec.hash", op, root)
	hash, err := n.CanonicalHash()
	sp.end()
	switch {
	case err != nil:
		b.failf("hash: %v", err)
		return reply{}
	case resp.Header.Get("X-Canonical-Hash") != hash:
		b.failf("X-Canonical-Hash %q, want %q", resp.Header.Get("X-Canonical-Hash"), hash)
		return reply{}
	case r.golden != "" && sha256Hex(bytes.TrimSuffix(body, []byte("\n"))) != r.golden:
		b.failf("hot-set report (seed %d, rate %g, mode %s) is not the golden hash", n.SeedValue(), n.RatePPS, n.Mode)
		return reply{}
	case r.golden == "" && !json.Valid(body):
		b.failf("fresh report (seed %d) is not valid JSON", n.SeedValue())
		return reply{}
	}
	if onBody != nil {
		onBody(body)
	}
	out.ok = true
	return out
}

// mixer draws one stream of requests. Each block of mixBlock requests
// holds exactly one fresh spec, at a random position; fresh specs
// cycle through the family's rate × mode grid with seeds no request
// used before, and hits are uniform over the hot set. Every run thus
// offers the same proportions of work, and only the seeds differ.
type mixer struct {
	b       *serveBench
	rng     *rand.Rand
	n       int
	freshAt int
	fresh   int
}

func (b *serveBench) newMixer(stream, index int64) *mixer {
	return &mixer{b: b, rng: rand.New(rand.NewSource(sim.DeriveSeed(sim.DeriveSeed(b.seed, stream), index)))}
}

func (m *mixer) next() request {
	if m.n%mixBlock == 0 {
		m.freshAt = m.rng.Intn(mixBlock)
	}
	m.n++
	if (m.n-1)%mixBlock != m.freshAt {
		return m.b.hot[m.rng.Intn(len(m.b.hot))]
	}
	combo := m.fresh % (len(familyRates) * len(familyModes))
	m.fresh++
	const freshStream = 1
	seed := sim.DeriveSeed(sim.DeriveSeed(m.b.seed, freshStream), m.b.misses.Add(1))
	s := familySpec(familyRates[combo/len(familyModes)], familyModes[combo%len(familyModes)], seed)
	body, _ := json.Marshal(s) // a Spec of plain fields always encodes
	return request{spec: s, body: body}
}

// measure runs phase A, an open loop: requests leave on a Poisson
// schedule drawn from the seed whatever the completions, each timed
// from its due time. Then phase B, a closed loop: each client sends
// its next request when the last one is answered. Latencies come from
// phase A, throughput from phase B.
func (b *serveBench) measure(d time.Duration, tr *tracer) window {
	b.window++
	dA := time.Duration(float64(d) * openLoopShare)
	dB := d - dA

	const scheduleStream, clientStream = 2, 3
	mix := b.newMixer(scheduleStream, b.window)
	var plan []request
	var at []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(mix.rng.ExpFloat64() / openLoopRPS * float64(time.Second))
		if t >= dA {
			break
		}
		at = append(at, t)
		plan = append(plan, mix.next())
	}

	var w window
	var mu sync.Mutex
	var wg sync.WaitGroup
	b.hitLat, b.missLat, b.lags = nil, nil, nil
	start := time.Now()
	for i, r := range plan {
		due := start.Add(at[i])
		time.Sleep(time.Until(due))
		b.lags = append(b.lags, float64(time.Since(due))/1e6)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := b.post(r, due, tr, nil)
			if !rp.ok {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			w.lat = append(w.lat, rp.ms)
			if rp.cache == "hit" {
				b.hitLat = append(b.hitLat, rp.ms)
			} else {
				b.missLat = append(b.missLat, rp.ms)
			}
		}()
	}
	wg.Wait()
	w.ops = len(plan)
	if lag := percentile(b.lags, 99); lag > maxLagMs {
		b.mu.Lock()
		b.res.invalid("load generator lag p99 %.2f ms exceeds %d ms: latencies are the generator's, not the server's", lag, maxLagMs)
		b.mu.Unlock()
	}

	var done, sent atomic.Int64
	startB := time.Now()
	for c := range clients {
		mix := b.newMixer(clientStream, b.window*clients+int64(c))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(startB) < dB {
				sent.Add(1)
				if b.post(mix.next(), time.Now(), tr, nil).ok {
					done.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	w.ops += int(sent.Load())
	w.opsPerS = float64(done.Load()) / time.Since(startB).Seconds()
	return w
}

// layerMetrics reads the serving metrics from GET /metrics and adds
// the phase-A latency split of the traced window.
func (b *serveBench) layerMetrics() {
	m := b.res.metrics
	m["serve.hit_ms.p50"] = median(b.hitLat)
	m["serve.hit_ms.p99"] = percentile(b.hitLat, 99)
	m["serve.miss_ms.p50"] = median(b.missLat)
	m["serve.miss_ms.p99"] = percentile(b.missLat, 99)
	m["loadgen.lag_ms.p99"] = percentile(b.lags, 99)
	b.res.counts["serve.hit_ms.p50"] = len(b.hitLat)
	b.res.counts["serve.hit_ms.p99"] = len(b.hitLat)
	b.res.counts["serve.miss_ms.p50"] = len(b.missLat)
	b.res.counts["serve.miss_ms.p99"] = len(b.missLat)
	b.res.counts["loadgen.lag_ms.p99"] = len(b.lags)

	snap, err := b.metricsSnapshot()
	if err != nil {
		b.res.invalid("GET /metrics: %v", err)
		return
	}
	counter := func(name string) float64 {
		for _, s := range snap.Series {
			if s.Name == name {
				return s.Value
			}
		}
		return 0 // zero-valued series omit their value
	}
	if req := counter(serve.MetricRequestsRun); req > 0 {
		m["serve.hit_ratio"] = counter(serve.MetricCacheHits) / req
	}
	m["serve.coalesced"] = counter(serve.MetricCoalesced)
	m["serve.rejected_busy"] = counter(serve.MetricRejectedBusy)
	m["serve.peak_queue_depth"] = counter(serve.MetricPeakQueue)
	m["serve.runs_executed"] = counter(serve.MetricRunsExecuted)
	for _, s := range snap.Series {
		if s.Name == serve.MetricRunWallMs && s.Hist != nil {
			m["serve.exec_ms.p50"] = s.Hist.P50
			b.res.counts["serve.exec_ms.p50"] = s.Hist.N
		}
	}
	addWork(b.res, b.reports, b.raws)
}

// snapshot is the part of GET /metrics the benchmark reads.
type snapshot struct {
	Series []struct {
		Name  string  `json:"name"`
		Value float64 `json:"value"`
		Hist  *struct {
			N   int
			P50 float64
		} `json:"hist"`
	} `json:"series"`
}

func (b *serveBench) metricsSnapshot() (*snapshot, error) {
	resp, err := b.client.Get(b.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var s snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return nil, err
	}
	return &s, nil
}

// close shuts the current server down, if any, and waits for it.
func (b *serveBench) close() {
	if b.hs == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := b.hs.Shutdown(ctx); err != nil {
		b.hs.Close()
	}
	b.srv.Close()
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		b.mu.Lock()
		b.res.invalid("server: %v", err)
		b.mu.Unlock()
	}
	b.client.CloseIdleConnections()
	b.hs = nil
}
