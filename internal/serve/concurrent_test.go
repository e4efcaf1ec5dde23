package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"nplus/internal/runspec"
)

// TestConcurrentRunsMatchSequentialBytes serves a delay-sweep grid from
// 12 concurrent requests, then again from a second server in the same
// process in reverse order, and requires every body to equal the
// bytes the spec produces run alone. Runs in one process must share
// nothing: neither a run beside one nor a run before it may change its
// Report.
func TestConcurrentRunsMatchSequentialBytes(t *testing.T) {
	var specs []runspec.Spec
	for _, rate := range []float64{100, 400, 1600} {
		for _, mode := range []string{"nplus", "80211n"} {
			for seed := int64(1); seed <= 2; seed++ {
				specs = append(specs, runspec.Spec{
					Topo: "disk-adhoc", Nodes: 16, Traffic: "poisson", RatePPS: rate,
					DurationS: 0.05, Mode: mode, Seed: &seed,
				})
			}
		}
	}
	want := make([][]byte, len(specs))
	for i, s := range specs {
		rep, err := runspec.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		data, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = append(data, '\n')
	}

	order := make([]int, len(specs))
	for i := range order {
		order[i] = i
	}
	for round := 0; round < 2; round++ {
		if round == 1 {
			slices.Reverse(order)
		}
		s := New(Config{Workers: 4})
		ts := httptest.NewServer(s.Handler(false))
		var wg sync.WaitGroup
		for _, i := range order {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, err := postSpecBytes(ts.URL+"/run", specs[i])
				if err != nil {
					t.Errorf("round %d, spec %d: %v", round, i, err)
					return
				}
				if !bytes.Equal(got, want[i]) {
					t.Errorf("round %d, spec %d: served %d bytes that differ from its %d sequential bytes", round, i, len(got), len(want[i]))
				}
			}()
		}
		wg.Wait()
		ts.Close()
		s.Close()
	}
}

// postSpecBytes POSTs s and returns the 200 response body. Unlike
// postSpec it reports failure as an error, so goroutines can call it.
func postSpecBytes(url string, s runspec.Spec) ([]byte, error) {
	body, err := json.Marshal(s)
	if err != nil {
		return nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, data)
	}
	return data, nil
}
