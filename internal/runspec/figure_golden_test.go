//go:build !race

package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"

	"nplus/internal/exp"
)

const figureGoldenPath = "testdata/figure_golden.json"

// figureHash returns the SHA-256 of exactly what `npexp -exp <name>
// -json` prints for e at its default config: the {"experiment",
// "result"} envelope through json.MarshalIndent(…, "", "  "), plus
// fmt.Println's newline. Results are worker-invariant, so the pool
// size is free.
func figureHash(t *testing.T, e exp.Experiment) string {
	t.Helper()
	cfg := e.DefaultConfig()
	if c, ok := cfg.(exp.Configurable); ok {
		cfg = c.WithOverrides(exp.Overrides{})
	}
	res, err := (&exp.Runner{}).Run(e, cfg)
	if err != nil {
		t.Fatalf("%s: %v", e.Name(), err)
	}
	data, err := json.MarshalIndent(map[string]any{
		"experiment": e.Name(),
		"result":     res,
	}, "", "  ")
	if err != nil {
		t.Fatalf("%s: marshal: %v", e.Name(), err)
	}
	sum := sha256.Sum256(append(data, '\n'))
	return hex.EncodeToString(sum[:])
}

// TestFigureGoldenBytes pins the JSON output of every registered
// experiment at its default config — the paper's figures, including
// the epoch-engine planner runs of fig12/fig13 and fig13's
// beamforming precoder, which no Report golden covers. A change that
// must not move a figure leaves the file untouched; a deliberate one
// regenerates it with
//
//	go test ./internal/runspec -run TestFigureGoldenBytes -update
//
// The race detector would stretch the ~11 s of experiments to
// minutes, hence the build tag.
func TestFigureGoldenBytes(t *testing.T) {
	got := make(map[string]string)
	for _, e := range exp.All() {
		got[e.Name()] = figureHash(t, e)
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(figureGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(figureGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for name, h := range want {
		if got[name] != h {
			t.Errorf("%s: figure hash %s, golden %s", name, got[name], h)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: no golden hash (regenerate with -update)", name)
		}
	}
}
