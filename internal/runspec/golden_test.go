package runspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden hash files from the current code")

const goldenPath = "testdata/report_golden.json"

// reportHashes runs every checked-in example spec (each expanded sweep
// point on its own) and returns the SHA-256 of its Report JSON, keyed
// "<file>#<point>". Protocol-engine points are hashed a second time
// traced, under "<file>#<point>+trace", which pins the rendered MAC
// trace and the embedded event stream too.
func reportHashes(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "examples", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no example specs (err=%v)", err)
	}
	hashes := make(map[string]string)
	for _, path := range files {
		sw, err := LoadSweep(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		specs, err := sw.Expand()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i, s := range specs {
			key := fmt.Sprintf("%s#%d", filepath.Base(path), i)
			hashes[key] = reportHash(t, key, s, false)
			if s.Engine == EngineProtocol {
				hashes[key+"+trace"] = reportHash(t, key, s, true)
			}
		}
	}
	return hashes
}

func reportHash(t *testing.T, key string, s Spec, trace bool) string {
	t.Helper()
	rep, err := RunTraced(s, trace)
	if err != nil {
		t.Fatalf("%s (trace=%v): %v", key, trace, err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatalf("%s: %v", key, err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestReportGoldenBytes pins the exact Report bytes of every example
// spec. A refactor that must not change results has to leave this file
// untouched; a deliberate change regenerates it with
//
//	go test ./internal/runspec -run TestReportGoldenBytes -update
func TestReportGoldenBytes(t *testing.T) {
	got := reportHashes(t)
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, h := range want {
		if got[key] != h {
			t.Errorf("%s: report hash %s, golden %s", key, got[key], h)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: no golden hash (regenerate with -update)", key)
		}
	}
}
