// Command npbench is the repository's benchmark: it runs named
// workloads against the simulator (runspec) and the spec-serving
// daemon (serve), checks every output against golden hashes, and
// prints end-to-end metrics, or per-layer metrics in a traced run.
//
//	npbench -workload campus-cold -seed 1 -seconds 20 -trace 0
//	npbench -workload serve-mixed -trace 1 -trace-dir out/
//	npbench                        # every workload, one child process each
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; a readable table goes to
// standard error. The exit code is nonzero when any check fails.
// BENCHMARK.json at the repository root declares the workloads and
// metrics; README.md in this directory explains them.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// options are one run's settings, all from the command line.
type options struct {
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("npbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (empty: every workload, each in its own process)")
	seed := fs.Int64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Float64("seconds", 20, "measured seconds per run (set-up excluded)")
	trace := fs.Int("trace", 0, "1: traced run, printing per-layer metrics instead of end-to-end ones")
	traceDir := fs.String("trace-dir", "", "with -trace 1, also write spans, the CPU profile and the per-layer metrics here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fmt.Fprintln(stderr, "npbench: usage: npbench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-trace-dir DIR]")
		return 2
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, traceDir: *traceDir}
	if *name == "" {
		return runAll(o, stdout, stderr)
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "npbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}

	res, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "npbench: %s: %v\n", w.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	line, err := res.line(defs)
	if err != nil {
		fmt.Fprintf(stderr, "npbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Fprintf(stderr, "workload %s, seed %d, %d CPUs, GOMAXPROCS %d, %d ops attempted, %d failed\n",
		w.name, o.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), res.attempted, res.failed)
	res.table(stderr, defs)
	for _, p := range res.problems {
		fmt.Fprintf(stderr, "npbench: %s: FAIL %s\n", w.name, p)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.correct() {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that
// each one's peak RSS is its own, and prints one line per workload:
// {"workload": NAME, "result": <the child's summary line>}.
func runAll(o options, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "npbench: %v\n", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds)}
		if o.trace {
			args = append(args, "-trace", "1")
			if o.traceDir != "" {
				args = append(args, "-trace-dir", o.traceDir+"/"+w.name)
			}
		}
		var out bytes.Buffer
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = &out, stderr
		err := cmd.Run()
		var exitErr *exec.ExitError
		if err != nil && !errors.As(err, &exitErr) {
			fmt.Fprintf(stderr, "npbench: %s: %v\n", w.name, err)
			return 1
		}
		if err != nil {
			code = 1
		}
		last := bytes.TrimSpace(out.Bytes())
		if i := bytes.LastIndexByte(last, '\n'); i >= 0 {
			last = last[i+1:]
		}
		if !json.Valid(last) {
			fmt.Fprintf(stderr, "npbench: %s printed no result\n", w.name)
			code = 1
			continue
		}
		fmt.Fprintf(stdout, "{\"workload\":%q,\"result\":%s}\n", w.name, last)
	}
	return code
}
