// Command npsim runs one n+ deployment — a hand-built scenario from
// the core registry (the Fig. 3 trio, the Fig. 4 downlink) or a
// generated topology from the topo registry (uniform-disk / grid
// placement, ad-hoc or AP-uplink pairing, 50–500 nodes) — under a
// chosen MAC and traffic model, and reports structured per-flow
// results.
//
// Every run is described by a declarative runspec.Spec: either loaded
// from a JSON file with -spec, or assembled from flags. Each Spec-field
// flag comes from runspec's one flag table (shared with npexp) and sets
// the same field as the matching spec-file key. Flags given alongside
// -spec override the file field-for-field, and only flags the user
// actually passed apply — so `-seed 0` means seed zero, not "use the
// default". A knob the resolved configuration cannot consume (e.g.
// -rate under saturated traffic, -epochs with the event-driven
// protocol) is rejected, never silently dropped.
//
// With the default saturated traffic, scenarios use the fast
// epoch-based evaluation (the paper's §6.3 methodology) and -trace
// switches to the event-driven CSMA/CA protocol. Generated topologies
// and open-loop traffic models always run the event-driven protocol,
// which also reports per-packet delay percentiles, queue drops, and
// Jain's fairness.
//
// Observability (protocol engine): -events writes the typed event
// stream as JSONL, -metrics adds a metrics section to the report,
// -probe samples per-domain queue/in-flight/CW time series, and
// -pprof captures CPU+heap profiles plus a Go runtime/metrics
// snapshot. -trace -json embeds the rendered trace and the typed
// events it derives from in the JSON report. All of it is off by
// default and costs nothing when disabled.
//
// With -serve-url, the spec is not computed locally: npsim normalizes
// it, POSTs it to a running npserve, and prints the served Report —
// with -json, byte-identical to what the same spec produces locally,
// since the server runs the identical runspec path and memoizes by
// canonical-spec hash.
//
// Usage:
//
//	npsim -scenario trio -mode nplus -seed 4
//	npsim -spec examples/specs/uplink200.json -json
//	npsim -spec examples/specs/trio.json -mode 80211n
//	npsim -topo disk-uplink -nodes 200 -traffic poisson -rate 100
//	npsim -topo campus -nodes 1000 -clusters 8 -traffic poisson -rate 400
//	npsim -spec examples/specs/observe.json -events events.jsonl -metrics all
//	npsim -spec - -json < spec.json
//	npsim -spec examples/specs/uplink200.json -serve-url http://127.0.0.1:9070 -json
//	npsim -list
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"

	"nplus/internal/core"
	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/runspec"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

func main() {
	specFlags := runspec.BindFlags(flag.CommandLine)
	specPath := flag.String("spec", "", "declarative run spec (JSON file, or - for stdin); other flags override its fields")
	serveURL := flag.String("serve-url", "", "POST the spec to a running npserve at this base URL instead of computing locally (memoized server-side; -json output is byte-identical to a local run)")
	jsonOut := flag.Bool("json", false, "emit the structured Report as JSON instead of the text view")
	list := flag.Bool("list", false, "list registered scenarios, topologies, traffic models, and modes, then exit")
	trace := flag.Bool("trace", false, "run the event-driven protocol and print the MAC trace")
	pprofPrefix := flag.String("pprof", "", "profile the run: <prefix>.cpu.pprof, <prefix>.heap.pprof, and a Go runtime/metrics snapshot <prefix>.runtime.json")
	flag.Parse()

	if *list {
		// Every section enumerates its registry: a newly registered
		// scenario, generator, or model shows up with no driver change.
		fmt.Println("scenarios:")
		for _, name := range core.ScenarioNames() {
			s, _ := core.ScenarioByName(name)
			fmt.Printf("  %-12s %s\n", s.Name, s.Description)
		}
		fmt.Println("topologies (generated):")
		for _, name := range topo.Names() {
			s, _ := topo.ByName(name)
			fmt.Printf("  %-12s %s\n", s.Name, s.Description)
		}
		fmt.Println("traffic models:")
		for _, name := range traffic.Names() {
			s, _ := traffic.ByName(name)
			fmt.Printf("  %-12s %s\n", s.Name, s.Description)
		}
		fmt.Println("modes:")
		for _, m := range mac.Modes() {
			fmt.Printf("  %-12s %s\n", m.CLIName(), m)
		}
		return
	}

	var spec runspec.Spec
	if *specPath != "" {
		var err error
		spec, err = runspec.LoadSpec(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
	}
	if err := specFlags.Apply(&spec); err != nil {
		usagef("%v", err)
	}
	if *trace && spec.Engine == "" {
		// The MAC trace only exists on the event-driven path; an
		// explicitly requested epoch engine is a contradiction that
		// the check below rejects rather than silently overriding.
		spec.Engine = runspec.EngineProtocol
	}

	norm, err := spec.Normalized()
	if err != nil {
		usagef("%v", err)
	}
	if *trace && norm.Engine != runspec.EngineProtocol {
		usagef("-trace needs the protocol engine (spec pins engine %q)", norm.Engine)
	}

	if !*jsonOut {
		dep := "scenario " + norm.Scenario
		if norm.Topo != "" {
			dep = fmt.Sprintf("topology %s (%d nodes)", norm.Topo, norm.Nodes)
		}
		fmt.Printf("%s, mode %s, traffic %s, engine %s, seed %d\n",
			dep, norm.Mode, norm.Traffic, norm.Engine, norm.SeedValue())
	}

	if *serveURL != "" {
		// Client mode: the normalized spec is computed by a warm
		// npserve (memoized by canonical hash) instead of locally. The
		// server returns the exact bytes a local -json run prints, so
		// piped output stays byte-identical either way.
		if *trace {
			usagef("-trace needs a local run; -serve-url has no trace stream")
		}
		if *pprofPrefix != "" {
			usagef("-pprof profiles a local run; it cannot profile the server")
		}
		if norm.Observe != nil && norm.Observe.Events != "" {
			usagef("-events writes a local file; the server rejects server-side event paths")
		}
		rep, body := runRemote(*serveURL, norm)
		if *jsonOut {
			os.Stdout.Write(body)
			return
		}
		printHuman(rep)
		return
	}

	var prof *obs.Profile
	if *pprofPrefix != "" {
		prof, err = obs.StartProfile(*pprofPrefix)
		if err != nil {
			fatalf("%v", err)
		}
	}
	rep, err := runspec.RunTraced(norm, *trace)
	if prof != nil {
		if perr := prof.Stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fatalf("%v", err)
	}

	if *jsonOut {
		data, err := rep.JSON()
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Println(string(data))
		return
	}
	if *trace {
		fmt.Println("\nMAC trace:")
		for _, line := range rep.Trace {
			fmt.Println(line)
		}
	}
	printHuman(rep)
}

// printHuman writes the flow list and rendered report — the shared
// text view for local and served runs.
func printHuman(rep *runspec.Report) {
	if len(rep.Flows) <= 24 {
		for _, f := range rep.Flows {
			fmt.Printf("  flow %d: node %d (%d ant) → node %d (%d ant), link SNR %.1f dB\n",
				f.ID, f.Tx, f.TxAntennas, f.Rx, f.RxAntennas, f.LinkSNRDB)
		}
	}
	fmt.Println()
	fmt.Print(rep.Render())
}

// runRemote POSTs the normalized spec to an npserve /run endpoint and
// returns the decoded Report along with the server's exact response
// bytes.
func runRemote(baseURL string, n runspec.Spec) (*runspec.Report, []byte) {
	body, err := json.Marshal(n)
	if err != nil {
		fatalf("%v", err)
	}
	url := strings.TrimRight(baseURL, "/") + "/run"
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		fatalf("%v", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		fatalf("server %s: %s: %s", url, resp.Status, strings.TrimSpace(string(data)))
	}
	var rep runspec.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		fatalf("decode server report: %v", err)
	}
	return &rep, data
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "npsim: "+format+"\n", args...)
	os.Exit(1)
}

// usagef reports a bad flag or spec combination with the usage exit
// code.
func usagef(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "npsim: "+format+"\n", args...)
	os.Exit(2)
}
