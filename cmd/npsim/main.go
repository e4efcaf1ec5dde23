// Command npsim runs one n+ deployment — a hand-built scenario from
// the core registry (the Fig. 3 trio, the Fig. 4 downlink) or a
// generated topology from the topo registry (uniform-disk / grid
// placement, ad-hoc or AP-uplink pairing, 50–500 nodes) — under a
// chosen MAC and traffic model, and reports structured per-flow
// results.
//
// Every run is described by a declarative runspec.Spec: either loaded
// from a JSON file with -spec, or assembled from the flags below.
// Flags given alongside -spec override the file field-for-field, and
// only flags the user actually passed apply — so `-seed 0` means seed
// zero, not "use the default". A knob the resolved configuration
// cannot consume (e.g. -rate under saturated traffic, -epochs with
// the event-driven protocol) is rejected, never silently dropped.
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

	"nplus/internal/assoc"
	"nplus/internal/core"
	"nplus/internal/mac"
	"nplus/internal/obs"
	"nplus/internal/runspec"
	"nplus/internal/testbed"
	"nplus/internal/topo"
	"nplus/internal/traffic"
)

func main() {
	scenarioNames := strings.Join(core.ScenarioNames(), ", ")
	topoNames := strings.Join(topo.Names(), ", ")
	trafficNames := strings.Join(traffic.Names(), ", ")
	modeNames := strings.Join(mac.ModeNames(), ", ")
	specPath := flag.String("spec", "", "declarative run spec (JSON file, or - for stdin); other flags override its fields")
	serveURL := flag.String("serve-url", "", "POST the spec to a running npserve at this base URL instead of computing locally (memoized server-side; -json output is byte-identical to a local run)")
	jsonOut := flag.Bool("json", false, "emit the structured Report as JSON instead of the text view")
	scenario := flag.String("scenario", runspec.DefaultScenario, "hand-built deployment, one of: "+scenarioNames)
	topoName := flag.String("topo", "", "generated deployment instead of -scenario, one of: "+topoNames)
	nodes := flag.Int("nodes", runspec.DefaultNodes, "generated topology size (with -topo)")
	clusters := flag.Int("clusters", runspec.DefaultClusters, "spatial cells for clustered topologies (campus, multiroom)")
	clusterLoss := flag.Float64("cluster-loss", 0, "inter-cluster attenuation in dB (clustered topologies; default: generator calibration)")
	csThreshold := flag.Float64("cs-threshold", testbed.DefaultCSThresholdDB, "carrier-sense hearing threshold in dB SNR (very low forces one collision domain)")
	trafficName := flag.String("traffic", traffic.Saturated, "arrival model, one of: "+trafficNames)
	rate := flag.Float64("rate", runspec.DefaultRatePPS, "mean per-flow arrival rate, packets/s (open-loop models)")
	queueCap := flag.Int("queue", runspec.DefaultQueueCap, "per-station packet queue bound (open-loop models)")
	modeName := flag.String("mode", runspec.DefaultMode, "MAC variant, one of: "+modeNames)
	engine := flag.String("engine", "", "execution engine: epoch, protocol (default: auto)")
	list := flag.Bool("list", false, "list registered scenarios, topologies, traffic models, and modes, then exit")
	seed := flag.Int64("seed", runspec.DefaultSeed, "placement seed")
	epochs := flag.Int("epochs", runspec.DefaultEpochs, "contention rounds (epoch engine)")
	trace := flag.Bool("trace", false, "run the event-driven protocol and print the MAC trace")
	duration := flag.Float64("duration", runspec.DefaultDuration, "virtual seconds (protocol engine)")
	workers := flag.Int("workers", 0, "worker pool for component-parallel protocol runs, 0 = all CPUs (results are identical at any value)")
	churnRate := flag.Float64("churn-rate", 0, "station arrival rate, stations/s — switches to a dynamic population (generated uplink topologies)")
	session := flag.Float64("session", 0, "mean station session length in virtual seconds (with -churn-rate)")
	mobility := flag.String("mobility", "", "station mobility model, one of: "+strings.Join(topo.MobilityNames(), ", "))
	speed := flag.Float64("speed", 0, "station speed in m/s (with -mobility)")
	moveInterval := flag.Float64("move-interval", 0, "position-update cadence in virtual seconds (with -mobility; 0 = 1 s)")
	assocPolicy := flag.String("assoc", "", "association policy for dynamic runs, one of: "+strings.Join(assoc.Names(), ", "))
	assocBias := flag.Float64("assoc-bias", 0, "biased-sinr bias in dB per AP antenna beyond the first (with -assoc biased-sinr)")
	eventsPath := flag.String("events", "", "write the typed protocol event stream to this file as JSONL (protocol engine)")
	metricsSel := flag.String("metrics", "", "comma-separated metrics for the report's metrics section, or \"all\" (protocol engine)")
	probe := flag.Float64("probe", 0, "time-series probe cadence in virtual seconds: per-domain queue depth, in-flight transmissions, CW distribution (protocol engine, 0 = off)")
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

	// set records which flags the user actually passed: only those
	// override the spec file, and an explicit zero (e.g. -seed 0)
	// stays explicit.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	var spec runspec.Spec
	if *specPath != "" {
		var err error
		spec, err = runspec.LoadSpec(*specPath)
		if err != nil {
			fatalf("%v", err)
		}
	}
	if set["scenario"] && set["topo"] {
		usagef("-scenario and -topo are mutually exclusive")
	}
	if set["scenario"] {
		spec.Scenario = *scenario
		spec.Topo = ""
	}
	if set["topo"] {
		spec.Topo = *topoName
		spec.Scenario = ""
	}
	if set["nodes"] {
		spec.Nodes = *nodes
	}
	if set["clusters"] {
		spec.Clusters = *clusters
	}
	if set["cluster-loss"] {
		spec.InterClusterLossDB = clusterLoss
	}
	if set["cs-threshold"] {
		if spec.Options == nil {
			spec.Options = &runspec.OptionsSpec{}
		}
		spec.Options.CSThresholdDB = csThreshold
	}
	if set["traffic"] {
		spec.Traffic = *trafficName
	}
	if set["rate"] {
		spec.RatePPS = *rate
	}
	if set["queue"] {
		spec.QueueCap = *queueCap
	}
	if set["mode"] {
		spec.Mode = *modeName
	}
	if set["engine"] {
		spec.Engine = *engine
	}
	if set["seed"] {
		spec.Seed = seed
	}
	if set["epochs"] {
		spec.Epochs = *epochs
	}
	if set["duration"] {
		spec.DurationS = *duration
	}
	if set["workers"] {
		spec.Workers = *workers
	}
	if set["churn-rate"] || set["session"] {
		if spec.Churn == nil {
			spec.Churn = &runspec.ChurnSpec{}
		}
		if set["churn-rate"] {
			spec.Churn.ArrivalPerS = *churnRate
		}
		if set["session"] {
			spec.Churn.MeanSessionS = *session
		}
	}
	if set["mobility"] || set["speed"] || set["move-interval"] {
		if spec.Mobility == nil {
			spec.Mobility = &runspec.MobilitySpec{}
		}
		if set["mobility"] {
			spec.Mobility.Model = *mobility
		}
		if set["speed"] {
			spec.Mobility.SpeedMPS = *speed
		}
		if set["move-interval"] {
			spec.Mobility.IntervalS = *moveInterval
		}
	}
	if set["assoc"] || set["assoc-bias"] {
		if spec.Association == nil {
			spec.Association = &runspec.AssociationSpec{}
		}
		if set["assoc"] {
			spec.Association.Policy = *assocPolicy
		}
		if set["assoc-bias"] {
			spec.Association.BiasDBPerAntenna = assocBias
		}
	}
	if set["events"] || set["metrics"] || set["probe"] {
		// Observe flags override the spec's observe block
		// field-for-field, exactly like every other knob.
		if spec.Observe == nil {
			spec.Observe = &runspec.ObserveSpec{}
		}
		if set["events"] {
			spec.Observe.Events = *eventsPath
		}
		if set["metrics"] {
			spec.Observe.Metrics = splitList(*metricsSel)
		}
		if set["probe"] {
			spec.Observe.ProbeIntervalS = *probe
		}
	}
	observing := spec.Observe != nil &&
		(spec.Observe.Events != "" || spec.Observe.ProbeIntervalS != 0 || len(spec.Observe.Metrics) > 0)
	if (*trace || observing) && spec.Engine == "" {
		// The MAC trace and the observability block only exist on the
		// event-driven path; an explicitly requested epoch engine is a
		// contradiction that normalization rejects rather than
		// silently overriding.
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

// splitList parses a comma-separated flag value, dropping empty
// elements so "-metrics wins," and "-metrics ”" behave sensibly.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
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
