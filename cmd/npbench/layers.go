package main

import (
	"regexp"
	"strings"
)

// layer is one CPU-attribution bucket, named after the repository
// module it covers. Its roots are regular expressions over fully
// qualified function names (as a pprof profile spells them).
type layer struct {
	name  string
	roots []string
}

// otherLayer receives the samples no layer root claims.
const otherLayer = "cpu.other"

// layers is the attribution table. A CPU sample goes to the innermost
// layer, nearest the leaf, whose root function is on its stack, so the
// layers partition the samples: planner code reached from the serve
// worker counts as planner, and an allocation made by the planner
// counts as allocation.
var layers = []layer{
	{"cpu.topo", []string{`^nplus/internal/topo\.Generate$`}},
	{"cpu.testbed.build", []string{
		`^nplus/internal/runspec\.BuildNetwork$`,
		`^nplus/internal/testbed\.\(\*Testbed\)\.Deploy(At|AtModel)?$`,
	}},
	{"cpu.testbed.pairstate", []string{`^nplus/internal/testbed\.\(\*Deployment\)\.(AddNodeAt|MoveNode|RemoveNode)$`}},
	{"cpu.testbed.channel", []string{`^nplus/internal/testbed\.\(\*Deployment\)\.(Channel|LinkSNRDB)$`}},
	{"cpu.testbed.estimate", []string{`^nplus/internal/testbed\.\(\*Deployment\)\.Estimate$`}},
	{"cpu.mac.hearing", []string{
		`^nplus/internal/mac\.NewHearingGraph$`,
		`^nplus/internal/mac\.\(\*HearingGraph\)\.`,
		`^nplus/internal/testbed\.\(\*Deployment\)\.(HearingGraph|HearsFunc)$`,
	}},
	{"cpu.mac.planner", []string{`^nplus/internal/mac\.\(\*Scenario\)\.Plan(Best|Join|JoinGroup|Beamforming)$`}},
	{"cpu.esnr", []string{`^nplus/internal/esnr\.`}},
	{"cpu.kernels", []string{`^nplus/internal/(cmplxmat|mimo)\.`}},
	{"cpu.sim.engine", []string{`^nplus/internal/sim\.\(\*Engine\)\.Run$`}},
	// Shards run on goroutines of their own, whose stacks start at
	// runShard's closures, not at RunTraffic.
	{"cpu.core.shard", []string{`^nplus/internal/core\.\(\*Network\)\.(RunTraffic|runTraffic\w*|runShard)(\.|$)`}},
	{"cpu.runspec.report", []string{`^nplus/internal/runspec\.(buildReport|\(\*Report\)\.JSON)$`}},
	{"cpu.serve", []string{`^nplus/internal/serve\.`, `^net/http\.`}},
	{"cpu.runtime.alloc", []string{`^runtime\.mallocgc$`}},
	{"cpu.runtime.gc", []string{`^runtime\.(gcBgMarkWorker|gcAssistAlloc|bgsweep)$`}},
}

// attributor assigns profile samples to layers.
type attributor struct {
	names []string
	res   []*regexp.Regexp
	memo  map[string]int // function name → layer index, -1 for none
}

func newAttributor(ls []layer) *attributor {
	a := &attributor{memo: map[string]int{}}
	for _, l := range ls {
		a.names = append(a.names, l.name)
		a.res = append(a.res, regexp.MustCompile(strings.Join(l.roots, "|")))
	}
	return a
}

func (a *attributor) layerOf(fn string) int {
	if i, ok := a.memo[fn]; ok {
		return i
	}
	i := -1
	for j, re := range a.res {
		if re.MatchString(fn) {
			i = j
			break
		}
	}
	a.memo[fn] = i
	return i
}

// attribute splits a CPU profile's sampled nanoseconds across the
// layers (plus otherLayer) and returns the per-layer sums and their
// total. Every layer name is present in the map, zero or not.
func (a *attributor) attribute(p *profile) (map[string]int64, int64) {
	out := map[string]int64{otherLayer: 0}
	for _, n := range a.names {
		out[n] = 0
	}
	vi := p.valueIndex("cpu")
	if vi < 0 {
		return out, 0
	}
	var total int64
	for _, s := range p.samples {
		v := s.values[vi]
		total += v
		name := otherLayer
		for _, fn := range p.stack(s) {
			if i := a.layerOf(fn); i >= 0 {
				name = a.names[i]
				break
			}
		}
		out[name] += v
	}
	return out, total
}
