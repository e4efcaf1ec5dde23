package core

import "nplus/internal/exp"

// Every paper experiment registers here so drivers (cmd/npexp, the
// repository benchmarks, future sweep tooling) can enumerate and run
// them by name through the exp engine, with no hand-wired switch
// statements. Adding a scenario means implementing exp.Experiment and
// appending it to this list.
func init() {
	for _, e := range []exp.Experiment{
		fig9Experiment{},
		fig11Experiment{},
		fig12Experiment{},
		fig13Experiment{},
		overheadExperiment{},
	} {
		exp.Register(e)
	}
}
