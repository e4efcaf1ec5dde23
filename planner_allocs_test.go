//go:build !race

package nplus_test

import "testing"

// plannerRoundAllocs is the exact allocation count of one
// planner200Round. Allocation counts are deterministic for a fixed
// deployment and seed, so the pin is exact; the race detector adds
// allocations of its own, hence the build tag.
const plannerRoundAllocs = 1976

// TestPlannerRoundAllocs pins the allocations of the planner's hot
// path (the round BenchmarkPlanner200NodeRound times). The disabled
// observability path must stay allocation-free on top of it.
func TestPlannerRoundAllocs(t *testing.T) {
	round := planner200Round(t)
	if got := testing.AllocsPerRun(20, round); got != plannerRoundAllocs {
		t.Fatalf("planner round allocates %v times, pinned at %d: a change that lowers it lowers the pin in the same commit; one that raises it is a regression", got, plannerRoundAllocs)
	}
}
