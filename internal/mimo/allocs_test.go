//go:build !race

package mimo

import (
	"math/rand"
	"testing"

	"nplus/internal/cmplxmat"
)

// TestKernelAllocs pins the decoder and the precoder to what they
// return. NewDecoder: the combiner g (a *Matrix: struct and data), its
// row norms and the Decoder. ComputePrecoder: the Precoder, its two
// slices and one vector per stream; the stacked constraint rows, their
// null space and the deliverability checks stay on the stack. The race
// detector allocates on its own, hence the build tag.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	one := []cmplxmat.Vector{randVec(rng, 3)}
	two := []cmplxmat.Vector{randVec(rng, 4), randVec(rng, 4)}
	_, uPerp := UnwantedSpace(4, []cmplxmat.Vector{randVec(rng, 4), randVec(rng, 4)})
	_, uPerpC2 := UnwantedSpace(2, []cmplxmat.Vector{randVec(rng, 2)})
	_, uPerpC3 := UnwantedSpace(2, []cmplxmat.Vector{randVec(rng, 2)})
	ongoing := []OngoingReceiver{{H: randMat(rng, 2, 3), UPerp: cmplxmat.OrthonormalBasis(randMat(rng, 2, 1), 0)}}
	own := []OwnReceiver{
		{H: randMat(rng, 2, 3), UPerp: uPerpC2, Streams: 1},
		{H: randMat(rng, 2, 3), UPerp: uPerpC3, Streams: 1},
	}
	lone := []OwnReceiver{{H: randMat(rng, 3, 3), Streams: 2}}
	cases := []struct {
		name string
		want float64
		run  func()
	}{
		{"NewDecoder, 1 stream, full space", 4, func() { NewDecoder(3, nil, one) }},
		{"NewDecoder, 2 streams, full space", 4, func() { NewDecoder(4, nil, two) }},
		{"NewDecoder, 2 streams in U⊥", 4, func() { NewDecoder(4, uPerp, two) }},
		{"ComputePrecoder, Fig. 4", 5, func() { ComputePrecoder(3, ongoing, own) }},
		{"ComputePrecoder, lone winner", 5, func() { ComputePrecoder(3, nil, lone) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.run); got != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, got, c.want)
		}
	}
}
