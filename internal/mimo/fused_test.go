package mimo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"nplus/internal/cmplxmat"
)

// sameBits fails unless got and want have the same shape and
// bit-identical elements.
func sameBits(t *testing.T, name string, got, want *cmplxmat.Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Errorf("%s: shape %d×%d, want %d×%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		return
	}
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
				t.Errorf("%s: (%d,%d) = %v, want %v", name, i, j, g, w)
				return
			}
		}
	}
}

// TestDecoderMatchesComposition checks NewDecoder's combiner against
// the composition it fuses, A⁺·U⊥ᴴ with A = U⊥ᴴ·Hw built from explicit
// transposes and products.
func TestDecoderMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(4)
		streams := 1 + rng.Intn(n)
		wanted := make([]cmplxmat.Vector, streams)
		for i := range wanted {
			wanted[i] = randVec(rng, n)
		}
		var uPerp *cmplxmat.Matrix
		if rng.Intn(2) == 0 && streams < n {
			_, uPerp = UnwantedSpace(n, []cmplxmat.Vector{randVec(rng, n)})
		}
		d, err := NewDecoder(n, uPerp, wanted)
		if err != nil {
			t.Fatal(err)
		}
		a := cmplxmat.ColumnsToMatrix(wanted)
		if uPerp != nil {
			a = uPerp.ConjTranspose().Mul(a)
		}
		want, err := cmplxmat.PseudoInverse(a)
		if err != nil {
			t.Fatal(err)
		}
		if uPerp != nil {
			want = want.Mul(uPerp.ConjTranspose())
		}
		sameBits(t, fmt.Sprintf("trial %d (%d antennas, %d streams)", trial, n, streams), d.g, want)
	}
}

// TestPrecoderMatchesStackedNullSpace checks ComputePrecoder against
// the composition it fuses: each own receiver's vectors are the
// leading columns of NullSpace(VStack(ConstraintRows of every ongoing
// and every other own receiver)).
func TestPrecoderMatchesStackedNullSpace(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checked := 0
	for trial := 0; trial < 40; trial++ {
		m := 2 + rng.Intn(3)
		var ongoing []OngoingReceiver
		for k := rng.Intn(m - 1); k > 0; k-- {
			n := 1 + rng.Intn(2)
			r := OngoingReceiver{H: randMat(rng, n, m)}
			if n == 2 && rng.Intn(2) == 0 {
				_, r.UPerp = UnwantedSpace(2, []cmplxmat.Vector{randVec(rng, 2)})
			}
			ongoing = append(ongoing, r)
		}
		own := []OwnReceiver{{H: randMat(rng, 2, m), Streams: 1}}
		if rng.Intn(2) == 0 {
			_, u := UnwantedSpace(2, []cmplxmat.Vector{randVec(rng, 2)})
			own = append(own, OwnReceiver{H: randMat(rng, 2, m), UPerp: u, Streams: 1})
		}
		pre, err := ComputePrecoder(m, ongoing, own)
		if err != nil {
			continue // infeasible draws fail the same way either path
		}
		checked++
		for s, v := range pre.Vectors {
			i := pre.RxIndex[s]
			var blocks []*cmplxmat.Matrix
			for _, r := range ongoing {
				rows, _ := r.ConstraintRows()
				blocks = append(blocks, rows)
			}
			for j, o := range own {
				if j != i {
					rows, _ := OngoingReceiver{H: o.H, UPerp: o.UPerp}.ConstraintRows()
					blocks = append(blocks, rows)
				}
			}
			want := cmplxmat.NewVector(m)
			if len(blocks) == 0 {
				want[0] = 1
			} else {
				want = cmplxmat.NullSpace(cmplxmat.VStack(blocks...), 0).Col(0)
			}
			sameBits(t, fmt.Sprintf("trial %d stream %d", trial, s), v.AsColumn(), want.AsColumn())
		}
	}
	if checked < 20 {
		t.Fatalf("only %d of 40 draws were feasible", checked)
	}
}
