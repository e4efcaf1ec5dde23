//go:build !race

package cmplxmat

import (
	"math/rand"
	"testing"
)

// TestKernelAllocs pins the kernels on MAC shapes (no side above 4) to
// their results: a *Matrix costs 2 allocations (the struct and its
// data), an appended vector 1. Every temporary — the factored copy,
// Q, the reflector, the Gram matrix and its inverse, the stacked
// constraint rows — stays on the stack. The race detector allocates on
// its own, hence the build tag.
func TestKernelAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rows3x4 := randMatrix(rng, 3, 4)
	tall4x3 := randMatrix(rng, 4, 3)
	tall4x2 := randMatrix(rng, 4, 2)
	col4 := randMatrix(rng, 4, 1)
	sq3, sq4 := randMatrix(rng, 3, 3), randMatrix(rng, 4, 4)
	cols, wanted := tall4x3.Columns(), tall4x2.Columns()
	u := OrthogonalComplement(tall4x2, 0)
	blocks := []Block{{B: randMatrix(rng, 1, 4)}, {A: u, B: randMatrix(rng, 4, 4)}}
	dst := make([]Vector, 0, 4)
	cases := []struct {
		name string
		want float64
		run  func()
	}{
		{"NullSpace 3×4", 2, func() { NullSpace(rows3x4, 0) }},
		{"OrthogonalComplement 4×2", 2, func() { OrthogonalComplement(tall4x2, 0) }},
		{"OrthogonalComplementOfColumns 4×3", 2, func() { OrthogonalComplementOfColumns(cols, 0) }},
		{"OrthonormalBasis 4×3", 2, func() { OrthonormalBasis(tall4x3, 0) }},
		{"OrthonormalBasis 4×1", 2, func() { OrthonormalBasis(col4, 0) }},
		{"OrthonormalBasisOfColumns 4×3", 2, func() { OrthonormalBasisOfColumns(cols, 0) }},
		{"Inverse 3×3", 2, func() { Inverse(sq3) }},
		{"Inverse 4×4", 2, func() { Inverse(sq4) }},
		{"PseudoInverse 4×3", 2, func() { PseudoInverse(tall4x3) }},
		{"PseudoInverse 4×2", 2, func() { PseudoInverse(tall4x2) }},
		{"ProjectedPseudoInverse 4×2 in 4×2", 2, func() { ProjectedPseudoInverse(u, wanted) }},
		{"ConjTransposeMul", 2, func() { u.ConjTransposeMul(sq4) }},
		{"AppendNullSpace, 1 of 1", 1, func() { AppendNullSpace(dst, blocks, 1, 0) }},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(20, c.run); got != c.want {
			t.Errorf("%s allocates %v times, want %v", c.name, got, c.want)
		}
	}
}
