package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// The reference compositions below are what callers built before the
// fused and stack-buffered kernels existed, kept as the definition
// each kernel must reproduce bit for bit: the heap QR of DecomposeQR,
// explicit conjugate transposes, and VStack/ColumnsToMatrix copies.

func refRank(r *Matrix, tol, scale float64) int {
	dim := r.Rows()
	if r.Cols() > dim {
		dim = r.Cols()
	}
	thresh := tol * float64(dim) * scale
	rank := 0
	for i := 0; i < min(r.Rows(), r.Cols()); i++ {
		if cmplx.Abs(r.At(i, i)) > thresh {
			rank++
		}
	}
	return rank
}

func refNullSpace(a *Matrix, tol float64) *Matrix {
	if tol <= 0 {
		tol = DefaultTol
	}
	if a.Cols() == 0 {
		return New(0, 0)
	}
	if a.Rows() == 0 {
		return Identity(a.Cols())
	}
	qr := DecomposeQR(a.ConjTranspose())
	rank := refRank(qr.R, tol, a.MaxAbs())
	if rank >= a.Cols() {
		return New(a.Cols(), 0)
	}
	return qr.Q.Submatrix(0, a.Cols(), rank, a.Cols())
}

func refOrthogonalComplement(a *Matrix, tol float64) *Matrix {
	if a.Rows() == 0 {
		return New(0, 0)
	}
	if a.Cols() == 0 {
		return Identity(a.Rows())
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	qr := DecomposeQR(a)
	rank := refRank(qr.R, tol, a.MaxAbs())
	if rank >= a.Rows() {
		return New(a.Rows(), 0)
	}
	return qr.Q.Submatrix(0, a.Rows(), rank, a.Rows())
}

func refOrthonormalBasis(a *Matrix, tol float64) *Matrix {
	if tol <= 0 {
		tol = DefaultTol
	}
	if a.Rows() == 0 || a.Cols() == 0 {
		return New(a.Rows(), 0)
	}
	if a.Cols() == 1 {
		v := a.Col(0)
		n := v.Norm()
		if n <= tol*float64(a.Rows())*a.MaxAbs() || n == 0 {
			return New(a.Rows(), 0)
		}
		out := New(a.Rows(), 1)
		out.SetCol(0, v.Scale(complex(1/n, 0)))
		return out
	}
	qr := DecomposeQR(a)
	scale := a.MaxAbs()
	if scale == 0 {
		return New(a.Rows(), 0)
	}
	return qr.Q.Submatrix(0, a.Rows(), 0, refRank(qr.R, tol, scale))
}

func refInverse(a *Matrix) (*Matrix, error) {
	n := a.Rows()
	if n == 1 {
		if a.At(0, 0) == 0 {
			return nil, fmt.Errorf("cmplxmat: Inverse: matrix is singular")
		}
		return FromSlice(1, 1, []complex128{1 / a.At(0, 0)}), nil
	}
	if n == 2 {
		det := a.data[0]*a.data[3] - a.data[1]*a.data[2]
		scale := a.MaxAbs()
		if cmplx.Abs(det) <= DefaultTol*2*scale*scale {
			return nil, fmt.Errorf("cmplxmat: Inverse: matrix is singular")
		}
		d := 1 / det
		return FromSlice(2, 2, []complex128{a.data[3] * d, -a.data[1] * d, -a.data[2] * d, a.data[0] * d}), nil
	}
	inv := New(n, n)
	qr := DecomposeQR(a)
	thresh := DefaultTol * float64(n) * a.MaxAbs()
	for i := 0; i < n; i++ {
		if cmplx.Abs(qr.R.At(i, i)) <= thresh {
			return nil, fmt.Errorf("cmplxmat: Inverse: matrix is singular")
		}
	}
	qh := qr.Q.ConjTranspose()
	x := make(Vector, n)
	for c := 0; c < n; c++ {
		for i := n - 1; i >= 0; i-- {
			s := qh.At(i, c)
			for j := i + 1; j < n; j++ {
				s -= qr.R.At(i, j) * x[j]
			}
			x[i] = s / qr.R.At(i, i)
		}
		inv.SetCol(c, x)
	}
	return inv, nil
}

// refPseudoInverse is the ConjTranspose/Mul/Inverse form of
// PseudoInverse (with its closed single-column form).
func refPseudoInverse(a *Matrix) (*Matrix, error) {
	if a.Cols() == 0 {
		return New(0, a.Rows()), nil
	}
	if a.Cols() == 1 {
		var gram complex128
		for _, x := range a.data {
			gram += cmplx.Conj(x) * x
		}
		if gram == 0 {
			return nil, fmt.Errorf("cmplxmat: PseudoInverse: %w", errSingular)
		}
		out := New(1, a.Rows())
		for i, x := range a.data {
			out.data[i] = (1 / gram) * cmplx.Conj(x)
		}
		return out, nil
	}
	ah := a.ConjTranspose()
	inv, err := refInverse(ah.Mul(a))
	if err != nil {
		return nil, fmt.Errorf("cmplxmat: PseudoInverse: %w", err)
	}
	return inv.Mul(ah), nil
}

// randKernelInput draws a rows×cols matrix with about a fifth of its
// entries exactly zero, and now and then a zero column or a column
// copied from another, so the skip-zero and rank-deficient branches
// run as well as the full-rank ones.
func randKernelInput(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.data {
		if rng.Intn(5) > 0 {
			m.data[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
	}
	if cols > 1 {
		switch rng.Intn(6) {
		case 0:
			m.SetCol(rng.Intn(cols), make(Vector, rows))
		case 1:
			m.SetCol(rng.Intn(cols), m.Col(rng.Intn(cols)))
		}
	}
	return m
}

// sameBits fails unless got and want have the same shape and
// bit-identical elements (stricter than ==: it tells −0 from +0).
func sameBits(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Errorf("%s: shape %d×%d, want %d×%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		return
	}
	for i, w := range want.data {
		g := got.data[i]
		if math.Float64bits(real(g)) != math.Float64bits(real(w)) || math.Float64bits(imag(g)) != math.Float64bits(imag(w)) {
			t.Errorf("%s: element %d = %v, want %v", name, i, g, w)
			return
		}
	}
}

// sameResult is sameBits for the (matrix, error) kernels: both must
// fail with the same message, or both succeed with the same bits.
func sameResult(t *testing.T, name string, got *Matrix, gotErr error, want *Matrix, wantErr error) {
	t.Helper()
	if gotErr != nil || wantErr != nil {
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, want %v", name, gotErr, wantErr)
		}
		return
	}
	sameBits(t, name, got, want)
}

// TestKernelsMatchCompositions checks every fused or stack-buffered
// kernel against the composition it replaces, on seeded shapes from
// 1×1 to 6×6: up to 4×4 they run on the stack, past 16 elements (or 4
// rows for a factorization) on the heap.
func TestKernelsMatchCompositions(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 12; trial++ {
		for rows := 1; rows <= 6; rows++ {
			for cols := 1; cols <= 6; cols++ {
				name := fmt.Sprintf("%d×%d#%d", rows, cols, trial)
				a := randKernelInput(rng, rows, cols)

				b := randKernelInput(rng, rows, 1+rng.Intn(6))
				sameBits(t, name+" ConjTransposeMul", a.ConjTransposeMul(b), a.ConjTranspose().Mul(b))
				c := randKernelInput(rng, 1+rng.Intn(6), cols)
				mct := New(rows, c.Rows())
				mulConjTransposeInto(mct, a, c)
				sameBits(t, name+" mulConjTransposeInto", mct, a.Mul(c.ConjTranspose()))

				sameBits(t, name+" NullSpace", NullSpace(a, 0), refNullSpace(a, 0))
				sameBits(t, name+" OrthogonalComplement", OrthogonalComplement(a, 0), refOrthogonalComplement(a, 0))
				sameBits(t, name+" OrthonormalBasis", OrthonormalBasis(a, 0), refOrthonormalBasis(a, 0))
				cols := a.Columns()
				sameBits(t, name+" OrthogonalComplementOfColumns", OrthogonalComplementOfColumns(cols, 0), refOrthogonalComplement(ColumnsToMatrix(cols), 0))
				sameBits(t, name+" OrthonormalBasisOfColumns", OrthonormalBasisOfColumns(cols, 0), refOrthonormalBasis(ColumnsToMatrix(cols), 0))

				p, err := PseudoInverse(a)
				wantP, wantErr := refPseudoInverse(a)
				sameResult(t, name+" PseudoInverse", p, err, wantP, wantErr)
				if rows == a.Cols() {
					inv, err := Inverse(a)
					wantInv, wantErr := refInverse(a)
					sameResult(t, name+" Inverse", inv, err, wantInv, wantErr)
				}

				// The zero-forcing filter inside the column space of u.
				u := randKernelInput(rng, rows, 1+rng.Intn(rows))
				g, err := ProjectedPseudoInverse(u, cols)
				wantPinv, wantErr := refPseudoInverse(u.ConjTranspose().Mul(ColumnsToMatrix(cols)))
				if wantErr == nil {
					wantPinv = wantPinv.Mul(u.ConjTranspose())
				}
				sameResult(t, name+" ProjectedPseudoInverse", g, err, wantPinv, wantErr)
				g, err = ProjectedPseudoInverse(nil, cols)
				wantG, wantErr := refPseudoInverse(ColumnsToMatrix(cols))
				sameResult(t, name+" ProjectedPseudoInverse(nil)", g, err, wantG, wantErr)

				checkAppendNullSpace(t, name, rng, a)
			}
		}
	}
}

// checkAppendNullSpace stacks a with up to two more random blocks, some
// plain and some products Aᴴ·B, and checks AppendNullSpace against
// NullSpace(VStack(…)) of the built products.
func checkAppendNullSpace(t *testing.T, name string, rng *rand.Rand, a *Matrix) {
	t.Helper()
	blocks := []Block{{B: a}}
	built := []*Matrix{a}
	for k := rng.Intn(3); k > 0; k-- {
		if rng.Intn(2) == 0 {
			b := randKernelInput(rng, 1+rng.Intn(2), a.Cols())
			blocks = append(blocks, Block{B: b})
			built = append(built, b)
			continue
		}
		h := randKernelInput(rng, 1+rng.Intn(4), a.Cols())
		u := randKernelInput(rng, h.Rows(), 1+rng.Intn(2))
		blocks = append(blocks, Block{A: u, B: h})
		built = append(built, u.ConjTranspose().Mul(h))
	}
	want := refNullSpace(VStack(built...), 0)
	n := 1 + rng.Intn(a.Cols())
	prefix := []Vector{{42}}
	got, dim := AppendNullSpace(prefix, blocks, n, 0)
	if dim != want.Cols() {
		t.Errorf("%s AppendNullSpace: dimension %d, want %d", name, dim, want.Cols())
		return
	}
	if len(got) != 1+min(n, dim) || got[0][0] != 42 {
		t.Errorf("%s AppendNullSpace: appended %d vectors after the prefix, want %d", name, len(got)-1, min(n, dim))
		return
	}
	for j, v := range got[1:] {
		sameBits(t, fmt.Sprintf("%s AppendNullSpace col %d", name, j), v.AsColumn(), want.Submatrix(0, want.Rows(), j, j+1))
	}
}

// TestAppendNullSpaceStacksLikeVStack pins VStack's shape rules in the
// fused form: zero-row blocks contribute nothing, and a stack with no
// rows at all is 0×0, whose null space is empty.
func TestAppendNullSpaceStacksLikeVStack(t *testing.T) {
	h := FromRows([][]complex128{{1, 2, 3}})
	empty := New(2, 0) // Aᴴ·B has no rows
	cases := []struct {
		name   string
		blocks []Block
		built  []*Matrix
	}{
		{"no rows", []Block{{B: New(0, 3)}, {A: empty, B: New(2, 3)}}, []*Matrix{New(0, 3), New(0, 3)}},
		{"zero-row block skipped", []Block{{A: empty, B: New(2, 3)}, {B: h}}, []*Matrix{New(0, 3), h}},
	}
	for _, c := range cases {
		want := NullSpace(VStack(c.built...), 0)
		got, dim := AppendNullSpace(nil, c.blocks, 3, 0)
		if dim != want.Cols() || len(got) != dim {
			t.Errorf("%s: dimension %d with %d vectors, want %d", c.name, dim, len(got), want.Cols())
			continue
		}
		for j, v := range got {
			sameBits(t, fmt.Sprintf("%s col %d", c.name, j), v.AsColumn(), want.Submatrix(0, 3, j, j+1))
		}
	}
}

func TestBatchShapeReusesStorage(t *testing.T) {
	var b Batch
	first := b.Shape(3, 2, 2)
	first[2].SetAt(1, 1, 5)
	again := b.Shape(2, 1, 3)
	if len(again) != 2 || again[0].Rows() != 1 || again[0].Cols() != 3 {
		t.Fatalf("reshaped batch is %d × %d×%d", len(again), again[0].Rows(), again[0].Cols())
	}
	if &again[0].data[0] != &first[0].data[0] {
		t.Error("a smaller batch did not reuse the storage")
	}
	for i, m := range b.Shape(3, 2, 2) {
		if m.FrobeniusNorm() != 0 {
			t.Errorf("matrix %d of a reused batch is not zero", i)
		}
	}
}
