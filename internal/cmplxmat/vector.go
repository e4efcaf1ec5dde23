package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Vector is a dense complex vector.
type Vector []complex128

// NewVector returns a zero vector of length n.
func NewVector(n int) Vector { return make(Vector, n) }

// Clone returns a copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dot returns the Hermitian inner product ⟨v, w⟩ = Σ conj(vᵢ)·wᵢ.
//
// Note the convention: the *first* argument is conjugated, matching
// the physics convention used throughout the MIMO literature, so that
// v.Dot(v) is real and non-negative.
func (v Vector) Dot(w Vector) complex128 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmplxmat: Dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s complex128
	for i := range v {
		s += cmplx.Conj(v[i]) * w[i]
	}
	return s
}

// Norm returns the Euclidean norm ‖v‖₂.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return math.Sqrt(s)
}

// NormSq returns ‖v‖₂².
func (v Vector) NormSq() float64 {
	var s float64
	for _, x := range v {
		s += real(x)*real(x) + imag(x)*imag(x)
	}
	return s
}

// Scale returns s·v as a new vector.
func (v Vector) Scale(s complex128) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

// Add returns v + w.
func (v Vector) Add(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmplxmat: Add length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] + w[i]
	}
	return out
}

// Sub returns v − w.
func (v Vector) Sub(w Vector) Vector {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmplxmat: Sub length mismatch %d vs %d", len(v), len(w)))
	}
	out := make(Vector, len(v))
	for i := range v {
		out[i] = v[i] - w[i]
	}
	return out
}

// SubInPlace subtracts w from v in place (v −= w). The in-place
// variants exist for hot paths that would otherwise allocate a fresh
// vector per arithmetic step; they mutate their receiver, so they
// must never be applied to a vector shared with a cache.
func (v Vector) SubInPlace(w Vector) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmplxmat: SubInPlace length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] -= w[i]
	}
}

// SubScaledInPlace subtracts s·w from v in place (v −= s·w) — one
// Gram-Schmidt step without the two temporaries Sub(w.Scale(s)) would
// allocate.
func (v Vector) SubScaledInPlace(w Vector, s complex128) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("cmplxmat: SubScaledInPlace length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range v {
		v[i] -= s * w[i]
	}
}

// ScaleInPlace multiplies v by s in place.
func (v Vector) ScaleInPlace(s complex128) {
	for i := range v {
		v[i] *= s
	}
}

// Normalize returns v/‖v‖, or a zero vector if ‖v‖ is (near) zero.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n < DefaultTol {
		return make(Vector, len(v))
	}
	return v.Scale(complex(1/n, 0))
}

// AsColumn returns v as an n×1 matrix.
func (v Vector) AsColumn() *Matrix {
	m := New(len(v), 1)
	for i, x := range v {
		m.data[i] = x
	}
	return m
}

// AsRow returns v as a 1×n matrix.
func (v Vector) AsRow() *Matrix {
	m := New(1, len(v))
	copy(m.data, v)
	return m
}

// ColumnsToMatrix assembles column vectors (all the same length) into
// a matrix whose j-th column is vs[j].
func ColumnsToMatrix(vs []Vector) *Matrix {
	m := New(columnsShape(vs))
	columnsInto(m, vs)
	return m
}

// columnsShape returns the shape of ColumnsToMatrix(vs).
func columnsShape(vs []Vector) (rows, cols int) {
	if len(vs) == 0 {
		return 0, 0
	}
	return len(vs[0]), len(vs)
}

// columnsInto writes vs as the columns of m, whose shape is
// columnsShape(vs).
func columnsInto(m *Matrix, vs []Vector) {
	for j, v := range vs {
		if len(v) != m.rows {
			panic(fmt.Sprintf("cmplxmat: ColumnsToMatrix ragged column %d: %d != %d", j, len(v), m.rows))
		}
		m.SetCol(j, v)
	}
}

// Columns splits m into its column vectors.
func (m *Matrix) Columns() []Vector {
	out := make([]Vector, m.cols)
	for j := 0; j < m.cols; j++ {
		out[j] = m.Col(j)
	}
	return out
}
