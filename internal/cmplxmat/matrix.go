// Package cmplxmat provides dense complex-valued linear algebra for
// MIMO signal processing: matrices and vectors over complex128,
// Householder QR decomposition, null spaces, orthonormal bases,
// projections onto orthogonal complements, and least-squares solvers.
//
// Every MIMO operation in this repository — interference nulling,
// interference alignment, zero-forcing decoding, and multi-dimensional
// carrier sense — reduces to operations in this package. It is written
// against the standard library only and is deterministic: no global
// state, no randomness.
//
// Conventions: matrices are dense, row-major, and immutable by
// convention (operations return fresh matrices unless the name says
// otherwise, e.g. SetAt). Dimensions follow the paper's notation:
// channel matrices are N×M (receive antennas × transmit antennas).
package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// DefaultTol is the default tolerance used for rank decisions and
// residual checks. It is scaled internally by the matrix magnitude.
const DefaultTol = 1e-10

// Matrix is a dense complex matrix with row-major storage.
type Matrix struct {
	rows, cols int
	data       []complex128 // len == rows*cols, row-major
}

// New returns a zero rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmplxmat: negative dimension %d×%d", rows, cols))
	}
	return &Matrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// NewBatch returns count zero rows×cols matrices backed by one
// shared allocation (struct array + one data block). Per-subcarrier
// pipelines build dozens of same-shape matrices at once; allocating
// them individually fragments the heap and dominates GC time.
func NewBatch(count, rows, cols int) []*Matrix {
	var b Batch
	return b.Shape(count, rows, cols)
}

// Batch is reusable storage for a batch of same-shape matrices, laid
// out as NewBatch lays them out. A caller that needs a fresh batch on
// every step but keeps none past the next step holds one Batch and
// calls Shape each time instead of NewBatch.
type Batch struct {
	structs []Matrix
	data    []complex128
	out     []*Matrix
}

// Shape returns count zero rows×cols matrices backed by b, reusing its
// storage when it is large enough. The matrices of the previous Shape
// call are overwritten.
func (b *Batch) Shape(count, rows, cols int) []*Matrix {
	if count < 0 || rows < 0 || cols < 0 {
		panic(fmt.Sprintf("cmplxmat: negative batch %d of %d×%d", count, rows, cols))
	}
	stride := rows * cols
	if n := count * stride; cap(b.data) < n {
		b.data = make([]complex128, n)
	} else {
		b.data = b.data[:n]
		clear(b.data)
	}
	if cap(b.structs) < count {
		b.structs = make([]Matrix, count)
		b.out = make([]*Matrix, count)
	}
	b.structs, b.out = b.structs[:count], b.out[:count]
	for i := range b.out {
		b.structs[i] = Matrix{rows: rows, cols: cols, data: b.data[i*stride : (i+1)*stride : (i+1)*stride]}
		b.out[i] = &b.structs[i]
	}
	return b.out
}

// FromSlice builds a rows×cols matrix from row-major data. The slice
// is copied.
func FromSlice(rows, cols int, data []complex128) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("cmplxmat: FromSlice got %d values for %d×%d", len(data), rows, cols))
	}
	m := New(rows, cols)
	copy(m.data, data)
	return m
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]complex128) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("cmplxmat: ragged row %d: %d != %d", i, len(r), cols))
		}
		copy(m.data[i*cols:(i+1)*cols], r)
	}
	return m
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// SetAt assigns the element at row i, column j in place.
func (m *Matrix) SetAt(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmplxmat: index (%d,%d) out of bounds for %d×%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Row returns a copy of row i as a Vector.
func (m *Matrix) Row(i int) Vector {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("cmplxmat: row %d out of bounds for %d×%d", i, m.rows, m.cols))
	}
	v := make(Vector, m.cols)
	copy(v, m.data[i*m.cols:(i+1)*m.cols])
	return v
}

// Col returns a copy of column j as a Vector.
func (m *Matrix) Col(j int) Vector {
	if j < 0 || j >= m.cols {
		panic(fmt.Sprintf("cmplxmat: col %d out of bounds for %d×%d", j, m.rows, m.cols))
	}
	v := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		v[i] = m.data[i*m.cols+j]
	}
	return v
}

// SetRow assigns row i from v.
func (m *Matrix) SetRow(i int, v Vector) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("cmplxmat: SetRow length %d != %d cols", len(v), m.cols))
	}
	copy(m.data[i*m.cols:(i+1)*m.cols], v)
}

// SetCol assigns column j from v.
func (m *Matrix) SetCol(j int, v Vector) {
	if len(v) != m.rows {
		panic(fmt.Sprintf("cmplxmat: SetCol length %d != %d rows", len(v), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		m.data[i*m.cols+j] = v[i]
	}
}

// Add returns m + b.
func (m *Matrix) Add(b *Matrix) *Matrix {
	m.sameShape(b, "Add")
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = m.data[i] + b.data[i]
	}
	return c
}

// Sub returns m − b.
func (m *Matrix) Sub(b *Matrix) *Matrix {
	m.sameShape(b, "Sub")
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = m.data[i] - b.data[i]
	}
	return c
}

func (m *Matrix) sameShape(b *Matrix, op string) {
	if m.rows != b.rows || m.cols != b.cols {
		panic(fmt.Sprintf("cmplxmat: %s shape mismatch %d×%d vs %d×%d", op, m.rows, m.cols, b.rows, b.cols))
	}
}

// Scale returns s·m.
func (m *Matrix) Scale(s complex128) *Matrix {
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = s * m.data[i]
	}
	return c
}

// Mul returns the matrix product m·b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("cmplxmat: Mul shape mismatch %d×%d · %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	c := New(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			crow := c.data[i*b.cols : (i+1)*b.cols]
			for j := range brow {
				crow[j] += a * brow[j]
			}
		}
	}
	return c
}

// ConjTransposeMul returns mᴴ·b without materializing the transpose:
// the elements equal m.ConjTranspose().Mul(b) bit for bit, and the
// result is the only allocation.
func (m *Matrix) ConjTransposeMul(b *Matrix) *Matrix {
	c := New(m.cols, b.cols)
	conjTransposeMulInto(c, m, b)
	return c
}

// conjTransposeMulInto computes mᴴ·b into dst, which must be a zero
// m.Cols()×b.Cols() matrix, with Mul's loop order and its skip of zero
// terms, so the sums round exactly as Mul's do.
func conjTransposeMulInto(dst, m, b *Matrix) {
	if m.rows != b.rows {
		panic(fmt.Sprintf("cmplxmat: ConjTransposeMul shape mismatch %d×%d ᴴ· %d×%d", m.rows, m.cols, b.rows, b.cols))
	}
	for i := 0; i < m.cols; i++ {
		crow := dst.data[i*b.cols : (i+1)*b.cols]
		for k := 0; k < m.rows; k++ {
			a := cmplx.Conj(m.data[k*m.cols+i])
			if a == 0 {
				continue
			}
			brow := b.data[k*b.cols : (k+1)*b.cols]
			for j := range brow {
				crow[j] += a * brow[j]
			}
		}
	}
}

// mulConjTransposeInto computes m·bᴴ into dst, which must be a zero
// m.Rows()×b.Rows() matrix, with the arithmetic of
// m.Mul(b.ConjTranspose()).
func mulConjTransposeInto(dst, m, b *Matrix) {
	if m.cols != b.cols {
		panic(fmt.Sprintf("cmplxmat: MulConjTranspose shape mismatch %d×%d · (%d×%d)ᴴ", m.rows, m.cols, b.rows, b.cols))
	}
	for i := 0; i < m.rows; i++ {
		crow := dst.data[i*b.rows : (i+1)*b.rows]
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := range crow {
				crow[j] += a * cmplx.Conj(b.data[j*b.cols+k])
			}
		}
	}
}

// MulVec returns the matrix-vector product m·v.
func (m *Matrix) MulVec(v Vector) Vector {
	if m.cols != len(v) {
		panic(fmt.Sprintf("cmplxmat: MulVec shape mismatch %d×%d · %d", m.rows, m.cols, len(v)))
	}
	out := make(Vector, m.rows)
	for i := 0; i < m.rows; i++ {
		var s complex128
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, x := range row {
			s += x * v[j]
		}
		out[i] = s
	}
	return out
}

// MulVecInto computes m·v into dst (len(dst) == m.Rows()) without
// allocating, and returns dst. dst must not alias v.
func (m *Matrix) MulVecInto(dst, v Vector) Vector {
	if m.cols != len(v) {
		panic(fmt.Sprintf("cmplxmat: MulVecInto shape mismatch %d×%d · %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.rows {
		panic(fmt.Sprintf("cmplxmat: MulVecInto dst length %d != %d rows", len(dst), m.rows))
	}
	for i := 0; i < m.rows; i++ {
		var s complex128
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, x := range row {
			s += x * v[j]
		}
		dst[i] = s
	}
	return dst
}

// ConjTransposeMulVec returns mᴴ·v without materializing the
// transpose — the projection step U⊥ᴴ·y that every decode and every
// alignment projection performs.
func (m *Matrix) ConjTransposeMulVec(v Vector) Vector {
	if m.rows != len(v) {
		panic(fmt.Sprintf("cmplxmat: ConjTransposeMulVec shape mismatch %d×%d ᴴ· %d", m.rows, m.cols, len(v)))
	}
	out := make(Vector, m.cols)
	for i := 0; i < m.rows; i++ {
		x := v[i]
		if x == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			out[j] += cmplx.Conj(a) * x
		}
	}
	return out
}

// ConjTransposeMulVecInto computes mᴴ·v into dst (len m.Cols()),
// without allocating, and returns dst.
func (m *Matrix) ConjTransposeMulVecInto(dst, v Vector) Vector {
	if m.rows != len(v) {
		panic(fmt.Sprintf("cmplxmat: ConjTransposeMulVecInto shape mismatch %d×%d ᴴ· %d", m.rows, m.cols, len(v)))
	}
	if len(dst) != m.cols {
		panic(fmt.Sprintf("cmplxmat: ConjTransposeMulVecInto dst length %d != %d cols", len(dst), m.cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.rows; i++ {
		x := v[i]
		if x == 0 {
			continue
		}
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, a := range row {
			dst[j] += cmplx.Conj(a) * x
		}
	}
	return dst
}

// RowView returns row i aliasing the matrix storage — no copy. The
// caller must not mutate the result; use Row for an owned copy.
func (m *Matrix) RowView(i int) Vector {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("cmplxmat: row %d out of bounds for %d×%d", i, m.rows, m.cols))
	}
	return Vector(m.data[i*m.cols : (i+1)*m.cols])
}

// ConjTranspose returns the conjugate (Hermitian) transpose mᴴ.
func (m *Matrix) ConjTranspose() *Matrix {
	t := New(m.cols, m.rows)
	conjTransposeInto(t, m)
	return t
}

// conjTransposeInto writes mᴴ into dst (m.Cols()×m.Rows()).
func conjTransposeInto(dst, m *Matrix) {
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			dst.data[j*m.rows+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
}

// Transpose returns the plain transpose mᵀ (no conjugation).
func (m *Matrix) Transpose() *Matrix {
	t := New(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*m.rows+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Conj returns the element-wise complex conjugate.
func (m *Matrix) Conj() *Matrix {
	c := New(m.rows, m.cols)
	for i := range m.data {
		c.data[i] = cmplx.Conj(m.data[i])
	}
	return c
}

// VStack stacks matrices vertically (all must share the column count).
// Zero-row matrices are permitted and contribute nothing.
func VStack(ms ...*Matrix) *Matrix {
	cols := -1
	rows := 0
	for _, m := range ms {
		if m.rows == 0 {
			continue
		}
		if cols == -1 {
			cols = m.cols
		} else if m.cols != cols {
			panic(fmt.Sprintf("cmplxmat: VStack column mismatch %d vs %d", m.cols, cols))
		}
		rows += m.rows
	}
	if cols == -1 {
		return New(0, 0)
	}
	out := New(rows, cols)
	r := 0
	for _, m := range ms {
		if m.rows == 0 {
			continue
		}
		copy(out.data[r*cols:(r+m.rows)*cols], m.data)
		r += m.rows
	}
	return out
}

// HStack concatenates matrices horizontally (all must share the row
// count).
func HStack(ms ...*Matrix) *Matrix {
	rows := -1
	cols := 0
	for _, m := range ms {
		if m.cols == 0 {
			continue
		}
		if rows == -1 {
			rows = m.rows
		} else if m.rows != rows {
			panic(fmt.Sprintf("cmplxmat: HStack row mismatch %d vs %d", m.rows, rows))
		}
		cols += m.cols
	}
	if rows == -1 {
		return New(0, 0)
	}
	out := New(rows, cols)
	c := 0
	for _, m := range ms {
		if m.cols == 0 {
			continue
		}
		for i := 0; i < rows; i++ {
			copy(out.data[i*cols+c:i*cols+c+m.cols], m.data[i*m.cols:(i+1)*m.cols])
		}
		c += m.cols
	}
	return out
}

// Submatrix returns the block [r0:r1)×[c0:c1) as a copy.
func (m *Matrix) Submatrix(r0, r1, c0, c1 int) *Matrix {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("cmplxmat: Submatrix [%d:%d,%d:%d] out of bounds for %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.data[(i-r0)*out.cols:], m.data[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// FrobeniusNorm returns the Frobenius norm √(Σ|aᵢⱼ|²).
func (m *Matrix) FrobeniusNorm() float64 {
	var s float64
	for _, v := range m.data {
		s += real(v)*real(v) + imag(v)*imag(v)
	}
	return math.Sqrt(s)
}

// MaxAbs returns the largest element magnitude.
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// EqualApprox reports whether m and b agree element-wise within tol.
func (m *Matrix) EqualApprox(b *Matrix, tol float64) bool {
	if m.rows != b.rows || m.cols != b.cols {
		return false
	}
	for i := range m.data {
		if cmplx.Abs(m.data[i]-b.data[i]) > tol {
			return false
		}
	}
	return true
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d×%d[", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		if i > 0 {
			sb.WriteString("; ")
		}
		for j := 0; j < m.cols; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "%.4g%+.4gi", real(m.At(i, j)), imag(m.At(i, j)))
		}
	}
	sb.WriteString("]")
	return sb.String()
}
