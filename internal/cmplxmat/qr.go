package cmplxmat

import (
	"fmt"
	"math"
	"math/cmplx"
)

// QR holds the full QR decomposition A = Q·R of an m×n matrix, where
// Q is m×m unitary and R is m×n upper triangular. It is computed with
// Householder reflections, which are numerically stable for the
// ill-conditioned channel matrices that arise when links are nearly
// aligned.
type QR struct {
	Q *Matrix // m×m unitary
	R *Matrix // m×n upper triangular
}

// DecomposeQR computes the full Householder QR decomposition of a.
func DecomposeQR(a *Matrix) *QR {
	r := a.Clone()
	q := Identity(a.rows)
	householder(r, q, make(Vector, a.rows))
	return &QR{Q: q, R: r}
}

// smallLen is the element count of the fixed-size arrays the kernels
// keep their temporaries in. Every MAC shape fits (a node has at most
// 4 antennas, so no side exceeds 4); a larger shape falls back to the
// heap.
const smallLen = 16

// scratchMatrix returns a zero rows×cols matrix over buf when it fits,
// and on the heap otherwise. Kernels declare buf as a local array, so
// a temporary that fits stays on the goroutine's stack.
func scratchMatrix(buf *[smallLen]complex128, rows, cols int) Matrix {
	n := rows * cols
	if n > smallLen {
		return Matrix{rows: rows, cols: cols, data: make([]complex128, n)}
	}
	data := buf[:n]
	clear(data)
	return Matrix{rows: rows, cols: cols, data: data}
}

// qrScratch is the storage of one Householder factorization: R, Q and
// the reflector. Declared as a local, it keeps the factorization of
// a matrix with at most 4 rows and smallLen elements off the heap.
type qrScratch struct {
	r, q [smallLen]complex128
	v    [4]complex128
}

// start returns a zero m×n R for the caller to fill, the m×m identity
// Q and the reflector scratch, in s when they fit.
func (s *qrScratch) start(m, n int) (r, q Matrix, v Vector) {
	r = scratchMatrix(&s.r, m, n)
	q = scratchMatrix(&s.q, m, m)
	for i := 0; i < m; i++ {
		q.data[i*m+i] = 1
	}
	if m <= len(s.v) {
		v = s.v[:m]
	} else {
		v = make(Vector, m)
	}
	return r, q, v
}

// householder factors r (m×n) in place into the upper-triangular R of
// r = Q·R and accumulates Q into q, which must hold the m×m identity.
// scratch is the reflector, of length m. Every kernel that needs a QR
// runs this one core, in whatever storage it owns.
func householder(r, q *Matrix, scratch Vector) {
	m, n := r.rows, r.cols
	steps := n
	if m-1 < steps {
		steps = m - 1
	}
	for k := 0; k < steps; k++ {
		// Build the Householder reflector that zeroes R[k+1:,k]:
		// v = x + e^{iθ}·α·e₁ (θ the phase of x₀, the sign choice that
		// avoids cancellation), normalized.
		v := scratch[:m-k]
		for i := k; i < m; i++ {
			v[i-k] = r.data[i*n+k]
		}
		alpha := v.Norm()
		if alpha < DefaultTol {
			continue
		}
		phase := complex(1, 0)
		if cmplx.Abs(v[0]) > 0 {
			phase = v[0] / complex(cmplx.Abs(v[0]), 0)
		}
		v[0] += phase * complex(alpha, 0)
		vn := v.Norm()
		if vn < DefaultTol {
			continue
		}
		for i := range v {
			v[i] /= complex(vn, 0)
		}
		// Apply H = I − 2vvᴴ to R (rows k..m-1) and accumulate into Q.
		applyHouseholderLeft(r, v, k)
		applyHouseholderRight(q, v, k)
	}
	// Clean numerical dust below the diagonal.
	for i := 0; i < m; i++ {
		for j := 0; j < n && j < i; j++ {
			r.data[i*n+j] = 0
		}
	}
}

// rankOf returns the numerical rank of a factored R: the diagonal
// entries above tol·max(m,n)·scale, where scale is the largest element
// magnitude of the matrix that was factored.
func rankOf(r *Matrix, tol, scale float64) int {
	dim := r.rows
	if r.cols > dim {
		dim = r.cols
	}
	thresh := tol * float64(dim) * scale
	rank := 0
	for i := 0; i < min(r.rows, r.cols); i++ {
		if cmplx.Abs(r.data[i*r.cols+i]) > thresh {
			rank++
		}
	}
	return rank
}

// complementBasis factors the filled r and returns an orthonormal
// basis of the orthogonal complement of its column space: the columns
// of Q past the numerical rank. q and v are as for householder. The
// result is the only allocation.
func complementBasis(r, q *Matrix, v Vector, tol float64) *Matrix {
	rank := factorRank(r, q, v, tol)
	if rank >= r.rows {
		return New(r.rows, 0)
	}
	return q.Submatrix(0, r.rows, rank, r.rows)
}

// factorRank factors the filled r (see householder) and returns its
// numerical rank.
func factorRank(r, q *Matrix, v Vector, tol float64) int {
	scale := r.MaxAbs()
	householder(r, q, v)
	return rankOf(r, tol, scale)
}

// applyHouseholderLeft applies H = I − 2vvᴴ to rows k..m-1 of a,
// where v has length m−k.
func applyHouseholderLeft(a *Matrix, v Vector, k int) {
	m, n := a.rows, a.cols
	for j := 0; j < n; j++ {
		var s complex128
		for i := k; i < m; i++ {
			s += cmplx.Conj(v[i-k]) * a.data[i*n+j]
		}
		s *= 2
		for i := k; i < m; i++ {
			a.data[i*n+j] -= s * v[i-k]
		}
	}
}

// applyHouseholderRight applies H to columns k..m-1 of a (i.e. a·H),
// used to accumulate Q = H₁·H₂·…  (H is Hermitian so a·Hᴴ = a·H).
func applyHouseholderRight(a *Matrix, v Vector, k int) {
	m := a.rows
	n := a.cols
	for i := 0; i < m; i++ {
		var s complex128
		for j := k; j < n; j++ {
			s += a.data[i*n+j] * v[j-k]
		}
		s *= 2
		for j := k; j < n; j++ {
			a.data[i*n+j] -= s * cmplx.Conj(v[j-k])
		}
	}
}

// Rank returns the numerical rank of a: the number of diagonal entries
// of R whose magnitude exceeds tol·max(m,n)·‖A‖. Pass tol <= 0 for
// DefaultTol.
func Rank(a *Matrix, tol float64) int {
	if a.rows == 0 || a.cols == 0 {
		return 0
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	qr := DecomposeQR(a)
	scale := a.MaxAbs()
	if scale == 0 {
		return 0
	}
	return rankOf(qr.R, tol, scale)
}

// NullSpace returns an orthonormal basis for the (right) null space of
// a, i.e. vectors v with a·v = 0, as the columns of the returned
// matrix. For a K×M matrix of rank r the result is M×(M−r).
//
// This is the primitive behind Claim 3.5 / Eq. 7 of the paper: the
// pre-coding vectors of a joining transmitter are exactly a basis of
// the null space of the stacked nulling/alignment constraint matrix.
//
// Implementation: full QR of aᴴ (M×K). Columns of Q beyond the rank of
// a span null(a), because a·q = (qᴴ·aᴴ)ᴴ and qᴴ·aᴴ picks rows of Rᴴ
// that are zero past the rank.
func NullSpace(a *Matrix, tol float64) *Matrix {
	if tol <= 0 {
		tol = DefaultTol
	}
	if a.cols == 0 {
		return New(0, 0)
	}
	if a.rows == 0 {
		return Identity(a.cols)
	}
	var w qrScratch
	r, q, v := w.start(a.cols, a.rows)
	conjTransposeInto(&r, a)
	return complementBasis(&r, &q, v, tol)
}

// Block is one block of rows of a stacked matrix, for AppendNullSpace:
// B itself when A is nil, otherwise the product Aᴴ·B, with the
// arithmetic of A.ConjTransposeMul(B).
type Block struct{ A, B *Matrix }

// rows returns the number of rows the block contributes.
func (b Block) rows() int {
	if b.A == nil {
		return b.B.rows
	}
	return b.A.cols
}

// AppendNullSpace appends to dst, as fresh vectors, the first n
// columns of NullSpace(VStack(rows…), tol), where rows are the blocks'
// rows in order, and returns the extended slice and the dimension of
// the null space (fewer than n columns are appended when it is
// smaller). The stack is built straight into the factorization's
// storage, so the appended vectors are the only allocations.
//
// It is the fused form of Eq. 7's solve: a joining transmitter's
// pre-coding vectors are the leading null-space columns of the
// stacked constraint rows of every receiver it must protect.
func AppendNullSpace(dst []Vector, blocks []Block, n int, tol float64) ([]Vector, int) {
	if tol <= 0 {
		tol = DefaultTol
	}
	// VStack's shape rules: zero-row blocks contribute nothing, the
	// others must share a column count, and no rows at all stack to a
	// 0×0 matrix, whose null space is empty.
	rows, cols := 0, -1
	for _, b := range blocks {
		br := b.rows()
		if br == 0 {
			continue
		}
		if cols == -1 {
			cols = b.B.cols
		} else if b.B.cols != cols {
			panic(fmt.Sprintf("cmplxmat: AppendNullSpace column mismatch %d vs %d", b.B.cols, cols))
		}
		rows += br
	}
	if cols <= 0 {
		return dst, 0
	}
	var buf [smallLen]complex128
	stack := scratchMatrix(&buf, rows, cols)
	r0 := 0
	for _, b := range blocks {
		br := b.rows()
		if br == 0 {
			continue
		}
		blk := Matrix{rows: br, cols: cols, data: stack.data[r0*cols : (r0+br)*cols]}
		if b.A == nil {
			copy(blk.data, b.B.data)
		} else {
			conjTransposeMulInto(&blk, b.A, b.B)
		}
		r0 += br
	}
	var w qrScratch
	r, q, v := w.start(cols, rows)
	conjTransposeInto(&r, &stack)
	dim := cols - factorRank(&r, &q, v, tol)
	if dim < 0 {
		dim = 0
	}
	for j := cols - dim; j < cols-dim+min(n, dim); j++ {
		col := make(Vector, cols)
		for i := range col {
			col[i] = q.data[i*cols+j]
		}
		dst = append(dst, col)
	}
	return dst, dim
}

// OrthonormalBasis returns an orthonormal basis for the column space
// of a as the columns of the returned matrix (m×rank).
func OrthonormalBasis(a *Matrix, tol float64) *Matrix {
	var w qrScratch
	r, q, v := w.start(a.rows, a.cols)
	copy(r.data, a.data)
	return orthonormalBasis(&r, &q, v, tol)
}

// OrthonormalBasisOfColumns returns OrthonormalBasis(ColumnsToMatrix(vs),
// tol) without building the column matrix: the result is the only
// allocation.
func OrthonormalBasisOfColumns(vs []Vector, tol float64) *Matrix {
	var w qrScratch
	r, q, v := w.start(columnsShape(vs))
	columnsInto(&r, vs)
	return orthonormalBasis(&r, &q, v, tol)
}

// orthonormalBasis is OrthonormalBasis of the filled r, which it
// factors in place (q and v as for householder).
func orthonormalBasis(r, q *Matrix, v Vector, tol float64) *Matrix {
	if tol <= 0 {
		tol = DefaultTol
	}
	if r.rows == 0 || r.cols == 0 {
		return New(r.rows, 0)
	}
	scale := r.MaxAbs()
	if r.cols == 1 {
		// One direction: the basis is the normalized column (or empty
		// when it is numerically zero). |R₀₀| of the 1-column QR is
		// exactly ‖v‖, so the rank decision matches the general path;
		// the result differs from Householder output only by a unit
		// phase, which spans the same space.
		n := Vector(r.data).Norm()
		if n <= tol*float64(r.rows)*scale || n == 0 {
			return New(r.rows, 0)
		}
		out := New(r.rows, 1)
		s := complex(1/n, 0)
		for i, x := range r.data {
			out.data[i] = s * x
		}
		return out
	}
	householder(r, q, v)
	if scale == 0 {
		return New(r.rows, 0)
	}
	return q.Submatrix(0, r.rows, 0, rankOf(r, tol, scale))
}

// OrthogonalComplement returns an orthonormal basis for the orthogonal
// complement of the column space of a: vectors w with wᴴ·a = 0. For an
// N×k matrix of rank r the result is N×(N−r).
//
// In the paper's terms: if U is the unwanted signal space at a
// receiver, OrthogonalComplement(U) is U⊥ (as columns; transpose-
// conjugate it to get the projection rows of Eq. 6). Likewise, a node
// carrier-sensing during K ongoing transmissions projects its received
// signal onto OrthogonalComplement(H_ongoing).
func OrthogonalComplement(a *Matrix, tol float64) *Matrix {
	if a.rows == 0 {
		return New(0, 0)
	}
	if a.cols == 0 {
		return Identity(a.rows)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	// null(aᴴ) = complement of col(a): factor a directly, with
	// NullSpace's rank threshold.
	var w qrScratch
	r, q, v := w.start(a.rows, a.cols)
	copy(r.data, a.data)
	return complementBasis(&r, &q, v, tol)
}

// OrthogonalComplementOfColumns returns
// OrthogonalComplement(ColumnsToMatrix(vs), tol) without building the
// column matrix: the result is the only allocation.
func OrthogonalComplementOfColumns(vs []Vector, tol float64) *Matrix {
	rows, cols := columnsShape(vs)
	if rows == 0 {
		return New(0, 0)
	}
	if tol <= 0 {
		tol = DefaultTol
	}
	var w qrScratch
	r, q, v := w.start(rows, cols)
	columnsInto(&r, vs)
	return complementBasis(&r, &q, v, tol)
}

// ProjectorOnto returns the orthogonal projector P = B·Bᴴ where B is
// an orthonormal basis of the column space of a. P·y is the component
// of y inside col(a).
func ProjectorOnto(a *Matrix, tol float64) *Matrix {
	b := OrthonormalBasis(a, tol)
	return b.Mul(b.ConjTranspose())
}

// ProjectorOntoComplement returns P⊥ = I − B·Bᴴ, the projector onto
// the orthogonal complement of col(a). Applying it to a received
// signal removes all energy of the ongoing transmissions — the heart
// of multi-dimensional carrier sense (§3.2).
func ProjectorOntoComplement(a *Matrix, tol float64) *Matrix {
	p := ProjectorOnto(a, tol)
	return Identity(a.rows).Sub(p)
}

// Solve solves the square linear system a·x = b via QR (a must be
// n×n). It returns an error when a is singular to working precision.
func Solve(a *Matrix, b Vector) (Vector, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("cmplxmat: Solve needs a square matrix, got %d×%d", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("cmplxmat: Solve dimension mismatch: %d×%d vs b of length %d", a.rows, a.cols, len(b))
	}
	n := a.rows
	if n == 0 {
		return Vector{}, nil
	}
	qr := DecomposeQR(a)
	scale := a.MaxAbs()
	thresh := DefaultTol * float64(n) * scale
	for i := 0; i < n; i++ {
		if cmplx.Abs(qr.R.At(i, i)) <= thresh {
			return nil, fmt.Errorf("cmplxmat: Solve: matrix is singular (|R[%d,%d]| = %g)", i, i, cmplx.Abs(qr.R.At(i, i)))
		}
	}
	// x = R⁻¹ Qᴴ b by back substitution.
	y := qr.Q.ConjTranspose().MulVec(b)
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= qr.R.At(i, j) * x[j]
		}
		x[i] = s / qr.R.At(i, i)
	}
	return x, nil
}

// LeastSquares solves min‖a·x − b‖₂ for a full-column-rank m×n matrix
// with m ≥ n (the zero-forcing decoder in MIMO terms). It returns an
// error when a is column-rank-deficient.
func LeastSquares(a *Matrix, b Vector) (Vector, error) {
	if a.rows < a.cols {
		return nil, fmt.Errorf("cmplxmat: LeastSquares needs rows ≥ cols, got %d×%d", a.rows, a.cols)
	}
	if a.rows != len(b) {
		return nil, fmt.Errorf("cmplxmat: LeastSquares dimension mismatch: %d×%d vs b of length %d", a.rows, a.cols, len(b))
	}
	n := a.cols
	if n == 0 {
		return Vector{}, nil
	}
	qr := DecomposeQR(a)
	scale := a.MaxAbs()
	thresh := DefaultTol * float64(a.rows) * scale
	for i := 0; i < n; i++ {
		if cmplx.Abs(qr.R.At(i, i)) <= thresh {
			return nil, fmt.Errorf("cmplxmat: LeastSquares: rank-deficient column %d", i)
		}
	}
	y := qr.Q.ConjTranspose().MulVec(b)
	x := make(Vector, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= qr.R.At(i, j) * x[j]
		}
		x[i] = s / qr.R.At(i, i)
	}
	return x, nil
}

// PseudoInverse returns the Moore–Penrose pseudo-inverse A⁺ = (AᴴA)⁻¹Aᴴ
// for a full-column-rank matrix (the zero-forcing receive filter).
func PseudoInverse(a *Matrix) (*Matrix, error) {
	out := New(a.cols, a.rows)
	if err := pseudoInverseInto(out, a); err != nil {
		return nil, err
	}
	return out, nil
}

// ProjectedPseudoInverse returns A⁺·uᴴ for A = uᴴ·H, where H's columns
// are cols: the zero-forcing filter of the columns as seen inside the
// column space of u, acting on the full space. A nil u stands for the
// identity, giving H⁺. It equals
// PseudoInverse(u.ConjTransposeMul(ColumnsToMatrix(cols))) times uᴴ
// bit for bit, and the result is its only allocation.
func ProjectedPseudoInverse(u *Matrix, cols []Vector) (*Matrix, error) {
	var hBuf, aBuf, pBuf [smallLen]complex128
	rows, n := columnsShape(cols)
	h := scratchMatrix(&hBuf, rows, n)
	columnsInto(&h, cols)
	if u == nil {
		return PseudoInverse(&h)
	}
	a := scratchMatrix(&aBuf, u.cols, h.cols)
	conjTransposeMulInto(&a, u, &h)
	p := scratchMatrix(&pBuf, a.cols, a.rows)
	if err := pseudoInverseInto(&p, &a); err != nil {
		return nil, err
	}
	out := New(p.rows, u.rows)
	mulConjTransposeInto(out, &p, u)
	return out, nil
}

// pseudoInverseInto writes A⁺ into dst, a zero a.cols×a.rows matrix,
// keeping the Gram matrix and its inverse on the stack.
func pseudoInverseInto(dst, a *Matrix) error {
	if a.cols == 0 {
		return nil
	}
	if a.cols == 1 {
		// Scalar Gram: A⁺ = aᴴ/‖a‖². This is the single-stream
		// zero-forcing filter — by far the most common decoder shape —
		// and the closed form reproduces the QR path bit-for-bit (a
		// 1×1 QR has no reflection steps).
		var gram complex128
		for _, x := range a.data {
			gram += cmplx.Conj(x) * x
		}
		if gram == 0 {
			return fmt.Errorf("cmplxmat: PseudoInverse: %w", errSingular)
		}
		inv := 1 / gram
		for i, x := range a.data {
			dst.data[i] = inv * cmplx.Conj(x)
		}
		return nil
	}
	var gBuf, iBuf [smallLen]complex128
	gram := scratchMatrix(&gBuf, a.cols, a.cols)
	conjTransposeMulInto(&gram, a, a)
	inv := scratchMatrix(&iBuf, a.cols, a.cols)
	if err := inverseInto(&inv, &gram); err != nil {
		return fmt.Errorf("cmplxmat: PseudoInverse: %w", err)
	}
	mulConjTransposeInto(dst, &inv, a)
	return nil
}

// errSingular is the shared singularity failure.
var errSingular = fmt.Errorf("matrix is singular")

// Inverse returns a⁻¹ for a square nonsingular matrix.
func Inverse(a *Matrix) (*Matrix, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("cmplxmat: Inverse needs a square matrix, got %d×%d", a.rows, a.cols)
	}
	inv := New(a.rows, a.cols)
	if err := inverseInto(inv, a); err != nil {
		return nil, err
	}
	return inv, nil
}

// inverseInto writes a⁻¹ into inv (same square shape), factoring on the
// stack when a fits.
func inverseInto(inv, a *Matrix) error {
	n := a.rows
	// Closed forms for the 1×1 and 2×2 systems that dominate the MIMO
	// decoder path (Gram matrices of 1–2 streams); larger systems take
	// the numerically safer QR route.
	if n == 1 {
		x := a.data[0]
		if x == 0 { // matches the QR test: |R₀₀| ≤ tol·|a| only at zero
			return fmt.Errorf("cmplxmat: Inverse: matrix is singular")
		}
		inv.data[0] = 1 / x
		return nil
	}
	if n == 2 {
		det := a.data[0]*a.data[3] - a.data[1]*a.data[2]
		scale := a.MaxAbs()
		if cmplx.Abs(det) <= DefaultTol*2*scale*scale {
			return fmt.Errorf("cmplxmat: Inverse: matrix is singular")
		}
		d := 1 / det
		inv.data[0] = a.data[3] * d
		inv.data[1] = -a.data[1] * d
		inv.data[2] = -a.data[2] * d
		inv.data[3] = a.data[0] * d
		return nil
	}
	var w qrScratch
	r, q, x := w.start(n, n)
	copy(r.data, a.data)
	householder(&r, &q, x)
	scale := a.MaxAbs()
	thresh := DefaultTol * float64(n) * scale
	for i := 0; i < n; i++ {
		if cmplx.Abs(r.data[i*n+i]) <= thresh {
			return fmt.Errorf("cmplxmat: Inverse: matrix is singular")
		}
	}
	// Solve R·X = Qᴴ column by column. The reflector scratch is free
	// once factored, and each back substitution fully overwrites it.
	for c := 0; c < n; c++ {
		for i := n - 1; i >= 0; i-- {
			s := cmplx.Conj(q.data[c*n+i]) // (Qᴴ)[i][c]
			for j := i + 1; j < n; j++ {
				s -= r.data[i*n+j] * x[j]
			}
			x[i] = s / r.data[i*n+i]
		}
		for i := 0; i < n; i++ {
			inv.data[i*n+c] = x[i]
		}
	}
	return nil
}

// ConditionNumber estimates the 2-norm condition number of a square
// matrix as the ratio of the largest to smallest |R| diagonal of its
// QR decomposition. This is a cheap proxy (exact for triangular
// matrices) that is adequate for deciding whether a channel matrix is
// well-enough conditioned to decode.
func ConditionNumber(a *Matrix) float64 {
	if a.rows == 0 || a.cols == 0 {
		return 0
	}
	qr := DecomposeQR(a)
	n := min(a.rows, a.cols)
	dim := a.rows
	if a.cols > dim {
		dim = a.cols
	}
	thresh := DefaultTol * float64(dim) * a.MaxAbs()
	lo, hi := math.Inf(1), 0.0
	for i := 0; i < n; i++ {
		d := cmplx.Abs(qr.R.At(i, i))
		if d < lo {
			lo = d
		}
		if d > hi {
			hi = d
		}
	}
	if lo <= thresh {
		return math.Inf(1)
	}
	return hi / lo
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
