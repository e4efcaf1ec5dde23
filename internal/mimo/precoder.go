// Package mimo implements the paper's core contribution: the
// combination of interference nulling and interference alignment that
// lets a transmitter join ongoing transmissions without harming them
// (§2, §3.3, Claims 3.1–3.5), the multi-dimensional carrier sense
// that lets nodes contend for unused degrees of freedom (§3.2), the
// zero-forcing receiver that decodes wanted streams in the space
// orthogonal to unwanted ones, and the multi-user beamforming
// baseline of [7] that §6.4 compares against.
//
// Everything operates on one narrowband channel; wideband systems
// apply these functions independently per OFDM subcarrier (§4,
// Multipath).
package mimo

import (
	"errors"
	"fmt"

	"nplus/internal/cmplxmat"
)

// OngoingReceiver is a receiver of an ongoing stream that a joining
// transmitter must not disturb, as seen from that transmitter.
type OngoingReceiver struct {
	// H is the channel from the joining transmitter (M antennas) to
	// this receiver (N antennas), an N×M matrix. The transmitter
	// obtains it via reciprocity from the receiver's handshake
	// messages (§2).
	H *cmplxmat.Matrix

	// UPerp is the N×n matrix whose columns form an orthonormal basis
	// of the orthogonal complement of the receiver's unwanted space —
	// i.e. the directions the receiver actually uses to decode its n
	// wanted streams. The receiver broadcasts it in its light-weight
	// CTS (§3.5).
	//
	// A nil UPerp means the receiver has no unwanted space (n = N):
	// per Claim 3.1 the transmitter must then null at this receiver,
	// which is equivalent to UPerp = I.
	UPerp *cmplxmat.Matrix

	// Rows optionally carries precomputed ConstraintRows (U⊥ᴴ·H).
	// The product depends only on the receiver's advertised space and
	// the attempt's channel estimate, so a planner evaluating many
	// candidate plans against the same incumbents computes it once
	// and shares it here. Must never be mutated after being set.
	Rows *cmplxmat.Matrix
}

// ConstraintRows returns the rows this receiver contributes to Eq. 7:
// U⊥ᴴ·H (n×M), or H itself for a nulling receiver. Each row is one
// linear equation a pre-coding vector must annihilate (Claims 3.3 and
// 3.4).
func (r OngoingReceiver) ConstraintRows() (*cmplxmat.Matrix, error) {
	b, _, err := r.constraintBlock()
	switch {
	case err != nil:
		return nil, err
	case b.A != nil:
		return b.A.ConjTransposeMul(b.B), nil
	case r.Rows != nil:
		return r.Rows, nil
	}
	return r.H.Clone(), nil
}

// constraintBlock validates r as ConstraintRows does and returns its
// rows unbuilt, as a block for cmplxmat.AppendNullSpace, with their
// count.
func (r OngoingReceiver) constraintBlock() (cmplxmat.Block, int, error) {
	if r.Rows != nil {
		return cmplxmat.Block{B: r.Rows}, r.Rows.Rows(), nil
	}
	if r.H == nil {
		return cmplxmat.Block{}, 0, errors.New("mimo: OngoingReceiver with nil channel")
	}
	if r.UPerp == nil {
		return cmplxmat.Block{B: r.H}, r.H.Rows(), nil
	}
	if r.UPerp.Rows() != r.H.Rows() {
		return cmplxmat.Block{}, 0, fmt.Errorf("mimo: UPerp has %d rows, channel has %d receive antennas", r.UPerp.Rows(), r.H.Rows())
	}
	return cmplxmat.Block{A: r.UPerp, B: r.H}, r.UPerp.Cols(), nil
}

// NumConstraints returns the number of equations this receiver
// imposes: its wanted-stream count n (Claim 3.4), or N for nulling
// (Claim 3.3).
func (r OngoingReceiver) NumConstraints() int {
	if r.UPerp == nil {
		return r.H.Rows()
	}
	return r.UPerp.Cols()
}

// OwnReceiver is one of the joining transmitter's intended receivers.
type OwnReceiver struct {
	// H is the channel from the transmitter to this receiver (N×M).
	H *cmplxmat.Matrix
	// UPerp is this receiver's decoding space (see OngoingReceiver);
	// nil means the receiver uses its full N-dimensional space.
	UPerp *cmplxmat.Matrix
	// Streams is how many concurrent streams the transmitter sends to
	// this receiver.
	Streams int
}

// MaxStreams implements Claim 3.2: a transmitter with m antennas can
// send up to m − k streams without interfering with k ongoing ones.
// It never returns a negative count.
func MaxStreams(m, k int) int {
	if m <= k {
		return 0
	}
	return m - k
}

// Precoder holds the pre-coding vectors computed for one transmitter
// on one narrowband channel (one OFDM subcarrier).
type Precoder struct {
	M int // transmit antennas
	// Vectors[i] is the unit-norm M-element pre-coding vector of
	// stream i (~v_i in the paper).
	Vectors []cmplxmat.Vector
	// RxIndex[i] is the index into the own-receivers slice that stream
	// i is destined to.
	RxIndex []int
}

// NumStreams returns the number of streams the precoder carries.
func (p *Precoder) NumStreams() int { return len(p.Vectors) }

// Matrix returns the M×m pre-coding matrix [v₁ … v_m].
func (p *Precoder) Matrix() *cmplxmat.Matrix {
	return cmplxmat.ColumnsToMatrix(p.Vectors)
}

// Apply mixes per-stream sample sequences onto the M transmit
// antennas: antenna a transmits Σ_i Vectors[i][a]·streams[i][t]
// (the signal Σ sᵢ·~vᵢ of §3.3).
func (p *Precoder) Apply(streams [][]complex128) ([][]complex128, error) {
	if len(streams) != len(p.Vectors) {
		return nil, fmt.Errorf("mimo: %d streams for %d pre-coding vectors", len(streams), len(p.Vectors))
	}
	if len(streams) == 0 {
		return make([][]complex128, p.M), nil
	}
	length := len(streams[0])
	for _, s := range streams {
		if len(s) != length {
			return nil, errors.New("mimo: ragged stream lengths")
		}
	}
	out := make([][]complex128, p.M)
	for a := 0; a < p.M; a++ {
		acc := make([]complex128, length)
		for i, v := range p.Vectors {
			c := v[a]
			if c == 0 {
				continue
			}
			for t := 0; t < length; t++ {
				acc[t] += c * streams[i][t]
			}
		}
		out[a] = acc
	}
	return out, nil
}

// ComputePrecoder solves Eq. 7 for a transmitter with m antennas:
// every stream must lie in the null space of all ongoing receivers'
// constraint rows, and a stream destined to one own receiver must
// additionally null/align at the transmitter's *other* receivers
// (Claim 3.5). Pre-coding vectors are returned unit-norm; stream
// power allocation is the caller's concern.
//
// The total stream count Σ own[i].Streams must not exceed
// MaxStreams(m, K) minus the constraints contributed by the other own
// receivers, or an error is returned.
func ComputePrecoder(m int, ongoing []OngoingReceiver, own []OwnReceiver) (*Precoder, error) {
	if m < 1 {
		return nil, fmt.Errorf("mimo: transmitter with %d antennas", m)
	}
	if len(own) == 0 {
		return nil, errors.New("mimo: no own receivers")
	}
	// Shared constraints: protect every ongoing receiver. The rows are
	// stacked straight into the null-space factorization, and the
	// block lists live on the stack (a transmitter protects a handful
	// of receivers), so only the returned precoder is allocated.
	var sharedBuf, blockBuf [8]cmplxmat.Block
	shared := sharedBuf[:0]
	k := 0
	for i, r := range ongoing {
		b, rows, err := r.constraintBlock()
		if err != nil {
			return nil, fmt.Errorf("mimo: ongoing receiver %d: %w", i, err)
		}
		if b.B.Cols() != m {
			return nil, fmt.Errorf("mimo: ongoing receiver %d expects %d tx antennas, have %d", i, b.B.Cols(), m)
		}
		shared = append(shared, b)
		k += rows
	}
	totalStreams := 0
	for _, o := range own {
		totalStreams += o.Streams
	}
	if totalStreams == 0 {
		return nil, errors.New("mimo: zero requested streams")
	}
	if avail := MaxStreams(m, k); totalStreams > avail {
		return nil, fmt.Errorf("mimo: %d streams requested but only %d degrees of freedom remain (M=%d, K=%d)", totalStreams, avail, m, k)
	}

	p := &Precoder{M: m, Vectors: make([]cmplxmat.Vector, 0, totalStreams), RxIndex: make([]int, 0, totalStreams)}
	var effBuf, projBuf [4]complex128
	for i, dst := range own {
		if dst.Streams == 0 {
			continue
		}
		if dst.H == nil {
			return nil, fmt.Errorf("mimo: own receiver %d has nil channel", i)
		}
		if dst.H.Cols() != m {
			return nil, fmt.Errorf("mimo: own receiver %d expects %d tx antennas, have %d", i, dst.H.Cols(), m)
		}
		// Streams for receiver i must not interfere at the transmitter's
		// other receivers (the cross-receiver constraints of Claim 3.5).
		blocks := append(blockBuf[:0], shared...)
		for j, other := range own {
			if j == i {
				continue
			}
			b, _, err := OngoingReceiver{H: other.H, UPerp: other.UPerp}.constraintBlock()
			if err != nil {
				return nil, fmt.Errorf("mimo: own receiver %d: %w", j, err)
			}
			blocks = append(blocks, b)
		}
		first := len(p.Vectors)
		if len(blocks) > 0 {
			var free int
			p.Vectors, free = cmplxmat.AppendNullSpace(p.Vectors, blocks, dst.Streams, 0)
			if free < dst.Streams {
				return nil, fmt.Errorf("mimo: own receiver %d: %d free dimensions for %d streams", i, free, dst.Streams)
			}
		} else if dst.Streams > m {
			// The constraint-free null space is the full m-dimensional
			// transmit space.
			return nil, fmt.Errorf("mimo: own receiver %d: %d free dimensions for %d streams", i, m, dst.Streams)
		}
		for s := 0; s < dst.Streams; s++ {
			eff := vecIn(&effBuf, dst.H.Rows())
			if len(blocks) == 0 {
				// With no constraints at all (a lone winner on an idle
				// medium serving one receiver — the dominant contention
				// case) the null space is the full transmit space and
				// the basis columns are the canonical unit vectors, so
				// the QR machinery is skipped entirely; the values are
				// identical.
				v := make(cmplxmat.Vector, m)
				v[s] = 1
				p.Vectors = append(p.Vectors, v)
				for r := range eff {
					eff[r] = dst.H.At(r, s) // H·e_s
				}
			} else {
				dst.H.MulVecInto(eff, p.Vectors[first+s])
			}
			// Deliverability check: the stream must be visible in the
			// receiver's decoding space (the identity block of Eq. 7).
			if dst.UPerp != nil {
				eff = dst.UPerp.ConjTransposeMulVecInto(vecIn(&projBuf, dst.UPerp.Cols()), eff)
			}
			if eff.Norm() < 1e-9 {
				return nil, fmt.Errorf("mimo: own receiver %d stream %d lands entirely in its unwanted space", i, s)
			}
			p.RxIndex = append(p.RxIndex, i)
		}
	}
	return p, nil
}

// vecIn returns buf[:n], or a heap vector when n exceeds it: the
// precoder's per-stream temporaries are at most one antenna count
// long.
func vecIn(buf *[4]complex128, n int) cmplxmat.Vector {
	if n > len(buf) {
		return make(cmplxmat.Vector, n)
	}
	return buf[:n]
}

// ResidualInterference reports the per-stream leakage power this
// precoder causes inside the decoding space of a protected receiver,
// given the *true* channel (as opposed to the estimate used to
// compute the precoder). With a perfect estimate the result is ~0;
// with estimation error it quantifies the imperfection that §6.2
// measures (0.8 dB nulling / 1.3 dB alignment residuals).
func (p *Precoder) ResidualInterference(trueRx OngoingReceiver) ([]float64, error) {
	rows, err := trueRx.ConstraintRows()
	if err != nil {
		return nil, err
	}
	if rows.Cols() != p.M {
		return nil, fmt.Errorf("mimo: receiver expects %d tx antennas, precoder has %d", rows.Cols(), p.M)
	}
	out := make([]float64, len(p.Vectors))
	for i, v := range p.Vectors {
		out[i] = cmplxmat.Vector(rows.MulVec(v)).NormSq()
	}
	return out, nil
}

// UnwantedSpace computes U — the subspace spanned by the effective
// channels of a receiver's unwanted streams — and returns an
// orthonormal basis of its orthogonal complement U⊥ (N×(N−rank U)).
// The receiver advertises this in its light-weight CTS so that
// joiners can align into U (§3.3, §3.5).
//
// unwanted holds one N-element effective channel vector per unwanted
// stream arriving at the receiver; n is the receiver's antenna count.
func UnwantedSpace(n int, unwanted []cmplxmat.Vector) (u, uPerp *cmplxmat.Matrix) {
	if len(unwanted) == 0 {
		return cmplxmat.New(n, 0), cmplxmat.Identity(n)
	}
	span := cmplxmat.ColumnsToMatrix(unwanted)
	u = cmplxmat.OrthonormalBasis(span, 0)
	uPerp = cmplxmat.OrthogonalComplement(span, 0)
	return u, uPerp
}
