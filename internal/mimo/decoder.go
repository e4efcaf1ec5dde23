package mimo

import (
	"errors"
	"fmt"
	"math/cmplx"

	"nplus/internal/cmplxmat"
)

// Decoder is the zero-forcing receiver of §3.3/§3.4: a receiver with
// N antennas first projects its received signal onto U⊥ — the
// orthogonal complement of its unwanted space — which removes all
// (perfectly aligned) interference, then inverts the effective
// channel of its n wanted streams inside that space.
type Decoder struct {
	n       int // receive antennas
	streams int // wanted streams
	// g = A⁺·U⊥ᴴ (n×N): row i is the full zero-forcing combiner of
	// stream i acting on the raw antennas. Precomputed once — PostSINR
	// is called per stream per bin per delivery, and rebuilding this
	// product there dominated the planner profile.
	g *cmplxmat.Matrix
	// gNormSq[i] caches ‖row i of g‖².
	gNormSq []float64
}

// NewDecoder builds a decoder. uPerp may be nil, meaning the receiver
// decodes in its full space (no unwanted streams — e.g. the first
// contention winner). wanted holds the effective channel column of
// each wanted stream as observed at the receiver (from the joiner's
// nulled/aligned preamble, so the pre-coding is already folded in —
// footnote 1 of the paper).
func NewDecoder(n int, uPerp *cmplxmat.Matrix, wanted []cmplxmat.Vector) (*Decoder, error) {
	if n < 1 {
		return nil, fmt.Errorf("mimo: decoder with %d antennas", n)
	}
	if len(wanted) == 0 {
		return nil, errors.New("mimo: decoder with no wanted streams")
	}
	if uPerp != nil && uPerp.Rows() != n {
		return nil, fmt.Errorf("mimo: U⊥ has %d rows for %d antennas", uPerp.Rows(), n)
	}
	for i, h := range wanted {
		if len(h) != n {
			return nil, fmt.Errorf("mimo: wanted stream %d channel has %d entries for %d antennas", i, len(h), n)
		}
	}
	dims := n
	if uPerp != nil {
		dims = uPerp.Cols()
	}
	if len(wanted) > dims {
		return nil, fmt.Errorf("mimo: %d wanted streams exceed %d decoding dimensions", len(wanted), dims)
	}
	if uPerp == nil && len(wanted) == 1 {
		// Full-space single-stream receiver (the most common decoder
		// in contention-heavy runs): g = hᴴ/‖h‖² directly, identical
		// to the matrix pipeline below without its intermediates.
		h := wanted[0]
		var gram complex128
		for _, x := range h {
			gram += cmplx.Conj(x) * x
		}
		if gram == 0 {
			return nil, fmt.Errorf("mimo: wanted streams not separable in decoding space: zero channel")
		}
		inv := 1 / gram
		g := cmplxmat.New(1, n)
		row := g.RowView(0)
		for i, x := range h {
			row[i] = inv * cmplx.Conj(x)
		}
		return &Decoder{n: n, streams: 1, g: g, gNormSq: []float64{row.NormSq()}}, nil
	}
	// g = A⁺·U⊥ᴴ with A = U⊥ᴴ·Hw; a nil uPerp (the full-space
	// receiver of a first contention winner) means U⊥ = I, so g = Hw⁺.
	g, err := cmplxmat.ProjectedPseudoInverse(uPerp, wanted)
	if err != nil {
		return nil, fmt.Errorf("mimo: wanted streams not separable in decoding space: %w", err)
	}
	gNormSq := make([]float64, g.Rows())
	for i := range gNormSq {
		gNormSq[i] = g.RowView(i).NormSq()
	}
	return &Decoder{n: n, streams: len(wanted), g: g, gNormSq: gNormSq}, nil
}

// NumStreams returns the number of wanted streams.
func (d *Decoder) NumStreams() int { return d.streams }

// Decode recovers the n wanted symbols from one received N-vector:
// x̂ = A⁺·U⊥ᴴ·y.
func (d *Decoder) Decode(y cmplxmat.Vector) (cmplxmat.Vector, error) {
	if len(y) != d.n {
		return nil, fmt.Errorf("mimo: received vector has %d entries for %d antennas", len(y), d.n)
	}
	return d.g.MulVec(y), nil
}

// DecodeBlock decodes per-antenna sample streams: samples[a][t] →
// streams[i][t].
func (d *Decoder) DecodeBlock(samples [][]complex128) ([][]complex128, error) {
	if len(samples) != d.n {
		return nil, fmt.Errorf("mimo: %d antenna streams for %d antennas", len(samples), d.n)
	}
	length := len(samples[0])
	for _, s := range samples {
		if len(s) != length {
			return nil, errors.New("mimo: ragged antenna streams")
		}
	}
	out := make([][]complex128, d.NumStreams())
	for i := range out {
		out[i] = make([]complex128, length)
	}
	y := make(cmplxmat.Vector, d.n)
	for t := 0; t < length; t++ {
		for a := 0; a < d.n; a++ {
			y[a] = samples[a][t]
		}
		x, err := d.Decode(y)
		if err != nil {
			return nil, err
		}
		for i := range out {
			out[i][t] = x[i]
		}
	}
	return out, nil
}

// PostSINR returns the post-decoding signal-to-interference-plus-
// noise ratio of wanted stream i, assuming the stream carries unit
// transmit power (any power scaling is folded into its effective
// channel), the noise floor is noisePower per antenna, and leakage
// holds the residual interference vectors that imperfect nulling or
// alignment left *outside* the unwanted space (empty for perfect
// CSI).
//
// The zero-forcing estimate of stream i is x̂ᵢ = xᵢ + gᵀ(noise +
// leakage) with g = row i of A⁺·U⊥ᴴ, so
//
//	SINRᵢ = 1 / (noisePower·‖g‖² + Σ_j |g·ℓ_j|²).
//
// This is the quantity the bitrate selection of §3.4 feeds into the
// effective-SNR table — it shrinks when the wanted stream's direction
// is nearly parallel to the interference (the angle θ of Fig. 7).
func (d *Decoder) PostSINR(i int, noisePower float64, leakage []cmplxmat.Vector) (float64, error) {
	if i < 0 || i >= d.NumStreams() {
		return 0, fmt.Errorf("mimo: stream %d out of range", i)
	}
	// g = row i of A⁺·U⊥ᴴ (an N-vector acting on the raw antennas).
	g := d.g.RowView(i)
	den := noisePower * d.gNormSq[i]
	for _, l := range leakage {
		if len(l) != d.n {
			return 0, fmt.Errorf("mimo: leakage vector has %d entries for %d antennas", len(l), d.n)
		}
		var dot complex128
		for a := 0; a < d.n; a++ {
			dot += g[a] * l[a]
		}
		den += real(dot)*real(dot) + imag(dot)*imag(dot)
	}
	if den <= 0 {
		return 0, errors.New("mimo: non-positive noise power")
	}
	return 1 / den, nil
}
