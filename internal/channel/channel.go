// Package channel models the wireless medium the paper's testbed
// provides: frequency-selective Rayleigh MIMO channels, log-distance
// path loss with shadowing, additive white Gaussian noise, channel
// reciprocity with hardware calibration error, and preamble-SNR-
// dependent channel estimation error.
//
// The paper's evaluation runs on USRP2 radios; we have no radios, so
// this package substitutes these standard statistical models for the
// measured medium. All powers in this package are linear and
// referenced to a unit noise floor (noise power = 1.0 ⇒ a signal with
// power 10^(x/10) has an SNR of x dB), which keeps SNR arithmetic
// trivial everywhere above.
package channel

import (
	"fmt"
	"math"
	"math/rand"

	"nplus/internal/cmplxmat"
)

// Profile describes a tapped-delay-line power-delay profile.
type Profile struct {
	NumTaps int     // number of multipath taps
	Decay   float64 // per-tap exponential power decay factor in (0,1]
}

// DefaultProfile is a mild indoor profile: 4 taps with 6 dB/tap decay,
// well inside the 16-sample cyclic prefix.
var DefaultProfile = Profile{NumTaps: 4, Decay: 0.25}

// FlatProfile is a single-tap (frequency-flat) channel, useful in
// unit tests.
var FlatProfile = Profile{NumTaps: 1, Decay: 1}

// tapPowers returns normalized per-tap powers summing to 1.
func (p Profile) tapPowers() []float64 {
	if p.NumTaps < 1 {
		panic(fmt.Sprintf("channel: profile with %d taps", p.NumTaps))
	}
	pw := make([]float64, p.NumTaps)
	total := 0.0
	cur := 1.0
	for i := range pw {
		pw[i] = cur
		total += cur
		cur *= p.Decay
	}
	for i := range pw {
		pw[i] /= total
	}
	return pw
}

// MIMO is a frequency-selective MIMO channel from an M-antenna
// transmitter to an N-antenna receiver: an N×M matrix of tap vectors.
type MIMO struct {
	N, M int
	// taps[n][m] is the impulse response from tx antenna m to rx
	// antenna n.
	taps [][][]complex128
}

// NewRayleigh draws an N×M Rayleigh channel with the given profile
// and average power gain (linear). Each tap is i.i.d. circular
// complex Gaussian; the expected total power per antenna pair is
// gain.
func NewRayleigh(rng *rand.Rand, n, m int, profile Profile, gain float64) *MIMO {
	if n < 1 || m < 1 {
		panic(fmt.Sprintf("channel: invalid dimensions %d×%d", n, m))
	}
	powers := profile.tapPowers()
	// Per-tap standard deviations, hoisted out of the antenna loops.
	sigmas := make([]float64, len(powers))
	for t, pw := range powers {
		sigmas[t] = math.Sqrt(gain * pw / 2)
	}
	ch := newMIMOShell(n, m, len(powers))
	for i := 0; i < n; i++ {
		for j := 0; j < m; j++ {
			tv := ch.taps[i][j]
			for t, sigma := range sigmas {
				tv[t] = complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			}
		}
	}
	return ch
}

// newMIMOShell builds an N×M channel whose tap vectors (all length
// numTaps) slice one flat backing array: large deployments draw tens
// of thousands of channels, and per-antenna-pair slice allocations
// dominated their construction time.
func newMIMOShell(n, m, numTaps int) *MIMO {
	ch := &MIMO{N: n, M: m, taps: make([][][]complex128, n)}
	backing := make([]complex128, n*m*numTaps)
	rows := make([][]complex128, n*m)
	for i := 0; i < n; i++ {
		ch.taps[i] = rows[i*m : (i+1)*m]
		for j := 0; j < m; j++ {
			ch.taps[i][j] = backing[:numTaps:numTaps]
			backing = backing[numTaps:]
		}
	}
	return ch
}

// FromTaps builds a channel from explicit impulse responses
// (taps[n][m] from tx antenna m to rx antenna n). Used by tests.
func FromTaps(taps [][][]complex128) *MIMO {
	n := len(taps)
	if n == 0 {
		panic("channel: empty taps")
	}
	m := len(taps[0])
	for _, row := range taps {
		if len(row) != m {
			panic("channel: ragged taps")
		}
	}
	return &MIMO{N: n, M: m, taps: taps}
}

// FreqResponse returns the N×M channel matrix on FFT bin `bin` of an
// fftSize-point OFDM system: H[n][m] = Σ_t taps·e^{-2πi·bin·t/fft}.
func (c *MIMO) FreqResponse(bin, fftSize int) *cmplxmat.Matrix {
	h := cmplxmat.New(c.N, c.M)
	c.FreqResponseInto(h, bin, fftSize)
	return h
}

// FreqResponseInto computes FreqResponse into a caller-provided N×M
// matrix, letting deployments batch-allocate their per-bin channel
// caches.
func (c *MIMO) FreqResponseInto(h *cmplxmat.Matrix, bin, fftSize int) {
	// Twiddle factors e^{-2πi·bin·t/fft} depend only on the tap
	// index: compute them once instead of per antenna pair.
	twiddle := make([]complex128, c.MaxDelay()+1)
	for t := range twiddle {
		angle := -2 * math.Pi * float64(bin) * float64(t) / float64(fftSize)
		twiddle[t] = complex(math.Cos(angle), math.Sin(angle))
	}
	for n := 0; n < c.N; n++ {
		for m := 0; m < c.M; m++ {
			var acc complex128
			for t, g := range c.taps[n][m] {
				acc += g * twiddle[t]
			}
			h.SetAt(n, m, acc)
		}
	}
}

// FreqResponseAll returns the channel matrix on every FFT bin.
func (c *MIMO) FreqResponseAll(fftSize int) []*cmplxmat.Matrix {
	out := make([]*cmplxmat.Matrix, fftSize)
	for bin := range out {
		out[bin] = c.FreqResponse(bin, fftSize)
	}
	return out
}

// MaxDelay returns the channel's maximum tap index (samples).
func (c *MIMO) MaxDelay() int {
	max := 0
	for _, row := range c.taps {
		for _, tv := range row {
			if len(tv)-1 > max {
				max = len(tv) - 1
			}
		}
	}
	return max
}

// Apply convolves per-antenna transmit streams through the channel
// and returns what each receive antenna observes (noiseless).
// tx[m] is the sample stream of transmit antenna m; all streams must
// have equal length. The output streams have the same length (the
// channel tail is truncated, matching a receiver that stays
// symbol-aligned).
func (c *MIMO) Apply(tx [][]complex128) ([][]complex128, error) {
	if len(tx) != c.M {
		return nil, fmt.Errorf("channel: %d tx streams for %d antennas", len(tx), c.M)
	}
	length := len(tx[0])
	for _, s := range tx {
		if len(s) != length {
			return nil, fmt.Errorf("channel: ragged tx streams")
		}
	}
	out := make([][]complex128, c.N)
	for n := 0; n < c.N; n++ {
		acc := make([]complex128, length)
		for m := 0; m < c.M; m++ {
			for t, g := range c.taps[n][m] {
				if g == 0 {
					continue
				}
				for i := t; i < length; i++ {
					acc[i] += g * tx[m][i-t]
				}
			}
		}
		out[n] = acc
	}
	return out, nil
}

// Reverse returns the reciprocal channel (M×N) seen in the opposite
// direction, per electromagnetic reciprocity (§2 of the paper). calib
// models the residual per-antenna-pair hardware mismatch that remains
// *after* the offline calibration the paper performs (method of [4]);
// pass nil for ideal reciprocity.
func (c *MIMO) Reverse(calib *Calibration) *MIMO {
	// Uniform tap counts (every generated channel) share one backing
	// array, exactly like NewRayleigh.
	uniform := true
	numTaps := len(c.taps[0][0])
	for _, row := range c.taps {
		for _, tv := range row {
			if len(tv) != numTaps {
				uniform = false
			}
		}
	}
	var rev *MIMO
	if uniform {
		rev = newMIMOShell(c.M, c.N, numTaps)
	} else {
		rev = &MIMO{N: c.M, M: c.N, taps: make([][][]complex128, c.M)}
		for m := 0; m < c.M; m++ {
			rev.taps[m] = make([][]complex128, c.N)
		}
	}
	for m := 0; m < c.M; m++ {
		for n := 0; n < c.N; n++ {
			src := c.taps[n][m]
			var tv []complex128
			if uniform {
				tv = rev.taps[m][n]
			} else {
				tv = make([]complex128, len(src))
				rev.taps[m][n] = tv
			}
			copy(tv, src)
			if calib != nil {
				e := calib.factor(m, n)
				for t := range tv {
					tv[t] *= e
				}
			}
		}
	}
	return rev
}

// Calibration holds residual multiplicative reciprocity errors per
// antenna pair. The paper calibrates hardware offline and cites
// [4, 13, 14] for reciprocity holding in practice; what remains is a
// small random gain/phase mismatch which — together with estimation
// noise — bounds the achievable nulling depth at ~25–27 dB (§6.2).
type Calibration struct {
	errs map[[2]int]complex128
}

// NewCalibration draws residual calibration errors with the given rms
// magnitude (e.g. 0.03 for a −30 dB floor per antenna pair).
func NewCalibration(rng *rand.Rand, maxAntennas int, rms float64) *Calibration {
	c := &Calibration{errs: make(map[[2]int]complex128)}
	for i := 0; i < maxAntennas; i++ {
		for j := 0; j < maxAntennas; j++ {
			sigma := rms / math.Sqrt2
			e := complex(1+rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
			c.errs[[2]int{i, j}] = e
		}
	}
	return c
}

func (c *Calibration) factor(i, j int) complex128 {
	if e, ok := c.errs[[2]int{i, j}]; ok {
		return e
	}
	return 1
}

// AddNoise adds circular complex Gaussian noise of the given power
// (linear; 1.0 = the reference noise floor) to samples, in place.
func AddNoise(rng *rand.Rand, samples []complex128, power float64) {
	if power <= 0 {
		return
	}
	sigma := math.Sqrt(power / 2)
	for i := range samples {
		samples[i] += complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma)
	}
}

// PerturbEstimate returns a noisy copy of a true channel matrix,
// modeling least-squares channel estimation from a preamble received
// at the given SNR with the given processing gain (number of training
// samples effectively averaged), plus an optional multiplicative
// error floor (e.g. transmitter EVM / residual calibration).
//
// The error on each entry is CN(0, σ²) with
// σ² = |h|²/(preambleSNR·gain) + |h|²·floor².
func PerturbEstimate(rng *rand.Rand, h *cmplxmat.Matrix, preambleSNR, gain, floor float64) *cmplxmat.Matrix {
	out := h.Clone()
	PerturbEstimateInto(rng, h, out, preambleSNR, gain, floor)
	return out
}

// PerturbEstimateInto writes the perturbed estimate of h into out
// (same shape), for callers that batch-allocate their estimates. out
// may alias a fresh zero matrix; it is fully overwritten.
func PerturbEstimateInto(rng *rand.Rand, h, out *cmplxmat.Matrix, preambleSNR, gain, floor float64) {
	for i := 0; i < h.Rows(); i++ {
		for j := 0; j < h.Cols(); j++ {
			v := h.At(i, j)
			p := real(v)*real(v) + imag(v)*imag(v)
			var varErr float64
			if preambleSNR > 0 && gain > 0 {
				varErr += p / (preambleSNR * gain)
			}
			varErr += p * floor * floor
			sigma := math.Sqrt(varErr / 2)
			out.SetAt(i, j, v+complex(rng.NormFloat64()*sigma, rng.NormFloat64()*sigma))
		}
	}
}

// PathLoss computes the linear power gain of a link of length d
// meters under the log-distance model with exponent exp, reference
// gain g0 (linear) at d0 = 1 m, and log-normal shadowing with the
// given dB standard deviation.
func PathLoss(rng *rand.Rand, d, exp, g0, shadowDB float64) float64 {
	if d < 1 {
		d = 1
	}
	plDB := 10*math.Log10(g0) - 10*exp*math.Log10(d)
	if shadowDB > 0 {
		plDB += rng.NormFloat64() * shadowDB
	}
	return math.Pow(10, plDB/10)
}

// DB converts a linear power ratio to decibels.
func DB(x float64) float64 {
	if x <= 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(x)
}

// FromDB converts decibels to a linear power ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/10) }
