// Package mac implements the 802.11n+ medium access protocol of §3:
// random-access contention for both time and degrees of freedom,
// join admission with the L-threshold power control of §4, ESNR
// bitrate selection (§3.4), end-time alignment through fragmentation
// and aggregation (§3.1), concurrent ACKs, and retransmissions. It
// also implements the two baselines the paper compares against:
// today's 802.11n (single winner per transmission) and the multi-user
// beamforming design of [7].
//
// Two execution paths share all protocol logic:
//
//   - Protocol (protocol.go) is a full event-driven CSMA/CA state
//     machine over the sim engine — DIFS, slotted backoff, frozen
//     counters, secondary contention per degree of freedom. It
//     produces the Fig. 5 medium-access traces.
//   - Epoch (epoch.go) is the paper's own evaluation methodology
//     (§6.3: "the choice of which nodes win the contention is done by
//     randomly picking winners"): per-epoch random contention order,
//     exact airtime bookkeeping. The throughput figures (12, 13) use
//     this path.
//
// PHY fidelity comes through the link abstraction validated in
// package phy: channel matrices → precoders → post-projection SINRs →
// ESNR → rate and delivery probability.
package mac

import (
	"fmt"
	"math/rand"
	"strings"

	"nplus/internal/cmplxmat"
	"nplus/internal/stats"
)

// NodeID identifies a node within one scenario.
type NodeID int

// ChannelProvider supplies the RF world to the MAC: true channels for
// signal propagation and reciprocity-derived estimates for precoding.
// Implementations live in package testbed.
type ChannelProvider interface {
	// Channel returns the true per-data-subcarrier channel matrices
	// from node `from`'s antennas to node `to`'s antennas
	// (rxAntennas×txAntennas each).
	Channel(from, to NodeID) []*cmplxmat.Matrix
	// Estimate returns the channel estimate available to `from` for
	// precoding toward `to` — acquired via reciprocity from the
	// handshake, so it carries estimation noise and residual
	// calibration error. The provider may build the estimate in buf
	// (nil means fresh storage); the caller keeps it only until it
	// reuses buf.
	Estimate(from, to NodeID, rng *rand.Rand, buf *cmplxmat.Batch) []*cmplxmat.Matrix
	// NoisePower returns the per-subcarrier noise floor (linear; the
	// convention throughout is a unit reference floor).
	NoisePower() float64
}

// Flow is one backlogged transmitter→receiver pair contending for the
// medium. For the multi-receiver case (Fig. 4) a transmitter appears
// in several flows sharing the same Tx.
type Flow struct {
	ID         int
	Tx, Rx     NodeID
	TxAntennas int
	RxAntennas int
	// TxPower is the transmitter's total power (linear, relative to
	// the unit noise floor) before any join-threshold reduction.
	TxPower float64
}

// Validate checks a flow definition.
func (f Flow) Validate() error {
	if f.TxAntennas < 1 || f.RxAntennas < 1 {
		return fmt.Errorf("mac: flow %d has %d×%d antennas", f.ID, f.TxAntennas, f.RxAntennas)
	}
	if f.TxPower <= 0 {
		return fmt.Errorf("mac: flow %d has non-positive power", f.ID)
	}
	return nil
}

// FlowStats accumulates per-flow results.
type FlowStats struct {
	DeliveredBytes int64
	SentPackets    int64
	LostPackets    int64
	Wins           int64 // primary contention wins
	Joins          int64 // secondary contention wins
	StreamSum      int64 // Σ streams across transmissions (for averages)

	// Open-loop traffic accounting, populated only by traffic-driven
	// protocol runs (zero in backlogged and epoch runs).
	Arrivals int64 // packets offered by the arrival process
	Drops    int64 // packets rejected at a full station queue
	Served   int64 // packets delivered and dequeued
	// Delay accumulates each served packet's queueing+service delay in
	// seconds: arrival at the station queue → end of the data
	// transmission that delivered it. It is a streaming sketch
	// (stats.Accumulator), so memory stays bounded no matter how many
	// packets a run serves, and per-component accumulators merge
	// exactly when a sharded run is reassembled. Packets still queued
	// (or mid-retransmission) at run cutoff contribute NO sample, so
	// the distribution is right-censored: near saturation the longest
	// would-be delays are exactly the missing ones and percentile
	// summaries read low. Residual() counts the censored packets.
	Delay stats.Accumulator
}

// Residual returns the packets the queue accepted but the run never
// served — still backlogged, or awaiting retransmission, when the
// clock ran out. These packets are missing from Delay (censoring),
// so a residual that is large relative to Served means the delay
// percentiles understate the truth.
func (s *FlowStats) Residual() int64 {
	return s.Arrivals - s.Drops - s.Served
}

// ThroughputMbps converts delivered bytes over elapsed seconds.
func (s *FlowStats) ThroughputMbps(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(s.DeliveredBytes) * 8 / elapsed / 1e6
}

// LossRate returns the fraction of sent packets that were lost.
func (s *FlowStats) LossRate() float64 {
	total := s.SentPackets
	if total == 0 {
		return 0
	}
	return float64(s.LostPackets) / float64(total)
}

// DropRate returns the fraction of offered packets rejected at a full
// queue (open-loop runs only).
func (s *FlowStats) DropRate() float64 {
	if s.Arrivals == 0 {
		return 0
	}
	return float64(s.Drops) / float64(s.Arrivals)
}

// Mode selects the MAC variant.
type Mode int

// Variants evaluated in §6.
const (
	// ModeNPlus is the paper's protocol: contend for time and DoF.
	ModeNPlus Mode = iota
	// Mode80211n is today's 802.11n: one winner at a time, M streams.
	Mode80211n
	// ModeBeamforming is the multi-user beamforming baseline of [7]:
	// a single winner may serve several of ITS OWN receivers at once,
	// but nobody joins another node's transmission.
	ModeBeamforming
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeNPlus:
		return "802.11n+"
	case Mode80211n:
		return "802.11n"
	case ModeBeamforming:
		return "beamforming"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// CLIName is the flag-friendly spelling ParseMode understands.
func (m Mode) CLIName() string {
	switch m {
	case ModeNPlus:
		return "nplus"
	case Mode80211n:
		return "80211n"
	case ModeBeamforming:
		return "beamforming"
	default:
		return fmt.Sprintf("mode%d", int(m))
	}
}

// Modes lists every MAC variant the simulator implements, in
// definition order — drivers enumerate this instead of hard-coding
// the set.
func Modes() []Mode { return []Mode{ModeNPlus, Mode80211n, ModeBeamforming} }

// ModeNames returns the command-line names understood by ParseMode.
func ModeNames() []string {
	names := make([]string, 0, len(Modes()))
	for _, m := range Modes() {
		names = append(names, m.CLIName())
	}
	return names
}

// ParseMode resolves a command-line mode name.
func ParseMode(name string) (Mode, error) {
	for _, m := range Modes() {
		if name == m.CLIName() {
			return m, nil
		}
	}
	return 0, fmt.Errorf("mac: unknown mode %q (have %s)", name, strings.Join(ModeNames(), ", "))
}
