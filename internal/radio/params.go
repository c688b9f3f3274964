// Package radio implements the wireless physical layer of the simulator:
// log-distance path loss with shadowing, SINR computation with concurrent
// transmissions as interference, the CC2420/802.15.4 analytic SNR→PRR
// curve, CPM noise per node, clear-channel assessment, and radio on-time
// accounting used for duty-cycle measurements.
package radio

import (
	"math"
	"time"
)

// NodeID identifies a node on the medium.
type NodeID uint16

// BroadcastID is the link-layer broadcast destination.
const BroadcastID NodeID = 0xFFFF

// Params are physical-layer parameters. Defaults model a CC2420 radio in a
// harsh propagation environment (path exponent 4), matching the paper's
// TOSSIM setup.
type Params struct {
	// PathLossExponent is the log-distance path loss exponent.
	PathLossExponent float64
	// RefLossDB is path loss at the reference distance RefDist (metres).
	RefLossDB float64
	RefDist   float64
	// ShadowSigmaDB is the standard deviation of per-directed-link
	// log-normal shadowing, producing asymmetric links like TOSSIM's
	// link-layer model.
	ShadowSigmaDB float64
	// SensitivityDBm is the minimum signal power for preamble lock.
	SensitivityDBm float64
	// CCAThresholdDBm is the energy threshold for "channel busy".
	CCAThresholdDBm float64
	// CaptureThresholdDB is the minimum signal-to-interference ratio for a
	// locked frame to survive a concurrent 802.15.4 transmission (capture
	// effect). The DSSS processing gain in the analytic PRR curve applies
	// to uncorrelated noise, not to co-channel frames, so collisions are
	// gated separately.
	CaptureThresholdDB float64
	// BitRate is the radio bit rate in bits per second.
	BitRate int
	// PhyOverheadBytes covers preamble, SFD and length fields.
	PhyOverheadBytes int
	// TxJitterSigmaDB adds independent per-transmission, per-receiver
	// gain jitter (fast fading): each copy of an LPL stream gets a fresh
	// draw, so marginal links deliver a fraction of copies rather than
	// none — the per-packet PRR variance real links exhibit.
	TxJitterSigmaDB float64
	// FadingSigmaDB enables slow time-varying per-directed-link fading
	// with this RMS amplitude (0 disables). Links then swing through the
	// PRR gray zone over tens of seconds, reproducing the bursty links
	// (β-factor) of real deployments.
	FadingSigmaDB float64
	// FadingMinPeriod/FadingMaxPeriod bound the per-link fading periods.
	FadingMinPeriod, FadingMaxPeriod time.Duration
	// InterferenceFloorDBm: links whose best-case received power is below
	// this are ignored entirely (connectivity pruning).
	InterferenceFloorDBm float64
	// MaxTxPowerDBm is used for connectivity pruning.
	MaxTxPowerDBm float64
	// GainModel selects how per-link gains are derived from the seed
	// (GainSweep reproduces the historical dense draw order; GainPerLink
	// scales to thousand-node fields).
	GainModel GainModel
}

// GainModel selects how per-directed-link channel gains are derived from
// the simulation seed.
type GainModel uint8

const (
	// GainSweep (the zero value) draws shadowing and fading from
	// sequential all-pairs RNG sweeps, byte-identically reproducing the
	// draw order of the historical dense-matrix medium — existing
	// scenario traces do not move. Construction costs O(n²) time (every
	// pair's draw must be consumed to keep the stream aligned) but only
	// O(links) memory.
	GainSweep GainModel = iota
	// GainPerLink derives an independent RNG stream per directed link,
	// so only the candidate pairs a spatial index finds within
	// Params.MaxCommRangeM ever draw: construction is O(n·neighbors) in
	// time and memory. Shadow draws are clamped to ±ShadowClampSigma
	// standard deviations, which bounds the maximum communication range
	// and makes the index cutoff provably lossless. The large-field
	// scenarios (grid1k and up) use this model.
	GainPerLink
)

// ShadowClampSigma bounds per-link shadowing draws (in standard
// deviations) under GainPerLink. Four sigma truncates ~0.006% of the
// lognormal tail while keeping the spatial index's candidate discs small
// enough that candidate counts stay within a constant factor of the true
// audible neighborhood.
const ShadowClampSigma = 4.0

// fadeHeadroomDB is the connectivity-pruning headroom reserved for slow
// fading peaks: a link whose static gain sits this far below the
// interference floor can still swing into audibility.
func (p Params) fadeHeadroomDB() float64 { return 1.6 * p.FadingSigmaDB }

// linkFloorGainDB returns the minimum static gain worth tracking: below
// it a pair can neither be heard above the interference floor nor decoded
// at the sensitivity threshold, even at maximum TX power with fade
// headroom, so the medium stores no state for it.
func (p Params) linkFloorGainDB() float64 {
	return math.Min(p.InterferenceFloorDBm, p.SensitivityDBm) - p.MaxTxPowerDBm - p.fadeHeadroomDB()
}

// MaxCommRangeM returns the distance beyond which no directed pair can
// reach linkFloorGainDB under GainPerLink's clamped shadowing — the
// spatial index's cell size and query radius.
func (p Params) MaxCommRangeM() float64 {
	// Largest tolerable path loss: -PL(d) + ShadowClampSigma·σ ≥ floor.
	budget := ShadowClampSigma*p.ShadowSigmaDB - p.linkFloorGainDB()
	if budget <= p.RefLossDB {
		return p.RefDist
	}
	return p.RefDist * math.Pow(10, (budget-p.RefLossDB)/(10*p.PathLossExponent))
}

// DefaultParams returns CC2420-like parameters with path exponent 4.
func DefaultParams() Params {
	return Params{
		PathLossExponent:     4.0,
		RefLossDB:            55.0,
		RefDist:              1.0,
		ShadowSigmaDB:        2.5,
		SensitivityDBm:       -95.0,
		CCAThresholdDBm:      -90.0,
		CaptureThresholdDB:   4.0,
		BitRate:              250000,
		PhyOverheadBytes:     6,
		TxJitterSigmaDB:      1.5,
		FadingSigmaDB:        0,
		FadingMinPeriod:      20 * time.Second,
		FadingMaxPeriod:      120 * time.Second,
		InterferenceFloorDBm: -110.0,
		MaxTxPowerDBm:        0.0,
	}
}

// Airtime returns the on-air duration of a frame with the given MAC-layer
// size in bytes.
func (p Params) Airtime(sizeBytes int) time.Duration {
	bits := (sizeBytes + p.PhyOverheadBytes) * 8
	return time.Duration(float64(bits) / float64(p.BitRate) * float64(time.Second))
}

// PathLossDB returns deterministic path loss at distance d metres.
func (p Params) PathLossDB(d float64) float64 {
	if d < p.RefDist {
		d = p.RefDist
	}
	return p.RefLossDB + 10*p.PathLossExponent*math.Log10(d/p.RefDist)
}

// PowerLevelDBm maps CC2420 register power levels to approximate output
// power in dBm (interpolated from the datasheet table; the paper's indoor
// testbed uses level 2).
func PowerLevelDBm(level int) float64 {
	// Datasheet anchor points: 31→0, 27→-1, 23→-3, 19→-5, 15→-7,
	// 11→-10, 7→-15, 3→-25 dBm.
	anchors := []struct {
		level int
		dbm   float64
	}{
		{3, -25}, {7, -15}, {11, -10}, {15, -7}, {19, -5}, {23, -3}, {27, -1}, {31, 0},
	}
	if level <= anchors[0].level {
		// Extrapolate below level 3 at the local slope (-2.5 dB/level).
		return anchors[0].dbm - 2.5*float64(anchors[0].level-level)
	}
	if level >= anchors[len(anchors)-1].level {
		return anchors[len(anchors)-1].dbm
	}
	for i := 1; i < len(anchors); i++ {
		if level <= anchors[i].level {
			lo, hi := anchors[i-1], anchors[i]
			f := float64(level-lo.level) / float64(hi.level-lo.level)
			return lo.dbm + f*(hi.dbm-lo.dbm)
		}
	}
	return 0
}

// dbmToMW converts dBm to milliwatts.
func dbmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// mwToDBm converts milliwatts to dBm.
func mwToDBm(mw float64) float64 {
	if mw <= 0 {
		return -200
	}
	return 10 * math.Log10(mw)
}

// prrSaturatedSNR is the linear SNR (7.8 dB) at and above which the PRR
// curve is exactly 1 for any frame length: every bit-error term is then
// at most C(16,8)·e⁻⁶⁰ ≈ 1e-22, far below half an ulp of 1, so 1−Pb
// rounds to 1.0 and so does its power. prrFromSNR returns 1 there without
// evaluating the sum — the same value, bit for bit (the curve already
// rounds to exactly 1 above SNR ≈ 3.88).
const prrSaturatedSNR = 6.0

// prrFromSNR returns the packet reception ratio for the given linear SNR
// and frame length in bytes, using the analytic CC2420 (802.15.4 DSSS
// O-QPSK) bit-error model used by TOSSIM-class simulators:
//
//	Pb = (8/15)·(1/16)·Σ_{k=2}^{16} (−1)^k · C(16,k) · exp(20·SNR·(1/k − 1))
//	PRR = (1 − Pb)^(8·f)
func prrFromSNR(snrLinear float64, frameBytes int) float64 {
	if snrLinear >= prrSaturatedSNR {
		return 1
	}
	return prrCurve(snrLinear, frameBytes)
}

// prrCurve evaluates the analytic curve of prrFromSNR in full.
func prrCurve(snrLinear float64, frameBytes int) float64 {
	if snrLinear <= 0 {
		return 0
	}
	var pb float64
	sign := 1.0 // (−1)^k for k=2 is +1
	for k := 2; k <= 16; k++ {
		pb += sign * binom16[k] * math.Exp(20*snrLinear*(1/float64(k)-1))
		sign = -sign
	}
	pb *= 8.0 / 15.0 / 16.0
	if pb < 0 {
		pb = 0
	}
	if pb > 1 {
		pb = 1
	}
	prr := math.Pow(1-pb, float64(8*frameBytes))
	return prr
}

// rxPRR adjudicates a locked reception: the reception ratio of a frame of
// frameBytes (MAC size) received at signalMW against the worst
// interference seen while it was on the air plus the noise at its end,
// and the SINR it was judged at. The capture gate against co-channel
// 802.15.4 frames is checked first: a frame it rejects has PRR 0 whatever
// the curve says, so the curve is never evaluated for it.
func (p Params) rxPRR(signalMW, maxInterfMW, noiseMW float64, frameBytes int) (prr, snr float64) {
	snr = signalMW / (noiseMW + maxInterfMW)
	if maxInterfMW > 0 && mwToDBm(signalMW/maxInterfMW) < p.CaptureThresholdDB {
		return 0, snr
	}
	return prrFromSNR(snr, frameBytes+p.PhyOverheadBytes), snr
}

// binom16 holds C(16, k).
var binom16 = [17]float64{
	1, 16, 120, 560, 1820, 4368, 8008, 11440, 12870,
	11440, 8008, 4368, 1820, 560, 120, 16, 1,
}
