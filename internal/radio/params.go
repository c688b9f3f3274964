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
	// RefLossDB is path loss at the reference distance refDist.
	RefLossDB float64
	// ShadowSigmaDB is the standard deviation of per-directed-link
	// log-normal shadowing, producing asymmetric links like TOSSIM's
	// link-layer model.
	ShadowSigmaDB float64
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
	// GainModel selects how per-link gains are derived from the seed
	// (GainSweep reproduces the historical dense draw order; GainPerLink
	// scales to thousand-node fields).
	GainModel GainModel
}

// Fixed CC2420 constants.
const (
	// refDist is the path-loss reference distance (metres).
	refDist float64 = 1.0
	// sensitivityDBm is the minimum signal power for preamble lock.
	sensitivityDBm float64 = -95.0
	// ccaThresholdDBm is the energy threshold for "channel busy".
	ccaThresholdDBm float64 = -90.0
	// captureThresholdDB is the minimum signal-to-interference ratio for a
	// locked frame to survive a concurrent 802.15.4 transmission (capture
	// effect). The DSSS processing gain in the analytic PRR curve applies
	// to uncorrelated noise, not to co-channel frames, so collisions are
	// gated separately.
	captureThresholdDB float64 = 4.0
	// bitRate is the radio bit rate in bits per second.
	bitRate = 250000
	// phyOverheadBytes covers preamble, SFD and length fields.
	phyOverheadBytes = 6
	// maxTxPowerDBm is used for connectivity pruning.
	maxTxPowerDBm float64 = 0.0
)

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
	return math.Min(p.InterferenceFloorDBm, sensitivityDBm) - maxTxPowerDBm - p.fadeHeadroomDB()
}

// MaxCommRangeM returns the distance beyond which no directed pair can
// reach linkFloorGainDB under GainPerLink's clamped shadowing — the
// spatial index's cell size and query radius.
func (p Params) MaxCommRangeM() float64 {
	// Largest tolerable path loss: -PL(d) + ShadowClampSigma·σ ≥ floor.
	budget := ShadowClampSigma*p.ShadowSigmaDB - p.linkFloorGainDB()
	if budget <= p.RefLossDB {
		return refDist
	}
	return refDist * math.Pow(10, (budget-p.RefLossDB)/(10*p.PathLossExponent))
}

// DefaultParams returns CC2420-like parameters with path exponent 4.
func DefaultParams() Params {
	return Params{
		PathLossExponent:     4.0,
		RefLossDB:            55.0,
		ShadowSigmaDB:        2.5,
		TxJitterSigmaDB:      1.5,
		FadingSigmaDB:        0,
		FadingMinPeriod:      20 * time.Second,
		FadingMaxPeriod:      120 * time.Second,
		InterferenceFloorDBm: -110.0,
	}
}

// Airtime returns the on-air duration of a frame with the given MAC-layer
// size in bytes.
func (p Params) Airtime(sizeBytes int) time.Duration {
	bits := (sizeBytes + phyOverheadBytes) * 8
	return time.Duration(float64(bits) / float64(bitRate) * float64(time.Second))
}

// PathLossDB returns deterministic path loss at distance d metres.
func (p Params) PathLossDB(d float64) float64 {
	if d < refDist {
		d = refDist
	}
	return p.RefLossDB + 10*p.PathLossExponent*math.Log10(d/refDist)
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

// ccaThresholdMW and captureRatio are ccaThresholdDBm and
// captureThresholdDB in linear units. CCA compares the power at the
// antenna with the first, the capture gate a signal-to-interference
// ratio with the second, so neither takes a logarithm.
var (
	ccaThresholdMW = dbmToMW(ccaThresholdDBm)
	captureRatio   = dbmToMW(captureThresholdDB)
)

// prrSaturatedSNR is the linear SNR (6.02 dB) at and above which the PRR
// curve is exactly 1 for any frame length: the largest bit-error term is
// then C(16,2)·e⁻⁴⁰/30 ≈ 1.7e-17, below 2⁻⁵⁴, so 1−Pb rounds to 1.0 and
// so does its power. prrFromSNR returns 1 there without evaluating the
// sum — the same value, bit for bit (the curve already rounds to exactly
// 1 above SNR ≈ 3.8816).
const prrSaturatedSNR = 4.0

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
	return math.Pow(1-bitErrorRate(snrLinear), float64(8*frameBytes))
}

// bitErrorRate is the curve's Pb at a positive linear SNR, clamped to
// [0, 1]. It falls from 1/2 at SNR 0 as the SNR rises.
func bitErrorRate(snrLinear float64) float64 {
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
	return pb
}

// prrLogSteps is the number of grid steps of prrLogTable below
// prrSaturatedSNR; prrLogStep is their width, a power of two, so the
// index of an SNR is one exact multiply.
const (
	prrLogSteps = 4096
	prrLogStep  = prrSaturatedSNR / prrLogSteps
)

// prrLogTable[j] is ln(1 − Pb) at SNR j·prrLogStep, for j = 0 through
// prrLogSteps: the log of the per-bit reception ratio on a grid over
// the unsaturated curve. It does not depend on the frame length. Built at
// package init (about 4k curve evaluations).
var prrLogTable = buildPRRLogTable()

func buildPRRLogTable() (t [prrLogSteps + 1]float64) {
	for j := range t {
		t[j] = math.Log1p(-bitErrorRate(float64(j) * prrLogStep))
	}
	return t
}

// prrBracketSlack is the log-domain margin of bracket, and
// prrBracketMaxBytes the longest frame the margin is proven for.
const (
	prrBracketSlack    = 1e-6
	prrBracketMaxBytes = 1024
)

// bracket decides u < prrFromSNR(snr, frameBytes), bit for bit, for every
// SNR in the table cell [j·h, (j+1)·h) (h = prrLogStep, 0 ≤ j <
// prrLogSteps) without evaluating the curve; rxDecide hands it the cell
// of the SINR it holds and evaluates the curve only for the draws it
// leaves open. The reception ratio meets
// only the uniform draw u, so the decision brackets ln PRR = n·ln(1 − Pb),
// n = 8·frameBytes, between the cell's two entries of prrLogTable and
// compares ln u against the bracket:
//
//   - The true Pb falls as the SNR rises, so for SNR in the cell the true
//     ln PRR lies in [n·T[j], n·T[j+1]].
//   - The sum behind Pb rounds to within about 3e-12 absolute, and
//     1 − Pb ≥ 1/2, so ln(1 − Pb) is off by at most 6e-12 and n·ln(1 − Pb)
//     by at most 8·1024·6e-12 ≈ 5e-8 for every frame up to
//     prrBracketMaxBytes (1.3e-8 at 260 bytes, twice the 802.15.4 frame
//     limit plus overhead). math.Pow, math.Log and the products round far
//     below that. The table and the live curve each carry this error δ, and
//     2δ < prrBracketSlack.
//
// So ln u below n·T[j] − slack means u < PRR as computed (received), and
// ln u at or above n·T[j+1] + slack means u ≥ PRR (lost). Between the two
// settled is false, as it is for u below 2⁻¹⁰⁰⁰ (0 included: a PRR near
// it is subnormal and no longer relatively exact) and for a frame length
// outside [0, prrBracketMaxBytes]. Draws from rand.Float64 are 0 or at
// least 2⁻⁵³, so only draws at the margin stay open.
func bracket(u float64, j, frameBytes int) (ok, settled bool) {
	if !(u >= 0x1p-1000 && 0 <= frameBytes && frameBytes <= prrBracketMaxBytes) {
		return false, false
	}
	n := float64(8 * frameBytes)
	lnU := math.Log(u)
	if lnU < n*prrLogTable[j]-prrBracketSlack {
		return true, true
	}
	if lnU >= n*prrLogTable[j+1]+prrBracketSlack {
		return false, true
	}
	return false, false
}

// rxDecide adjudicates a locked reception against the uniform draw u: a
// frame of frameBytes (MAC size) received at signalMW against the worst
// interference seen while it was on the air plus the noise at its end is
// received when u falls below its reception ratio. The powers are the
// fastMW values the radio holds. The capture gate against co-channel
// 802.15.4 frames is checked first, the signal-to-interference ratio
// against captureRatio: a frame it rejects has PRR 0 whatever the curve
// says, so no draw in [0, 1) receives it. The rest is u < prrFromSNR of
// the SINR, settled by the bracket of its table cell where that settles
// and by the curve otherwise.
func (p Params) rxDecide(u, signalMW, maxInterfMW, noiseMW float64, frameBytes int) bool {
	if maxInterfMW > 0 && signalMW/maxInterfMW < captureRatio {
		return false
	}
	snr := signalMW / (noiseMW + maxInterfMW)
	frameBytes += phyOverheadBytes
	if snr > 0 && snr < prrSaturatedSNR {
		if ok, settled := bracket(u, int(snr*(1/prrLogStep)), frameBytes); settled {
			return ok
		}
	}
	return u < prrFromSNR(snr, frameBytes)
}

// binom16 holds C(16, k).
var binom16 = [17]float64{
	1, 16, 120, 560, 1820, 4368, 8008, 11440, 12870,
	11440, 8008, 4368, 1820, 560, 120, 16, 1,
}
