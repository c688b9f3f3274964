package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"teleadjust/internal/noise"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// Medium is the shared wireless channel. It owns per-directed-link gains,
// per-node noise sources, and the set of in-flight transmissions, and it
// adjudicates packet reception with SINR and the CC2420 PRR curve.
//
// Channel state is sparse: gains, fading processes, and injected offsets
// exist only for the directed pairs whose static gain clears the tracking
// floor (Params.linkFloorGainDB — pairs below it can neither be heard
// above the interference floor nor decoded at the sensitivity threshold,
// even at maximum TX power with fade headroom). Links live in a CSR link
// table — flat slices keyed by link index, never maps — so iteration
// order and RNG draw order are deterministic, and a frame on the air
// costs O(audible neighbors), not O(nodes).
type Medium struct {
	eng    *sim.Engine
	params Params
	radios []*Radio

	// CSR link table: the directed links i→j of node i occupy indices
	// linkStart[i]..linkStart[i+1] in ascending j order.
	linkStart []int32
	linkDst   []NodeID
	// linkGain is the static channel gain (negative path loss +
	// shadowing) per link in dB; receivedPower = txPower + gain.
	linkGain []float64
	// linkNbr marks links audible above the interference floor at max TX
	// power plus fade headroom: the per-transmission notify set. With
	// the default calibration every stored link qualifies; the flag only
	// filters when SensitivityDBm sits below InterferenceFloorDBm and
	// widens storage beyond the audible set.
	linkNbr []bool
	// linkFade holds per-link slow fading processes (nil when disabled):
	// gainAt = gain + Σ amp·sin(2π t/T + φ).
	linkFade []fadeProc
	// linkOffset holds injected per-link gain perturbations (fault
	// injection: degradation, severing). Lazily allocated as one
	// O(links) slice on the first injection; nil means no link has ever
	// been perturbed.
	linkOffset []float64
	// offsetUnindexed records offsets injected on pairs outside the link
	// table (e.g. a fault plan degrading a link that never existed).
	// Such pairs are never notified of transmissions, so the offsets
	// cannot affect delivery, but LinkOffsetDB reads them back
	// faithfully. Looked up by key only, never iterated.
	offsetUnindexed map[uint32]float64

	// dropFn, when set, is consulted for every frame that passed the
	// SINR draw; returning true discards it as corrupted (fault
	// injection: probabilistic loss/corruption windows).
	dropFn func(rx NodeID, f *Frame) bool

	interferer *noise.WifiInterferer
	jitterRNG  *rand.Rand
	traceFn    func(TraceEvent)
	seq        uint64 // transmission id counter

	// freeTx pools transmission records (one per frame on the air), and
	// endAirFn is the end-of-air callback bound once at construction —
	// together they make putting a frame on the air allocation-free where
	// it used to cost a transmission plus a per-transmission closure.
	freeTx   []*transmission
	endAirFn func(any)
}

// NewMedium builds a medium over the deployment. Each node gets an
// independent CPM noise source derived from the model; pass a nil model
// for a constant -98 dBm floor (useful in unit tests).
func NewMedium(eng *sim.Engine, dep *topology.Deployment, model *noise.Model, params Params, seed uint64) (*Medium, error) {
	return newMedium(eng, dep, model, params, seed, false)
}

// newMedium is the shared constructor; storeAll forces every directed
// pair into the link table (the dense all-pairs construction, kept as
// the oracle for equivalence tests).
func newMedium(eng *sim.Engine, dep *topology.Deployment, model *noise.Model, params Params, seed uint64, storeAll bool) (*Medium, error) {
	if err := dep.Validate(); err != nil {
		return nil, err
	}
	n := dep.Len()
	if n > int(BroadcastID) {
		return nil, fmt.Errorf("radio: %d nodes exceed address space", n)
	}
	m := &Medium{
		eng:       eng,
		params:    params,
		jitterRNG: sim.DeriveRNG(seed, 0xf457),
	}
	m.endAirFn = m.endOfAir
	switch params.GainModel {
	case GainSweep:
		m.buildLinksSweep(dep, seed, storeAll)
	case GainPerLink:
		m.buildLinksPerLink(dep, seed, storeAll)
	default:
		return nil, fmt.Errorf("radio: unknown gain model %d", params.GainModel)
	}
	m.markNeighbors()
	m.radios = make([]*Radio, n)
	for i := 0; i < n; i++ {
		r := &Radio{
			medium: m,
			id:     NodeID(i),
			rng:    sim.DeriveRNG(seed, 0x10000+uint64(i)),
		}
		if model != nil {
			r.noise = model.NewSource(sim.DeriveRNG(seed, uint64(i)+1))
		}
		m.radios[i] = r
	}
	return m, nil
}

// buildLinksSweep fills the link table from sequential all-pairs RNG
// sweeps, reproducing the historical dense-matrix draw order exactly:
// shadowing for every ordered pair in row-major order, then (when
// enabled) fading for every ordered pair in the same order. Every draw
// is consumed whether or not the pair is stored, so existing scenario
// traces stay byte-identical while memory drops to O(links).
func (m *Medium) buildLinksSweep(dep *topology.Deployment, seed uint64, storeAll bool) {
	n := dep.Len()
	shadowRNG := sim.DeriveRNG(seed, 0xface)
	floorGain := m.params.linkFloorGainDB()
	m.linkStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		m.linkStart[i] = int32(len(m.linkDst))
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			d := dep.Positions[i].Distance(dep.Positions[j])
			gain := -m.params.PathLossDB(d) + shadowRNG.NormFloat64()*m.params.ShadowSigmaDB
			if storeAll || gain >= floorGain {
				m.linkDst = append(m.linkDst, NodeID(j))
				m.linkGain = append(m.linkGain, gain)
			}
		}
	}
	m.linkStart[n] = int32(len(m.linkDst))
	if m.params.FadingSigmaDB <= 0 {
		return
	}
	fadeRNG := sim.DeriveRNG(seed, 0xfade2)
	span := m.params.FadingMaxPeriod - m.params.FadingMinPeriod
	m.linkFade = make([]fadeProc, len(m.linkDst))
	k := 0
	for i := 0; i < n; i++ {
		rowEnd := int(m.linkStart[i+1])
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			fp := drawFade(fadeRNG, m.params.FadingSigmaDB, m.params.FadingMinPeriod, span)
			if k < rowEnd && m.linkDst[k] == NodeID(j) {
				m.linkFade[k] = fp
				k++
			}
		}
	}
}

// linkStreamTag namespaces the per-link RNG streams away from the
// per-node streams NewMedium and the experiment builder derive.
const linkStreamTag uint64 = 0x71e1 << 32

// linkStream is the DeriveRNG stream index of the directed link i→j.
func linkStream(i, j int) uint64 {
	return linkStreamTag | uint64(i)<<16 | uint64(j)
}

// buildLinksPerLink fills the link table from one independent RNG stream
// per directed pair, visiting only the candidate pairs a spatial
// grid-bucket index finds within Params.MaxCommRangeM — construction is
// O(n·neighbors) in time and memory. Shadow draws are clamped to
// ±ShadowClampSigma standard deviations, which is what makes the range
// cutoff lossless: beyond it no clamped draw can lift a pair over the
// tracking floor.
func (m *Medium) buildLinksPerLink(dep *topology.Deployment, seed uint64, storeAll bool) {
	n := dep.Len()
	floorGain := m.params.linkFloorGainDB()
	maxRange := m.params.MaxCommRangeM()
	fading := m.params.FadingSigmaDB > 0
	span := m.params.FadingMaxPeriod - m.params.FadingMinPeriod
	var idx *topology.GridIndex
	if !storeAll {
		idx = topology.NewGridIndex(dep.Positions, maxRange)
	}
	pcg := rand.NewPCG(0, 0)
	rng := rand.New(pcg)
	var cand []int32
	m.linkStart = make([]int32, n+1)
	for i := 0; i < n; i++ {
		m.linkStart[i] = int32(len(m.linkDst))
		if idx != nil {
			cand = idx.AppendNear(cand, dep.Positions[i], maxRange)
		} else {
			cand = cand[:0]
			for j := 0; j < n; j++ {
				cand = append(cand, int32(j))
			}
		}
		for _, jj := range cand {
			j := int(jj)
			if j == i {
				continue
			}
			d := dep.Positions[i].Distance(dep.Positions[j])
			if !storeAll && d > maxRange {
				continue
			}
			sim.ReseedPCG(pcg, seed, linkStream(i, j))
			shadow := clampSigma(rng.NormFloat64()) * m.params.ShadowSigmaDB
			gain := -m.params.PathLossDB(d) + shadow
			if !storeAll && gain < floorGain {
				continue
			}
			m.linkDst = append(m.linkDst, NodeID(j))
			m.linkGain = append(m.linkGain, gain)
			if fading {
				// Fade params come from the same per-link stream, right
				// after the shadow draw, so linkFade tracks linkDst 1:1.
				m.linkFade = append(m.linkFade, drawFade(rng, m.params.FadingSigmaDB, m.params.FadingMinPeriod, span))
			}
		}
	}
	m.linkStart[n] = int32(len(m.linkDst))
}

// clampSigma bounds a standard-normal draw to ±ShadowClampSigma.
func clampSigma(z float64) float64 {
	if z > ShadowClampSigma {
		return ShadowClampSigma
	}
	if z < -ShadowClampSigma {
		return -ShadowClampSigma
	}
	return z
}

// drawFade consumes one fading process worth of draws (two periods, two
// phases — the historical per-pair order) from rng.
func drawFade(rng *rand.Rand, amp float64, minPeriod time.Duration, span time.Duration) fadeProc {
	// Two incommensurate sinusoids approximate a slow random process
	// with RMS ≈ FadingSigmaDB.
	return fadeProc{
		amp1:    amp,
		amp2:    amp * 0.6,
		period1: minPeriod + time.Duration(rng.Int64N(int64(span)+1)),
		period2: minPeriod + time.Duration(rng.Int64N(int64(span)+1)),
		phase1:  rng.Float64() * 2 * math.Pi,
		phase2:  rng.Float64() * 2 * math.Pi,
	}
}

// markNeighbors flags the stored links audible above the interference
// floor at maximum TX power (plus fade headroom) — the set every
// transmission notifies. Consumes no RNG.
func (m *Medium) markNeighbors() {
	m.linkNbr = make([]bool, len(m.linkDst))
	threshold := m.params.InterferenceFloorDBm - m.params.MaxTxPowerDBm - m.params.fadeHeadroomDB()
	for k, g := range m.linkGain {
		m.linkNbr[k] = g >= threshold
	}
}

// linkIndex returns the CSR index of the directed link from→to, or -1
// when the pair is below the tracking floor (unindexed).
func (m *Medium) linkIndex(from, to NodeID) int {
	start := m.linkStart[from]
	row := m.linkDst[start:m.linkStart[from+1]]
	if k, ok := slices.BinarySearch(row, to); ok {
		return int(start) + k
	}
	return -1
}

// SetInterferer installs a WiFi interference process affecting all nodes.
func (m *Medium) SetInterferer(w *noise.WifiInterferer) { m.interferer = w }

// Radio returns the radio attached to node id.
func (m *Medium) Radio(id NodeID) *Radio { return m.radios[id] }

// NumNodes returns the number of attached radios.
func (m *Medium) NumNodes() int { return len(m.radios) }

// NumLinks returns the number of indexed directed links — the medium's
// memory footprint is O(NumLinks), not O(NumNodes²).
func (m *Medium) NumLinks() int { return len(m.linkDst) }

// Params returns the physical-layer parameters.
func (m *Medium) Params() Params { return m.params }

// GainDB returns the static channel gain from one node to another, or
// -Inf for pairs below the tracking floor (whose true gain is known to
// be too weak for the frame ever to be heard or decoded).
func (m *Medium) GainDB(from, to NodeID) float64 {
	if k := m.linkIndex(from, to); k >= 0 {
		return m.linkGain[k]
	}
	return math.Inf(-1)
}

// fadeProc is a slow per-link fading process.
type fadeProc struct {
	amp1, amp2       float64
	period1, period2 time.Duration
	phase1, phase2   float64
}

func (f *fadeProc) at(t time.Duration) float64 {
	if f.period1 == 0 {
		return 0
	}
	return f.amp1*math.Sin(2*math.Pi*float64(t)/float64(f.period1)+f.phase1) +
		f.amp2*math.Sin(2*math.Pi*float64(t)/float64(f.period2)+f.phase2)
}

// gainAtLink returns the instantaneous gain of link k including fading
// and any injected perturbation — the per-transmission hot path.
func (m *Medium) gainAtLink(k int, t time.Duration) float64 {
	g := m.linkGain[k]
	if m.linkFade != nil {
		g += m.linkFade[k].at(t)
	}
	if m.linkOffset != nil {
		g += m.linkOffset[k]
	}
	return g
}

// gainAt returns the instantaneous channel gain of a directed pair
// (-Inf when unindexed).
func (m *Medium) gainAt(from, to NodeID, t time.Duration) float64 {
	if k := m.linkIndex(from, to); k >= 0 {
		return m.gainAtLink(k, t)
	}
	return math.Inf(-1)
}

// AddLinkOffsetDB adds dB to the directed link from→to on top of the
// static gain. Offsets are additive so that overlapping fault windows
// compose and restore cleanly (apply −x at window start, +x at end). A
// large negative offset (≤ −200 dB) effectively severs the link. The
// offset store is per-link: the first injection allocates O(links), and
// offsets on unindexed pairs (which can never deliver a frame anyway)
// are kept aside for read-back without growing the table.
func (m *Medium) AddLinkOffsetDB(from, to NodeID, dB float64) {
	if k := m.linkIndex(from, to); k >= 0 {
		if m.linkOffset == nil {
			m.linkOffset = make([]float64, len(m.linkDst))
		}
		m.linkOffset[k] += dB
		return
	}
	if m.offsetUnindexed == nil {
		m.offsetUnindexed = make(map[uint32]float64, 1)
	}
	m.offsetUnindexed[pairKey(from, to)] += dB
}

// LinkOffsetDB returns the current injected offset on the directed link.
func (m *Medium) LinkOffsetDB(from, to NodeID) float64 {
	if k := m.linkIndex(from, to); k >= 0 {
		if m.linkOffset == nil {
			return 0
		}
		return m.linkOffset[k]
	}
	return m.offsetUnindexed[pairKey(from, to)]
}

// pairKey packs a directed pair for the unindexed-offset side table.
func pairKey(from, to NodeID) uint32 { return uint32(from)<<16 | uint32(to) }

// SetDropFn installs a receive-side frame filter consulted after the SINR
// draw succeeds; returning true discards the frame as corrupted. The SINR
// draw itself is unaffected, so installing a filter never perturbs the
// RNG stream of fault-free links. Pass nil to remove.
func (m *Medium) SetDropFn(fn func(rx NodeID, f *Frame) bool) { m.dropFn = fn }

// ExpectedPRR returns the interference-free packet reception ratio for a
// frame of sizeBytes sent from→to at txPowerDBm over the quiet noise floor.
// This is the controller's "global topology knowledge" view used by the
// destination-unreachable countermeasure and by tests. Exact for
// txPowerDBm ≤ Params.MaxTxPowerDBm; unindexed pairs report 0 (their
// received power is below sensitivity at any admissible power).
func (m *Medium) ExpectedPRR(from, to NodeID, txPowerDBm float64, sizeBytes int) float64 {
	k := m.linkIndex(from, to)
	if k < 0 {
		return 0
	}
	rx := txPowerDBm + m.linkGain[k]
	if rx < m.params.SensitivityDBm {
		return 0
	}
	snr := dbmToMW(rx) / dbmToMW(quietFloorDBm)
	return prrFromSNR(snr, sizeBytes+m.params.PhyOverheadBytes)
}

// quietFloorDBm is the nominal quiet noise floor used for the analytic
// ExpectedPRR view (the live simulation samples CPM noise instead).
const quietFloorDBm = -98.0

// noiseAt returns total non-802.15.4 noise power (mW) at node id.
func (m *Medium) noiseAt(id NodeID, t time.Duration) float64 {
	var dbm float64 = quietFloorDBm
	if src := m.radios[id].noise; src != nil {
		dbm = src.ReadAt(t)
	}
	total := dbmToMW(dbm)
	if m.interferer != nil {
		total += dbmToMW(m.interferer.InterferenceAt(t))
	}
	return total
}

// transmission is an in-flight frame on the air. Records are pooled by
// the medium (freeTx); the id stays unique across reuse, so anything that
// keys on it — the per-radio air sets in particular — is stale-safe.
type transmission struct {
	id       uint64
	src      NodeID
	srcRadio *Radio
	frame    *Frame
	power    float64 // dBm at transmitter
	end      time.Duration
	// rowStart/rowEnd cache the sender's CSR link row so end-of-air
	// revisits exactly the notified set without re-deriving it.
	rowStart, rowEnd int32
}

// startTransmission is called by Radio.Transmit. It notifies every radio in
// range: awake listeners lock on; everyone else records interference.
func (m *Medium) startTransmission(src *Radio, f *Frame, powerDBm float64) *transmission {
	m.seq++
	var tx *transmission
	if n := len(m.freeTx); n > 0 {
		tx = m.freeTx[n-1]
		m.freeTx[n-1] = nil
		m.freeTx = m.freeTx[:n-1]
	} else {
		tx = new(transmission)
	}
	airtime := m.params.Airtime(f.Size)
	*tx = transmission{
		id:       m.seq,
		src:      src.id,
		srcRadio: src,
		frame:    f,
		power:    powerDBm,
		end:      m.eng.Now() + airtime,
		rowStart: m.linkStart[src.id],
		rowEnd:   m.linkStart[src.id+1],
	}
	m.trace(TraceEvent{Kind: TraceTxStart, Node: src.id, Frame: f})
	now := m.eng.Now()
	for k := tx.rowStart; k < tx.rowEnd; k++ {
		if !m.linkNbr[k] {
			continue
		}
		r := m.radios[m.linkDst[k]]
		rxPower := powerDBm + m.gainAtLink(int(k), now)
		if m.params.TxJitterSigmaDB > 0 {
			rxPower += m.jitterRNG.NormFloat64() * m.params.TxJitterSigmaDB
		}
		r.onAirStart(tx, rxPower)
	}
	m.eng.ScheduleArg(airtime, m.endAirFn, tx)
	return tx
}

// endOfAir takes one transmission off the air: every notified radio gets
// onAirEnd (adjudicating reception), the sender gets txDone, and the
// record returns to the pool. Pre-bound as m.endAirFn so scheduling it
// never allocates a closure.
func (m *Medium) endOfAir(a any) {
	tx := a.(*transmission)
	for k := tx.rowStart; k < tx.rowEnd; k++ {
		if !m.linkNbr[k] {
			continue
		}
		m.radios[m.linkDst[k]].onAirEnd(tx)
	}
	tx.srcRadio.txDone(tx)
	tx.frame, tx.srcRadio = nil, nil
	m.freeTx = append(m.freeTx, tx)
}
