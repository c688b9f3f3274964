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
	// notifyGainDB is the static gain a link needs to be audible above
	// the interference floor at max TX power plus fade headroom: the
	// per-transmission notify set is the links that reach it (notified).
	// With the default calibration every stored link does; it only
	// filters when sensitivityDBm sits below InterferenceFloorDBm and
	// widens storage beyond the audible set.
	notifyGainDB float64
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

	// wifiOnDBm is the interferer's burst level, and wifiOnMW and
	// wifiOffMW are its two power levels in mW (fastMW), converted once
	// when it is installed.
	wifiOnDBm           float64
	wifiOnMW, wifiOffMW float64

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
	// rowCap is the widest CSR row, the length of every pooled
	// transmission's rxDBm buffer.
	rowCap int

	// awake mirrors each radio's powered state, dense by node id (set by
	// SetOn and ForceOff). A frame's fan-out reads it to skip sleeping
	// receivers without touching their Radio: under LPL most radios in
	// range of a frame are asleep.
	awake []bool
	// inFlight holds the transmissions on the air in id order, which is
	// the order they started in. A radio that wakes rebuilds its air set
	// from it.
	inFlight []*transmission
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
		awake:     make([]bool, n),
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
	m.notifyGainDB = params.InterferenceFloorDBm - maxTxPowerDBm - params.fadeHeadroomDB()
	for i := 0; i < n; i++ {
		m.rowCap = max(m.rowCap, int(m.linkStart[i+1]-m.linkStart[i]))
	}
	m.radios = make([]*Radio, n)
	for i := 0; i < n; i++ {
		r := &Radio{
			medium:   m,
			id:       NodeID(i),
			rng:      sim.DeriveRNG(seed, 0x10000+uint64(i)),
			noiseDBm: math.NaN(),
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

// notified reports whether stored link k is in the set every
// transmission notifies: audible above the interference floor at maximum
// TX power (plus fade headroom).
func (m *Medium) notified(k int32) bool { return m.linkGain[k] >= m.notifyGainDB }

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
// Its PowerDBm is read once, here.
func (m *Medium) SetInterferer(w *noise.WifiInterferer) {
	m.interferer = w
	if w != nil {
		m.wifiOnDBm = w.PowerDBm
		m.wifiOnMW, m.wifiOffMW = fastMW(w.PowerDBm), fastMW(noise.WifiOffDBm)
	}
}

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
// and any injected perturbation — the per-transmission hot path, small
// enough to inline when there is neither.
func (m *Medium) gainAtLink(k int, t time.Duration) float64 {
	if m.linkFade == nil && m.linkOffset == nil {
		return m.linkGain[k]
	}
	return m.perturbedGain(k, t)
}

// perturbedGain is gainAtLink with fading or an offset.
func (m *Medium) perturbedGain(k int, t time.Duration) float64 {
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
// txPowerDBm ≤ maxTxPowerDBm; unindexed pairs report 0 (their
// received power is below sensitivity at any admissible power).
func (m *Medium) ExpectedPRR(from, to NodeID, txPowerDBm float64, sizeBytes int) float64 {
	k := m.linkIndex(from, to)
	if k < 0 {
		return 0
	}
	rx := txPowerDBm + m.linkGain[k]
	if rx < sensitivityDBm {
		return 0
	}
	snr := dbmToMW(rx) / dbmToMW(quietFloorDBm)
	return prrFromSNR(snr, sizeBytes+phyOverheadBytes)
}

// quietFloorDBm is the nominal quiet noise floor used for the analytic
// ExpectedPRR view (the live simulation samples CPM noise instead).
const quietFloorDBm = -98.0

// readNoise reads r's CPM source (the quiet floor without one) and the
// WiFi interferer at t. Both are stateful — a read advances them — so
// every adjudication reads them, also one that needs no noise power.
func (m *Medium) readNoise(r *Radio, t time.Duration) (dbm float64, wifiOn bool) {
	dbm = quietFloorDBm
	if r.noise != nil {
		dbm = r.noise.ReadAt(t)
	}
	if m.interferer != nil {
		wifiOn = m.interferer.On(t)
	}
	return dbm, wifiOn
}

// wifiDBm returns the interferer's level in dBm, on or off.
func (m *Medium) wifiDBm(on bool) float64 {
	if on {
		return m.wifiOnDBm
	}
	return noise.WifiOffDBm
}

// noiseMW converts a noise reading of r (readNoise's results) to the
// total non-802.15.4 noise power in mW, in fastMW powers.
func (m *Medium) noiseMW(r *Radio, dbm float64, wifiOn bool) float64 {
	if dbm != r.noiseDBm {
		r.noiseDBm, r.noiseMW = dbm, fastMW(dbm)
	}
	total := r.noiseMW
	if m.interferer != nil {
		if wifiOn {
			total += m.wifiOnMW
		} else {
			total += m.wifiOffMW
		}
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
	// rowStart is the first link of the sender's CSR row.
	rowStart int32
	// rxDBm[k-rowStart] is the power received over notified link k,
	// jitter included, awake receiver or not: a radio that wakes while
	// the frame is on the air reads its entry from here. The buffer is
	// per transmission, not per link — after a ForceOff a node can put a
	// second frame on the air before its first one ends — and sized once
	// to Medium.rowCap, so it survives pooling.
	rxDBm []float64
	// rcv lists, in ascending link order, the notified links whose
	// receiver was awake at the start of air or has woken since (wake
	// inserts it); end of air visits these instead of the whole row. A
	// listed receiver may have gone back to sleep, so end of air still
	// checks the awake mirror. Its capacity is Medium.rowCap, so neither
	// the fill nor an insert allocates.
	rcv []int32
}

// startTransmission is called by Radio.Transmit. It draws the received
// power over every notified link and hands it to the receivers that are
// awake: listeners lock on, the rest record interference.
func (m *Medium) startTransmission(src *Radio, f *Frame, powerDBm float64) *transmission {
	m.seq++
	var tx *transmission
	if n := len(m.freeTx); n > 0 {
		tx = m.freeTx[n-1]
		m.freeTx[n-1] = nil
		m.freeTx = m.freeTx[:n-1]
	} else {
		tx = &transmission{rxDBm: make([]float64, m.rowCap), rcv: make([]int32, 0, m.rowCap)}
	}
	airtime := m.params.Airtime(f.Size)
	// Field by field, keeping the pooled rxDBm and rcv buffers: a
	// composite literal would build the record in a temporary and copy it.
	tx.id, tx.src, tx.srcRadio, tx.frame = m.seq, src.id, src, f
	tx.power, tx.end, tx.rowStart = powerDBm, m.eng.Now()+airtime, m.linkStart[src.id]
	m.trace(TraceEvent{Kind: TraceTxStart, Node: src.id, Frame: f})
	now := m.eng.Now()
	// The jitter is drawn for every notified link, in link order, so the
	// jitter stream does not depend on who is awake. The awake links are
	// collected without a branch: each is written to the next free slot,
	// which only an awake one claims.
	rcv := tx.rcv[:cap(tx.rcv)]
	n := 0
	sigma := m.params.TxJitterSigmaDB
	for k, end := tx.rowStart, m.linkStart[src.id+1]; k < end; k++ {
		if !m.notified(k) {
			continue
		}
		rxPower := powerDBm + m.gainAtLink(int(k), now)
		if sigma > 0 {
			rxPower += m.jitterRNG.NormFloat64() * sigma
		}
		tx.rxDBm[k-tx.rowStart] = rxPower
		rcv[n] = k
		n += b2i(m.awake[m.linkDst[k]])
	}
	tx.rcv = rcv[:n]
	// onAirStart calls no handler and draws no jitter, so notifying after
	// the draws, in the same link order, changes no event order.
	for _, k := range tx.rcv {
		m.radios[m.linkDst[k]].onAirStart(tx, tx.rxDBm[k-tx.rowStart])
	}
	m.inFlight = append(m.inFlight, tx)
	m.eng.ScheduleArg(airtime, m.endAirFn, tx)
	return tx
}

// b2i is 1 for true and 0 for false.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// endOfAir takes one transmission off the air: every awake listed radio
// gets onAirEnd (adjudicating reception), the sender gets txDone, and the
// record returns to the pool. The record leaves the in-flight list first,
// so a radio woken by a handler inside the loop finds the frame gone, as
// it has left every air set the loop has passed; such a radio is not
// listed unless it was listed before, and then the call finds nothing of
// the frame. Pre-bound as m.endAirFn so scheduling it never allocates a
// closure.
func (m *Medium) endOfAir(a any) {
	tx := a.(*transmission)
	// inFlight is in id order. The search is written out: the generic
	// slices.BinarySearchFunc calls its comparison through a pointer.
	i, j := 0, len(m.inFlight)
	for i < j {
		if h := int(uint(i+j) >> 1); m.inFlight[h].id < tx.id {
			i = h + 1
		} else {
			j = h
		}
	}
	m.inFlight = slices.Delete(m.inFlight, i, i+1)
	for _, k := range tx.rcv {
		if dst := m.linkDst[k]; m.awake[dst] {
			m.radios[dst].onAirEnd(tx)
		}
	}
	tx.srcRadio.txDone(tx)
	tx.frame, tx.srcRadio = nil, nil
	m.freeTx = append(m.freeTx, tx)
}

// wake marks r awake and fills its (empty) air set with the frames on the
// air that notify it, in arrival order, exactly as if it had recorded
// every arrival while asleep; powers convert on first read. Each of those
// frames lists r's link from then on, at its place in link order; a radio
// that was awake at the start of air, slept and woke again is listed
// already.
func (m *Medium) wake(r *Radio) {
	m.awake[r.id] = true
	for _, tx := range m.inFlight {
		if k := m.linkIndex(tx.src, r.id); k >= 0 && m.notified(int32(k)) {
			r.air = append(r.air, airEntry{txID: uint32(tx.id), rxDBm: tx.rxDBm[k-int(tx.rowStart)], mW: -1})
			if at, listed := slices.BinarySearch(tx.rcv, int32(k)); !listed {
				tx.rcv = slices.Insert(tx.rcv, at, int32(k))
			}
		}
	}
}

// sleep marks r asleep and empties its air set: a sleeping radio is not
// notified of frames, and wake rebuilds the set.
func (m *Medium) sleep(r *Radio) {
	m.awake[r.id] = false
	r.air = r.air[:0]
}
