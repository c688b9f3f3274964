package noise

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// Quantization for CPM: 1 dB bins over [-105, -40] dBm.
const (
	quantMinDBm = -105.0
	quantBins   = 66
)

// Default CPM history lengths, longest first. The model backs off to
// shorter histories (and finally the marginal) when a pattern was not seen
// during training, which is the "closest pattern matching" behaviour.
var defaultHistLens = []int{8, 4, 2, 1}

// histShift is the bit width one quantized bin occupies in a packed
// history key. quantBins < 256, so a byte per bin keeps packing injective
// (a packed key equals the old string key byte for byte), and the longest
// supported history is maxPackedHist bins per uint64 key.
const (
	histShift     = 8
	maxPackedHist = 64 / histShift
)

// maxCatchUpSteps bounds how many 1 ms steps a lazy Source will simulate to
// catch up with virtual time; beyond that the chain is resampled from the
// marginal distribution (the chain mixes fast, so this is statistically
// indistinguishable and keeps long idle gaps O(1)).
const maxCatchUpSteps = 64

// patTable is an open-addressed hash index from a packed history key to a
// model slot. A bucket holds only the slot (-1 marks an empty one); the
// slot's key is stored once, in the model's slot-indexed keys array,
// which a probe compares against. Lookups are one multiply-shift hash
// plus a linear probe over a flat bucket array — no map machinery, no
// string([]byte) conversion, no per-lookup allocation. Bucket count is a
// power of two, so probing wraps with a mask.
type patTable struct {
	slots []int32
	mask  uint64
	n     int
}

// minTableBuckets is the smallest bucket count of a pattern table.
const minTableBuckets = 16

// hashKey mixes a packed history key (splitmix64 finalizer) so linear
// probing sees a uniform distribution even for near-identical histories.
func hashKey(key uint64) uint64 {
	key ^= key >> 30
	key *= 0xbf58476d1ce4e5b9
	key ^= key >> 27
	key *= 0x94d049bb133111eb
	key ^= key >> 31
	return key
}

// bucket returns the bucket holding key's slot, or the empty bucket
// that ends key's probe sequence when the key is absent. keys is the
// model's slot-indexed key array.
func (t *patTable) bucket(keys []uint64, key uint64) uint64 {
	i := hashKey(key) & t.mask
	for t.slots[i] >= 0 && keys[t.slots[i]] != key {
		i = (i + 1) & t.mask
	}
	return i
}

// get returns the model slot for key, or -1 when the pattern was
// never seen in training. A chain step probes only when its successor
// slot is not precomputed (after a shorter-history match or a reseed).
func (t *patTable) get(keys []uint64, key uint64) int32 {
	if t.n == 0 {
		return -1
	}
	return t.slots[t.bucket(keys, key)]
}

// tableSize returns the bucket count that holds n patterns at no more
// than half load (lookup speed over memory: probes on the per-sample
// path stay short).
func tableSize(n int) uint64 {
	size := uint64(minTableBuckets)
	for uint64(n) > size/2 {
		size *= 2
	}
	return size
}

// reset empties the table and sizes it for n patterns, reusing the
// bucket array when it is large enough.
func (t *patTable) reset(n int) {
	size := tableSize(n)
	if uint64(cap(t.slots)) < size {
		t.slots = make([]int32, size)
	}
	t.slots = t.slots[:size]
	for i := range t.slots {
		t.slots[i] = -1
	}
	t.mask = size - 1
	t.n = 0
}

// insert indexes slot under its key, keys[slot]. The key must be
// absent and the table below half load. Training-time only.
func (t *patTable) insert(keys []uint64, slot int32) {
	t.slots[t.bucket(keys, keys[slot])] = slot
	t.n++
}

// unknown marks a successor slot the model cannot precompute: after a
// shorter-history match the next history's longest match depends on bins
// older than the slot's own pattern, so the Source resolves it through
// the pattern tables.
const unknown int32 = -1

// A transition's link packs the emitted bin in its low linkBinBits bits
// and the successor slot plus one above them, so a link with nothing
// above the bin reads as unknown. maxSlots is the slot count the
// successor field can hold, the marginal included.
const (
	linkBinBits = 8
	maxSlots    = 1<<(32-linkBinBits) - 1
)

// transition is one bin of a slot's conditional distribution, 8 bytes.
// cum is the running count through this bin, so a draw target picks the
// first transition with target < cum; link holds the bin and the slot
// the chain moves to after emitting it (unknown outside the longest
// history length).
type transition struct {
	cum  uint32
	link uint32
}

func newTransition(bin uint8) transition {
	return transition{link: uint32(bin)}
}

func (t transition) bin() uint8 { return uint8(t.link) }

func (t transition) next() int32 { return int32(t.link>>linkBinBits) - 1 }

func (t *transition) setNext(slot int32) {
	t.link = uint32(slot+1)<<linkBinBits | uint32(t.bin())
}

// Model is a trained CPM noise model. It is immutable after Train and safe
// to share across all node Sources.
type Model struct {
	histLens []int
	// histMask[i] selects the low histLens[i] bins of a packed rolling
	// history; tables[i] maps the patterns of that length to slots.
	histMask []uint64
	tables   []patTable
	// keys[s] is slot s's packed pattern, whatever its length; the
	// marginal has none.
	keys []uint64
	// Slot s's distribution is trans[slotOff[s]:slotOff[s+1]], bins in
	// first-seen training order. Longest-history slots come first, in
	// training order, so a chain walking the training trace reads
	// adjacent memory; the last slot is the marginal.
	slotOff  []uint32
	trans    []transition
	marginal int32
}

// histMaskFor returns the packed-key mask covering hl bins.
func histMaskFor(hl int) uint64 {
	if hl >= maxPackedHist {
		return ^uint64(0)
	}
	return (uint64(1) << (histShift * hl)) - 1
}

// Train builds a CPM model from a noise trace (dBm samples at 1 kHz).
// It panics when the trace holds more patterns than a transition's
// successor field can number (maxSlots, some 16.7 million: a trace of
// hours).
func Train(trace []float64) *Model {
	m := &Model{histLens: defaultHistLens}
	if m.histLens[0] > maxPackedHist {
		panic(fmt.Sprintf("noise: history length %d exceeds packed key capacity %d",
			m.histLens[0], maxPackedHist))
	}
	m.histMask = make([]uint64, len(m.histLens))
	for i, hl := range m.histLens {
		m.histMask[i] = histMaskFor(hl)
	}
	q := make([]uint8, len(trace))
	for i, v := range trace {
		q[i] = quantize(v)
	}
	pairSlot, pairBin := m.index(q)
	m.layout(pairSlot, pairBin)
	m.linkSuccessors(q, pairSlot[:max(len(q)-m.histLens[0], 0)])
	return m
}

// checkSlots reports a slot count the transitions' successor field
// cannot number.
func checkSlots(n int) error {
	if n > maxSlots {
		return fmt.Errorf("noise: trace yields %d model slots, a transition links at most %d", n, maxSlots)
	}
	return nil
}

// patternBound returns the most distinct length-hl patterns a trace of
// n samples can hold: one per window, and no more than the bin
// alphabet allows.
func patternBound(n, hl int) int {
	bound := max(n-hl, 0)
	alphabet := 1
	for i := 0; i < hl && alphabet < bound; i++ {
		alphabet *= quantBins
	}
	return min(bound, alphabet)
}

// index fills the pattern tables and keys from the quantized trace and
// returns every training observation as a (slot, bin) pair: one per
// sample and history length, level by level so the longest history's
// slots are numbered first, then one per sample for the marginal, the
// last slot. Each level is indexed in one scratch table sized for its
// pattern bound, then copied into a table sized for the patterns found.
func (m *Model) index(q []uint8) (pairSlot []int32, pairBin []uint8) {
	nPairs, nKeys, maxBound := len(q), 0, 0
	for _, hl := range m.histLens {
		nPairs += max(len(q)-hl, 0)
		nKeys += patternBound(len(q), hl)
		maxBound = max(maxBound, patternBound(len(q), hl))
	}
	pairSlot = make([]int32, 0, nPairs)
	pairBin = make([]uint8, 0, nPairs)
	keys := make([]uint64, 0, nKeys)
	m.tables = make([]patTable, len(m.histLens))
	scratch := patTable{slots: make([]int32, 0, tableSize(maxBound))}
	for li, hl := range m.histLens {
		scratch.reset(patternBound(len(q), hl))
		first := int32(len(keys))
		// packed carries the most recent bins, newest in the low byte,
		// so packed&histMask[li] is the length-hl window q[i-hl:i].
		var packed uint64
		for i, bin := range q {
			if i >= hl {
				key := packed & m.histMask[li]
				slot := scratch.get(keys, key)
				if slot < 0 {
					slot = int32(len(keys))
					keys = append(keys, key)
					scratch.insert(keys, slot)
				}
				pairSlot = append(pairSlot, slot)
				pairBin = append(pairBin, bin)
			}
			packed = packed<<histShift | uint64(bin)
		}
		t := &m.tables[li]
		t.reset(scratch.n)
		for slot := first; slot < int32(len(keys)); slot++ {
			t.insert(keys, slot)
		}
	}
	if err := checkSlots(len(keys) + 1); err != nil {
		panic(err)
	}
	m.keys = make([]uint64, len(keys))
	copy(m.keys, keys)
	m.marginal = int32(len(keys))
	for _, bin := range q {
		pairSlot = append(pairSlot, m.marginal)
		pairBin = append(pairBin, bin)
	}
	return pairSlot, pairBin
}

// layout builds slotOff and trans from the observation pairs, sized
// exactly, with no per-pattern allocation.
func (m *Model) layout(pairSlot []int32, pairBin []uint8) {
	nSlots := m.marginal + 1
	// Stable counting sort by slot: each slot's bins stay in trace order,
	// so their first occurrences give the bin order of the distribution.
	start := make([]uint32, nSlots+1)
	for _, s := range pairSlot {
		start[s+1]++
	}
	for s := int32(1); s <= nSlots; s++ {
		start[s] += start[s-1]
	}
	sorted := make([]uint8, len(pairBin))
	cursor := slices.Clone(start[:nSlots])
	for p, s := range pairSlot {
		sorted[cursor[s]] = pairBin[p]
		cursor[s]++
	}

	// Two walks over the sorted bins: count each slot's distinct bins to
	// size the layout, then fill it. seen[b] marks bin b as already met
	// in slot s (s+1 in the first walk, -(s+1) in the second, so neither
	// walk needs a reset); at[b] is its transition.
	var seen [quantBins]int32
	m.slotOff = make([]uint32, nSlots+1)
	for s := int32(0); s < nSlots; s++ {
		distinct := uint32(0)
		for _, b := range sorted[start[s]:start[s+1]] {
			if seen[b] != s+1 {
				seen[b] = s + 1
				distinct++
			}
		}
		m.slotOff[s+1] = m.slotOff[s] + distinct
	}
	m.trans = make([]transition, m.slotOff[nSlots])
	var at [quantBins]uint32
	for s := int32(0); s < nSlots; s++ {
		w := m.slotOff[s]
		for _, b := range sorted[start[s]:start[s+1]] {
			if seen[b] != -(s + 1) {
				seen[b] = -(s + 1)
				at[b] = w
				m.trans[w] = newTransition(b)
				w++
			}
			m.trans[at[b]].cum++
		}
		for t := m.slotOff[s] + 1; t < w; t++ {
			m.trans[t].cum += m.trans[t-1].cum
		}
	}
}

// linkSuccessors fills next for every longest-history transition: after
// such a match the next history is the pattern shifted by the emitted
// bin, so its longest match is fixed at train time. top holds the
// longest-history slot of each trace position from histLens[0] on, and
// the history after the transition taken at position i is the window
// matched at position i+1, so its slot is top[i+1]. Only the last
// position's history may never have been indexed; it alone needs a
// longest-first resolve.
func (m *Model) linkSuccessors(q []uint8, top []int32) {
	hl := m.histLens[0]
	for p, slot := range top {
		var next int32
		if p+1 < len(top) {
			next = top[p+1]
		} else {
			var last uint64
			for _, bin := range q[len(q)-hl:] {
				last = last<<histShift | uint64(bin)
			}
			next = m.resolve(last)
		}
		bin := q[hl+p]
		ts := m.trans[m.slotOff[slot]:m.slotOff[slot+1]]
		i := 0
		for ts[i].bin() != bin {
			i++
		}
		ts[i].setNext(next)
	}
}

// resolve returns the slot of the longest trained pattern matching the
// packed history, backing off to the marginal: closest-pattern matching.
func (m *Model) resolve(packed uint64) int32 {
	for li := range m.tables {
		if slot := m.tables[li].get(m.keys, packed&m.histMask[li]); slot >= 0 {
			return slot
		}
	}
	return m.marginal
}

// draw samples slot's distribution with one Uint32N over its total count
// and returns the bin and the successor slot. An empty slot (only the
// marginal of an empty trace) draws nothing and yields the quiet floor.
func (m *Model) draw(slot int32, rng *rand.Rand) (bin uint8, next int32) {
	ts := m.trans[m.slotOff[slot]:m.slotOff[slot+1]]
	if len(ts) == 0 {
		return quantize(quietFloorDBm), unknown
	}
	target := rng.Uint32N(ts[len(ts)-1].cum)
	i := 0
	for target >= ts[i].cum {
		i++
	}
	return ts[i].bin(), ts[i].next()
}

// Patterns returns the number of distinct patterns at the longest history
// length. Exposed for tests and diagnostics.
func (m *Model) Patterns() int {
	if len(m.tables) == 0 {
		return 0
	}
	return m.tables[0].n
}

func quantize(dbm float64) uint8 {
	bin := int(dbm - quantMinDBm + 0.5)
	if bin < 0 {
		bin = 0
	}
	if bin >= quantBins {
		bin = quantBins - 1
	}
	return uint8(bin)
}

func dequantize(bin uint8, rng *rand.Rand) float64 {
	return quantMinDBm + float64(bin) + (rng.Float64() - 0.5)
}

// Source is a per-node noise stream driven by a shared Model. It is lazy:
// ReadAt advances the underlying 1 kHz chain only as far as needed.
type Source struct {
	model *Model
	rng   *rand.Rand
	// packed is the rolling quantized history, newest bin in the low
	// byte — the same representation the model's pattern tables key on.
	packed uint64
	// slot is the model slot matching packed, or unknown until resolved.
	slot int32
	last float64
	step int64 // chain position, in SamplePeriodMS units
}

// NewSource creates an independent noise stream. Different sources should
// use different rng streams (see sim.DeriveRNG).
func (m *Model) NewSource(rng *rand.Rand) *Source {
	s := &Source{model: m, rng: rng, step: -1}
	s.reseed()
	return s
}

// reseed fills the history from the marginal distribution.
func (s *Source) reseed() {
	m := s.model
	var bin uint8
	for i := 0; i < m.histLens[0]; i++ {
		bin, _ = m.draw(m.marginal, s.rng)
		s.packed = s.packed<<histShift | uint64(bin)
	}
	s.slot = unknown
	s.last = dequantize(bin, s.rng)
}

// next advances the chain one step using closest-pattern matching.
func (s *Source) next() float64 {
	slot := s.slot
	if slot == unknown {
		slot = s.model.resolve(s.packed)
	}
	var bin uint8
	bin, s.slot = s.model.draw(slot, s.rng)
	// Slide history: the shift drops the oldest bin off the top.
	s.packed = s.packed<<histShift | uint64(bin)
	s.last = dequantize(bin, s.rng)
	return s.last
}

// ReadAt returns the noise floor (dBm) at virtual time t. Calls must be
// monotone in t per Source; earlier times return the current value.
func (s *Source) ReadAt(t time.Duration) float64 {
	target := int64(t / (SamplePeriodMS * time.Millisecond))
	if target <= s.step {
		return s.last
	}
	steps := target - s.step
	s.step = target
	if steps > maxCatchUpSteps {
		s.reseed()
		return s.last
	}
	for i := int64(0); i < steps; i++ {
		s.next()
	}
	return s.last
}
