package noise

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"
	"time"
	"unsafe"

	"teleadjust/internal/sim"
)

// --- Reference implementation ---
//
// mapModel is the original CPM implementation, string-keyed maps of
// sparse count distributions and all, kept verbatim as the behavioural
// reference: the flat model must consume the RNG identically and emit
// bit-identical samples, or every pinned scenario trace in the repo
// shifts.

// refDist is a sparse categorical distribution over quantized noise bins,
// bins in first-seen order.
type refDist struct {
	bins   []uint8
	counts []uint32
	total  uint32
}

func (d *refDist) add(bin uint8) {
	for i, b := range d.bins {
		if b == bin {
			d.counts[i]++
			d.total++
			return
		}
	}
	d.bins = append(d.bins, bin)
	d.counts = append(d.counts, 1)
	d.total++
}

func (d *refDist) sample(rng *rand.Rand) uint8 {
	if d.total == 0 {
		return quantize(quietFloorDBm) // quiet floor bin
	}
	target := rng.Uint32N(d.total)
	var acc uint32
	for i, c := range d.counts {
		acc += c
		if target < acc {
			return d.bins[i]
		}
	}
	return d.bins[len(d.bins)-1]
}

type mapModel struct {
	histLens []int
	tables   []map[string]*refDist
	marginal refDist
}

func trainMap(trace []float64) *mapModel {
	m := &mapModel{histLens: defaultHistLens}
	m.tables = make([]map[string]*refDist, len(m.histLens))
	for i := range m.tables {
		m.tables[i] = make(map[string]*refDist)
	}
	q := make([]uint8, len(trace))
	for i, v := range trace {
		q[i] = quantize(v)
	}
	for i, bin := range q {
		m.marginal.add(bin)
		for li, hl := range m.histLens {
			if i < hl {
				continue
			}
			key := string(q[i-hl : i])
			d := m.tables[li][key]
			if d == nil {
				d = &refDist{}
				m.tables[li][key] = d
			}
			d.add(bin)
		}
	}
	return m
}

type mapSource struct {
	model *mapModel
	rng   *rand.Rand
	hist  []uint8
	last  float64
	// matched[li] counts steps matched at history level li;
	// matched[len(histLens)] counts marginal fallbacks.
	matched []int
}

func (m *mapModel) newSource(rng *rand.Rand) *mapSource {
	s := &mapSource{model: m, rng: rng, matched: make([]int, len(m.histLens)+1)}
	s.reseed()
	return s
}

func (s *mapSource) reseed() {
	maxHist := s.model.histLens[0]
	s.hist = s.hist[:0]
	for i := 0; i < maxHist; i++ {
		s.hist = append(s.hist, s.model.marginal.sample(s.rng))
	}
	s.last = dequantize(s.hist[len(s.hist)-1], s.rng)
}

func (s *mapSource) next() float64 {
	var bin uint8
	matched := false
	for li, hl := range s.model.histLens {
		if hl > len(s.hist) {
			continue
		}
		key := string(s.hist[len(s.hist)-hl:])
		if d, ok := s.model.tables[li][key]; ok {
			bin = d.sample(s.rng)
			matched = true
			s.matched[li]++
			break
		}
	}
	if !matched {
		bin = s.model.marginal.sample(s.rng)
		s.matched[len(s.model.histLens)]++
	}
	copy(s.hist, s.hist[1:])
	s.hist[len(s.hist)-1] = bin
	s.last = dequantize(bin, s.rng)
	return s.last
}

// packKey packs a string-keyed history the way the flat model keys it:
// newest bin in the low byte.
func packKey(key string) uint64 {
	var packed uint64
	for i := 0; i < len(key); i++ {
		packed = packed<<histShift | uint64(key[i])
	}
	return packed
}

// equivTraces are the training traces the flat model is pinned on: the
// scenario profile at several seeds and lengths (the short one leaves
// many length-8 histories unseen, so chains back off to shorter levels),
// the quiet-channel profile, and a crafted trace of four levels ending in
// a bin seen nowhere else: a chain that emits it has no history match at
// all, falls back to the marginal, and then matches at length 1 only.
func equivTraces() map[string][]float64 {
	rng := sim.NewRNG(13)
	crafted := make([]float64, 500)
	for i := range crafted {
		crafted[i] = []float64{-98, -90, -80, -70}[rng.IntN(4)]
	}
	crafted = append(crafted, -40)
	return map[string][]float64{
		"heavy-120k-s11": GenerateTrace(120000, 11),
		"heavy-60k-s2":   GenerateTrace(60000, 2),
		"heavy-3k-s5":    GenerateTrace(3000, 5),
		"quiet-60k-s7":   GenerateTraceProfile(60000, 7, QuietChannel()),
		"crafted-501":    crafted,
	}
}

// assertSlot checks one flat slot against a reference distribution: the
// same bins in insertion order, and cumulative counts equal to the
// reference's running sums.
func assertSlot(t *testing.T, m *Model, slot int32, rd *refDist, what string) {
	t.Helper()
	ts := m.trans[m.slotOff[slot]:m.slotOff[slot+1]]
	if len(ts) != len(rd.bins) {
		t.Fatalf("%s: flat slot has %d bins, reference %d", what, len(ts), len(rd.bins))
	}
	var acc uint32
	for i, tr := range ts {
		acc += rd.counts[i]
		if tr.bin() != rd.bins[i] || tr.cum != acc {
			t.Fatalf("%s: transition %d is bin %d cum %d, reference bin %d running sum %d",
				what, i, tr.bin(), tr.cum, rd.bins[i], acc)
		}
	}
}

// assertSamePatterns checks the flat index and layout against the map
// reference: each level holds exactly the reference's pattern set, its
// slots numbered in one block after the longer levels' blocks, each
// slot's key stored once, and every distribution (the marginal's too)
// equal bin for bin.
func assertSamePatterns(t *testing.T, name string, flat *Model, ref *mapModel) {
	t.Helper()
	if got, want := flat.Patterns(), len(ref.tables[0]); got != want {
		t.Fatalf("%s: Patterns() = %d, map reference has %d", name, got, want)
	}
	var first int32 // the level's first slot
	for li := range flat.histLens {
		n := len(ref.tables[li])
		if flat.tables[li].n != n {
			t.Fatalf("%s level %d: flat %d patterns, map %d", name, li, flat.tables[li].n, n)
		}
		for key, rd := range ref.tables[li] {
			slot := flat.tables[li].get(flat.keys, packKey(key))
			if slot < 0 {
				t.Fatalf("%s level %d: pattern %x missing from flat index", name, li, key)
			}
			if slot < first || slot >= first+int32(n) {
				t.Fatalf("%s level %d: pattern %x in slot %d, outside the level's slots [%d, %d)",
					name, li, key, slot, first, first+int32(n))
			}
			assertSlot(t, flat, slot, rd, name+" pattern "+fmt.Sprintf("%x", key))
		}
		first += int32(n)
	}
	if got := len(flat.slotOff) - 1; got != int(first)+1 {
		t.Fatalf("%s: flat layout has %d slots, reference %d patterns + marginal", name, got, first)
	}
	if len(flat.keys) != int(first) || flat.marginal != first {
		t.Fatalf("%s: %d keys and marginal slot %d, want one key per pattern (%d) and the marginal last",
			name, len(flat.keys), flat.marginal, first)
	}
	assertSlot(t, flat, flat.marginal, &ref.marginal, name+" marginal")
}

// assertSameStreams drives flat and reference sources from equal seeds
// through steps plain chain steps and then ReadAt catch-up gaps of every
// size up to past the reseed threshold, and requires bit-identical
// samples. matched accumulates the reference's back-off level counts.
func assertSameStreams(t *testing.T, name string, flat *Model, ref *mapModel, steps int, matched []int) {
	t.Helper()
	for _, seed := range []uint64{77, 3, 1 << 40} {
		fs := flat.NewSource(sim.NewRNG(seed))
		ms := ref.newSource(sim.NewRNG(seed))
		if fs.last != ms.last {
			t.Fatalf("%s seed %d: reseed value flat %v, map %v", name, seed, fs.last, ms.last)
		}
		for i := 0; i < steps; i++ {
			if fv, mv := fs.next(), ms.next(); fv != mv {
				t.Fatalf("%s seed %d step %d: flat %v, map %v", name, seed, i, fv, mv)
			}
		}
		// Drive ReadAt through catch-up gaps of every size up to
		// past the reseed threshold; mirror each gap on the
		// reference chain.
		now := fs.step
		for gap := int64(1); gap <= maxCatchUpSteps+3; gap++ {
			now += gap
			fv := fs.ReadAt(time.Duration(now) * SamplePeriodMS * time.Millisecond)
			var mv float64
			if gap > maxCatchUpSteps {
				ms.reseed()
				mv = ms.last
			} else {
				for i := int64(0); i < gap; i++ {
					mv = ms.next()
				}
			}
			if fv != mv {
				t.Fatalf("%s seed %d gap %d: flat %v, map %v", name, seed, gap, fv, mv)
			}
		}
		for i, c := range ms.matched {
			matched[i] += c
		}
	}
}

// TestDenseModelMatchesMapModel pins the flat model bit-for-bit against
// the map-based reference: the same pattern sets and distributions
// (bin order and cumulative counts), the same RNG consumption, and
// identical sample streams over several traces and source seeds, across
// the plain chain and every ReadAt catch-up and reseed gap.
func TestDenseModelMatchesMapModel(t *testing.T) {
	steps := 200000
	if testing.Short() {
		steps = 20000
	}
	matched := make([]int, len(defaultHistLens)+1)
	for name, trace := range equivTraces() {
		flat, ref := Train(trace), trainMap(trace)
		assertSamePatterns(t, name, flat, ref)
		assertSameStreams(t, name, flat, ref, steps, matched)
	}
	// The streams must have exercised every back-off level, or the
	// successor links and the probe fallback were not both compared.
	for i, c := range matched {
		if c == 0 {
			t.Fatalf("no step matched at back-off level %d (counts %v)", i, matched)
		}
	}
}

// freshResolve is a longest-first resolve of a packed history written
// out from the tables, independent of Model.resolve.
func freshResolve(m *Model, hist uint64) int32 {
	for li, hl := range m.histLens {
		if slot := m.tables[li].get(m.keys, hist&histMaskFor(hl)); slot >= 0 {
			return slot
		}
	}
	return m.marginal
}

// assertLinks checks every precomputed successor, reached through the
// longest-history index's buckets, against a fresh longest-first hash
// resolve of the shifted history; that longest-history slots are
// numbered first; and that only their transitions carry a successor.
func assertLinks(t *testing.T, name string, m *Model) {
	t.Helper()
	top := int32(m.tables[0].n)
	linked, indexed := 0, 0
	for _, slot := range m.tables[0].slots {
		if slot < 0 {
			continue
		}
		indexed++
		if slot >= top {
			t.Fatalf("%s: longest-history slot %d not numbered before the %d others", name, slot, top)
		}
		key := m.keys[slot]
		for _, tr := range m.trans[m.slotOff[slot]:m.slotOff[slot+1]] {
			if want := freshResolve(m, key<<histShift|uint64(tr.bin())); tr.next() != want {
				t.Fatalf("%s: pattern %016x bin %d links to slot %d, resolve gives %d",
					name, key, tr.bin(), tr.next(), want)
			}
			linked++
		}
	}
	if indexed != int(top) {
		t.Fatalf("%s: longest-history index holds %d slots, counts %d", name, indexed, top)
	}
	if want := int(m.slotOff[top]); linked != want {
		t.Fatalf("%s: checked %d links, longest-history slots hold %d transitions", name, linked, want)
	}
	for i, tr := range m.trans[m.slotOff[top]:] {
		if tr.next() != unknown {
			t.Fatalf("%s: shorter-history transition %d has successor %d, want unknown", name, i, tr.next())
		}
	}
}

// TestSuccessorLinksMatchResolve checks every precomputed successor
// against a fresh longest-first hash resolve of the shifted history,
// and that only longest-history slots carry one.
func TestSuccessorLinksMatchResolve(t *testing.T) {
	for name, trace := range equivTraces() {
		assertLinks(t, name, Train(trace))
	}
}

// slotLevel returns the history level whose slot block holds slot,
// len(histLens) for the marginal.
func slotLevel(m *Model, slot int32) int {
	for li := range m.tables {
		if slot < int32(m.tables[li].n) {
			return li
		}
		slot -= int32(m.tables[li].n)
	}
	return len(m.tables)
}

// TestSuccessorsReadOffTrace covers the trace ends of linkSuccessors,
// which reads each longest-history successor off the next trace
// position and resolves only the last one: traces too short for any
// longest-history pattern or with exactly one, a last history seen
// nowhere earlier (the last transition backs off to a shorter level or
// the marginal) and one that repeats earlier (it links to a
// longest-history slot). Each model must match the map reference and
// a fresh resolve.
func TestSuccessorsReadOffTrace(t *testing.T) {
	rng := sim.NewRNG(21)
	levels := []float64{-98, -90, -80, -70}
	random := func(n int) []float64 {
		tr := make([]float64, n)
		for i := range tr {
			tr[i] = levels[rng.IntN(len(levels))]
		}
		return tr
	}
	base := random(400)
	// A bin seen nowhere else, then a 4-window seen at the start: the
	// last 8-bin history is new, its last 4 bins are not.
	uniqueTail := append(append(slices.Clone(base), -40), base[:4]...)
	// A period-5 cycle: every 8-bin history recurs every 5 samples.
	cycle := make([]float64, 203)
	for i := range cycle {
		cycle[i] = levels[i%5%len(levels)] - float64(i%5)
	}
	cases := []struct {
		name  string
		trace []float64
		// lastLevel is the history level the last transition must link
		// to, -1 where the trace has no longest-history pattern.
		lastLevel int
	}{
		{"empty", nil, -1},
		{"len1", random(1), -1},
		{"len8", random(8), -1},
		{"len9", []float64{-98, -90, -80, -70, -98, -90, -80, -70, -98}, 1},
		{"unique-final-marginal", append(slices.Clone(base), -40), len(defaultHistLens)},
		{"unique-final-level4", uniqueTail, 1},
		{"repeated-final", cycle, 0},
	}
	matched := make([]int, len(defaultHistLens)+1)
	for _, tc := range cases {
		m, ref := Train(tc.trace), trainMap(tc.trace)
		assertSamePatterns(t, tc.name, m, ref)
		assertLinks(t, tc.name, m)
		assertSameStreams(t, tc.name, m, ref, 2000, matched)

		hl := m.histLens[0]
		if tc.lastLevel < 0 {
			if m.Patterns() != 0 {
				t.Fatalf("%s: %d longest-history patterns from %d samples", tc.name, m.Patterns(), len(tc.trace))
			}
			continue
		}
		n := len(tc.trace)
		var hist uint64
		for _, v := range tc.trace[n-1-hl : n-1] {
			hist = hist<<histShift | uint64(quantize(v))
		}
		slot := m.tables[0].get(m.keys, hist)
		if slot < 0 {
			t.Fatalf("%s: last longest-history window not indexed", tc.name)
		}
		bin := quantize(tc.trace[n-1])
		ts := m.trans[m.slotOff[slot]:m.slotOff[slot+1]]
		i := slices.IndexFunc(ts, func(tr transition) bool { return tr.bin() == bin })
		if i < 0 {
			t.Fatalf("%s: last transition (slot %d, bin %d) missing", tc.name, slot, bin)
		}
		if got := slotLevel(m, ts[i].next()); got != tc.lastLevel {
			t.Fatalf("%s: last transition links to slot %d at level %d, want level %d",
				tc.name, ts[i].next(), got, tc.lastLevel)
		}
	}
}

// TestSlotCountLimit pins the successor packing: the highest slot
// Train accepts and the unknown successor round-trip through a
// transition's link beside any bin, and Train's check rejects one slot
// more than the link can number. A trace that large (hours of samples)
// would take gigabytes to train, so the check is exercised directly.
func TestSlotCountLimit(t *testing.T) {
	for _, bin := range []uint8{0, 1, quantBins - 1, 255} {
		tr := newTransition(bin)
		if tr.next() != unknown || tr.bin() != bin {
			t.Fatalf("new transition for bin %d reads bin %d next %d", bin, tr.bin(), tr.next())
		}
		for _, slot := range []int32{0, 1, maxSlots - 1, unknown} {
			tr.setNext(slot)
			if tr.next() != slot || tr.bin() != bin {
				t.Fatalf("bin %d next %d reads back bin %d next %d", bin, slot, tr.bin(), tr.next())
			}
		}
	}
	if err := checkSlots(maxSlots); err != nil {
		t.Fatalf("%d slots rejected: %v", maxSlots, err)
	}
	if err := checkSlots(maxSlots + 1); err == nil {
		t.Fatalf("%d slots accepted, but the link field holds slots below %d only", maxSlots+1, maxSlots)
	}
}

// TestModelFootprint bounds the memory a trained model retains: the
// capacities of every slice it keeps, for the default 60k-sample
// training trace. The history-8 index and the transitions dominate.
func TestModelFootprint(t *testing.T) {
	m := Train(GenerateTrace(60000, 1^0x77))
	parts := []struct {
		name  string
		bytes uintptr
	}{
		{"model", unsafe.Sizeof(*m)},
		{"histLens", uintptr(cap(m.histLens)) * unsafe.Sizeof(m.histLens[0])},
		{"histMask", uintptr(cap(m.histMask)) * unsafe.Sizeof(m.histMask[0])},
		{"tables", uintptr(cap(m.tables)) * unsafe.Sizeof(m.tables[0])},
	}
	for li := range m.tables {
		parts = append(parts, struct {
			name  string
			bytes uintptr
		}{fmt.Sprintf("tables[%d].slots", li), uintptr(cap(m.tables[li].slots)) * unsafe.Sizeof(int32(0))})
	}
	parts = append(parts, []struct {
		name  string
		bytes uintptr
	}{
		{"keys", uintptr(cap(m.keys)) * unsafe.Sizeof(m.keys[0])},
		{"slotOff", uintptr(cap(m.slotOff)) * unsafe.Sizeof(m.slotOff[0])},
		{"trans", uintptr(cap(m.trans)) * unsafe.Sizeof(m.trans[0])},
	}...)
	var total uintptr
	split := ""
	for _, p := range parts {
		total += p.bytes
		split += fmt.Sprintf(" %s=%d", p.name, p.bytes)
	}
	const bound = 2_300_000
	msg := fmt.Sprintf("model retains %d B for %d slots (%d longest-history) and %d transitions:%s",
		total, len(m.slotOff)-1, m.Patterns(), len(m.trans), split)
	if total > bound {
		t.Fatalf("%s; want <= %d", msg, bound)
	}
	t.Log(msg)
}

// TestTrainAllocBound pins the flat build: a fixed set of 18 slices per
// model (the model's own, the quantized trace, the observation pairs and
// their sort, one scratch index and one key array), none per pattern and
// none for table growth.
func TestTrainAllocBound(t *testing.T) {
	trace := GenerateTrace(60000, 2)
	if allocs := testing.AllocsPerRun(3, func() { Train(trace) }); allocs > 18 {
		t.Fatalf("Train allocates %v times for a 60k-sample trace, want <= 18", allocs)
	}
}

// TestEmptyDistQuietFloor covers the empty-distribution fallback: a model
// trained on an empty trace has an empty marginal, whose draw must return
// the properly quantized quiet-floor bin (rounded and clamped via
// quantize, not raw float-to-uint8 arithmetic) without touching the RNG.
func TestEmptyDistQuietFloor(t *testing.T) {
	m := Train(nil)
	rng, twin := sim.NewRNG(1), sim.NewRNG(1)
	got, _ := m.draw(m.marginal, rng)
	want := quantize(quietFloorDBm)
	if got != want {
		t.Fatalf("empty marginal drew bin %d, want quantize(%v) = %d", got, quietFloorDBm, want)
	}
	if rng.Uint64() != twin.Uint64() {
		t.Fatal("drawing from an empty distribution consumed the RNG")
	}
	if dbm := dequantize(got, rng); dbm < quietFloorDBm-1 || dbm > quietFloorDBm+1 {
		t.Fatalf("empty dist bin dequantizes to %v, want ~%v", dbm, quietFloorDBm)
	}
	// Every sample must sit on the quiet floor and never panic.
	src := m.NewSource(sim.NewRNG(2))
	for i := 0; i < 10; i++ {
		v := src.next()
		if v < quietFloorDBm-1 || v > quietFloorDBm+1 {
			t.Fatalf("empty-model sample %v, want quiet floor ±1", v)
		}
	}
}

// TestSourceNextAllocFree is the alloc contract for the per-sample hot
// path: zero map lookups, zero string conversions and zero allocations
// per chain step.
func TestSourceNextAllocFree(t *testing.T) {
	m := Train(GenerateTrace(50000, 3))
	src := m.NewSource(sim.NewRNG(4))
	if allocs := testing.AllocsPerRun(1000, func() { src.next() }); allocs != 0 {
		t.Fatalf("Source.next allocates %v per step, want 0", allocs)
	}
	var tick int64
	src2 := m.NewSource(sim.NewRNG(5))
	if allocs := testing.AllocsPerRun(1000, func() {
		tick++
		src2.ReadAt(time.Duration(tick) * SamplePeriodMS * time.Millisecond)
	}); allocs != 0 {
		t.Fatalf("Source.ReadAt allocates %v per step, want 0", allocs)
	}
}

// TestSourceReadAtBoundaries pins the lazy catch-up contract: monotone
// reads, catch-up of exactly maxCatchUpSteps steps, and a reseed at
// maxCatchUpSteps+1.
func TestSourceReadAtBoundaries(t *testing.T) {
	trace := GenerateTrace(50000, 6)
	stepAt := func(i int64) time.Duration {
		return time.Duration(i) * SamplePeriodMS * time.Millisecond
	}

	// Monotone-time contract: same or earlier times return the current
	// value without advancing the chain (no RNG consumption).
	m := Train(trace)
	src := m.NewSource(sim.NewRNG(7))
	v := src.ReadAt(stepAt(10))
	if src.ReadAt(stepAt(10)) != v || src.ReadAt(stepAt(3)) != v || src.ReadAt(0) != v {
		t.Fatal("non-advancing ReadAt changed the value")
	}

	// A gap of exactly maxCatchUpSteps steps walks the chain; the result
	// must equal stepping one at a time on a twin source.
	walk := m.NewSource(sim.NewRNG(8))
	jump := m.NewSource(sim.NewRNG(8))
	walk.ReadAt(stepAt(1))
	jump.ReadAt(stepAt(1))
	var want float64
	for i := int64(2); i <= 1+maxCatchUpSteps; i++ {
		want = walk.ReadAt(stepAt(i))
	}
	if got := jump.ReadAt(stepAt(1 + maxCatchUpSteps)); got != want {
		t.Fatalf("catch-up of exactly %d steps = %v, stepwise = %v", maxCatchUpSteps, got, want)
	}

	// One step beyond the cap must reseed instead: the twin that walks
	// diverges from the twin that jumps, and the jump consumes exactly a
	// reseed's worth of RNG (histLens[0] marginal draws + 1 dequantize).
	jump2 := m.NewSource(sim.NewRNG(9))
	jump2.ReadAt(stepAt(1))
	// twin shares jump2's RNG state: after the same construction and
	// first read, refRNG sits exactly where jump2's stream does.
	refRNG := sim.NewRNG(9)
	twin := m.NewSource(refRNG)
	twin.ReadAt(stepAt(1))
	got := jump2.ReadAt(stepAt(2 + maxCatchUpSteps))
	// The jump crossed maxCatchUpSteps+1 steps: it must have reseeded,
	// consuming exactly histLens[0] marginal draws plus one dequantize.
	var bin uint8
	for i := 0; i < defaultHistLens[0]; i++ {
		bin, _ = m.draw(m.marginal, refRNG)
	}
	reseedWant := dequantize(bin, refRNG)
	if got != reseedWant {
		t.Fatalf("catch-up of %d steps = %v, want reseed result %v", maxCatchUpSteps+1, got, reseedWant)
	}
}
