package radio

import (
	"teleadjust/internal/noise"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// newDenseMedium builds a medium with every directed pair in the link
// table — the all-pairs dense construction, kept behind this test-only
// path as the oracle for sparse/dense equivalence tests. Under GainSweep
// storage does not consume RNG, and under GainPerLink every pair's
// stream is independent, so a dense medium behaves identically to the
// sparse one wherever the sparse one stored the link.
func newDenseMedium(eng *sim.Engine, dep *topology.Deployment, model *noise.Model, params Params, seed uint64) (*Medium, error) {
	return newMedium(eng, dep, model, params, seed, true)
}

// numOffsetSlots exposes the per-link offset store's size (0 until the
// first injection) for the O(links) allocation regression test.
func (m *Medium) numOffsetSlots() int { return len(m.linkOffset) }

// neighborIDs returns the audible neighbor list of id in notify order.
func (m *Medium) neighborIDs(id NodeID) []NodeID {
	var out []NodeID
	for k := m.linkStart[id]; k < m.linkStart[id+1]; k++ {
		if m.notified(k) {
			out = append(out, m.linkDst[k])
		}
	}
	return out
}

// storedLinks returns the (dst, gain) pairs of id's CSR row.
func (m *Medium) storedLinks(id NodeID) (dsts []NodeID, gains []float64) {
	for k := m.linkStart[id]; k < m.linkStart[id+1]; k++ {
		dsts = append(dsts, m.linkDst[k])
		gains = append(gains, m.linkGain[k])
	}
	return dsts, gains
}

// NextJitterDraw takes the next value of the medium's jitter stream, so
// tests outside the package can check two runs left it at the same draw.
func (m *Medium) NextJitterDraw() float64 { return m.jitterRNG.Float64() }

// NextRxDraw takes the next value of the radio's reception stream, so
// tests outside the package can check two runs left it at the same draw.
func (r *Radio) NextRxDraw() float64 { return r.rng.Float64() }
