package radio

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"teleadjust/internal/noise"
	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

// ---------------------------------------------------------------------------
// Dense matrix oracle
//
// A verbatim re-implementation of the historical dense construction: full
// n×n gain matrices and O(n²) neighbor scans. The sparse medium must
// reproduce its neighbor sets, gains, and ExpectedPRR exactly.
// ---------------------------------------------------------------------------

type denseOracle struct {
	params    Params
	gain      [][]float64
	neighbors [][]NodeID
}

func newDenseOracle(dep *topology.Deployment, params Params, seed uint64) *denseOracle {
	n := dep.Len()
	o := &denseOracle{params: params}
	o.gain = make([][]float64, n)
	for i := range o.gain {
		o.gain[i] = make([]float64, n)
	}
	switch params.GainModel {
	case GainSweep:
		// The historical sequential sweep: one shared stream, row-major.
		shadowRNG := sim.DeriveRNG(seed, 0xface)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				d := dep.Positions[i].Distance(dep.Positions[j])
				o.gain[i][j] = -params.PathLossDB(d) + shadowRNG.NormFloat64()*params.ShadowSigmaDB
			}
		}
	case GainPerLink:
		// All pairs, one derived stream each, clamped shadowing.
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				rng := sim.DeriveRNG(seed, linkStream(i, j))
				d := dep.Positions[i].Distance(dep.Positions[j])
				o.gain[i][j] = -params.PathLossDB(d) + clampSigma(rng.NormFloat64())*params.ShadowSigmaDB
			}
		}
	}
	o.neighbors = make([][]NodeID, n)
	fadeHeadroom := 1.6 * params.FadingSigmaDB
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if params.MaxTxPowerDBm+o.gain[i][j]+fadeHeadroom >= params.InterferenceFloorDBm {
				o.neighbors[i] = append(o.neighbors[i], NodeID(j))
			}
		}
	}
	return o
}

func (o *denseOracle) expectedPRR(from, to NodeID, txPowerDBm float64, sizeBytes int) float64 {
	rx := txPowerDBm + o.gain[from][to]
	if rx < o.params.SensitivityDBm {
		return 0
	}
	snr := dbmToMW(rx) / dbmToMW(quietFloorDBm)
	return prrFromSNR(snr, sizeBytes+o.params.PhyOverheadBytes)
}

// ---------------------------------------------------------------------------
// Randomized deployments
// ---------------------------------------------------------------------------

// clusterDeployment scatters n nodes in gaussian clusters around a few
// centers — the worst case for a uniform grid index (dense cells next to
// empty ones).
func clusterDeployment(n int, seed uint64) *topology.Deployment {
	rng := sim.NewRNG(seed)
	centers := []topology.Point{{X: 20, Y: 20}, {X: 95, Y: 30}, {X: 55, Y: 100}}
	pts := make([]topology.Point, n)
	for i := range pts {
		c := centers[rng.IntN(len(centers))]
		pts[i] = topology.Point{
			X: c.X + rng.NormFloat64()*12,
			Y: c.Y + rng.NormFloat64()*12,
		}
	}
	return &topology.Deployment{Name: "eq-cluster", Positions: pts, Sink: 0}
}

// jitteredLine spreads n nodes along a noisy line (boundary-heavy: every
// node sits near a cell edge of the index).
func jitteredLine(n int, seed uint64) *topology.Deployment {
	rng := sim.NewRNG(seed)
	pts := make([]topology.Point, n)
	for i := range pts {
		pts[i] = topology.Point{
			X: float64(i)*9 + rng.Float64()*4,
			Y: rng.NormFloat64() * 3,
		}
	}
	return &topology.Deployment{Name: "eq-line", Positions: pts, Sink: 0}
}

func equivalenceDeployments(seed uint64) []*topology.Deployment {
	return []*topology.Deployment{
		clusterDeployment(48, seed),
		topology.Grid("eq-grid", 7, 7, 90, 90, true, topology.Point{X: 45, Y: 45}, seed),
		jitteredLine(32, seed),
	}
}

func equivalenceParams() []Params {
	sweep := DefaultParams()
	perlink := DefaultParams()
	perlink.GainModel = GainPerLink
	perlinkFade := perlink
	perlinkFade.FadingSigmaDB = 1.5
	perlinkFade.FadingMinPeriod = 15 * time.Second
	perlinkFade.FadingMaxPeriod = 60 * time.Second
	sweepFade := sweep
	sweepFade.FadingSigmaDB = 1.5
	sweepFade.FadingMinPeriod = 15 * time.Second
	sweepFade.FadingMaxPeriod = 60 * time.Second
	return []Params{sweep, perlink, sweepFade, perlinkFade}
}

// TestSparseMatchesDenseOracle is the equivalence property test: over
// randomized cluster, grid-with-jitter, and linear deployments, the
// sparse medium must reproduce the dense oracle's neighbor sets, stored
// gains, and ExpectedPRR for every ordered pair, under both gain models.
func TestSparseMatchesDenseOracle(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		for _, dep := range equivalenceDeployments(seed) {
			for pi, params := range equivalenceParams() {
				name := fmt.Sprintf("%s/params%d/seed%d", dep.Name, pi, seed)
				m, err := NewMedium(sim.NewEngine(), dep, nil, params, seed)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				oracle := newDenseOracle(dep, params, seed)
				n := dep.Len()
				floorGain := params.linkFloorGainDB()
				for i := 0; i < n; i++ {
					id := NodeID(i)
					got := m.neighborIDs(id)
					want := oracle.neighbors[i]
					if len(got) != len(want) {
						t.Fatalf("%s: node %d has %d neighbors, oracle %d", name, i, len(got), len(want))
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("%s: node %d neighbor[%d] = %d, oracle %d", name, i, k, got[k], want[k])
						}
					}
					dsts, gains := m.storedLinks(id)
					stored := make(map[NodeID]float64, len(dsts))
					for k, dst := range dsts {
						if gains[k] != oracle.gain[i][dst] {
							t.Fatalf("%s: gain(%d→%d) = %v, oracle %v", name, i, dst, gains[k], oracle.gain[i][dst])
						}
						stored[dst] = gains[k]
					}
					for j := 0; j < n; j++ {
						if j == i {
							continue
						}
						jd := NodeID(j)
						if _, ok := stored[jd]; !ok && oracle.gain[i][j] >= floorGain {
							t.Fatalf("%s: link %d→%d above tracking floor (%.1f ≥ %.1f) but not stored",
								name, i, j, oracle.gain[i][j], floorGain)
						}
						if g := m.GainDB(id, jd); !math.IsInf(g, -1) && g != oracle.gain[i][j] {
							t.Fatalf("%s: GainDB(%d,%d) = %v, oracle %v", name, i, j, g, oracle.gain[i][j])
						}
						for _, power := range []float64{params.MaxTxPowerDBm, params.MaxTxPowerDBm - 5} {
							got := m.ExpectedPRR(id, jd, power, 32)
							want := oracle.expectedPRR(id, jd, power, 32)
							if got != want {
								t.Fatalf("%s: ExpectedPRR(%d,%d,%v) = %v, oracle %v", name, i, j, power, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// scriptedTraces builds the medium with build, runs a fixed transmission
// script over it, and returns the rendered medium trace stream.
func scriptedTraces(t *testing.T, dep *topology.Deployment, params Params, seed uint64,
	build func(*sim.Engine, *topology.Deployment, *noise.Model, Params, uint64) (*Medium, error)) []string {
	t.Helper()
	eng := sim.NewEngine()
	m, err := build(eng, dep, nil, params, seed)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	m.SetTraceFn(func(e TraceEvent) {
		out = append(out, fmt.Sprintf("%v %s node=%d src=%d dst=%d seq=%d sinr=%.1fdB",
			e.At, e.Kind, e.Node, e.Frame.Src, e.Frame.Dst, e.Frame.Seq, e.SINRdB))
	})
	n := m.NumNodes()
	for i := 0; i < n; i++ {
		m.Radio(NodeID(i)).SetOn(true)
	}
	// Staggered broadcasts from every node, with deliberate collisions
	// every 7th slot (two transmitters in the same slot).
	for step := 0; step < 3*n; step++ {
		src := NodeID(step % n)
		at := time.Duration(step) * 7 * time.Millisecond
		f := &Frame{Kind: FrameData, Src: src, Dst: BroadcastID, Seq: uint32(step), Size: 30}
		eng.Schedule(at, func() { _ = m.Radio(src).Transmit(f, params.MaxTxPowerDBm) })
		if step%7 == 3 {
			other := NodeID((step + n/2) % n)
			f2 := &Frame{Kind: FrameData, Src: other, Dst: BroadcastID, Seq: uint32(step), Size: 30}
			eng.Schedule(at, func() { _ = m.Radio(other).Transmit(f2, params.MaxTxPowerDBm) })
		}
	}
	if err := eng.Run(time.Duration(3*n+10) * 7 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestSparseTraceMatchesDenseRun drives the same scripted transmission
// schedule over the sparse medium and the dense all-pairs oracle medium
// and asserts the full TraceEvent streams match byte-for-byte: identical
// neighbor order means identical jitter/PRR RNG consumption, so any
// divergence in the link table shows up as a diverging stream.
func TestSparseTraceMatchesDenseRun(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, dep := range equivalenceDeployments(seed) {
			for pi, params := range equivalenceParams() {
				name := fmt.Sprintf("%s/params%d/seed%d", dep.Name, pi, seed)
				sparse := scriptedTraces(t, dep, params, seed, NewMedium)
				dense := scriptedTraces(t, dep, params, seed, newDenseMedium)
				if len(sparse) == 0 {
					t.Fatalf("%s: scripted run produced no trace events", name)
				}
				if len(sparse) != len(dense) {
					t.Fatalf("%s: %d sparse events vs %d dense", name, len(sparse), len(dense))
				}
				for k := range sparse {
					if sparse[k] != dense[k] {
						t.Fatalf("%s: trace diverges at event %d:\nsparse: %s\ndense:  %s",
							name, k, sparse[k], dense[k])
					}
				}
			}
		}
	}
}

// grid1kParams is the large-field calibration (matches the grid1k
// scenario): refgrid's high-gain radio with the per-link gain model and
// a slightly raised interference floor to keep audible neighborhoods at
// ~60 m.
func grid1kParams() Params {
	params := DefaultParams()
	params.RefLossDB = 35
	params.InterferenceFloorDBm = -106
	params.GainModel = GainPerLink
	return params
}

func grid1kDeployment(seed uint64) *topology.Deployment {
	return topology.Grid("grid-1k", 32, 32, 420, 420, true, topology.Point{X: 210, Y: 210}, seed)
}

// TestLinkOffsetStoreIsPerLink is the fault-injection allocation
// regression: on a 1024-node field the first injected link fault must
// allocate O(links) — not an n×n matrix — and subsequent injections must
// not allocate at all.
func TestLinkOffsetStoreIsPerLink(t *testing.T) {
	m, err := NewMedium(sim.NewEngine(), grid1kDeployment(1), nil, grid1kParams(), 1)
	if err != nil {
		t.Fatal(err)
	}
	n, links := m.NumNodes(), m.NumLinks()
	if n != 1024 {
		t.Fatalf("deployment has %d nodes, want 1024", n)
	}
	if links >= n*(n-1)/4 {
		t.Fatalf("link table not sparse: %d links for %d nodes", links, n)
	}
	if got := m.numOffsetSlots(); got != 0 {
		t.Fatalf("offset store allocated before any injection: %d slots", got)
	}
	// Adjacent grid nodes are guaranteed within range: the first
	// injection allocates exactly one slot per indexed link.
	m.AddLinkOffsetDB(0, 1, -30)
	if got := m.numOffsetSlots(); got != links {
		t.Fatalf("offset store has %d slots, want NumLinks = %d", got, links)
	}
	if got := m.LinkOffsetDB(0, 1); got != -30 {
		t.Fatalf("LinkOffsetDB(0,1) = %v, want -30", got)
	}
	if avg := testing.AllocsPerRun(100, func() { m.AddLinkOffsetDB(5, 6, -1) }); avg != 0 {
		t.Fatalf("warm link-fault injection allocates %.1f objects per run, want 0", avg)
	}
	// A pair across the full 420 m field is unindexed: the offset is
	// readable but must not grow the per-link store.
	far := NodeID(n - 1)
	m.AddLinkOffsetDB(0, far, -7)
	if got := m.LinkOffsetDB(0, far); got != -7 {
		t.Fatalf("unindexed LinkOffsetDB = %v, want -7", got)
	}
	if got := m.numOffsetSlots(); got != links {
		t.Fatalf("unindexed injection grew the offset store to %d slots", got)
	}
}

// TestGrid1kMediumSparse pins the scaling contract of the per-link
// model: a 1024-node field builds a link table that is a small fraction
// of n², every node keeps a usable audible neighborhood, and unit-disc
// truth (nodes within the deterministic radio range) is fully linked.
func TestGrid1kMediumSparse(t *testing.T) {
	dep := grid1kDeployment(2)
	m, err := NewMedium(sim.NewEngine(), dep, nil, grid1kParams(), 2)
	if err != nil {
		t.Fatal(err)
	}
	n := m.NumNodes()
	avgDeg := float64(m.NumLinks()) / float64(n)
	if avgDeg < 10 || avgDeg > 200 {
		t.Fatalf("average degree %.1f outside the calibrated range", avgDeg)
	}
	// Spot-check reciprocity of storage against brute-force geometry for
	// a handful of nodes: every pair within 30 m (strong deterministic
	// link at RefLoss 35) must be stored.
	for _, i := range []int{0, 511, 1023} {
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			if dep.Positions[i].Distance(dep.Positions[j]) < 30 {
				if math.IsInf(m.GainDB(NodeID(i), NodeID(j)), -1) {
					t.Fatalf("close pair %d→%d (%.1fm) missing from link table",
						i, j, dep.Positions[i].Distance(dep.Positions[j]))
				}
			}
		}
	}
}

// TestReseedPCGMatchesDeriveRNG pins the allocation-free per-link stream
// derivation to DeriveRNG's output.
func TestReseedPCGMatchesDeriveRNG(t *testing.T) {
	pcg := rand.NewPCG(0, 0)
	shared := rand.New(pcg)
	for stream := uint64(0); stream < 50; stream++ {
		sim.ReseedPCG(pcg, 42, linkStream(3, int(stream)))
		fresh := sim.DeriveRNG(42, linkStream(3, int(stream)))
		for d := 0; d < 4; d++ {
			if a, b := shared.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("stream %d draw %d: ReseedPCG %#x vs DeriveRNG %#x", stream, d, a, b)
			}
		}
	}
}
