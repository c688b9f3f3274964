// Package workload generates deterministic streams of control operations
// against the sink command plane. Two loop disciplines are provided:
//
//   - NewClosedLoop keeps a fixed number of operations outstanding and
//     submits a replacement the moment one completes, measuring the
//     pipeline's sustainable service rate.
//   - NewOpenLoop submits on a Poisson arrival process at a configured
//     offered rate regardless of completions, exposing queueing collapse
//     once the offered load exceeds capacity.
//
// Destination choice is factored into Dist so the same loop discipline
// can sweep uniform, hotspot-subtree, and depth-weighted target mixes.
// All randomness flows through sim.RNG streams derived from the run
// seed, so a workload replays byte-identically under serial and
// parallel replication.
package workload

import (
	"fmt"
	"math/rand/v2"
	"time"

	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
)

// Submitter is the slice of the sink scheduler a generator needs; it is
// satisfied by *sink.Scheduler.
type Submitter interface {
	Submit(dst radio.NodeID, app any, done func(sink.Outcome)) (uint32, error)
}

// Dist picks the destination of the next operation.
type Dist interface {
	// Pick returns the next destination, drawing randomness only from rng.
	Pick(rng *rand.Rand) radio.NodeID
	// Name identifies the distribution in reports and CSV headers.
	Name() string
}

// uniformDist spreads operations evenly over the destination set.
type uniformDist struct{ nodes []radio.NodeID }

// Uniform returns a distribution choosing uniformly among nodes. It
// panics on an empty node set; the caller owns filtering to reachable
// destinations.
func Uniform(nodes []radio.NodeID) Dist {
	if len(nodes) == 0 {
		panic("workload: Uniform with no destinations")
	}
	return &uniformDist{nodes: append([]radio.NodeID(nil), nodes...)}
}

func (d *uniformDist) Pick(rng *rand.Rand) radio.NodeID {
	return d.nodes[rng.IntN(len(d.nodes))]
}

func (d *uniformDist) Name() string { return "uniform" }

// weightedDist draws destinations proportionally to per-node weights.
type weightedDist struct {
	name    string
	nodes   []radio.NodeID
	cum     []float64
	totalWt float64
}

func newWeighted(name string, nodes []radio.NodeID, weight func(radio.NodeID) float64) Dist {
	if len(nodes) == 0 {
		panic(fmt.Sprintf("workload: %s with no destinations", name))
	}
	d := &weightedDist{name: name, nodes: append([]radio.NodeID(nil), nodes...)}
	d.cum = make([]float64, len(d.nodes))
	for i, id := range d.nodes {
		w := weight(id)
		if w < 0 {
			w = 0
		}
		d.totalWt += w
		d.cum[i] = d.totalWt
	}
	if d.totalWt <= 0 {
		// Degenerate weights: fall back to uniform mass.
		for i := range d.cum {
			d.cum[i] = float64(i + 1)
		}
		d.totalWt = float64(len(d.cum))
	}
	return d
}

func (d *weightedDist) Pick(rng *rand.Rand) radio.NodeID {
	x := rng.Float64() * d.totalWt
	lo, hi := 0, len(d.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.cum[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d.nodes[lo]
}

func (d *weightedDist) Name() string { return d.name }

// DepthWeighted biases operation targets toward deep nodes: each node's
// weight is max(depth(id), 1) hops, so far-from-sink destinations — the
// expensive ones for the control plane — see proportionally more traffic.
func DepthWeighted(nodes []radio.NodeID, depth func(radio.NodeID) int) Dist {
	return newWeighted("depth", nodes, func(id radio.NodeID) float64 {
		d := depth(id)
		if d < 1 {
			d = 1
		}
		return float64(d)
	})
}

// Hotspot concentrates a bias fraction of operations on the hot subset
// and spreads the remainder uniformly over all nodes. Bias is clamped to
// [0, 1]; an empty hot set degenerates to uniform.
func Hotspot(nodes, hot []radio.NodeID, bias float64) Dist {
	if bias < 0 {
		bias = 0
	}
	if bias > 1 {
		bias = 1
	}
	if len(hot) == 0 {
		bias = 0
	}
	hotSet := make(map[radio.NodeID]bool, len(hot))
	for _, id := range hot {
		hotSet[id] = true
	}
	extra := bias / (1 - bias + 1e-12) * float64(len(nodes)) / float64(max(len(hot), 1))
	return newWeighted("hotspot", nodes, func(id radio.NodeID) float64 {
		if hotSet[id] {
			return 1 + extra
		}
		return 1
	})
}

// Generator is the common surface of both loop disciplines.
type Generator interface {
	// Start submits the initial operations; completions drive the rest.
	Start()
	// Done reports whether every planned operation has resolved.
	Done() bool
	// Outcomes returns the resolved operations in completion order.
	Outcomes() []sink.Outcome
	// FinishedAt returns the sim time the last operation resolved (valid
	// once Done).
	FinishedAt() time.Duration
}

// loop is both disciplines: a closed loop (concurrency > 0) submits the
// next operation as each one resolves, an open loop (rate > 0) on a
// Poisson clock. They share the submit-and-record path.
type loop struct {
	eng         *sim.Engine
	sub         Submitter
	dist        Dist
	rng         *rand.Rand
	concurrency int
	rate        float64
	total       int

	submitted int
	outcomes  []sink.Outcome
	finished  time.Duration
	// done is record bound once, so a submit allocates no callback.
	done func(sink.Outcome)
}

func newLoop(eng *sim.Engine, sub Submitter, dist Dist, rng *rand.Rand, total int) *loop {
	g := &loop{eng: eng, sub: sub, dist: dist, rng: rng, total: max(total, 0)}
	g.done = g.record
	return g
}

// NewClosedLoop builds a closed-loop generator: it keeps concurrency
// (clamped to ≥ 1) operations in flight until total have resolved, so
// the loop self-clocks to the command plane's service rate.
func NewClosedLoop(eng *sim.Engine, sub Submitter, dist Dist, rng *rand.Rand, concurrency, total int) Generator {
	g := newLoop(eng, sub, dist, rng, total)
	g.concurrency = max(concurrency, 1)
	return g
}

// NewOpenLoop builds an open-loop generator offering rate operations per
// second (must be > 0) on a Poisson process, independent of completions,
// until total have been submitted.
func NewOpenLoop(eng *sim.Engine, sub Submitter, dist Dist, rng *rand.Rand, rate float64, total int) Generator {
	if rate <= 0 {
		panic("workload: open-loop rate must be positive")
	}
	g := newLoop(eng, sub, dist, rng, total)
	g.rate = rate
	return g
}

func (g *loop) Start() {
	if g.concurrency > 0 {
		for range min(g.concurrency, g.total) {
			g.submit()
		}
		return
	}
	if g.total > 0 {
		g.eng.Schedule(g.interArrival(), g.tick)
	}
}

// interArrival draws the next exponential gap, floored at 1 ms so the
// event queue cannot be flooded by pathological draws.
func (g *loop) interArrival() time.Duration {
	gap := time.Duration(g.rng.ExpFloat64() / g.rate * float64(time.Second))
	if gap < time.Millisecond {
		gap = time.Millisecond
	}
	return gap
}

// tick is one open-loop arrival.
func (g *loop) tick() {
	g.submit()
	if g.submitted < g.total {
		g.eng.Schedule(g.interArrival(), g.tick)
	}
}

func (g *loop) submit() {
	if g.submitted >= g.total {
		return
	}
	seq := g.submitted
	g.submitted++
	dst := g.dist.Pick(g.rng)
	if _, err := g.sub.Submit(dst, fmt.Sprintf("op-%d", seq), g.done); err != nil {
		// Rejected at submit (queue full): record a synthetic failure; a
		// closed loop keeps its width by moving on to the next operation.
		now := g.eng.Now()
		g.record(sink.Outcome{Dst: dst, Err: err, EnqueuedAt: now, DoneAt: now})
	}
}

// record resolves one operation; in a closed loop it frees a slot for
// the next.
func (g *loop) record(o sink.Outcome) {
	g.outcomes = append(g.outcomes, o)
	g.finished = g.eng.Now()
	if g.concurrency > 0 {
		g.submit()
	}
}

func (g *loop) Done() bool                { return len(g.outcomes) >= g.total }
func (g *loop) Outcomes() []sink.Outcome  { return g.outcomes }
func (g *loop) FinishedAt() time.Duration { return g.finished }
