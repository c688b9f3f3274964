// Package linkest implements a CTP-style hybrid link estimator: inbound
// quality from routing-beacon sequence gaps (broadcast reception ratio),
// outbound quality from unicast acknowledgement outcomes, combined into a
// bidirectional ETX metric with EWMA smoothing — the same structure as
// TinyOS's 4-bit link estimator.
package linkest

import (
	"math"
	"time"

	"teleadjust/internal/radio"
)

// Fixed TinyOS estimator windows and EWMA weight.
const (
	// beaconWindow is how many beacon observations fold into one EWMA
	// update of inbound quality.
	beaconWindow = 8
	// dataWindow is how many unicast attempts fold into one EWMA update
	// of outbound quality.
	dataWindow = 5
	// alpha is the EWMA weight of history (0..1).
	alpha float64 = 0.8
)

// Config holds estimator parameters.
type Config struct {
	// MaxEntries caps the neighbor table.
	MaxEntries int
	// StaleAfter evicts neighbors not heard for this long.
	StaleAfter time.Duration
}

// DefaultConfig mirrors TinyOS defaults.
func DefaultConfig() Config {
	return Config{
		MaxEntries: 32,
		StaleAfter: 10 * time.Minute,
	}
}

// UnknownETX is returned for neighbors without an estimate.
const UnknownETX = math.MaxFloat64

type entry struct {
	inQuality  float64 // EWMA beacon reception ratio
	outQuality float64 // EWMA ack success ratio
	haveIn     bool
	haveOut    bool

	lastSeq  uint32
	haveSeq  bool
	rcvd     int
	missed   int
	acked    int
	attempts int

	lastHeard time.Duration
}

// Estimator tracks link quality to each neighbor of one node.
type Estimator struct {
	cfg   Config
	table map[radio.NodeID]*entry
}

// New creates an estimator.
func New(cfg Config) *Estimator {
	if cfg.MaxEntries <= 0 {
		panic("linkest: invalid config")
	}
	return &Estimator{cfg: cfg, table: make(map[radio.NodeID]*entry)}
}

// OnBeacon records reception of a beacon from a neighbor carrying the
// neighbor's beacon sequence number.
func (e *Estimator) OnBeacon(from radio.NodeID, seq uint32, now time.Duration) {
	en := e.get(from, now)
	if en == nil {
		return
	}
	en.lastHeard = now
	if en.haveSeq {
		gap := seq - en.lastSeq
		if gap == 0 {
			return // duplicate
		}
		// gap-1 beacons were missed (modular arithmetic handles wrap).
		// The miss penalty is capped at one window so a single congested
		// episode cannot poison the estimate beyond one quality sample.
		if gap < 64 {
			missed := int(gap) - 1
			if missed > beaconWindow {
				missed = beaconWindow
			}
			en.missed += missed
		}
	}
	en.haveSeq = true
	en.lastSeq = seq
	en.rcvd++
	if en.rcvd+en.missed >= beaconWindow {
		ratio := float64(en.rcvd) / float64(en.rcvd+en.missed)
		en.inQuality = e.fold(en.inQuality, ratio, en.haveIn)
		en.haveIn = true
		en.rcvd, en.missed = 0, 0
	}
}

// OnDataOutcome records the result of a unicast attempt to a neighbor
// (acked or not after the full LPL round).
func (e *Estimator) OnDataOutcome(to radio.NodeID, acked bool, now time.Duration) {
	en := e.get(to, now)
	if en == nil {
		return
	}
	en.attempts++
	if acked {
		en.acked++
		en.lastHeard = now
	}
	if en.attempts >= dataWindow {
		ratio := float64(en.acked) / float64(en.attempts)
		en.outQuality = e.fold(en.outQuality, ratio, en.haveOut)
		// Floor the outbound estimate: a failure streak (congestion, a
		// neighbor's long broadcast stream) must leave the link retryable,
		// or the estimate can never observe a success again.
		const outFloor = 0.1
		if en.outQuality < outFloor {
			en.outQuality = outFloor
		}
		en.haveOut = true
		en.acked, en.attempts = 0, 0
	}
}

func (e *Estimator) fold(old, sample float64, have bool) float64 {
	if !have {
		return sample
	}
	return alpha*old + (1-alpha)*sample
}

// get returns (possibly inserting) the entry for a neighbor, evicting the
// worst entry when the table is full.
func (e *Estimator) get(id radio.NodeID, now time.Duration) *entry {
	if en, ok := e.table[id]; ok {
		return en
	}
	if len(e.table) >= e.cfg.MaxEntries {
		e.evict(now)
		if len(e.table) >= e.cfg.MaxEntries {
			return nil
		}
	}
	en := &entry{lastHeard: now}
	e.table[id] = en
	return en
}

// evict removes stale entries, then the lowest-quality entry if needed.
func (e *Estimator) evict(now time.Duration) {
	for id, en := range e.table {
		if now-en.lastHeard > e.cfg.StaleAfter {
			delete(e.table, id)
		}
	}
	if len(e.table) < e.cfg.MaxEntries {
		return
	}
	var worst radio.NodeID
	worstQ := math.Inf(1)
	for id, en := range e.table {
		q := en.inQuality
		if !en.haveIn {
			q = 0.01 // barely-known entries are cheapest to drop
		}
		// Ties broken by id: eviction must not depend on map iteration
		// order, or dense networks lose run-to-run reproducibility.
		if q < worstQ || (q == worstQ && id < worst) {
			worstQ = q
			worst = id
		}
	}
	delete(e.table, worst)
}

// inQualityOf returns the inbound estimate, using a provisional
// within-window ratio once two beacons have been received — a fresh link
// becomes usable for routing before a full window accumulates (TinyOS's
// estimator similarly seeds from the first receptions), which is what lets
// a construction frontier advance at beacon pace.
func (e *Estimator) inQualityOf(en *entry) (float64, bool) {
	if en.haveIn {
		return en.inQuality, true
	}
	if en.rcvd >= 2 {
		return float64(en.rcvd) / float64(en.rcvd+en.missed), true
	}
	return 0, false
}

// InQuality returns the inbound (beacon) reception ratio estimate, or 0
// when unknown.
func (e *Estimator) InQuality(id radio.NodeID) float64 {
	en, ok := e.table[id]
	if !ok {
		return 0
	}
	q, have := e.inQualityOf(en)
	if !have {
		return 0
	}
	return q
}

// ETX returns the expected transmissions for one successful bidirectional
// exchange with the neighbor: 1/(p_in · p_out). Unknown links return
// UnknownETX. Without data-plane feedback the outbound estimate defaults
// to the inbound one.
func (e *Estimator) ETX(id radio.NodeID) float64 {
	en, ok := e.table[id]
	if !ok {
		return UnknownETX
	}
	return e.etxOf(en)
}

// etxOf computes ETX for a table entry.
func (e *Estimator) etxOf(en *entry) float64 {
	in, have := e.inQualityOf(en)
	if !have {
		return UnknownETX
	}
	out := en.outQuality
	if !en.haveOut {
		out = in
	}
	if in <= 0 || out <= 0 {
		return UnknownETX
	}
	etx := 1 / (in * out)
	if etx > 100 {
		return UnknownETX
	}
	return etx
}

// Each calls fn for every neighbor with a usable estimate, with its ETX,
// in no particular order. fn must not modify the estimator.
func (e *Estimator) Each(fn func(id radio.NodeID, etx float64)) {
	for id, en := range e.table {
		if etx := e.etxOf(en); etx != UnknownETX {
			fn(id, etx)
		}
	}
}

// Known reports whether the neighbor is in the table at all.
func (e *Estimator) Known(id radio.NodeID) bool {
	_, ok := e.table[id]
	return ok
}

// Forget removes a neighbor (used when a link is declared dead).
func (e *Estimator) Forget(id radio.NodeID) { delete(e.table, id) }

// Len returns the neighbor table size.
func (e *Estimator) Len() int { return len(e.table) }
