// Package linkest is the per-link estimate of a CTP-style hybrid link
// estimator: inbound quality from routing-beacon sequence gaps (broadcast
// reception ratio), outbound quality from unicast acknowledgement
// outcomes, combined into a bidirectional ETX metric with EWMA smoothing —
// the same structure as TinyOS's 4-bit link estimator. The table of links
// (admission, staleness, eviction) belongs to the routing protocol: CTP
// keeps one Link in each entry of its neighbour table.
package linkest

import "math"

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

// UnknownETX is returned for links without an estimate.
const UnknownETX = math.MaxFloat64

// Link is the estimate of one link. The zero value is a link nothing has
// been heard on yet.
type Link struct {
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
}

// OnBeacon records reception of a beacon carrying the neighbor's beacon
// sequence number.
func (l *Link) OnBeacon(seq uint32) {
	if l.haveSeq {
		gap := seq - l.lastSeq
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
			l.missed += missed
		}
	}
	l.haveSeq = true
	l.lastSeq = seq
	l.rcvd++
	if l.rcvd+l.missed >= beaconWindow {
		ratio := float64(l.rcvd) / float64(l.rcvd+l.missed)
		l.inQuality = fold(l.inQuality, ratio, l.haveIn)
		l.haveIn = true
		l.rcvd, l.missed = 0, 0
	}
}

// OnDataOutcome records the result of a unicast attempt on the link
// (acked or not after the full LPL round).
func (l *Link) OnDataOutcome(acked bool) {
	l.attempts++
	if acked {
		l.acked++
	}
	if l.attempts >= dataWindow {
		ratio := float64(l.acked) / float64(l.attempts)
		l.outQuality = fold(l.outQuality, ratio, l.haveOut)
		// Floor the outbound estimate: a failure streak (congestion, a
		// neighbor's long broadcast stream) must leave the link retryable,
		// or the estimate can never observe a success again.
		const outFloor = 0.1
		if l.outQuality < outFloor {
			l.outQuality = outFloor
		}
		l.haveOut = true
		l.acked, l.attempts = 0, 0
	}
}

func fold(old, sample float64, have bool) float64 {
	if !have {
		return sample
	}
	return alpha*old + (1-alpha)*sample
}

// inQualityOf returns the inbound estimate, using a provisional
// within-window ratio once two beacons have been received — a fresh link
// becomes usable for routing before a full window accumulates (TinyOS's
// estimator similarly seeds from the first receptions), which is what lets
// a construction frontier advance at beacon pace.
func (l *Link) inQualityOf() (float64, bool) {
	if l.haveIn {
		return l.inQuality, true
	}
	if l.rcvd >= 2 {
		return float64(l.rcvd) / float64(l.rcvd+l.missed), true
	}
	return 0, false
}

// Rank orders links for eviction from a full table, lowest first: the
// smoothed inbound quality once a beacon window has folded in, and 0.01
// before that, so barely-known links are the cheapest to drop.
func (l *Link) Rank() float64 {
	if !l.haveIn {
		return 0.01
	}
	return l.inQuality
}

// ETX returns the expected transmissions for one successful bidirectional
// exchange on the link: 1/(p_in · p_out). Links without an estimate
// return UnknownETX. Without data-plane feedback the outbound estimate
// defaults to the inbound one.
func (l *Link) ETX() float64 {
	in, have := l.inQualityOf()
	if !have {
		return UnknownETX
	}
	out := l.outQuality
	if !l.haveOut {
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
