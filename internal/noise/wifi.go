package noise

import (
	"math/rand/v2"
	"time"
)

// WifiInterferer models co-channel 802.11 interference as an on/off burst
// process: when a WiFi transmitter is active it elevates the interference
// power seen by every sensor node (WiFi cells are large compared to the
// testbed). This reproduces the paper's "interfered by WIFI (channel 19)"
// condition, where ZigBee channel 19 overlaps a busy WiFi channel.
//
// The schedule is generated lazily and queried at monotonically
// non-decreasing times, which matches how the radio medium samples it.
type WifiInterferer struct {
	rng *rand.Rand

	// PowerDBm is the interference power while a burst is on.
	PowerDBm float64

	segEnd time.Duration
	on     bool

	// Burst shape parameters.
	meanOn      time.Duration
	meanOff     time.Duration
	activeFrac  float64       // fraction of time the WiFi network has traffic at all
	activePhase time.Duration // length of each activity-decision epoch
	epochEnd    time.Duration
	epochActive bool
}

// NewWifiInterferer creates an interferer modelling a busy WiFi network
// overlapping the ZigBee channel: ~3 ms frame bursts separated by ~6 ms
// gaps during active epochs of 250 ms, with roughly 55% of epochs active
// (≈18% of airtime occupied overall).
func NewWifiInterferer(rng *rand.Rand, powerDBm float64) *WifiInterferer {
	return &WifiInterferer{
		rng:         rng,
		PowerDBm:    powerDBm,
		meanOn:      3 * time.Millisecond,
		meanOff:     6 * time.Millisecond,
		activeFrac:  0.55,
		activePhase: 250 * time.Millisecond,
	}
}

// WifiOffDBm is the interference power reported between bursts: negligible.
const WifiOffDBm = -200.0

// InterferenceAt returns the WiFi interference power (dBm) at time t:
// PowerDBm while a burst is on, WifiOffDBm otherwise. Calls must be
// monotone in t.
func (w *WifiInterferer) InterferenceAt(t time.Duration) float64 {
	if w.On(t) {
		return w.PowerDBm
	}
	return WifiOffDBm
}

// On reports whether a burst is on at time t. Calls must be monotone in t
// (shared with InterferenceAt: both advance the same schedule).
func (w *WifiInterferer) On(t time.Duration) bool {
	for t >= w.epochEnd {
		w.epochActive = w.rng.Float64() < w.activeFrac
		w.epochEnd += w.activePhase
		w.segEnd = w.epochEnd
		w.on = false
		if w.epochActive {
			w.segEnd = w.epochEnd - w.activePhase // restart segments within epoch
			if w.segEnd < t-w.activePhase {
				w.segEnd = t
			}
		}
	}
	if !w.epochActive {
		return false
	}
	for t >= w.segEnd {
		w.on = !w.on
		mean := w.meanOff
		if w.on {
			mean = w.meanOn
		}
		w.segEnd += time.Duration(w.rng.ExpFloat64() * float64(mean))
	}
	return w.on
}
