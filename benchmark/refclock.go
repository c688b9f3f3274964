package main

import (
	"math"
	"time"
)

// The host this benchmark was calibrated on, a VM shared with other
// tenants, changes speed by up to a third over minutes: two sets of the
// same runs a few minutes apart differed that much, on every workload and
// in every wall-clock metric. A refClock measures that speed while a pass
// runs. Between simulation chunks, at most once per refEvery of wall time,
// it times one slice of fixed reference work that lives in this file, so
// no change to the simulator can change it. The pass's host times are then
// scaled to a host on which a slice takes refNominal.

const (
	// refEvery is the least wall time between two reference slices.
	refEvery = 50 * time.Millisecond
	// refNominal is the slice time of the reference host; about what a
	// slice took on the calibration host at its usual speed.
	refNominal = time.Millisecond
	// refChunk is the simulated time the benchmark runs between two looks
	// at the clock.
	refChunk = 250 * time.Millisecond
	// refIters sizes one slice.
	refIters = 6000
)

// refClock samples the host's speed during a pass. The zero value is
// ready; a nil *refClock samples nothing.
type refClock struct {
	last   time.Time
	slices int
	sliceS float64 // wall seconds spent in slices
}

// tick runs a reference slice if refEvery has passed since the last one.
func (c *refClock) tick() {
	if c == nil || time.Since(c.last) < refEvery {
		return
	}
	t0 := time.Now()
	refWork()
	c.last = time.Now()
	c.slices++
	c.sliceS += c.last.Sub(t0).Seconds()
}

// speed is the host's speed relative to the reference host: 0.8 means a
// slice took 1.25 × refNominal on average.
func (c *refClock) speed() float64 {
	if c == nil || c.slices == 0 {
		return 1
	}
	return refNominal.Seconds() / (c.sliceS / float64(c.slices))
}

// Every slice starts from the same heap, so every slice does the same
// work. The heap is 128 KB, small enough to stay in cache, so a slice
// times the core rather than whatever the simulator left in memory.
var (
	refStart = newRefHeap(1 << 14)
	refHeap  = make([]float64, len(refStart))
	refSink  float64
)

func newRefHeap(n int) []float64 {
	h := make([]float64, n)
	for i := range h {
		h[i] = float64(i)
	}
	return h
}

// refWork is one slice: xorshift draws, the PRR curve's math.Pow and a
// replace-top on a binary min-heap, the three kinds of work the
// simulator's event loop spends most of its time in. It allocates nothing.
func refWork() {
	h := refHeap
	copy(h, refStart)
	x, acc := uint64(0x9e3779b97f4a7c15), 0.0
	for i := 0; i < refIters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v := h[0] + math.Pow(1.0001, float64(x&1023)/64)
		acc += h[0]
		// Sift the grown root down.
		j := 0
		for {
			c := 2*j + 1
			if c >= len(h) {
				break
			}
			if c+1 < len(h) && h[c+1] < h[c] {
				c++
			}
			if v <= h[c] {
				break
			}
			h[j] = h[c]
			j = c
		}
		h[j] = v
	}
	refSink += acc
}

// spent is the wall time spent in reference slices so far.
func (c *refClock) spent() float64 {
	if c == nil {
		return 0
	}
	return c.sliceS
}
