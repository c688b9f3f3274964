package stats_test

import (
	"fmt"

	"teleadjust/internal/stats"
)

// ExampleByKey groups per-hop measurements the way the evaluation runners
// build the paper's per-hop figures.
func ExampleByKey() {
	pdr := stats.NewByKey()
	pdr.Add(1, 1) // hop 1: delivered
	pdr.Add(1, 1)
	pdr.Add(2, 1) // hop 2: delivered
	pdr.Add(2, 0) // hop 2: lost
	for _, hop := range pdr.Keys() {
		fmt.Printf("hop %d: PDR %.2f over %d packets\n",
			hop, pdr.Get(hop).Mean(), pdr.Get(hop).Count())
	}
	// Output:
	// hop 1: PDR 1.00 over 2 packets
	// hop 2: PDR 0.50 over 2 packets
}
