package experiment

import (
	"bytes"
	"fmt"
	"testing"

	"teleadjust/internal/radio"
)

// TestRadioCountersGolden pins every node's radio counters after a
// traceGoldenOpts control study: frames sent, and receptions delivered
// and corrupted, so a change to any reception decision shows per node.
// The WiFi indoor testbed is the one scenario whose CCA and receptions
// see the interferer (WiFi, fading, the quiet CPM profile); the reference
// grid adds shadowed links and CPM noise at 100 nodes.
func TestRadioCountersGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, scn := range []Scenario{Indoor(1, true), ReferenceGrid(3)} {
		var net *Net
		scn.OnNetBuilt = func(n *Net) { net = n }
		if _, err := RunControlStudy(scn, ProtoTele, traceGoldenOpts()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < net.Medium.NumNodes(); i++ {
			c := net.Medium.Radio(radio.NodeID(i)).Counters()
			fmt.Fprintf(&buf, "%s node %d: tx-data %d tx-ack %d rx-ok %d rx-bad %d\n",
				scn.Name, i, c.TxData, c.TxAck, c.RxDelivered, c.RxCorrupted)
		}
	}
	checkGolden(t, "radio_counters.golden", buf.Bytes())
}
