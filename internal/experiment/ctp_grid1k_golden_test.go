package experiment

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// TestGrid1kCTPGolden pins every node's routing state after the first
// 30 s of Re-Tele on the 1024-node grid, the field with the most
// neighbours per node: CTP parent, hops, path ETX (exact), CTP stats with
// the beacon resets by cause, and MAC stats. A change to link estimation,
// the neighbour table or parent selection shows per node.
func TestGrid1kCTPGolden(t *testing.T) {
	net, err := Build(Grid1K(1).config(ProtoReTele))
	if err != nil {
		t.Fatal(err)
	}
	net.Start()
	if err := net.Run(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, "node parent hops path-etx ctp{orig fwd sink retry notree thl dup resets{cost help inf orphan adopt detach trigger}} mac{started acked failed bcast frames acks suppressed}")
	for i, st := range net.Stacks {
		c := st.Ctp
		fmt.Fprintf(&buf, "%d %d %d %v %v %v\n", i, c.Parent(), c.Hops(), c.PathETX(), c.Stats(), st.Mac.Stats())
	}
	checkGolden(t, "ctp_grid1k.golden", buf.Bytes())
}
