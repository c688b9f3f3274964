package radio_test

import (
	"testing"
	"time"

	"teleadjust/internal/experiment"
	"teleadjust/internal/radio"
)

// TestTraceHookKeepsOutcomes runs one reference-grid control replication
// twice, without and with a trace hook on the medium. The hook only
// observes: every reception must reach the same outcome, and the hook must
// see each one. Both runs must agree on every node's radio counters, on
// the study's results, on the next draw of the jitter stream and on the
// next draw of every radio's reception stream.
func TestTraceHookKeepsOutcomes(t *testing.T) {
	type outcome struct {
		counters []radio.Counters
		rxDraws  []float64
		res      *experiment.ControlResult
		jitter   float64
		rxEvents uint64
	}
	run := func(traced bool) outcome {
		var o outcome
		var med *radio.Medium
		scn := experiment.ReferenceGrid(3)
		scn.OnNetBuilt = func(n *experiment.Net) {
			med = n.Medium
			if traced {
				med.SetTraceFn(func(e radio.TraceEvent) {
					if e.Kind != radio.TraceTxStart {
						o.rxEvents++
					}
				})
			}
		}
		res, err := experiment.RunControlStudy(scn, experiment.ProtoTele, experiment.ControlOpts{
			Warmup:   90 * time.Second,
			Packets:  3,
			Interval: 16 * time.Second,
			Drain:    20 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		o.res = res
		for i := 0; i < med.NumNodes(); i++ {
			r := med.Radio(radio.NodeID(i))
			o.counters = append(o.counters, r.Counters())
			o.rxDraws = append(o.rxDraws, r.NextRxDraw())
		}
		o.jitter = med.NextJitterDraw()
		return o
	}
	plain, traced := run(false), run(true)
	var receptions uint64
	for i, c := range plain.counters {
		if traced.counters[i] != c {
			t.Fatalf("node %d: counters %+v untraced, %+v traced", i, c, traced.counters[i])
		}
		if plain.rxDraws[i] != traced.rxDraws[i] {
			t.Fatalf("node %d: reception stream at different draws: %v untraced, %v traced", i, plain.rxDraws[i], traced.rxDraws[i])
		}
		receptions += c.RxDelivered + c.RxCorrupted
	}
	if traced.rxEvents != receptions || receptions == 0 {
		t.Fatalf("trace hook saw %d receptions, radios judged %d", traced.rxEvents, receptions)
	}
	p, q := plain.res, traced.res
	if p.Sent != q.Sent || p.Delivered != q.Delivered || p.AckedOK != q.AckedOK || p.Skipped != q.Skipped ||
		p.TxPerPacket != q.TxPerPacket || p.AvgDutyCycle != q.AvgDutyCycle {
		t.Fatalf("study results differ: untraced %+v, traced %+v", p, q)
	}
	if plain.jitter != traced.jitter {
		t.Fatalf("jitter stream at different draws: %v untraced, %v traced", plain.jitter, traced.jitter)
	}
}
