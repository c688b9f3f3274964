package radio

import (
	"testing"
	"time"

	"teleadjust/internal/sim"
	"teleadjust/internal/topology"
)

func TestTraceCapturesTxAndRx(t *testing.T) {
	eng := sim.NewEngine()
	params := DefaultParams()
	params.ShadowSigmaDB = 0
	m, err := NewMedium(eng, topology.Line(2, 5), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	var evs []TraceEvent
	m.SetTraceFn(func(e TraceEvent) { evs = append(evs, e) })
	m.Radio(0).SetOn(true)
	m.Radio(1).SetOn(true)
	if err := m.Radio(0).Transmit(&Frame{Kind: FrameData, Src: 0, Dst: 1, Seq: 7, Size: 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 {
		t.Fatalf("captured %d events, want tx+rx", len(evs))
	}
	if evs[0].Kind != TraceTxStart || evs[0].Node != 0 {
		t.Fatalf("first event = %+v", evs[0])
	}
	if evs[1].Kind != TraceRxOK || evs[1].Node != 1 {
		t.Fatalf("second event = %+v", evs[1])
	}
	if evs[1].SINRdB < 5 {
		t.Fatalf("recorded SINR %.1f dB implausibly low for a 5 m link", evs[1].SINRdB)
	}
}

func TestTraceKindStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, k := range TraceKinds {
		s := k.String()
		if s == "unknown" || s == "" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if TraceUnknown.String() != "unknown" || TraceKind(99).String() != "unknown" {
		t.Fatalf("fallback names wrong: %q / %q", TraceUnknown.String(), TraceKind(99).String())
	}
}

func TestTraceDisabledByDefault(t *testing.T) {
	eng := sim.NewEngine()
	params := DefaultParams()
	params.ShadowSigmaDB = 0
	m, err := NewMedium(eng, topology.Line(2, 5), nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Radio(0).SetOn(true)
	if err := m.Radio(0).Transmit(&Frame{Kind: FrameData, Size: 10}, 0); err != nil {
		t.Fatal(err)
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err) // no trace fn installed: must not panic
	}
}
