package radio

import "time"

// TraceKind classifies medium trace events.
type TraceKind uint8

// Trace event kinds.
const (
	// TraceUnknown is the zero kind; it is never emitted by the medium and
	// names values outside the known set.
	TraceUnknown TraceKind = iota
	// TraceTxStart: a frame went on the air.
	TraceTxStart
	// TraceRxOK: a receiver decoded the frame.
	TraceRxOK
	// TraceRxCorrupt: a locked receiver failed the SINR draw.
	TraceRxCorrupt
)

// TraceKinds is the full set of kinds the medium emits, for consumers
// (like the telemetry bus) that map them without guessing the range.
var TraceKinds = [...]TraceKind{TraceTxStart, TraceRxOK, TraceRxCorrupt}

// String names the kind; values outside the set render as TraceUnknown.
func (k TraceKind) String() string {
	switch k {
	case TraceTxStart:
		return "tx"
	case TraceRxOK:
		return "rx-ok"
	case TraceRxCorrupt:
		return "rx-bad"
	case TraceUnknown:
	}
	return "unknown"
}

// TraceEvent is one medium-level event, reported as it happens.
type TraceEvent struct {
	At   time.Duration
	Kind TraceKind
	// Node is the transmitter for TraceTxStart, the receiver otherwise.
	Node  NodeID
	Frame *Frame
	// SINRdB is populated for receive events.
	SINRdB float64
}

// SetTraceFn installs a medium-level event tap (nil disables). The
// callback fires synchronously inside the simulation; keep it cheap.
func (m *Medium) SetTraceFn(fn func(TraceEvent)) { m.traceFn = fn }

func (m *Medium) trace(e TraceEvent) {
	if m.traceFn != nil {
		e.At = m.eng.Now()
		m.traceFn(e)
	}
}
