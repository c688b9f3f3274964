package telemetry

import (
	"time"

	"teleadjust/internal/radio"
)

// QueueSpan is one scheduled control operation's reconstructed command-
// plane lifecycle, grouped into the three phases the sink scheduler
// moves it through: queued (enqueue → admission), in flight (admission →
// resolution, possibly spanning several wire attempts), and completion.
// The span is keyed by the scheduler ticket (Event.Seq on sink-layer
// events), which exists before the protocol assigns any operation id.
type QueueSpan struct {
	Run    int
	Ticket uint32
	Dst    radio.NodeID
	// Ops lists the protocol operation ids of the dispatch attempts, in
	// dispatch order (one per admit; retries dispatch fresh operations).
	Ops []uint32

	EnqueuedAt time.Duration
	// AdmittedAt is the first admission (valid when Admitted).
	AdmittedAt time.Duration
	Admitted   bool
	// DoneAt is the completion, expiry, or rejection time (valid when
	// Resolved).
	DoneAt   time.Duration
	Resolved bool
	OK       bool
	// Retries counts re-queues after failed attempts.
	Retries int
	// Rejected and Expired flag the two abnormal terminations: refused at
	// submit (queue full) and dropped by the per-op budget while queued.
	Rejected bool
	Expired  bool

	// Events is every sink-layer event of the ticket, in emission order.
	Events []Event
}

// QueueWait returns the enqueue → first-admission delay (0 when the op
// was never admitted).
func (s *QueueSpan) QueueWait() time.Duration {
	if !s.Admitted {
		return 0
	}
	return s.AdmittedAt - s.EnqueuedAt
}

// InFlight returns the first-admission → resolution delay (0 when the op
// never reached the air or never resolved).
func (s *QueueSpan) InFlight() time.Duration {
	if !s.Admitted || !s.Resolved {
		return 0
	}
	return s.DoneAt - s.AdmittedAt
}

// Total returns the enqueue → resolution delay (0 while unresolved).
func (s *QueueSpan) Total() time.Duration {
	if !s.Resolved {
		return 0
	}
	return s.DoneAt - s.EnqueuedAt
}

// BuildQueueSpans reconstructs command-plane spans from an event stream;
// non-sink-layer events are skipped. Spans come back in first-seen
// (ticket emission) order per run, which is deterministic.
func BuildQueueSpans(events []Event) []*QueueSpan {
	type key struct {
		run    int
		ticket uint32
	}
	idx := make(map[key]*QueueSpan)
	var order []*QueueSpan
	for _, ev := range events {
		if ev.Layer != LayerSink {
			continue
		}
		k := key{run: ev.Run, ticket: ev.Seq}
		sp, ok := idx[k]
		if !ok {
			sp = &QueueSpan{Run: ev.Run, Ticket: ev.Seq, Dst: ev.Dst, EnqueuedAt: ev.At}
			idx[k] = sp
			order = append(order, sp)
		}
		sp.Events = append(sp.Events, ev)
		if sp.Dst == 0 && ev.Dst != 0 {
			sp.Dst = ev.Dst
		}
		switch ev.Kind {
		case KindSinkEnqueue:
			sp.EnqueuedAt = ev.At
		case KindSinkAdmit:
			if !sp.Admitted {
				sp.Admitted = true
				sp.AdmittedAt = ev.At
			}
			if ev.Op != 0 {
				sp.Ops = append(sp.Ops, ev.Op)
			}
		case KindSinkRetry:
			sp.Retries++
		case KindSinkComplete:
			sp.Resolved = true
			sp.DoneAt = ev.At
			sp.OK = ev.Value > 0
		case KindSinkReject:
			sp.Resolved = true
			sp.Rejected = true
			sp.DoneAt = ev.At
		case KindSinkExpire:
			sp.Resolved = true
			sp.Expired = true
			sp.DoneAt = ev.At
		}
	}
	return order
}
