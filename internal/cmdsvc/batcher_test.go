package cmdsvc

import (
	"errors"
	"testing"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/telemetry"
)

// stubDispatcher records every dispatch and implements all three
// capability surfaces (plain, options, batch). Callbacks fire only when
// the test resolves them explicitly.
type stubDispatcher struct {
	uidSeq   uint32
	singles  []radio.NodeID
	optCalls []core.SendOpts
	batches  [][]core.BatchRequest
	uidBuf   []uint32
	batchErr error
	sendErr  error
}

func (d *stubDispatcher) SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	if d.sendErr != nil {
		return 0, d.sendErr
	}
	d.uidSeq++
	d.singles = append(d.singles, dst)
	return d.uidSeq, nil
}

func (d *stubDispatcher) SendControlWith(dst radio.NodeID, app any, opts core.SendOpts, cb func(protocol.Result)) (uint32, error) {
	d.optCalls = append(d.optCalls, opts)
	return d.SendControl(dst, app, cb)
}

func (d *stubDispatcher) SendControlBatch(reqs []core.BatchRequest) ([]uint32, error) {
	if d.batchErr != nil {
		return nil, d.batchErr
	}
	cp := make([]core.BatchRequest, len(reqs))
	copy(cp, reqs)
	d.batches = append(d.batches, cp)
	d.uidBuf = d.uidBuf[:0]
	for range reqs {
		d.uidSeq++
		d.uidBuf = append(d.uidBuf, d.uidSeq)
	}
	return d.uidBuf, nil
}

// plainDispatcher has no batch or option capability.
type plainDispatcher struct {
	singles []radio.NodeID
	uidSeq  uint32
}

func (d *plainDispatcher) SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	d.uidSeq++
	d.singles = append(d.singles, dst)
	return d.uidSeq, nil
}

// testCoder maps destinations to fixed codes.
func testCoder(codes map[radio.NodeID]core.PathCode) func(radio.NodeID) (core.PathCode, bool) {
	return func(dst radio.NodeID) (core.PathCode, bool) {
		c, ok := codes[dst]
		return c, ok
	}
}

// mustExtend builds a code by successive positional extensions.
func mustExtend(t testing.TB, positions ...uint16) core.PathCode {
	t.Helper()
	c := core.RootCode()
	for _, p := range positions {
		var err error
		c, err = c.Extend(p, 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// sharedCodes returns four codes: three sharing a deep prefix and one in a
// disjoint subtree.
func sharedCodes(t testing.TB) map[radio.NodeID]core.PathCode {
	return map[radio.NodeID]core.PathCode{
		2: mustExtend(t, 1, 1),
		3: mustExtend(t, 1, 2),
		4: mustExtend(t, 1, 3),
		5: mustExtend(t, 2, 1),
	}
}

func TestBatcherWindowZeroPassesThrough(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: 0})
	b.SetCoder(testCoder(sharedCodes(t)))
	uid, err := b.SendControl(2, "x", nil)
	if err != nil {
		t.Fatal(err)
	}
	if uid == 0 {
		t.Fatal("pass-through lost the real uid")
	}
	if len(d.singles) != 1 || d.singles[0] != 2 {
		t.Fatalf("singles = %v", d.singles)
	}
	if s := b.Stats(); s.PassThrough != 1 || s.Batches != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBatcherNoCapabilityPassesThrough(t *testing.T) {
	eng := sim.NewEngine()
	d := &plainDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second})
	b.SetCoder(testCoder(sharedCodes(t)))
	if _, err := b.SendControl(2, "x", nil); err != nil {
		t.Fatal(err)
	}
	if len(d.singles) != 1 {
		t.Fatalf("singles = %v", d.singles)
	}
	if b.PendingLen() != 0 {
		t.Fatalf("pending = %d, want 0", b.PendingLen())
	}
}

func TestBatcherCoderMissPassesThrough(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second})
	b.SetCoder(testCoder(sharedCodes(t)))
	if _, err := b.SendControl(99, "x", nil); err != nil {
		t.Fatal(err)
	}
	if len(d.singles) != 1 || d.singles[0] != 99 {
		t.Fatalf("singles = %v", d.singles)
	}
}

func TestBatcherWindowCoalesces(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	for _, dst := range []radio.NodeID{2, 3, 4} {
		uid, err := b.SendControl(dst, "x", nil)
		if err != nil {
			t.Fatal(err)
		}
		if uid != 0 {
			t.Fatalf("buffered command returned uid %d, want 0", uid)
		}
	}
	if b.PendingLen() != 3 {
		t.Fatalf("pending = %d, want 3", b.PendingLen())
	}
	if len(d.batches) != 0 {
		t.Fatal("flushed before the window expired")
	}
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(d.batches) != 1 || len(d.batches[0]) != 3 {
		t.Fatalf("batches = %v", d.batches)
	}
	if b.PendingLen() != 0 {
		t.Fatalf("pending = %d after flush", b.PendingLen())
	}
	s := b.Stats()
	if s.Batches != 1 || s.BatchedCmds != 3 || s.Singles != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBatcherMaxBatchFlushesEarly(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Hour, Bits: 3, MaxBatch: 2})
	b.SetCoder(testCoder(sharedCodes(t)))
	b.SendControl(2, "x", nil)
	if len(d.batches) != 0 {
		t.Fatal("flushed below MaxBatch")
	}
	b.SendControl(3, "x", nil)
	if len(d.batches) != 1 || len(d.batches[0]) != 2 {
		t.Fatalf("batches = %v", d.batches)
	}
	// The cancelled window timer must not re-flush.
	if err := eng.Run(2 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(d.batches) != 1 || len(d.singles) != 0 {
		t.Fatalf("late flush: batches=%d singles=%d", len(d.batches), len(d.singles))
	}
}

func TestBatcherDisjointPrefixesSeparateGroups(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	b.SendControl(2, "x", nil) // subtree 1
	b.SendControl(3, "x", nil) // subtree 1
	b.SendControl(5, "x", nil) // subtree 2
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	// Subtree 1 flushes as a 2-batch, subtree 2 as a single.
	if len(d.batches) != 1 || len(d.batches[0]) != 2 {
		t.Fatalf("batches = %v", d.batches)
	}
	if len(d.singles) != 1 || d.singles[0] != 5 {
		t.Fatalf("singles = %v", d.singles)
	}
	if s := b.Stats(); s.Singles != 1 || s.Batches != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestBatcherRetryWaitsOneWindowAndCountsAsPending drives
// SendControlRetry's back-off: each re-dispatch waits out one batch
// window, counts as pending meanwhile, and then goes out as a plain
// full-rescue single in submission order, even for a cache-fresh route.
func TestBatcherRetryWaitsOneWindowAndCountsAsPending(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: 500 * time.Millisecond, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	cache := NewRouteCache(eng.Now, CacheConfig{TTL: time.Hour})
	b.SetCache(cache)
	cache.Confirm(5)
	cache.Confirm(2)
	for _, dst := range []radio.NodeID{5, 2} {
		if uid, err := b.SendControlRetry(dst, "x", nil); err != nil || uid != 0 {
			t.Fatalf("retry %d: uid=%d err=%v, want 0, nil", dst, uid, err)
		}
	}
	if b.PendingLen() != 2 {
		t.Fatalf("pending = %d, want 2 backed-off retries", b.PendingLen())
	}
	if err := eng.Run(499 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if len(d.singles) != 0 || len(d.batches) != 0 || b.PendingLen() != 2 {
		t.Fatalf("dispatched before the window: singles=%v batches=%d pending=%d",
			d.singles, len(d.batches), b.PendingLen())
	}
	if err := eng.Run(time.Second); err != nil {
		t.Fatal(err)
	}
	if len(d.singles) != 2 || d.singles[0] != 5 || d.singles[1] != 2 {
		t.Fatalf("singles = %v, want [5 2]", d.singles)
	}
	if len(d.optCalls) != 0 || len(d.batches) != 0 {
		t.Fatalf("retries must go out as plain singles: optCalls=%v batches=%d", d.optCalls, len(d.batches))
	}
	if b.PendingLen() != 0 {
		t.Fatalf("pending = %d after the window", b.PendingLen())
	}
	if s := b.Stats(); s.RetrySingles != 2 || s.Singles != 0 || s.PassThrough != 0 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestBatcherBatchErrorFailsCallbacks(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{batchErr: errors.New("boom")}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	var failed []radio.NodeID
	cb := func(r protocol.Result) {
		if !r.OK {
			failed = append(failed, r.Dst)
		}
	}
	b.SendControl(2, "x", cb)
	b.SendControl(3, "x", cb)
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(failed) != 2 {
		t.Fatalf("failed = %v, want both members", failed)
	}
}

func TestBatcherSingleFlushErrorFailsCallback(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{sendErr: errors.New("down")}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	var got *protocol.Result
	b.SendControl(2, "x", func(r protocol.Result) { got = &r })
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.OK || got.Dst != 2 {
		t.Fatalf("single flush error result = %+v", got)
	}
}

func TestBatcherPayloadRidesWire(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	b.SendControl(2, []byte{9, 8}, nil)
	b.SendControl(3, "not-bytes", nil)
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if len(d.batches) != 1 {
		t.Fatalf("batches = %v", d.batches)
	}
	reqs := d.batches[0]
	if string(reqs[0].Payload) != "\x09\x08" {
		t.Fatalf("byte app payload = %v", reqs[0].Payload)
	}
	if reqs[1].Payload != nil {
		t.Fatalf("non-byte app payload = %v", reqs[1].Payload)
	}
}

// collector buffers every event it consumes.
type collector struct{ evs []telemetry.Event }

func (c *collector) Consume(ev telemetry.Event) { c.evs = append(c.evs, ev) }

func TestBatcherEmitsBatchSpans(t *testing.T) {
	eng := sim.NewEngine()
	d := &stubDispatcher{}
	b := NewBatcher(eng, d, BatcherConfig{Window: time.Second, Bits: 3})
	b.SetCoder(testCoder(sharedCodes(t)))
	bus := telemetry.NewBus(eng.Now)
	col := &collector{}
	bus.Subscribe(col, telemetry.LayerSink)
	b.SetTelemetry(bus, 1)
	b.SendControl(2, "x", nil)
	b.SendControl(3, "x", nil)
	if err := eng.Run(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	var batch, members int
	var seq uint32
	for _, ev := range col.evs {
		switch ev.Kind {
		case telemetry.KindSvcBatch:
			batch++
			seq = ev.Seq
			if ev.Value != 2 {
				t.Fatalf("batch span size = %v, want 2", ev.Value)
			}
			if ev.Note == "" {
				t.Fatal("batch span missing common-prefix note")
			}
		case telemetry.KindSvcBatchMember:
			members++
			if ev.UID == 0 {
				t.Fatal("member span missing wire uid")
			}
		}
	}
	if batch != 1 || members != 2 {
		t.Fatalf("spans: %d batch, %d members", batch, members)
	}
	for _, ev := range col.evs {
		if ev.Kind == telemetry.KindSvcBatchMember && ev.Seq != seq {
			t.Fatalf("member seq %d != batch seq %d", ev.Seq, seq)
		}
	}
}

func TestPrefixKeyGroupsByPrefix(t *testing.T) {
	codes := sharedCodes(t)
	k2 := prefixKey(codes[2], 3)
	k3 := prefixKey(codes[3], 3)
	k5 := prefixKey(codes[5], 3)
	if k2 != k3 {
		t.Fatalf("same-subtree keys differ: %x vs %x", k2, k3)
	}
	if k2 == k5 {
		t.Fatalf("cross-subtree keys collide: %x", k2)
	}
	// Bits <= 0 keys by the full code: distinct destinations never group.
	if prefixKey(codes[2], 0) == prefixKey(codes[3], 0) {
		t.Fatal("full-code keys collide for distinct codes")
	}
	if prefixKey(codes[2], 0) != prefixKey(codes[2], 0) {
		t.Fatal("full-code key not stable")
	}
}
