// Package cmdsvc implements the sink's long-lived command service: a
// persistent front-end over the sink scheduler. It adds the
// three things a one-shot study harness does not need but a serving sink
// does: cross-command prefix batching (commands descending the same code
// subtree coalesce into one piggyback carrier within a bounded window), a
// route-freshness cache that skips redundant Re-Tele probing for
// recently-confirmed destinations, and bounded admission with load
// shedding. Every feature is individually disableable; with all of
// them off the service is a transparent pass-through whose telemetry
// trace is byte-identical to driving the scheduler directly.
package cmdsvc

import (
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/sink"
	"teleadjust/internal/telemetry"
)

// batchSender is the optional protocol capability the batcher rides on
// (implemented by the TeleAdjusting engine). Protocols without it (Drip,
// RPL floods have no prefix structure) silently fall back to pass-through.
type batchSender interface {
	SendControlBatch(reqs []core.BatchRequest) ([]uint32, error)
}

// optSender is the optional per-operation-options dispatch capability,
// used to suppress the rescue probe for cache-fresh routes.
type optSender interface {
	SendControlWith(dst radio.NodeID, app any, opts core.SendOpts, cb func(protocol.Result)) (uint32, error)
}

// BatcherConfig tunes the prefix batcher.
type BatcherConfig struct {
	// Window is the bounded batching delay: the first command opening a
	// prefix group arms a flush this far in the future, and everything
	// sharing the prefix before then rides along. Zero disables batching
	// entirely (pure pass-through, byte-identical traces).
	Window time.Duration
	// Bits is the code-prefix length commands are grouped by (<= 0 groups
	// by full code, which only batches same-destination commands).
	Bits int
	// MaxBatch flushes a group early once it holds this many commands
	// (clamped to the wire format's member bound).
	MaxBatch int
}

// withDefaults clamps the config to usable values.
func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch < 2 {
		c.MaxBatch = 16
	}
	if c.MaxBatch > core.MaxBatchMembers {
		c.MaxBatch = core.MaxBatchMembers
	}
	return c
}

// BatcherStats are the batcher's lifetime counters.
type BatcherStats struct {
	// PassThrough counts commands dispatched immediately (batching off,
	// protocol without batch support, or no code for the destination).
	PassThrough uint64
	// Singles counts commands flushed alone after their window expired.
	Singles uint64
	// Batches counts flushed multi-command carriers and BatchedCmds the
	// commands they carried.
	Batches     uint64
	BatchedCmds uint64
	// RetrySingles counts scheduler re-dispatches sent as full-rescue
	// singles, bypassing both the batch buffer and the freshness cache.
	RetrySingles uint64
}

// pendingCmd is one buffered command awaiting its group's flush.
type pendingCmd struct {
	dst     radio.NodeID
	code    core.PathCode
	app     any
	payload []byte
	cb      func(protocol.Result)
}

// batchGroup is one open prefix group.
type batchGroup struct {
	key   uint64
	cmds  []pendingCmd
	timer sim.EventRef
}

// retryCmd is one backed-off scheduler re-dispatch awaiting its timer.
type retryCmd struct {
	dst radio.NodeID
	app any
	cb  func(protocol.Result)
}

// Batcher coalesces scheduler dispatches sharing a path-code prefix into
// piggyback carriers. It implements sink.Dispatcher and fronts the real
// protocol dispatcher, so the scheduler drives it unchanged. Buffered
// commands hold their scheduler window slots — size the scheduler's
// Window and PerGroup at least as large as MaxBatch or groups can never
// fill.
type Batcher struct {
	eng   *sim.Engine
	inner sink.Dispatcher
	batch batchSender
	opt   optSender
	coder func(radio.NodeID) (core.PathCode, bool)
	cache *RouteCache
	cfg   BatcherConfig

	groups map[uint64]*batchGroup
	free   []*batchGroup
	reqBuf []core.BatchRequest

	retrying  int // backed-off re-dispatches awaiting their timer
	freeRetry []*retryCmd

	flushFn func(any) // pre-bound for alloc-free ScheduleArg
	retryFn func(any)

	bus      *telemetry.Bus
	node     radio.NodeID
	batchSeq uint32
	stats    BatcherStats
}

// NewBatcher wraps inner with prefix batching. Batch and option
// capabilities are discovered by type assertion; a protocol with neither
// degrades to a transparent pass-through.
func NewBatcher(eng *sim.Engine, inner sink.Dispatcher, cfg BatcherConfig) *Batcher {
	if eng == nil || inner == nil {
		panic("cmdsvc: NewBatcher requires an engine and a dispatcher")
	}
	b := &Batcher{
		eng:    eng,
		inner:  inner,
		cfg:    cfg.withDefaults(),
		groups: make(map[uint64]*batchGroup),
	}
	b.batch, _ = inner.(batchSender)
	b.opt, _ = inner.(optSender)
	b.flushFn = b.flushArg
	b.retryFn = b.retryArg
	return b
}

// SetCoder installs the destination → path code resolver (normally the
// controller registry). Without one, every command passes through.
func (b *Batcher) SetCoder(fn func(radio.NodeID) (core.PathCode, bool)) { b.coder = fn }

// SetCache attaches a route-freshness cache consulted at dispatch time.
func (b *Batcher) SetCache(c *RouteCache) { b.cache = c }

// SetTelemetry attaches the event bus for batch-membership span events.
func (b *Batcher) SetTelemetry(bus *telemetry.Bus, node radio.NodeID) {
	b.bus = bus
	b.node = node
}

// Stats returns a snapshot of the lifetime counters.
func (b *Batcher) Stats() BatcherStats { return b.stats }

// PendingLen returns the number of buffered, unflushed commands,
// including backed-off re-dispatches awaiting their retry timer.
func (b *Batcher) PendingLen() int {
	n := b.retrying
	for _, g := range b.groups {
		n += len(g.cmds)
	}
	return n
}

// SendControl implements sink.Dispatcher. Commands for destinations with
// known codes buffer into their prefix group; everything else dispatches
// immediately with unchanged semantics (including synchronous unroutable
// errors). Buffered commands report UID 0 — their wire UIDs are allocated
// at flush and surface on the svc.batch-member telemetry events.
func (b *Batcher) SendControl(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	if b.cfg.Window <= 0 || b.batch == nil || b.coder == nil {
		b.stats.PassThrough++
		return b.sendSingle(dst, app, cb)
	}
	code, ok := b.coder(dst)
	if !ok || code.IsEmpty() {
		b.stats.PassThrough++
		return b.sendSingle(dst, app, cb)
	}
	key := prefixKey(code, b.cfg.Bits)
	g := b.groups[key]
	if g == nil {
		g = b.takeGroup(key)
		b.groups[key] = g
		g.timer = b.eng.ScheduleArg(b.cfg.Window, b.flushFn, g)
	}
	payload, _ := app.([]byte) // []byte apps ride the wire as member payloads
	g.cmds = append(g.cmds, pendingCmd{dst: dst, code: code, app: app, payload: payload, cb: cb})
	if len(g.cmds) >= b.cfg.MaxBatch {
		g.timer.Cancel()
		b.flush(g)
	}
	return 0, nil
}

// SendControlRetry implements sink.RetryAware. A re-dispatched operation
// has already failed a full protocol attempt, so it skips the batch
// buffer (another shared carrier would re-expose it to carrier loss) and
// the freshness cache's rescue suppression (the failure is evidence the
// cached confirmation is stale — the entry is dropped). It still waits
// out one batch window before going out as a full-rescue single: an
// immediate re-dispatch dives straight back into the interference that
// just killed the attempt, so the window doubles as retry backoff.
func (b *Batcher) SendControlRetry(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	if b.cache != nil {
		b.cache.InvalidateNode(dst)
	}
	if b.cfg.Window <= 0 {
		return b.inner.SendControl(dst, app, cb) // pass-through mode: unchanged semantics
	}
	b.stats.RetrySingles++
	rc := b.takeRetry()
	rc.dst, rc.app, rc.cb = dst, app, cb
	b.retrying++
	b.eng.ScheduleArg(b.cfg.Window, b.retryFn, rc)
	return 0, nil
}

// retryArg is the ScheduleArg trampoline for backed-off re-dispatches.
func (b *Batcher) retryArg(arg any) { b.fireRetry(arg.(*retryCmd)) }

// fireRetry dispatches one backed-off re-dispatch as a full-rescue
// single. Dispatch errors surface through the command callback (the
// scheduler's synchronous error path already returned nil).
func (b *Batcher) fireRetry(rc *retryCmd) {
	b.retrying--
	dst, app, cb := rc.dst, rc.app, rc.cb
	rc.dst, rc.app, rc.cb = 0, nil, nil
	b.freeRetry = append(b.freeRetry, rc)
	if _, err := b.inner.SendControl(dst, app, cb); err != nil && cb != nil {
		cb(protocol.Result{Dst: dst})
	}
}

// takeRetry reuses a retired retry slot or allocates a fresh one.
func (b *Batcher) takeRetry() *retryCmd {
	if n := len(b.freeRetry); n > 0 {
		rc := b.freeRetry[n-1]
		b.freeRetry = b.freeRetry[:n-1]
		return rc
	}
	return &retryCmd{}
}

// sendSingle dispatches one command immediately, suppressing the rescue
// probe when the route cache holds a fresh confirmation for it.
func (b *Batcher) sendSingle(dst radio.NodeID, app any, cb func(protocol.Result)) (uint32, error) {
	if b.cache != nil && b.opt != nil && b.cache.Fresh(dst) {
		return b.opt.SendControlWith(dst, app, core.SendOpts{NoRescue: true}, cb)
	}
	return b.inner.SendControl(dst, app, cb)
}

// flushArg is the ScheduleArg trampoline for window-expiry flushes.
func (b *Batcher) flushArg(arg any) { b.flush(arg.(*batchGroup)) }

// flush closes one group: a lone command goes out as a plain dispatch, two
// or more ride one piggyback carrier. Dispatch errors surface through the
// per-command callbacks (the scheduler's synchronous error path already
// returned nil when the command was buffered).
func (b *Batcher) flush(g *batchGroup) {
	delete(b.groups, g.key)
	switch {
	case len(g.cmds) == 0:
	case len(g.cmds) == 1:
		c := &g.cmds[0]
		b.stats.Singles++
		if _, err := b.sendSingle(c.dst, c.app, c.cb); err != nil && c.cb != nil {
			c.cb(protocol.Result{Dst: c.dst})
		}
	default:
		b.reqBuf = b.reqBuf[:0]
		for i := range g.cmds {
			c := &g.cmds[i]
			if b.cache != nil {
				// Batched members need no rescue suppression (the carrier
				// amortizes the downward leg) but their freshness still
				// feeds the hit/miss accounting.
				b.cache.Fresh(c.dst)
			}
			b.reqBuf = append(b.reqBuf, core.BatchRequest{
				Dst: c.dst, App: c.app, Payload: c.payload, Cb: c.cb,
			})
		}
		uids, err := b.batch.SendControlBatch(b.reqBuf)
		if err != nil {
			for i := range g.cmds {
				if cb := g.cmds[i].cb; cb != nil {
					cb(protocol.Result{Dst: g.cmds[i].dst})
				}
			}
			break
		}
		b.stats.Batches++
		b.stats.BatchedCmds += uint64(len(g.cmds))
		b.batchSeq++
		b.emitBatch(g, uids)
	}
	b.putGroup(g)
}

// emitBatch publishes the batch-membership span: one svc.batch event for
// the carrier and one svc.batch-member per command, linked by Seq.
func (b *Batcher) emitBatch(g *batchGroup, uids []uint32) {
	if !b.bus.Wants(telemetry.LayerSink) {
		return
	}
	common := g.cmds[0].code
	for i := 1; i < len(g.cmds); i++ {
		common = common.Prefix(common.CommonPrefixLen(g.cmds[i].code))
	}
	b.bus.Emit(telemetry.Event{
		Layer: telemetry.LayerSink, Kind: telemetry.KindSvcBatch, Node: b.node,
		Seq: b.batchSeq, Value: float64(len(g.cmds)), Note: common.String(),
	})
	for i := range g.cmds {
		var uid uint32
		if i < len(uids) {
			uid = uids[i]
		}
		b.bus.Emit(telemetry.Event{
			Layer: telemetry.LayerSink, Kind: telemetry.KindSvcBatchMember, Node: b.node,
			Seq: b.batchSeq, Op: uid, UID: uid, Dst: g.cmds[i].dst,
		})
	}
}

// takeGroup reuses a retired group or allocates a fresh one.
func (b *Batcher) takeGroup(key uint64) *batchGroup {
	if n := len(b.free); n > 0 {
		g := b.free[n-1]
		b.free = b.free[:n-1]
		g.key = key
		return g
	}
	return &batchGroup{key: key, cmds: make([]pendingCmd, 0, 8)}
}

// putGroup retires a flushed group to the free list.
func (b *Batcher) putGroup(g *batchGroup) {
	for i := range g.cmds {
		g.cmds[i] = pendingCmd{} // drop app/cb references
	}
	g.cmds = g.cmds[:0]
	g.timer = sim.EventRef{}
	b.free = append(b.free, g)
}

// prefixKey packs the first min(bits, 56) bits of code plus the truncated
// length into one allocation-free comparable key (the string GroupKey
// would allocate per command on the hot path).
func prefixKey(code core.PathCode, bits int) uint64 {
	n := code.Len()
	if bits > 0 && n > bits {
		n = bits
	}
	if n > 56 {
		n = 56
	}
	var k uint64
	for i := 0; i < n; i++ {
		k = k<<1 | uint64(code.Bit(i))
	}
	return k<<8 | uint64(n)
}
