// Package drip implements the Drip reliable dissemination baseline (Tolle
// & Culler, EWSN 2005): versioned values advertised with per-key Trickle
// timers and suppression. New versions flood the whole network; remote
// control rides on it by disseminating a command addressed to one node,
// which is the energy-hungry but highly reliable baseline of the paper's
// evaluation.
package drip

import (
	"errors"
	"math/rand/v2"
	"time"

	"teleadjust/internal/ctp"
	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/trickle"
)

// Update is the dissemination message (broadcast, unacknowledged).
type Update struct {
	Key     uint16
	Version uint32
	// Hops counts flood transmissions from the origin (ATHX bookkeeping).
	Hops    uint8
	Payload any
}

// NoAck marks updates as pure broadcasts for the MAC.
func (Update) NoAck() bool { return true }

// Command is a remote-control payload disseminated via Drip.
type Command struct {
	UID uint32
	Dst radio.NodeID
	App any
}

// CmdAck is the destination's end-to-end acknowledgement, returned over
// the collection tree.
type CmdAck struct {
	UID  uint32
	From radio.NodeID
}

// Config holds Drip parameters.
type Config struct {
	// ControlTimeout bounds pending control operations at the sink.
	ControlTimeout time.Duration
}

// DefaultConfig returns a 60 s control timeout.
func DefaultConfig() Config {
	return Config{ControlTimeout: 60 * time.Second}
}

// updateTrickle uses small minimum intervals for fast propagation and
// suppression constant 2.
var updateTrickle = trickle.Config{
	IMin: 128 * time.Millisecond,
	IMax: 32 * time.Second,
	K:    2,
}

// updateSize is the MAC frame size of an update.
const updateSize = 32

// Stats counts Drip activity at one node.
type Stats struct {
	Sends       uint64 // update transmissions (Table III metric)
	NewVersions uint64
	Delivered   uint64 // commands consumed as destination
	SendFail    uint64
}

// Result mirrors the TeleAdjusting controller result for comparisons.
type Result = protocol.Result

type valueState struct {
	version uint32
	hops    uint8
	payload any
	timer   *trickle.Timer
}

type pendingCmd struct {
	dst     radio.NodeID
	sentAt  time.Duration
	cb      func(Result)
	timeout sim.EventRef
}

// Drip is one node's dissemination instance.
type Drip struct {
	node   *node.Node
	eng    *sim.Engine
	cfg    Config
	rng    *rand.Rand
	ctp    *ctp.CTP
	isSink bool

	values map[uint16]*valueState

	// Sink-side control state.
	pending map[uint32]*pendingCmd
	uidSeq  uint32

	onUpdate  func(key uint16, version uint32, payload any)
	deliverFn func(uid uint32, hops uint8)

	athx  []ATHXSample
	stats Stats
}

// ATHXSample is one Fig-8 scatter point: an update adopted at this node
// after travelling Hops flood transmissions.
type ATHXSample = protocol.ATHXSample

// controlKey is the shared dissemination key remote-control commands ride
// on. Sharing one key means a new command supersedes the previous one (a
// straggler that missed version v before v+1 appears loses it — inherent
// Drip semantics the paper's one-minute inter-packet interval tolerates),
// but it also means every node's maintenance trickle helps carry each new
// command, which is what makes Drip so reliable.
const controlKey uint16 = 1

var _ node.Protocol = (*Drip)(nil)
var _ protocol.ControlProtocol = (*Drip)(nil)

// Name identifies the protocol family for uniform stacks.
func (d *Drip) Name() string { return "drip" }

// New creates a Drip instance on the node, registered with the runtime.
// The CTP instance carries end-to-end command acknowledgements upward; the
// sink instance takes over the CTP sink delivery hook.
func New(n *node.Node, c *ctp.CTP, cfg Config, rng *rand.Rand) *Drip {
	d := &Drip{
		node:   n,
		eng:    n.Engine(),
		cfg:    cfg,
		rng:    rng,
		ctp:    c,
		isSink: c.IsSink(),
		values: make(map[uint16]*valueState),
	}
	if d.isSink {
		d.pending = make(map[uint32]*pendingCmd)
		c.SetDeliverFunc(d.handleCollect)
	}
	n.Register(d)
	return d
}

// Start is part of the ControlProtocol lifecycle. Drip state is lazy — a
// per-key Trickle timer starts on the first dissemination or adopted
// update for that key — so Start has nothing to arm; it exists so node
// stacks can drive every control protocol uniformly.
func (d *Drip) Start() {}

// Stop halts every value's Trickle timer.
func (d *Drip) Stop() {
	for _, v := range d.values {
		v.timer.Stop()
	}
}

// SetUpdateFunc installs a callback fired once per adopted new version.
func (d *Drip) SetUpdateFunc(fn func(key uint16, version uint32, payload any)) {
	d.onUpdate = fn
}

// SetDeliveredFn installs a hook fired when this node consumes a command
// addressed to it; hops is the flood transmission count the command
// travelled before adoption.
func (d *Drip) SetDeliveredFn(fn func(uid uint32, hops uint8)) { d.deliverFn = fn }

// Stats returns a copy of the statistics.
func (d *Drip) Stats() Stats { return d.stats }

// ControlTx returns the node's update transmissions (the Table III
// metric: a flood charges every advertisement).
func (d *Drip) ControlTx() uint64 { return d.stats.Sends }

// Detail exports the diagnostic counters the comparison studies report.
func (d *Drip) Detail() map[string]uint64 {
	return map[string]uint64{"advertisements": d.stats.Sends}
}

// ATHX returns the Fig-8 samples recorded at this node.
func (d *Drip) ATHX() []ATHXSample {
	out := make([]ATHXSample, len(d.athx))
	copy(out, d.athx)
	return out
}

// Version returns the current version for a key (0 = never seen).
func (d *Drip) Version(key uint16) uint32 {
	if v, ok := d.values[key]; ok {
		return v.version
	}
	return 0
}

// Disseminate injects a new version of key carrying payload.
func (d *Drip) Disseminate(key uint16, payload any) {
	v := d.value(key)
	v.version++
	v.payload = payload
	d.stats.NewVersions++
	v.timer.Reset()
}

// ErrNotSink is returned when control operations originate off-sink.
var ErrNotSink = errors.New("drip: control operations originate at the sink")

// SendControl disseminates a command for dst network-wide and reports the
// outcome through cb (end-to-end ack or timeout).
func (d *Drip) SendControl(dst radio.NodeID, app any, cb func(Result)) (uint32, error) {
	if !d.isSink {
		return 0, ErrNotSink
	}
	d.uidSeq++
	uid := d.uidSeq
	p := &pendingCmd{dst: dst, sentAt: d.eng.Now(), cb: cb}
	p.timeout = d.eng.Schedule(d.cfg.ControlTimeout, func() {
		if _, ok := d.pending[uid]; !ok {
			return
		}
		delete(d.pending, uid)
		if cb != nil {
			cb(Result{UID: uid, Dst: dst, OK: false, Latency: d.eng.Now() - p.sentAt})
		}
	})
	d.pending[uid] = p
	d.Disseminate(controlKey, &Command{UID: uid, Dst: dst, App: app})
	return uid, nil
}

// value returns (creating) the state for a key.
func (d *Drip) value(key uint16) *valueState {
	v, ok := d.values[key]
	if !ok {
		v = &valueState{}
		v.timer = trickle.New(d.eng, updateTrickle, d.rng, func() { d.advertise(key) })
		v.timer.Start()
		d.values[key] = v
	}
	return v
}

// advertise broadcasts the current value of a key.
func (d *Drip) advertise(key uint16) {
	v := d.values[key]
	if v == nil || v.version == 0 {
		return
	}
	u := &Update{Key: key, Version: v.version, Hops: v.hops + 1, Payload: v.payload}
	f := &radio.Frame{
		Kind:    radio.FrameData,
		Dst:     radio.BroadcastID,
		Size:    updateSize,
		Payload: u,
	}
	if err := d.node.Send(f); err != nil {
		d.stats.SendFail++
		return
	}
	d.stats.Sends++
}

// handleUpdate applies Trickle's consistency rules.
func (d *Drip) handleUpdate(u *Update) {
	v := d.value(u.Key)
	switch {
	case u.Version > v.version:
		v.version = u.Version
		v.hops = u.Hops
		v.payload = u.Payload
		v.timer.Reset()
		d.adopt(u)
	case u.Version == v.version:
		v.timer.Hear()
	default:
		// The sender is behind: inconsistency, advertise soon.
		v.timer.Reset()
	}
}

// adopt processes a newly learned version.
func (d *Drip) adopt(u *Update) {
	d.athx = append(d.athx, ATHXSample{Hops: u.Hops, At: d.eng.Now()})
	if d.onUpdate != nil {
		d.onUpdate(u.Key, u.Version, u.Payload)
	}
	cmd, ok := u.Payload.(*Command)
	if !ok {
		return
	}
	if cmd.Dst != d.node.ID() {
		return
	}
	d.stats.Delivered++
	if d.deliverFn != nil {
		d.deliverFn(cmd.UID, u.Hops)
	}
	_ = d.ctp.SendToSink(&CmdAck{UID: cmd.UID, From: d.node.ID()})
}

// handleCollect is the sink's CTP delivery hook: resolve command acks.
func (d *Drip) handleCollect(origin radio.NodeID, app any) {
	ack, ok := app.(*CmdAck)
	if !ok {
		return
	}
	p, ok := d.pending[ack.UID]
	if !ok {
		return
	}
	delete(d.pending, ack.UID)
	p.timeout.Cancel()
	if p.cb != nil {
		p.cb(Result{
			UID:     ack.UID,
			Dst:     ack.From,
			OK:      true,
			Latency: d.eng.Now() - p.sentAt,
		})
	}
}

// --- node.Protocol ---

// Owns implements node.Protocol.
func (d *Drip) Owns(payload any) bool {
	_, ok := payload.(*Update)
	return ok
}

// Classify implements node.Protocol.
func (d *Drip) Classify(f *radio.Frame) mac.Classification {
	return mac.Classification{Decision: mac.Deliver}
}

// Deliver implements node.Protocol.
func (d *Drip) Deliver(f *radio.Frame) {
	if u, ok := f.Payload.(*Update); ok {
		d.handleUpdate(u)
	}
}

// OnSendDone implements node.Protocol.
func (d *Drip) OnSendDone(f *radio.Frame, acker radio.NodeID, ok bool) {}
