// Package experiment assembles complete simulated networks (radio medium,
// MAC, node runtime, CTP, and a registry-selected control protocol) and
// provides the scenario runners that regenerate every table and figure of
// the paper's evaluation.
package experiment

import (
	"fmt"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/ctp"
	"teleadjust/internal/drip"
	"teleadjust/internal/fault"
	"teleadjust/internal/mac"
	"teleadjust/internal/node"
	"teleadjust/internal/noise"
	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/rpl"
	"teleadjust/internal/sim"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
	"teleadjust/internal/topology"
)

// Config describes a network to build.
type Config struct {
	Dep   *topology.Deployment
	Radio radio.Params
	Mac   mac.Config
	Ctp   ctp.Config
	Tele  core.Config
	Drip  drip.Config
	Rpl   rpl.Config
	// Protocol selects the control protocol by registry key (ProtoNone
	// builds a collection-only network). Exactly one control protocol
	// runs per network: they all claim the sink's CTP delivery hook for
	// their end-to-end acks.
	Protocol Proto
	// Codec selects the tree-coding scheme by name for TeleAdjusting
	// variants (see core.CodecByName; empty means the paper's
	// Algorithm 1). Resolved into Tele.Codec at build time.
	Codec string
	// NoiseTraceSeed != 0 trains a CPM model on a synthetic noise trace
	// with that seed; 0 uses the constant quiet floor.
	NoiseTraceSeed uint64
	// NoiseTraceLen is the training trace length (default 60000 samples).
	NoiseTraceLen int
	// NoiseProfile selects the trace statistics (nil = meyer-heavy).
	NoiseProfile *noise.TraceProfile
	// WifiPowerDBm != 0 installs a WiFi interferer at that power (the
	// "channel 19" condition); 0 disables it.
	WifiPowerDBm float64
	// Fault, when non-nil, is a fault script scheduled on the engine at
	// build time (crashes, reboots, link perturbations, drop windows).
	// The plan is read-only and may be shared across replicated runs.
	Fault *fault.Plan
	Seed  uint64
}

// Stack is one node's protocol stack: the link layer, the dispatch
// runtime, the collection substrate, and the registry-built control
// protocol (nil for collection-only networks).
type Stack struct {
	Mac  *mac.MAC
	Node *node.Node
	Ctp  *ctp.CTP
	Ctrl protocol.ControlProtocol
}

// Net is an assembled network: one Stack per node over a shared medium.
type Net struct {
	Eng    *sim.Engine
	Medium *radio.Medium
	Dep    *topology.Deployment
	Sink   radio.NodeID
	Stacks []*Stack

	// Bus is the network's unified telemetry event stream: the medium's
	// radio tap, the MAC send lifecycle, and the control protocol's
	// operation spans all emit into it. With no subscribers it is
	// near-free (every emission dies on one mask test).
	Bus *telemetry.Bus
	// Metrics is the per-node gauge table. It holds each node's radio
	// "on-time-s" gauge (LayerRadio), which reads the medium directly and
	// so survives reboots. Event counters are not in it: each layer's
	// Stats() accessor (MAC, CTP, the control protocol, the sink) is
	// their read path.
	Metrics *telemetry.Registry

	cfg Config

	alive   []bool
	reboots []int
	inj     *fault.Injector

	dataTickers []*sim.Ticker
	dataIPI     time.Duration
	dataSeed    uint64
}

// Build assembles the network. Call Start before Run.
func Build(cfg Config) (*Net, error) {
	if cfg.Dep == nil {
		return nil, fmt.Errorf("experiment: no deployment")
	}
	if err := cfg.Dep.Validate(); err != nil {
		return nil, err
	}
	build, err := builderFor(cfg.Protocol)
	if err != nil {
		return nil, err
	}
	if cfg.Codec != "" {
		codec, err := core.CodecByName(cfg.Codec)
		if err != nil {
			return nil, err
		}
		cfg.Tele.Codec = codec
	}
	eng := sim.NewEngine()
	var model *noise.Model
	if cfg.NoiseTraceSeed != 0 {
		n := cfg.NoiseTraceLen
		if n <= 0 {
			n = 60000
		}
		profile := noise.MeyerHeavy()
		if cfg.NoiseProfile != nil {
			profile = *cfg.NoiseProfile
		}
		model = noise.Train(noise.GenerateTraceProfile(n, cfg.NoiseTraceSeed, profile))
	}
	med, err := radio.NewMedium(eng, cfg.Dep, model, cfg.Radio, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if cfg.WifiPowerDBm != 0 {
		med.SetInterferer(noise.NewWifiInterferer(sim.DeriveRNG(cfg.Seed, 0xbeef), cfg.WifiPowerDBm))
	}
	n := cfg.Dep.Len()
	net := &Net{
		Eng:     eng,
		Medium:  med,
		Dep:     cfg.Dep,
		Sink:    radio.NodeID(cfg.Dep.Sink),
		Stacks:  make([]*Stack, n),
		Bus:     telemetry.NewBus(eng.Now),
		Metrics: telemetry.NewRegistry(),
		cfg:     cfg,
	}
	// The radio tap costs one callback per frame event, so it is only
	// installed once something subscribes to the radio layer (the invariant
	// oracle, a span collector); until then the medium's trace hook stays
	// nil and frames cost nothing.
	net.Bus.OnLayerEnabled(telemetry.LayerRadio, func() {
		med.SetTraceFn(telemetry.RadioTap(net.Bus))
	})
	for i := 0; i < n; i++ {
		id := radio.NodeID(i)
		mcfg := cfg.Mac
		mcfg.AlwaysOn = cfg.Mac.AlwaysOn || id == net.Sink
		st := &Stack{}
		st.Mac = mac.New(eng, med.Radio(id), mcfg, sim.DeriveRNG(cfg.Seed, 0x1000+uint64(i)), nil)
		st.Node = node.New(eng, st.Mac)
		st.Ctp = ctp.New(st.Node, cfg.Ctp, sim.DeriveRNG(cfg.Seed, 0x2000+uint64(i)), id == net.Sink)
		if build != nil {
			st.Ctrl = build(&net.cfg, st.Node, st.Ctp, i)
		}
		net.wireTelemetry(st)
		net.Stacks[i] = st
		// The on-time gauge reads the radio through the medium, which
		// survives reboots: it measures the mote's energy history, not the
		// current stack instance's, so it is registered once per node.
		r := med.Radio(id)
		net.Metrics.GaugeFunc(telemetry.LayerRadio, id, "on-time-s", func() float64 {
			return r.OnTime().Seconds()
		})
	}
	net.alive = make([]bool, n)
	for i := range net.alive {
		net.alive[i] = true
	}
	net.reboots = make([]int, n)
	net.dataTickers = make([]*sim.Ticker, n)
	// The destination-unreachable countermeasure needs the controller's
	// assumed global topology knowledge at the sink.
	if te := net.SinkTele(); te != nil {
		te.SetOracle(net.Oracle())
	}
	if cfg.Fault != nil {
		net.inj = fault.NewInjector(eng, (*netTarget)(net), cfg.Seed)
		if err := net.inj.Schedule(cfg.Fault); err != nil {
			return nil, err
		}
	}
	return net, nil
}

// telemetrySettable is implemented by control protocols that emit events
// onto the bus.
type telemetrySettable interface {
	SetTelemetry(*telemetry.Bus)
}

// wireTelemetry hands a (fresh) stack the event bus.
func (n *Net) wireTelemetry(st *Stack) {
	st.Mac.SetTelemetry(n.Bus)
	if ts, ok := st.Ctrl.(telemetrySettable); ok {
		ts.SetTelemetry(n.Bus)
	}
}

// Start launches the MAC, the collection substrate, and the control
// protocol on every node.
func (n *Net) Start() {
	for _, st := range n.Stacks {
		st.Mac.Start()
		st.Ctp.Start()
		if st.Ctrl != nil {
			st.Ctrl.Start()
		}
	}
}

// dataReading is the background collection payload (the paper's concurrent
// data traffic); the sink-side hooks ignore it.
type dataReading struct {
	Seq int
}

// startDataTraffic begins periodic upward data packets from every live
// non-sink node at the given inter-packet interval, with random phases.
// Tickers are tracked per node so KillNode silences a dead node's
// application traffic too.
func (n *Net) startDataTraffic(ipi time.Duration, seed uint64) {
	n.dataIPI, n.dataSeed = ipi, seed
	rng := sim.DeriveRNG(seed, 0xda7a)
	for i := range n.Stacks {
		id := radio.NodeID(i)
		if id == n.Sink {
			continue
		}
		// The phase is drawn for dead nodes too, so a fault plan never
		// shifts the phases of the surviving nodes.
		phase := time.Duration(rng.Int64N(int64(ipi)))
		if !n.alive[i] {
			continue
		}
		n.startNodeData(id, phase)
	}
}

func (n *Net) startNodeData(id radio.NodeID, phase time.Duration) {
	c := n.Stacks[id].Ctp
	seq := 0
	tk := sim.NewTicker(n.Eng, n.dataIPI, func() {
		seq++
		_ = c.SendToSink(&dataReading{Seq: seq})
	})
	tk.StartWithOffset(phase)
	n.dataTickers[id] = tk
}

// KillNode models a node failure: every protocol stops, the node's
// application traffic ceases, pending MAC events are cancelled eagerly,
// and the radio goes dark immediately. Idempotent on a dead node. The
// sink cannot be killed through this path (partition it instead).
func (n *Net) KillNode(id radio.NodeID) {
	if id == n.Sink || !n.alive[id] {
		return
	}
	n.alive[id] = false
	if tk := n.dataTickers[id]; tk != nil {
		tk.Stop()
		n.dataTickers[id] = nil
	}
	st := n.Stacks[id]
	st.Ctp.Stop()
	if st.Ctrl != nil {
		st.Ctrl.Stop()
	}
	st.Mac.Kill()
}

// RebootNode resurrects a crashed node with a completely fresh protocol
// stack (a rebooted mote loses all volatile state: routes, codes, MAC
// phase). The fresh stack reuses the node's original seed streams, which
// keeps replicated runs deterministic. No-op on a live node.
func (n *Net) RebootNode(id radio.NodeID) {
	if n.alive[id] {
		return
	}
	i := int(id)
	n.reboots[i]++
	mcfg := n.cfg.Mac
	mcfg.AlwaysOn = n.cfg.Mac.AlwaysOn || id == n.Sink
	st := &Stack{}
	st.Mac = mac.New(n.Eng, n.Medium.Radio(id), mcfg, sim.DeriveRNG(n.cfg.Seed, 0x1000+uint64(i)), nil)
	st.Node = node.New(n.Eng, st.Mac)
	st.Ctp = ctp.New(st.Node, n.cfg.Ctp, sim.DeriveRNG(n.cfg.Seed, 0x2000+uint64(i)), id == n.Sink)
	if build, err := builderFor(n.cfg.Protocol); err == nil && build != nil {
		st.Ctrl = build(&n.cfg, st.Node, st.Ctp, i)
	}
	n.wireTelemetry(st)
	n.Stacks[i] = st
	n.alive[i] = true
	st.Mac.Start()
	st.Ctp.Start()
	if st.Ctrl != nil {
		st.Ctrl.Start()
	}
	if id == n.Sink {
		if te := n.SinkTele(); te != nil {
			te.SetOracle(n.Oracle())
		}
	}
	if n.dataIPI > 0 {
		// Fresh deterministic phase: derived from the node id and its
		// reboot count so repeated reboots do not replay each other.
		rng := sim.DeriveRNG(n.dataSeed, 0xda7a0+uint64(i)<<8+uint64(n.reboots[i]))
		n.startNodeData(id, time.Duration(rng.Int64N(int64(n.dataIPI))))
	}
}

// Alive reports whether the node has not been killed (or has been
// rebooted since).
func (n *Net) Alive(id radio.NodeID) bool { return n.alive[id] }

// FaultInjector returns the injector executing Config.Fault, or nil when
// the network was built without a plan.
func (n *Net) FaultInjector() *fault.Injector { return n.inj }

// InjectPlan schedules an additional fault plan against the running
// network. Plans whose state is only known mid-run (e.g. "crash the
// destination's current parent") cannot be written at build time; tests
// converge first, inspect the tree, and inject the plan they need. Event
// times are absolute simulation times; times already in the past fire
// immediately. Creates the injector lazily when the network was built
// without Config.Fault.
func (n *Net) InjectPlan(p *fault.Plan) error {
	if n.inj == nil {
		n.inj = fault.NewInjector(n.Eng, (*netTarget)(n), n.cfg.Seed)
	}
	return n.inj.Schedule(p)
}

// netTarget adapts Net to the fault injector's Target interface.
type netTarget Net

var _ fault.Target = (*netTarget)(nil)

func (t *netTarget) NumNodes() int          { return len(t.Stacks) }
func (t *netTarget) Crash(id radio.NodeID)  { (*Net)(t).KillNode(id) }
func (t *netTarget) Reboot(id radio.NodeID) { (*Net)(t).RebootNode(id) }
func (t *netTarget) AddLinkOffsetDB(from, to radio.NodeID, dB float64) {
	t.Medium.AddLinkOffsetDB(from, to, dB)
}
func (t *netTarget) SetDropFn(fn func(rx radio.NodeID, f *radio.Frame) bool) {
	t.Medium.SetDropFn(fn)
}

// Ctrl returns the node's control-protocol instance (nil for
// collection-only networks).
func (n *Net) Ctrl(id radio.NodeID) protocol.ControlProtocol { return n.Stacks[id].Ctrl }

// SinkCtrl returns the sink's control-protocol instance (the controller
// side of whatever protocol the network was built with).
func (n *Net) SinkCtrl() protocol.ControlProtocol { return n.Stacks[n.Sink].Ctrl }

// Tele returns the node's TeleAdjusting engine, or nil when the network
// runs a different (or no) control protocol. The coding and scope studies
// use it for path-code introspection beyond the uniform interface.
func (n *Net) Tele(id radio.NodeID) *core.Engine {
	te, _ := n.Stacks[id].Ctrl.(*core.Engine)
	return te
}

// SinkTele returns the sink's TeleAdjusting engine (controller side), or
// nil when the network runs a different protocol.
func (n *Net) SinkTele() *core.Engine { return n.Tele(n.Sink) }

// Drip returns the node's Drip instance, or nil for other stacks.
func (n *Net) Drip(id radio.NodeID) *drip.Drip {
	d, _ := n.Stacks[id].Ctrl.(*drip.Drip)
	return d
}

// SinkDrip returns the sink's Drip instance (controller side), or nil.
func (n *Net) SinkDrip() *drip.Drip { return n.Drip(n.Sink) }

// RPL returns the node's RPL instance, or nil for other stacks.
func (n *Net) RPL(id radio.NodeID) *rpl.RPL {
	r, _ := n.Stacks[id].Ctrl.(*rpl.RPL)
	return r
}

// SinkRPL returns the sink's RPL instance (controller side), or nil.
func (n *Net) SinkRPL() *rpl.RPL { return n.RPL(n.Sink) }

// Run advances the simulation by d.
func (n *Net) Run(d time.Duration) error {
	return n.Eng.Run(n.Eng.Now() + d)
}

// CTPHops walks the parent chain from id to the sink; -1 on detachment or
// loop.
func (n *Net) CTPHops(id radio.NodeID) int {
	cur := id
	for hops := 0; hops <= len(n.Stacks); hops++ {
		if cur == n.Sink {
			return hops
		}
		p := n.Stacks[cur].Ctp.Parent()
		if p == ctp.NoParent {
			return -1
		}
		cur = p
	}
	return -1
}

// TreeCoverage returns the fraction of non-sink nodes attached loop-free.
func (n *Net) TreeCoverage() float64 {
	attached := 0
	for i := range n.Stacks {
		if radio.NodeID(i) == n.Sink {
			continue
		}
		if n.CTPHops(radio.NodeID(i)) > 0 {
			attached++
		}
	}
	return float64(attached) / float64(len(n.Stacks)-1)
}

// CodeCoverage returns the fraction of non-sink nodes holding a path code
// (0 when the network does not run TeleAdjusting).
func (n *Net) CodeCoverage() float64 {
	have, teles := 0, 0
	for i := range n.Stacks {
		id := radio.NodeID(i)
		te := n.Tele(id)
		if te == nil || id == n.Sink {
			continue
		}
		teles++
		if _, ok := te.Code(); ok {
			have++
		}
	}
	if teles == 0 {
		return 0
	}
	return float64(have) / float64(len(n.Stacks)-1)
}

// controlTx sums the control protocol's logical transmissions
// network-wide (the Table III metric).
func (n *Net) controlTx() uint64 {
	var sum uint64
	for _, st := range n.Stacks {
		if st.Ctrl != nil {
			sum += st.Ctrl.ControlTx()
		}
	}
	return sum
}

// detailPerPacket sums the control protocol's diagnostic counters
// network-wide and normalizes them per sent packet.
func (n *Net) detailPerPacket(sent int) map[string]float64 {
	totals := make(map[string]uint64)
	for _, st := range n.Stacks {
		if st.Ctrl == nil {
			continue
		}
		for k, v := range st.Ctrl.Detail() {
			totals[k] += v
		}
	}
	d := make(map[string]float64, len(totals))
	for k, v := range totals {
		d[k+"/pkt"] = float64(v) / float64(max(1, sent))
	}
	return d
}

// collectATHX gathers Fig-8 samples recorded after phaseStart.
func (n *Net) collectATHX(sc *stats.Scatter, phaseStart time.Duration) {
	for i, st := range n.Stacks {
		id := radio.NodeID(i)
		if id == n.Sink || st.Ctrl == nil {
			continue
		}
		hops := n.CTPHops(id)
		if hops <= 0 {
			continue
		}
		for _, s := range st.Ctrl.ATHX() {
			if s.At >= phaseStart {
				sc.Add(float64(hops), float64(s.Hops))
			}
		}
	}
}

// mediumOracle adapts the radio medium to the controller's topology
// oracle.
type mediumOracle struct {
	med     *radio.Medium
	power   float64
	minLink float64
}

var _ core.Oracle = (*mediumOracle)(nil)

// Oracle returns a topology oracle backed by the simulation medium (the
// controller's assumed global knowledge).
func (n *Net) Oracle() core.Oracle {
	return &mediumOracle{med: n.Medium, power: n.cfg.Mac.TxPowerDBm, minLink: 0.2}
}

func (o *mediumOracle) NeighborsOf(id radio.NodeID) []radio.NodeID {
	var out []radio.NodeID
	for j := 0; j < o.med.NumNodes(); j++ {
		nid := radio.NodeID(j)
		if nid == id {
			continue
		}
		if o.med.ExpectedPRR(nid, id, o.power, 32) >= o.minLink {
			out = append(out, nid)
		}
	}
	return out
}

func (o *mediumOracle) LinkQuality(a, b radio.NodeID) float64 {
	return o.med.ExpectedPRR(a, b, o.power, 32)
}
