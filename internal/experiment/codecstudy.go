package experiment

import (
	"fmt"
	"time"

	"teleadjust/internal/protocol"
	"teleadjust/internal/radio"
	"teleadjust/internal/sim"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// CodecCell is one codec's column of the coding-schemes comparison on one
// scenario: code-length distribution after construction, label-churn and
// header-byte cost, and delivery accuracy under the same probe sequence
// every codec gets.
type CodecCell struct {
	Codec string
	// Converged is the fraction of non-sink nodes holding a path code at
	// the end of the construction phase.
	Converged float64
	// CodeLen is the per-node path-code length (bits) of converged nodes.
	CodeLen *stats.Series
	// Churn counts label-space changes that had to be re-announced:
	// bit-space extensions (paper codec) plus relabels (variable-length
	// codecs), summed network-wide over the whole run including the
	// mid-probe joins.
	Churn uint64
	// CodeChanges counts node code adoptions network-wide (cascaded
	// re-coding is the secondary cost of churn).
	CodeChanges uint64
	// HeaderBytes is the total destination path-code bytes put on the air
	// by control sends; ControlSends the matching send count.
	HeaderBytes  uint64
	ControlSends uint64

	Sent      int
	Delivered int
	Skipped   int
}

// HeaderBytesPerSend is the mean destination-code header cost of one
// control transmission.
func (c *CodecCell) HeaderBytesPerSend() float64 {
	if c.ControlSends == 0 {
		return 0
	}
	return float64(c.HeaderBytes) / float64(c.ControlSends)
}

// PDR returns the cell's probe delivery ratio.
func (c *CodecCell) PDR() float64 {
	if c.Sent == 0 {
		return 0
	}
	return float64(c.Delivered) / float64(c.Sent)
}

// CodingSchemesResult is the per-scenario codec comparison.
type CodingSchemesResult struct {
	Scenario string
	Codecs   []*CodecCell
}

// CodingSchemesOpts tunes a coding-schemes study.
type CodingSchemesOpts struct {
	// Warmup lets the tree and the code assignment converge before
	// measuring.
	Warmup time.Duration
	// Packets is the number of control probes sent per codec; Interval the
	// inter-probe interval and Drain the straggler allowance.
	Packets  int
	Interval time.Duration
	Drain    time.Duration
	// Joins, when positive, crash-reboots that many random non-sink nodes
	// at evenly spaced points of the probe phase. A rebooted node loses
	// its volatile state and re-joins the code tree, exercising each
	// codec's late-join path (the churn metric's stressor). The node
	// sequence is derived from the scenario seed, so every codec faces the
	// same joins.
	Joins int
}

// DefaultCodingSchemesOpts mirrors the control study's scaled-down
// defaults.
func DefaultCodingSchemesOpts() CodingSchemesOpts {
	return CodingSchemesOpts{
		Warmup:   4 * time.Minute,
		Packets:  20,
		Interval: 15 * time.Second,
		Drain:    time.Minute,
		Joins:    3,
	}
}

// RunCodingSchemesStudy runs one fresh TeleAdjusting network per codec on
// the scenario and compares code-length distribution, churn, header bytes
// on air, and delivery accuracy. Every codec's run draws destinations and
// join victims from the same seed-derived streams, so the cells differ
// only in the coding scheme.
func RunCodingSchemesStudy(scn Scenario, codecs []string, opts CodingSchemesOpts) (*CodingSchemesResult, error) {
	if len(codecs) == 0 {
		return nil, fmt.Errorf("experiment: no codecs given")
	}
	res := &CodingSchemesResult{Scenario: scn.Name}
	for _, codec := range codecs {
		cell, err := runCodecCell(scn, codec, opts)
		if err != nil {
			return nil, fmt.Errorf("codec %q: %w", codec, err)
		}
		res.Codecs = append(res.Codecs, cell)
	}
	return res, nil
}

func runCodecCell(scn Scenario, codec string, opts CodingSchemesOpts) (*CodecCell, error) {
	s := scn
	s.Codec = codec
	net, err := Build(s.config(ProtoTeleAdjust))
	if err != nil {
		return nil, err
	}
	delivery := &deliverySink{at: make(map[uint32]time.Duration)}
	net.Bus.Subscribe(delivery, telemetry.LayerRun)
	if scn.OnNetBuilt != nil {
		scn.OnNetBuilt(net)
	}
	net.Start()
	if err := net.Run(opts.Warmup); err != nil {
		return nil, err
	}

	cell := &CodecCell{Codec: codec, CodeLen: &stats.Series{}}

	// Construction-phase metrics: code-length distribution and coverage.
	withCode := 0
	for i := range net.Stacks {
		id := radio.NodeID(i)
		if id == net.Sink {
			continue
		}
		te := net.Tele(id)
		if te == nil {
			continue
		}
		if code, ok := te.Code(); ok {
			withCode++
			cell.CodeLen.Add(float64(code.Len()))
		}
	}
	cell.Converged = float64(withCode) / float64(net.Dep.Len()-1)

	// Delivery hooks publish run-layer events consumed by the delivery
	// sink, exactly like the control study.
	for i, st := range net.Stacks {
		id := radio.NodeID(i)
		if id == net.Sink || st.Ctrl == nil {
			continue
		}
		st.Ctrl.SetDeliveredFn(func(uid uint32, hops uint8) {
			net.Bus.Emit(telemetry.Event{Layer: telemetry.LayerRun,
				Kind: telemetry.KindOpDelivered, Node: id, Op: uid, Hops: hops})
		})
	}

	// Probe phase: the destination and join streams derive from the
	// scenario seed alone, so every codec's cell sees the same sequence.
	destRNG := sim.DeriveRNG(scn.Seed, 0xc0dec)
	joinRNG := sim.DeriveRNG(scn.Seed, 0x10145)
	joinEvery := 0
	if opts.Joins > 0 {
		joinEvery = opts.Packets / (opts.Joins + 1)
		if joinEvery < 1 {
			joinEvery = 1
		}
	}
	joined := 0
	var sentUIDs []uint32
	ctrl := net.SinkCtrl()
	for p := 0; p < opts.Packets; p++ {
		if joinEvery > 0 && joined < opts.Joins && p > 0 && p%joinEvery == 0 {
			// Crash-reboot a random non-sink node: the fresh stack re-joins
			// the code tree, driving the codec's late-allocation path.
			for tries := 0; tries < 100; tries++ {
				v := radio.NodeID(joinRNG.IntN(net.Dep.Len()))
				if v != net.Sink && net.Alive(v) {
					joined++
					net.KillNode(v)
					net.RebootNode(v)
					break
				}
			}
		}
		dst := radio.BroadcastID
		for tries := 0; tries < 50*net.Dep.Len(); tries++ {
			v := radio.NodeID(destRNG.IntN(net.Dep.Len()))
			if v != net.Sink && net.Alive(v) {
				dst = v
				break
			}
		}
		if dst == radio.BroadcastID {
			cell.Skipped++
			if err := net.Run(opts.Interval); err != nil {
				return nil, err
			}
			continue
		}
		uid, err := ctrl.SendControl(dst, "adjust", func(protocol.Result) {})
		switch {
		case err == nil:
			cell.Sent++
			sentUIDs = append(sentUIDs, uid)
		default:
			// Undeliverable at send time (no code registered yet, e.g.
			// right after a join): counts against delivery accuracy.
			cell.Sent++
			cell.Skipped++
		}
		if err := net.Run(opts.Interval); err != nil {
			return nil, err
		}
	}
	if err := net.Run(opts.Drain); err != nil {
		return nil, err
	}

	for _, uid := range sentUIDs {
		if _, ok := delivery.at[uid]; ok {
			cell.Delivered++
		}
	}
	// Network-wide cost counters, read from the live stacks (a rebooted
	// node's pre-reboot counts are lost with its volatile state — the same
	// accounting for every codec).
	for i := range net.Stacks {
		te := net.Tele(radio.NodeID(i))
		if te == nil {
			continue
		}
		st := te.Stats()
		cell.Churn += st.SpaceExtensions + st.Relabels
		cell.CodeChanges += st.CodeChanges
		cell.ControlSends += st.ControlSends
		cell.HeaderBytes += st.HeaderBytes
	}
	return cell, nil
}

// mergeCodingSchemesResults merges per-seed results in slice order; all
// inputs ran the same codec list.
func mergeCodingSchemesResults(results []*CodingSchemesResult) *CodingSchemesResult {
	if len(results) == 0 {
		return nil
	}
	merged := results[0]
	for _, res := range results[1:] {
		for i, cell := range res.Codecs {
			m := merged.Codecs[i]
			m.Converged += cell.Converged
			for _, v := range cell.CodeLen.Values() {
				m.CodeLen.Add(v)
			}
			m.Churn += cell.Churn
			m.CodeChanges += cell.CodeChanges
			m.HeaderBytes += cell.HeaderBytes
			m.ControlSends += cell.ControlSends
			m.Sent += cell.Sent
			m.Delivered += cell.Delivered
			m.Skipped += cell.Skipped
		}
	}
	for _, m := range merged.Codecs {
		m.Converged /= float64(len(results))
	}
	return merged
}
