package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"teleadjust/internal/experiment"
	"teleadjust/internal/fault"
	"teleadjust/internal/stats"
	"teleadjust/internal/telemetry"
)

// tracer is the traced pass's single telemetry sink. Subscribed to every
// layer of each replication's bus, it counts code reports and keeps the op
// milestones it needs to split each successful operation into spans:
// submit, park, queue, issue→consume and consume→ack. It also runs the
// fault oracle on the radio layer.
type tracer struct {
	reported   uint64 // code.reported events
	violations []fault.Violation
	spans      []span
	down       stats.Series // op.issue → first op.consume, OK ops
	downPerHop stats.Series // the same divided by the consume event's hop count
	ack        stats.Series // op.consume → op.e2e-ack
	unlinked   int          // OK operations whose milestones were not all seen

	rep     int
	oracle  *fault.Oracle
	issue   map[uint32]time.Duration
	consume map[uint32]consumeMark
	acks    map[uint32]ackMark
}

type consumeMark struct {
	at   time.Duration
	hops uint8
}

type ackMark struct {
	at time.Duration
	op uint32
}

// span is one interval of an operation's life, in simulated seconds. Spans
// of one operation share its scheduler ticket; every span but the root
// names the root as its parent.
type span struct {
	Rep    int     `json:"rep"`
	Op     uint32  `json:"op"`
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newTracer() *tracer { return &tracer{} }

// attach subscribes the tracer and a fresh oracle to a built network.
func (t *tracer) attach(net *experiment.Net, scn experiment.Scenario, proto experiment.Proto, rep int) {
	t.rep = rep
	t.issue = make(map[uint32]time.Duration)
	t.consume = make(map[uint32]consumeMark)
	t.acks = make(map[uint32]ackMark)
	rescue := scn.Tele.Rescue
	switch proto {
	case experiment.ProtoReTele:
		rescue = true
	case experiment.ProtoTele, experiment.ProtoTeleStrict:
		rescue = false
	}
	t.oracle = fault.NewOracle(fault.OracleConfig{
		NumNodes:       net.Dep.Len(),
		Sink:           net.Sink,
		RetryRounds:    scn.Tele.RetryRounds,
		Backtracks:     scn.Tele.Backtracks,
		ControlTimeout: scn.Tele.ControlTimeout,
		RescueEnabled:  rescue,
	})
	t.oracle.TeleAt = net.Tele
	t.oracle.Alive = net.Alive
	t.oracle.Now = net.Eng.Now
	net.Bus.Subscribe(t.oracle, telemetry.LayerRadio)
	net.Bus.Subscribe(t)
}

// Consume implements telemetry.Sink.
func (t *tracer) Consume(ev telemetry.Event) {
	switch ev.Kind {
	case telemetry.KindCodeReported:
		t.reported++
	case telemetry.KindOpIssue:
		if _, ok := t.issue[ev.Op]; !ok {
			t.issue[ev.Op] = ev.At
		}
	case telemetry.KindOpConsume:
		if _, ok := t.consume[ev.Op]; !ok {
			t.consume[ev.Op] = consumeMark{at: ev.At, hops: ev.Hops}
		}
	case telemetry.KindOpE2EAck:
		t.acks[ev.UID] = ackMark{at: ev.At, op: ev.Op}
	}
}

// finish closes a replication: it runs the oracle's state checks and turns
// each successful operation into its spans.
func (t *tracer) finish(oks []okOp) {
	t.violations = append(t.violations, t.oracle.Check()...)
	for _, o := range oks {
		add := func(name string, from, to time.Duration) {
			s := span{Rep: t.rep, Op: o.ticket, Name: name, Start: from.Seconds(), End: to.Seconds()}
			if name != "op" {
				s.Parent = "op"
			}
			t.spans = append(t.spans, s)
		}
		add("op", o.submitAt, o.doneAt)
		add("park", o.submitAt, o.enqueued)
		add("queue", o.enqueued, o.admitted)
		a, okA := t.acks[o.uid]
		iss, okI := t.issue[a.op]
		c, okC := t.consume[a.op]
		if !okA || !okI || !okC {
			t.unlinked++
			continue
		}
		add("issue-consume", iss, c.at)
		add("consume-ack", c.at, a.at)
		down := (c.at - iss).Seconds()
		t.down.Add(down)
		t.downPerHop.Add(down / float64(max(c.hops, 1)))
		t.ack.Add((a.at - c.at).Seconds())
	}
	t.oracle, t.issue, t.consume, t.acks = nil, nil, nil, nil
}

// writeSpans writes the spans as JSON lines to dir/<name>.
func (t *tracer) writeSpans(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Layer names of the CPU ledger. A sample is charged to the first frame
// from the leaf whose source file lies in the simulator's internal/<pkg>
// directory; trickle and node run inside CTP's layer. The file decides, not
// the symbol: a closure inlined from another package carries its caller's
// package in its name. Frames of the tracing machinery (telemetry, obs,
// fault and this benchmark) form their own bucket, left out of the layer
// shares. Samples without such a frame are the runtime's.
var cpuLayers = []string{"sim", "radio", "noise", "linkest", "mac", "ctp", "core", "sink", "cmdsvc", "runtime"}

const (
	layerTracing = "tracing"
	layerOther   = "other"
)

// benchDir and srcRoot are this benchmark's directory and the simulator's
// source root as the binary records file names: absolute paths, or module
// paths under -trimpath.
var benchDir, srcRoot = func() (string, string) {
	_, file, _, _ := runtime.Caller(0)
	dir := path.Dir(file)
	return dir + "/", path.Dir(dir) + "/"
}()

// frameLayer returns the ledger layer of a frame's source file, or "" when
// the file is outside the module (standard library, runtime) and the walk
// should go on toward the root.
func frameLayer(file string) string {
	if strings.HasPrefix(file, benchDir) {
		return layerTracing
	}
	rest, ok := strings.CutPrefix(file, srcRoot+"internal/")
	if !ok {
		return ""
	}
	pkg, _, _ := strings.Cut(rest, "/")
	switch pkg {
	case "telemetry", "obs", "fault":
		return layerTracing
	case "trickle", "node":
		return "ctp"
	case "sim", "radio", "noise", "linkest", "mac", "ctp", "core", "sink", "cmdsvc":
		return pkg
	}
	return layerOther
}

// cpuLedger is a CPU profile folded onto layers.
type cpuLedger struct {
	ns      map[string]int64 // CPU nanoseconds per layer, tracing and other included
	totalNS int64
}

func foldProfile(p *cpuProfile) cpuLedger {
	l := cpuLedger{ns: make(map[string]int64)}
	for _, s := range p.samples {
		layer := "runtime"
		for _, f := range s.stack {
			if fl := frameLayer(f.file); fl != "" {
				layer = fl
				break
			}
		}
		l.ns[layer] += s.cpuNS
		l.totalNS += s.cpuNS
	}
	return l
}

// share returns a layer's percentage of the CPU outside the tracing bucket.
func (l cpuLedger) share(layer string) float64 {
	base := l.totalNS - l.ns[layerTracing]
	if base <= 0 {
		return 0
	}
	return 100 * float64(l.ns[layer]) / float64(base)
}

// tracingPct is the tracing bucket's percentage of all sampled CPU.
func (l cpuLedger) tracingPct() float64 {
	if l.totalNS == 0 {
		return 0
	}
	return 100 * float64(l.ns[layerTracing]) / float64(l.totalNS)
}

// profiled runs fn under the CPU profiler and returns the decoded profile
// with the process CPU time getrusage reports over the same interval.
func profiled(fn func() error) (*cpuProfile, float64, error) {
	var buf bytes.Buffer
	ru0 := rusageCPU()
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, 0, fmt.Errorf("start CPU profile: %w", err)
	}
	err := fn()
	pprof.StopCPUProfile()
	cpu := rusageCPU() - ru0
	if err != nil {
		return nil, 0, err
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		return nil, 0, fmt.Errorf("decode CPU profile: %w", err)
	}
	return p, cpu, nil
}

// rusageCPU returns the process's user plus system CPU seconds. It feeds
// only the log line and the ledger test's cross-check, so a failed
// getrusage reads as 0 rather than failing the run.
func rusageCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}
