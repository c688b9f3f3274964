// The race detector's runtime runs outside Go stacks, so its CPU shows up
// unattributed and the ledger shares below stop meaning anything.

//go:build !race

package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"reflect"
	"testing"
)

// pb is a minimal protobuf encoder for hand-assembling profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, data []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(data)))
	p.b = append(p.b, data...)
	return p
}

func (p *pb) msg(field int, m *pb) *pb { return p.bytes(field, m.b) }

func (p *pb) packed(field int, vs ...uint64) *pb {
	var body []byte
	for _, v := range vs {
		body = binary.AppendUvarint(body, v)
	}
	return p.bytes(field, body)
}

// handFuncs are the functions of the hand-assembled profile, by id - 1.
// Function 6 is telemetry's radio-tap closure inlined into experiment.Build:
// its symbol names the wrong package, its file the right one.
func handFuncs() []frame {
	return []frame{
		{"teleadjust/internal/sim.(*Engine).dispatch", srcRoot + "internal/sim/engine.go"},
		{"math.Pow", "/goroot/src/math/pow.go"},
		{"teleadjust/internal/radio.prrFromSNR", srcRoot + "internal/radio/params.go"},
		{"teleadjust/internal/radio.(*Radio).onAirEnd", srcRoot + "internal/radio/radio.go"},
		{"runtime.mallocgc", "/goroot/src/runtime/malloc.go"},
		{"teleadjust/internal/experiment.Build.func1.RadioTap.1", srcRoot + "internal/telemetry/event.go"},
		{"runtime.gcBgMarkWorker", "/goroot/src/runtime/mgc.go"},
		{"teleadjust/internal/trickle.(*Timer).fire", srcRoot + "internal/trickle/trickle.go"},
		{"main.(*tracer).Consume", benchDir + "ledger.go"},
	}
}

// handProfile builds a gzip-compressed profile with five samples. Location
// 2 holds an inlined frame (math.Pow inlined into radio's PRR curve), and
// the samples mix packed and unpacked repeated fields.
func handProfile(t *testing.T) []byte {
	t.Helper()
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	funcs := handFuncs()
	for _, f := range funcs {
		strs = append(strs, f.name)
	}
	for _, f := range funcs {
		strs = append(strs, f.file)
	}
	p := &pb{}
	p.msg(profSampleType, (&pb{}).varint(valueTypeType, 1).varint(valueTypeUnit, 2))
	p.msg(profSampleType, (&pb{}).varint(valueTypeType, 3).varint(valueTypeUnit, 4))
	for i := range funcs {
		id := uint64(i + 1)
		p.msg(profFunction, (&pb{}).varint(functionID, id).varint(functionName, 4+id).
			varint(functionFilename, 4+uint64(len(funcs))+id))
	}
	line := func(fn uint64) *pb { return (&pb{}).varint(lineFunctionID, fn) }
	p.msg(profLocation, (&pb{}).varint(locationID, 1).msg(locationLine, line(1)))
	p.msg(profLocation, (&pb{}).varint(locationID, 2).msg(locationLine, line(2)).msg(locationLine, line(3)))
	for id := uint64(3); id <= 8; id++ {
		p.msg(profLocation, (&pb{}).varint(locationID, id).msg(locationLine, line(id+1)))
	}
	// radio: math.Pow leaf inside prrFromSNR, called from onAirEnd, from the engine.
	p.msg(profSample, (&pb{}).packed(sampleLocationID, 2, 3, 1).packed(sampleValue, 3, 30e6))
	// tracing: an allocation inside the radio tap, called from the radio.
	p.msg(profSample, (&pb{}).varint(sampleLocationID, 4).varint(sampleLocationID, 5).varint(sampleLocationID, 3).
		varint(sampleValue, 1).varint(sampleValue, 10e6))
	// runtime: no module frame at all.
	p.msg(profSample, (&pb{}).packed(sampleLocationID, 6).packed(sampleValue, 2, 20e6))
	// ctp: trickle runs in CTP's layer.
	p.msg(profSample, (&pb{}).packed(sampleLocationID, 7, 1).packed(sampleValue, 4, 40e6))
	// tracing: the benchmark's own sink.
	p.msg(profSample, (&pb{}).packed(sampleLocationID, 4, 8, 5, 1).packed(sampleValue, 1, 10e6))
	for _, s := range strs {
		p.bytes(profStringTable, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestParseProfile(t *testing.T) {
	prof, err := parseProfile(handProfile(t))
	if err != nil {
		t.Fatal(err)
	}
	f := handFuncs()
	want := []cpuSample{
		{stack: []frame{f[1], f[2], f[3], f[0]}, cpuNS: 30e6},
		{stack: []frame{f[4], f[5], f[3]}, cpuNS: 10e6},
		{stack: []frame{f[6]}, cpuNS: 20e6},
		{stack: []frame{f[7], f[0]}, cpuNS: 40e6},
		{stack: []frame{f[4], f[8], f[5], f[0]}, cpuNS: 10e6},
	}
	if !reflect.DeepEqual(prof.samples, want) {
		t.Fatalf("samples:\n got %+v\nwant %+v", prof.samples, want)
	}

	l := foldProfile(prof)
	wantNS := map[string]int64{"radio": 30e6, layerTracing: 20e6, "runtime": 20e6, "ctp": 40e6}
	if !reflect.DeepEqual(l.ns, wantNS) {
		t.Fatalf("layers: got %v, want %v", l.ns, wantNS)
	}
	if got := l.share("ctp"); math.Abs(got-100*40.0/90) > 1e-9 {
		t.Errorf("ctp share %v, want %v", got, 100*40.0/90)
	}
	if got := l.tracingPct(); math.Abs(got-100*20.0/110) > 1e-9 {
		t.Errorf("tracing %v%%, want %v%%", got, 100*20.0/110)
	}
}

func TestParseProfileRejectsTruncated(t *testing.T) {
	raw := (&pb{}).msg(profSample, (&pb{}).packed(sampleLocationID, 1, 2)).b
	if _, err := parseProfile(raw[:len(raw)-1]); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}

// TestLineLedger profiles a 4-seed line pass — repeated, so the profiled
// interval is long enough to compare against getrusage — and checks the
// ledger's own invariants.
func TestLineLedger(t *testing.T) {
	w := *specs[0]
	w.reps = 4
	const repeats = 8
	tr := newTracer()
	var last *passResult
	prof, rusage, err := profiled(func() error {
		for i := 0; i < repeats; i++ {
			p, err := runPass(&w, 1, tr)
			if err != nil {
				return err
			}
			last = p
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	l := foldProfile(prof)
	var sum float64
	for _, layer := range cpuLayers {
		sum += l.share(layer)
	}
	sum += l.share(layerOther)
	if math.Abs(sum-100) > 0.1 {
		t.Errorf("layer shares sum to %.3f%%, want 100 ± 0.1", sum)
	}
	if got := l.share("noise"); got != 0 {
		t.Errorf("noise.cpu_pct = %v on line, which has no CPM model", got)
	}
	if got := l.share("radio") + l.share("sim"); got < 50 {
		t.Errorf("radio + sim = %.1f%%, want ≥ 50", got)
	}
	if named := 100 - l.share(layerOther); named < 95 {
		t.Errorf("%.1f%% of samples charged to a named layer, want ≥ 95", named)
	}
	sampled := float64(l.totalNS) / 1e9
	if rel := math.Abs(sampled-rusage) / rusage; rel > 0.15 {
		t.Errorf("sampled CPU %.3f s vs getrusage %.3f s: off by %.0f%%", sampled, rusage, 100*rel)
	}
	if n := len(tr.violations); n != 0 {
		t.Errorf("%d oracle violations on line: %v", n, tr.violations)
	}
	if tr.down.Count() != last.sim.ok*repeats || tr.unlinked != 0 {
		t.Errorf("linked %d of %d successful operations (%d unlinked)", tr.down.Count(), last.sim.ok*repeats, tr.unlinked)
	}
}
