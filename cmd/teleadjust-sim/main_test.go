package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"teleadjust/internal/experiment"
)

// mustParse parses args and fails the test on an error.
func mustParse(t *testing.T, args ...string) *cliConfig {
	t.Helper()
	c, err := parse(args)
	if err != nil {
		t.Fatalf("%q rejected: %v", args, err)
	}
	return c
}

// registered returns a flag set with every flag registered.
func registered() *flag.FlagSet {
	fs := flag.NewFlagSet("teleadjust-sim", flag.PanicOnError)
	new(cliConfig).register(fs)
	return fs
}

// scopedFlagNames lists every flag some study's table entry names.
func scopedFlagNames() []string {
	var names []string
	for _, st := range studies {
		for _, f := range st.flags {
			if !slices.Contains(names, f) {
				names = append(names, f)
			}
		}
	}
	return names
}

// TestScopedFlagUsageNamesItsStudies checks each study-scoped flag's help
// text: it names every study that accepts the flag and no other.
func TestScopedFlagUsageNamesItsStudies(t *testing.T) {
	fs := registered()
	for _, name := range scopedFlagNames() {
		fl := fs.Lookup(strings.TrimPrefix(name, "-"))
		if fl == nil {
			t.Errorf("%s is not registered", name)
			continue
		}
		words := strings.FieldsFunc(fl.Usage, func(r rune) bool { return r != '-' && (r < 'a' || r > 'z') })
		for _, st := range studies {
			if named, accepts := slices.Contains(words, st.name), slices.Contains(st.flags, name); named != accepts {
				t.Errorf("%s usage %q: names %s = %v, accepted = %v", name, fl.Usage, st.name, named, accepts)
			}
		}
	}
}

// TestSingleStudyFlagDefaults: a flag only one study reads defaults to
// that study's own option, so -h prints the default the run uses.
// (-trace-op, -trace-sample, -progress, -convergence and -codecs have no
// study option default: unset, they switch their feature off or, for
// -codecs, compare every codec.)
func TestSingleStudyFlagDefaults(t *testing.T) {
	thr, svc := experiment.DefaultThroughputOpts(), experiment.DefaultServiceOpts()
	want := map[string]any{
		"workload":     thr.Mode,
		"conc":         joinList(thr.Concurrency),
		"joins":        experiment.DefaultCodingSchemesOpts().Joins,
		"batch-window": svc.BatchWindow,
		"batch-bits":   svc.BatchBits,
		"max-batch":    svc.MaxBatch,
		"cache-ttl":    svc.CacheTTL,
		"cache-cap":    svc.CacheCap,
		"queue-depth":  svc.QueueDepth,
		"high-water":   svc.HighWater,
		"shed":         svc.Policy,
	}
	fs := registered()
	for name, def := range want {
		if by := acceptedBy("-" + name); by == "" || strings.Contains(by, ",") {
			t.Errorf("-%s is accepted by %q, not by one study", name, by)
		}
		if got := fs.Lookup(name).DefValue; got != fmt.Sprint(def) {
			t.Errorf("-%s defaults to %q, its study to %v", name, got, def)
		}
	}
	// Unset, the flags leave the study defaults as they are.
	if opts, err := mustParse(t, "-study", "service").serviceOpts(); err != nil || !reflect.DeepEqual(opts, svc) {
		t.Errorf("unset service opts = %+v, %v; want %+v", opts, err, svc)
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	mustParse(t)
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		args    string
		wantSub string
	}{
		{"reps zero", "-reps 0", "-reps"},
		{"reps negative", "-reps -3", "-reps"},
		{"parallel without reps", "-parallel 4", "-parallel"},
		{"parallel negative", "-parallel -1", "-parallel"},
		{"svg with reps", "-reps 4 -svg out.svg", "-svg"},
		{"packets zero", "-packets 0", "-packets"},
		{"interval zero", "-interval 0", "-interval"},
		{"dur zero", "-dur 0", "-dur"},
		{"warmup negative", "-warmup -1s", "-warmup"},
		{"trace on coding", "-study coding -trace x.jsonl", "-trace"},
		{"trace-op on throughput", "-study throughput -trace-op 3", "-trace-op"},
		{"trace-op negative", "-trace-op -1", "-trace-op"},
		{"progress negative", "-progress -1m", "-progress"},
		{"progress on coding", "-study coding -progress 1m", "-progress"},
		{"progress with reps", "-progress 1m -reps 4", "-reps 1"},
		{"convergence on throughput", "-study throughput -convergence conv.txt", "-convergence"},
		{"trace-sample negative", "-trace x.jsonl -trace-sample -2", "-trace-sample"},
		{"trace-sample without trace", "-trace-sample 8", "-trace"},
		{"trace-sample on throughput", "-study throughput -trace x.jsonl -trace-sample 4", "-trace-sample"},
		{"workload outside throughput", "-workload closed", "-workload"},
		{"rates outside throughput", "-rates 0.2", "-rates"},
		{"conc outside throughput", "-conc 1,2", "-conc"},
		{"ops outside throughput", "-ops 10", "-ops"},
		{"dist outside throughput", "-dist uniform", "-dist"},
		{"window outside throughput", "-window 4", "-window"},
		{"csv outside throughput", "-csv x.csv", "-csv"},
		{"rates with closed loop", "-study throughput -rates 0.2", "-rates"},
		{"conc with open loop", "-study throughput -workload open -rates 0.2 -conc 1,2", "-conc"},
		{"open loop without rates", "-study throughput -workload open", "-rates"},
		{"unknown workload", "-study throughput -workload bursty", "workload"},
		{"unknown codec", "-codec morse", "codec"},
		{"retired huffman codec", "-codec huffman", "unknown codec"},
		{"codec with drip", "-codec treeexplorer -proto drip", "-codec"},
		{"codec with rpl", "-codec paper -proto rpl", "-codec"},
		{"codec with coding-schemes", "-study coding-schemes -codec paper", "-codecs"},
		{"codecs outside coding-schemes", "-codecs paper,treeexplorer", "-codecs"},
		{"joins outside coding-schemes", "-joins 2", "-joins"},
		{"joins negative", "-study coding-schemes -joins -2", "-joins"},
		{"unknown codec in codecs list", "-study coding-schemes -codecs paper,morse", "codec"},
		{"svg with coding-schemes", "-study coding-schemes -svg out.svg", "-svg"},
		{"batch-window outside service", "-batch-window 1s", "-batch-window"},
		{"batch-window zero outside service", "-batch-window 0", "-batch-window"},
		{"batch-bits outside service", "-batch-bits 6", "-batch-bits"},
		{"max-batch outside service", "-max-batch 8", "-max-batch"},
		{"cache-ttl outside service", "-cache-ttl 1m", "-cache-ttl"},
		{"cache-cap outside service", "-cache-cap 64", "-cache-cap"},
		{"queue-depth outside service", "-queue-depth 32", "-queue-depth"},
		{"high-water outside service", "-high-water 16", "-high-water"},
		{"shed outside service", "-shed delay", "-shed"},
		{"service flag on throughput", "-study throughput -cache-ttl 1m", "-cache-ttl"},
		{"workload with service", "-study service -workload open", "-workload"},
		{"conc with service", "-study service -conc 1,2", "-conc"},
		{"unknown shed policy", "-study service -shed drop", "-shed"},
		{"max-batch below two", "-study service -max-batch 1", "-max-batch"},
		{"max-batch above wire bound", "-study service -max-batch 300", "-max-batch"},
		{"batch-bits above key width", "-study service -batch-bits 64", "-batch-bits"},
		{"cache-ttl negative", "-study service -cache-ttl -1s", "-cache-ttl"},
		{"high-water above queue-depth", "-study service -queue-depth 16 -high-water 32", "-high-water"},
		{"service ops negative", "-study service -ops -1", "-ops"},
		{"service window negative", "-study service -window -1", "-window"},
		{"unknown protocol", "-proto bogus", "unknown protocol"},
		{"unknown study", "-study bogus", "unknown study"},
		{"unknown scenario", "-scenario bogus", "unknown scenario"},
		{"unknown scenario in list", "-study coding-schemes -scenario indoor,bogus", "unknown scenario"},
		{"scope with reps", "-study scope -reps 2", "-reps"},
	}
	for _, tc := range cases {
		_, err := parse(strings.Fields(tc.args))
		if err == nil {
			t.Errorf("%s: %s accepted", tc.name, tc.args)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestValidateReportsFirstMisplacedFlag: with several study-scoped flags
// misplaced at once, validate reports the same one every time, whatever
// their order on the command line.
func TestValidateReportsFirstMisplacedFlag(t *testing.T) {
	args := []string{"-rates", "0.2", "-csv", "x.csv", "-dist", "uniform"}
	_, want := parse(args)
	if want == nil {
		t.Fatal("misplaced throughput flags accepted")
	}
	for i := 0; i < 200; i++ {
		shuffled := slices.Concat(args[2*(i%3):], args[:2*(i%3)])
		if _, got := parse(shuffled); got == nil || got.Error() != want.Error() {
			t.Fatalf("call %d (%q): error %v, first call gave %v", i, shuffled, got, want)
		}
	}
}

// TestValidateAcceptsEveryRegisteredProtocol: -proto takes exactly the
// experiment protocol table's keys.
func TestValidateAcceptsEveryRegisteredProtocol(t *testing.T) {
	for _, p := range experiment.Protocols() {
		mustParse(t, "-proto", string(p))
	}
}

// TestValidateAcceptsEveryScenario: -scenario takes every name of the
// experiment scenario table, one at a time or as a coding-schemes list.
func TestValidateAcceptsEveryScenario(t *testing.T) {
	names := experiment.ScenarioNames()
	for _, name := range names {
		mustParse(t, "-scenario", name)
	}
	mustParse(t, "-study", "coding-schemes", "-scenario", strings.Join(names, ","))
}

func TestValidateAcceptsThroughputCombos(t *testing.T) {
	mustParse(t, "-study", "throughput", "-conc", "1,2,4,8", "-ops", "40", "-dist", "hotspot", "-csv", "sweep.csv")
	mustParse(t, "-study", "throughput", "-workload", "open", "-rates", "0.1,0.2,0.4", "-window", "16", "-trace", "events.jsonl")
	// Standalone -trace-op on a control study is a documented usage.
	mustParse(t, "-trace-op", "17")
	mustParse(t, "-reps", "4", "-parallel", "4")
}

func TestValidateAcceptsObservabilityCombos(t *testing.T) {
	// The full live-run surface on a single-replication control study.
	mustParse(t, "-progress", "1m", "-convergence", "conv.txt", "-trace", "ops.jsonl", "-trace-sample", "8",
		"-cpuprofile", "cpu.pprof", "-memprofile", "mem.pprof", "-exectrace", "trace.out")
	// The merged convergence report stays available on replicated runs —
	// only the live -progress stream is single-replication.
	mustParse(t, "-reps", "4", "-convergence", "conv.txt")
	// Profile captures are study-agnostic.
	mustParse(t, "-study", "coding", "-cpuprofile", "cpu.pprof")
}

func TestValidateAcceptsCodecCombos(t *testing.T) {
	// -codec with every TeleAdjusting variant.
	for _, proto := range []string{"tele", "retele", "strict", "teleadjust"} {
		mustParse(t, "-proto", proto, "-codec", "treeexplorer")
	}
	// The coding-schemes study with its own knobs.
	s := mustParse(t, "-study", "coding-schemes", "-codecs", "paper, treeexplorer", "-joins", "0", "-csv", "codecs.csv")
	if s.schemes.Joins != 0 {
		t.Fatalf("-joins 0 read as %d", s.schemes.Joins)
	}
	if got := splitList(s.codecs); len(got) != 2 || got[0] != "paper" || got[1] != "treeexplorer" {
		t.Fatalf("splitList = %v", got)
	}
	if got := splitList(""); got != nil {
		t.Fatalf("splitList(\"\") = %v, want nil", got)
	}
}

func TestParseConcurrency(t *testing.T) {
	got, err := parseConcurrency("1, 2,8")
	if err != nil || len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 8 {
		t.Fatalf("parseConcurrency = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-1", "a", "1,,2"} {
		if _, err := parseConcurrency(bad); err == nil {
			t.Errorf("parseConcurrency(%q) accepted", bad)
		}
	}
}

func TestParseRates(t *testing.T) {
	got, err := parseRates("0.1,0.25, 2")
	if err != nil || len(got) != 3 || got[0] != 0.1 || got[1] != 0.25 || got[2] != 2 {
		t.Fatalf("parseRates = %v, %v", got, err)
	}
	for _, bad := range []string{"", "0", "-0.5", "x"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) accepted", bad)
		}
	}
}

func TestThroughputOptsFromFlags(t *testing.T) {
	c := mustParse(t, "-study", "throughput", "-workload", "open", "-rates", "0.1,0.4", "-ops", "25",
		"-dist", "depth", "-window", "12", "-warmup", "2m")
	opts, err := c.throughputOpts()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Mode != "open" || len(opts.Rates) != 2 || opts.Ops != 25 ||
		opts.Dist != "depth" || opts.Window != 12 || opts.Warmup != 2*time.Minute {
		t.Fatalf("opts = %+v", opts)
	}
	// Defaults survive when the knobs are left unset.
	opts, err = mustParse(t, "-study", "throughput").throughputOpts()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Mode != "closed" || len(opts.Concurrency) != 4 || opts.Ops != 40 {
		t.Fatalf("default opts = %+v", opts)
	}
}

func TestValidateAcceptsServiceCombos(t *testing.T) {
	mustParse(t, "-study", "service", "-rates", "0.5,2.0", "-ops", "120", "-dist", "hotspot", "-window", "16",
		"-csv", "svc.csv", "-trace", "svc.jsonl", "-batch-window", "2s", "-batch-bits", "6", "-max-batch", "8",
		"-cache-ttl", "5m", "-cache-cap", "256", "-queue-depth", "64", "-high-water", "48", "-shed", "delay")
	// Explicit zeros disable features without tripping validation: this is
	// the transparent configuration whose trace replays the open-loop
	// throughput study.
	mustParse(t, "-study", "service", "-batch-window", "0", "-cache-ttl", "0", "-queue-depth", "0", "-high-water", "0")
	mustParse(t, "-study", "service")
}

func TestServiceOptsFromFlags(t *testing.T) {
	c := mustParse(t, "-study", "service", "-rates", "0.25,1.5", "-ops", "60", "-dist", "uniform", "-window", "24",
		"-warmup", "3m", "-batch-window", "4s", "-batch-bits", "8", "-max-batch", "12", "-cache-ttl", "1m",
		"-cache-cap", "32", "-queue-depth", "20", "-high-water", "10", "-shed", "delay")
	opts, err := c.serviceOpts()
	if err != nil {
		t.Fatal(err)
	}
	if len(opts.Rates) != 2 || opts.Rates[1] != 1.5 || opts.Ops != 60 ||
		opts.Dist != "uniform" || opts.Window != 24 || opts.Warmup != 3*time.Minute {
		t.Fatalf("opts = %+v", opts)
	}
	if opts.BatchWindow != 4*time.Second || opts.BatchBits != 8 || opts.MaxBatch != 12 {
		t.Fatalf("batch knobs = %+v", opts)
	}
	if opts.CacheTTL != time.Minute || opts.CacheCap != 32 {
		t.Fatalf("cache knobs = %+v", opts)
	}
	if opts.QueueDepth != 20 || opts.HighWater != 10 || opts.Policy != "delay" {
		t.Fatalf("backpressure knobs = %+v", opts)
	}
	if opts.Transparent() {
		t.Fatal("fully configured service reported transparent")
	}
	// Defaults survive when the knobs are left unset; explicit zeros
	// disable every feature and make the study transparent.
	opts, err = mustParse(t, "-study", "service").serviceOpts()
	if err != nil {
		t.Fatal(err)
	}
	if opts.BatchWindow != 500*time.Millisecond || opts.MaxBatch != 16 || opts.Policy != "delay" {
		t.Fatalf("default opts = %+v", opts)
	}
	opts, err = mustParse(t, "-study", "service", "-batch-window", "0", "-cache-ttl", "0",
		"-queue-depth", "0", "-high-water", "0").serviceOpts()
	if err != nil {
		t.Fatal(err)
	}
	if !opts.Transparent() {
		t.Fatalf("zeroed service opts not transparent: %+v", opts)
	}
}

// TestScopeStudyWritesSVG drives the CLI end to end: -svg on the scope
// study must leave a topology file, as it does for every other study
// that accepts the flag.
func TestScopeStudyWritesSVG(t *testing.T) {
	path := filepath.Join(t.TempDir(), "scope.svg")
	if err := run([]string{"-scenario", "line", "-study", "scope", "-warmup", "3m", "-svg", path}); err != nil {
		t.Fatal(err)
	}
	svg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(svg), "<svg") {
		t.Fatalf("scope -svg wrote %d bytes that are not an SVG", len(svg))
	}
}
