package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"teleadjust/internal/experiment"
)

// baseConfig is the flag defaults.
func baseConfig() cliConfig {
	var c cliConfig
	fs := flag.NewFlagSet("teleadjust-sim", flag.PanicOnError)
	c.register(fs)
	_ = fs.Parse(nil)
	return c
}

// TestScopedFlagUsageNamesItsStudies checks each study-scoped flag's help
// text: it names every study that accepts the flag and no other.
func TestScopedFlagUsageNamesItsStudies(t *testing.T) {
	var c cliConfig
	fs := flag.NewFlagSet("teleadjust-sim", flag.PanicOnError)
	c.register(fs)
	for _, f := range c.scopedFlags() {
		fl := fs.Lookup(strings.TrimPrefix(f.name, "-"))
		if fl == nil {
			t.Errorf("%s is not registered", f.name)
			continue
		}
		words := strings.FieldsFunc(fl.Usage, func(r rune) bool { return r != '-' && (r < 'a' || r > 'z') })
		for _, st := range studies {
			if named, accepts := slices.Contains(words, st.name), slices.Contains(st.flags, f.name); named != accepts {
				t.Errorf("%s usage %q: names %s = %v, accepted = %v", f.name, fl.Usage, st.name, named, accepts)
			}
		}
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	c := baseConfig()
	if err := c.validate(); err != nil {
		t.Fatalf("defaults rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*cliConfig)
		wantSub string
	}{
		{"reps zero", func(c *cliConfig) { c.reps = 0 }, "-reps"},
		{"reps negative", func(c *cliConfig) { c.reps = -3 }, "-reps"},
		{"parallel without reps", func(c *cliConfig) { c.parallel = 4 }, "-parallel"},
		{"parallel negative", func(c *cliConfig) { c.parallel = -1 }, "-parallel"},
		{"svg with reps", func(c *cliConfig) { c.reps = 4; c.svg = "out.svg" }, "-svg"},
		{"packets zero", func(c *cliConfig) { c.packets = 0 }, "-packets"},
		{"interval zero", func(c *cliConfig) { c.interval = 0 }, "-interval"},
		{"dur zero", func(c *cliConfig) { c.dur = 0 }, "-dur"},
		{"warmup negative", func(c *cliConfig) { c.warmup = -time.Second }, "-warmup"},
		{"trace on coding", func(c *cliConfig) { c.study = "coding"; c.trace = "x.jsonl" }, "-trace"},
		{"trace-op on throughput", func(c *cliConfig) { c.study = "throughput"; c.traceOp = 3 }, "-trace-op"},
		{"progress negative", func(c *cliConfig) { c.progress = -time.Minute }, "-progress"},
		{"progress on coding", func(c *cliConfig) { c.study = "coding"; c.progress = time.Minute }, "-progress"},
		{"progress with reps", func(c *cliConfig) { c.progress = time.Minute; c.reps = 4 }, "-reps 1"},
		{"convergence on throughput", func(c *cliConfig) { c.study = "throughput"; c.convergence = "conv.txt" }, "-convergence"},
		{"trace-sample negative", func(c *cliConfig) { c.trace = "x.jsonl"; c.traceSample = -2 }, "-trace-sample"},
		{"trace-sample without trace", func(c *cliConfig) { c.traceSample = 8 }, "-trace"},
		{"trace-sample on throughput", func(c *cliConfig) {
			c.study = "throughput"
			c.trace = "x.jsonl"
			c.traceSample = 4
		}, "-trace-sample"},
		{"workload outside throughput", func(c *cliConfig) { c.workload = "closed" }, "-workload"},
		{"rates outside throughput", func(c *cliConfig) { c.rates = "0.2" }, "-rates"},
		{"conc outside throughput", func(c *cliConfig) { c.conc = "1,2" }, "-conc"},
		{"ops outside throughput", func(c *cliConfig) { c.ops = 10 }, "-ops"},
		{"dist outside throughput", func(c *cliConfig) { c.dist = "uniform" }, "-dist"},
		{"window outside throughput", func(c *cliConfig) { c.window = 4 }, "-window"},
		{"csv outside throughput", func(c *cliConfig) { c.csv = "x.csv" }, "-csv"},
		{"rates with closed loop", func(c *cliConfig) { c.study = "throughput"; c.rates = "0.2" }, "-rates"},
		{"conc with open loop", func(c *cliConfig) {
			c.study = "throughput"
			c.workload = "open"
			c.rates = "0.2"
			c.conc = "1,2"
		}, "-conc"},
		{"open loop without rates", func(c *cliConfig) { c.study = "throughput"; c.workload = "open" }, "-rates"},
		{"unknown workload", func(c *cliConfig) { c.study = "throughput"; c.workload = "bursty" }, "workload"},
		{"unknown codec", func(c *cliConfig) { c.codec = "morse" }, "codec"},
		{"retired huffman codec", func(c *cliConfig) { c.codec = "huffman" }, "unknown codec"},
		{"codec with drip", func(c *cliConfig) { c.codec = "treeexplorer"; c.proto = "drip" }, "-codec"},
		{"codec with rpl", func(c *cliConfig) { c.codec = "paper"; c.proto = "rpl" }, "-codec"},
		{"codec with coding-schemes", func(c *cliConfig) { c.study = "coding-schemes"; c.codec = "paper" }, "-codecs"},
		{"codecs outside coding-schemes", func(c *cliConfig) { c.codecs = "paper,treeexplorer" }, "-codecs"},
		{"joins outside coding-schemes", func(c *cliConfig) { c.joins = 2 }, "-joins"},
		{"joins below unset sentinel", func(c *cliConfig) { c.study = "coding-schemes"; c.joins = -2 }, "-joins"},
		{"unknown codec in codecs list", func(c *cliConfig) { c.study = "coding-schemes"; c.codecs = "paper,morse" }, "codec"},
		{"svg with coding-schemes", func(c *cliConfig) { c.study = "coding-schemes"; c.svg = "out.svg" }, "-svg"},
		{"batch-window outside service", func(c *cliConfig) { c.batchWindow = time.Second }, "-batch-window"},
		{"batch-window zero outside service", func(c *cliConfig) { c.batchWindow = 0 }, "-batch-window"},
		{"batch-bits outside service", func(c *cliConfig) { c.batchBits = 6 }, "-batch-bits"},
		{"max-batch outside service", func(c *cliConfig) { c.maxBatch = 8 }, "-max-batch"},
		{"cache-ttl outside service", func(c *cliConfig) { c.cacheTTL = time.Minute }, "-cache-ttl"},
		{"cache-cap outside service", func(c *cliConfig) { c.cacheCap = 64 }, "-cache-cap"},
		{"queue-depth outside service", func(c *cliConfig) { c.queueDepth = 32 }, "-queue-depth"},
		{"high-water outside service", func(c *cliConfig) { c.highWater = 16 }, "-high-water"},
		{"shed outside service", func(c *cliConfig) { c.shed = "delay" }, "-shed"},
		{"service flag on throughput", func(c *cliConfig) { c.study = "throughput"; c.cacheTTL = time.Minute }, "-cache-ttl"},
		{"workload with service", func(c *cliConfig) { c.study = "service"; c.workload = "open" }, "-workload"},
		{"conc with service", func(c *cliConfig) { c.study = "service"; c.conc = "1,2" }, "-conc"},
		{"unknown shed policy", func(c *cliConfig) { c.study = "service"; c.shed = "drop" }, "-shed"},
		{"max-batch below two", func(c *cliConfig) { c.study = "service"; c.maxBatch = 1 }, "-max-batch"},
		{"max-batch above wire bound", func(c *cliConfig) { c.study = "service"; c.maxBatch = 300 }, "-max-batch"},
		{"batch-bits above key width", func(c *cliConfig) { c.study = "service"; c.batchBits = 64 }, "-batch-bits"},
		{"high-water above queue-depth", func(c *cliConfig) {
			c.study = "service"
			c.queueDepth = 16
			c.highWater = 32
		}, "-high-water"},
		{"service ops negative", func(c *cliConfig) { c.study = "service"; c.ops = -1 }, "-ops"},
		{"service window negative", func(c *cliConfig) { c.study = "service"; c.window = -1 }, "-window"},
		{"unknown protocol", func(c *cliConfig) { c.proto = "bogus" }, "unknown protocol"},
		{"unknown study", func(c *cliConfig) { c.study = "bogus" }, "unknown study"},
		{"unknown scenario", func(c *cliConfig) { c.scenario = "bogus" }, "unknown scenario"},
		{"unknown scenario in list", func(c *cliConfig) { c.study = "coding-schemes"; c.scenario = "indoor,bogus" }, "unknown scenario"},
		{"scope with reps", func(c *cliConfig) { c.study = "scope"; c.reps = 2 }, "-reps"},
	}
	for _, tc := range cases {
		c := baseConfig()
		tc.mutate(&c)
		err := c.validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.wantSub)
		}
	}
}

// TestValidateReportsFirstMisplacedFlag: with several study-scoped flags
// misplaced at once, validate reports the same one every time.
func TestValidateReportsFirstMisplacedFlag(t *testing.T) {
	c := baseConfig()
	c.rates = "0.2"
	c.csv = "x.csv"
	c.dist = "uniform"
	want := c.validate()
	if want == nil {
		t.Fatal("misplaced throughput flags accepted")
	}
	for i := 0; i < 200; i++ {
		if got := c.validate(); got == nil || got.Error() != want.Error() {
			t.Fatalf("call %d: error %v, first call gave %v", i, got, want)
		}
	}
}

// TestValidateAcceptsEveryRegisteredProtocol: -proto takes exactly the
// experiment registry's keys.
func TestValidateAcceptsEveryRegisteredProtocol(t *testing.T) {
	for _, p := range experiment.Protocols() {
		c := baseConfig()
		c.proto = string(p)
		if err := c.validate(); err != nil {
			t.Errorf("-proto %s rejected: %v", p, err)
		}
	}
}

func TestValidateAcceptsThroughputCombos(t *testing.T) {
	closed := baseConfig()
	closed.study = "throughput"
	closed.conc = "1,2,4,8"
	closed.ops = 40
	closed.dist = "hotspot"
	closed.csv = "sweep.csv"
	if err := closed.validate(); err != nil {
		t.Fatalf("closed-loop combo rejected: %v", err)
	}
	open := baseConfig()
	open.study = "throughput"
	open.workload = "open"
	open.rates = "0.1,0.2,0.4"
	open.window = 16
	open.trace = "events.jsonl"
	if err := open.validate(); err != nil {
		t.Fatalf("open-loop combo rejected: %v", err)
	}
	// Standalone -trace-op on a control study is a documented usage.
	traced := baseConfig()
	traced.traceOp = 17
	if err := traced.validate(); err != nil {
		t.Fatalf("standalone -trace-op rejected: %v", err)
	}
	replicated := baseConfig()
	replicated.reps = 4
	replicated.parallel = 4
	if err := replicated.validate(); err != nil {
		t.Fatalf("replicated run rejected: %v", err)
	}
}

func TestValidateAcceptsObservabilityCombos(t *testing.T) {
	// The full live-run surface on a single-replication control study.
	live := baseConfig()
	live.progress = time.Minute
	live.convergence = "conv.txt"
	live.trace = "ops.jsonl"
	live.traceSample = 8
	live.cpuprofile = "cpu.pprof"
	live.memprofile = "mem.pprof"
	live.exectrace = "trace.out"
	if err := live.validate(); err != nil {
		t.Fatalf("observability combo rejected: %v", err)
	}
	// The merged convergence report stays available on replicated runs —
	// only the live -progress stream is single-replication.
	merged := baseConfig()
	merged.reps = 4
	merged.convergence = "conv.txt"
	if err := merged.validate(); err != nil {
		t.Fatalf("replicated -convergence rejected: %v", err)
	}
	// Profile captures are study-agnostic.
	prof := baseConfig()
	prof.study = "coding"
	prof.cpuprofile = "cpu.pprof"
	if err := prof.validate(); err != nil {
		t.Fatalf("profiled coding study rejected: %v", err)
	}
}

func TestValidateAcceptsCodecCombos(t *testing.T) {
	// -codec with every TeleAdjusting variant.
	for _, proto := range []string{"tele", "retele", "strict", "teleadjust"} {
		c := baseConfig()
		c.proto = proto
		c.codec = "treeexplorer"
		if err := c.validate(); err != nil {
			t.Errorf("-codec with -proto %s rejected: %v", proto, err)
		}
	}
	// The coding-schemes study with its own knobs.
	s := baseConfig()
	s.study = "coding-schemes"
	s.codecs = "paper, treeexplorer"
	s.joins = 0
	s.csv = "codecs.csv"
	if err := s.validate(); err != nil {
		t.Fatalf("coding-schemes combo rejected: %v", err)
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
	c := baseConfig()
	c.study = "throughput"
	c.workload = "open"
	c.rates = "0.1,0.4"
	c.ops = 25
	c.dist = "depth"
	c.window = 12
	c.warmup = 2 * time.Minute
	opts, err := c.throughputOpts()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Mode != "open" || len(opts.Rates) != 2 || opts.Ops != 25 ||
		opts.Dist != "depth" || opts.Window != 12 || opts.Warmup != 2*time.Minute {
		t.Fatalf("opts = %+v", opts)
	}
	// Defaults survive when the knobs are left unset.
	d := baseConfig()
	d.study = "throughput"
	opts, err = d.throughputOpts()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Mode != "closed" || len(opts.Concurrency) != 4 || opts.Ops != 40 {
		t.Fatalf("default opts = %+v", opts)
	}
}

func TestValidateAcceptsServiceCombos(t *testing.T) {
	full := baseConfig()
	full.study = "service"
	full.rates = "0.5,2.0"
	full.ops = 120
	full.dist = "hotspot"
	full.window = 16
	full.csv = "svc.csv"
	full.trace = "svc.jsonl"
	full.batchWindow = 2 * time.Second
	full.batchBits = 6
	full.maxBatch = 8
	full.cacheTTL = 5 * time.Minute
	full.cacheCap = 256
	full.queueDepth = 64
	full.highWater = 48
	full.shed = "delay"
	if err := full.validate(); err != nil {
		t.Fatalf("full service combo rejected: %v", err)
	}
	// Explicit zeros disable features without tripping validation: this is
	// the transparent configuration whose trace replays the open-loop
	// throughput study.
	transparent := baseConfig()
	transparent.study = "service"
	transparent.batchWindow = 0
	transparent.cacheTTL = 0
	transparent.queueDepth = 0
	transparent.highWater = 0
	if err := transparent.validate(); err != nil {
		t.Fatalf("transparent service combo rejected: %v", err)
	}
	bare := baseConfig()
	bare.study = "service"
	if err := bare.validate(); err != nil {
		t.Fatalf("bare service study rejected: %v", err)
	}
}

func TestServiceOptsFromFlags(t *testing.T) {
	c := baseConfig()
	c.study = "service"
	c.rates = "0.25,1.5"
	c.ops = 60
	c.dist = "uniform"
	c.window = 24
	c.warmup = 3 * time.Minute
	c.batchWindow = 4 * time.Second
	c.batchBits = 8
	c.maxBatch = 12
	c.cacheTTL = time.Minute
	c.cacheCap = 32
	c.queueDepth = 20
	c.highWater = 10
	c.shed = "delay"
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
	d := baseConfig()
	d.study = "service"
	opts, err = d.serviceOpts()
	if err != nil {
		t.Fatal(err)
	}
	if opts.BatchWindow != 500*time.Millisecond || opts.MaxBatch != 16 || opts.Policy != "delay" {
		t.Fatalf("default opts = %+v", opts)
	}
	z := baseConfig()
	z.study = "service"
	z.batchWindow = 0
	z.cacheTTL = 0
	z.queueDepth = 0
	z.highWater = 0
	opts, err = z.serviceOpts()
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
	args, cmdline := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, cmdline }()
	flag.CommandLine = flag.NewFlagSet("teleadjust-sim", flag.ContinueOnError)
	os.Args = []string{"teleadjust-sim", "-scenario", "line", "-study", "scope", "-warmup", "3m", "-svg", path}
	if err := run(); err != nil {
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
