// Command teleadjust-sim runs a single TeleAdjusting simulation scenario
// and prints its metrics: a coding study (path-code length, convergence,
// reverse hops), a control study (PDR, latency, duty cycle, transmission
// counts) for one protocol, a scoped-dissemination study, a throughput
// study sweeping offered control load through the sink command plane, or
// a coding-schemes study comparing tree-coding codecs side by side, or a
// command-service study ramping open-loop load through the persistent
// sink front-end (prefix batching, route-freshness cache, backpressure)
// against a transparent baseline.
// With -reps > 1 the study is replicated over consecutive seeds and the
// replications run concurrently on -parallel workers; the merged result
// is identical to a serial run.
//
// TeleAdjusting variants accept -codec to swap the tree-coding scheme
// (paper, treeexplorer); the coding-schemes study instead sweeps
// the -codecs list over one or more -scenario entries (comma-separated).
//
// Control studies can capture the unified telemetry stream: -trace
// exports every operation-lifecycle event as JSONL (replication-merged,
// byte-identical regardless of -parallel), -trace-sample thins that
// export to every 1-in-N operation (whole spans kept) so traces stay
// usable on 1k-node fields, and -trace-op renders the per-operation span
// trees for one destination node to stdout. Throughput studies export
// the sink-layer command-plane events through -trace and the per-point
// sweep through -csv.
//
// The observability surface watches a run converge: -progress prints one
// live windowed status line per period to stderr (nodes coded/reporting,
// ops issued/resolved/in flight, retries, radio load), and -convergence
// writes the full depth-binned windowed report at the end. The merged
// -convergence report from -reps > 1 is byte-identical regardless of
// -parallel. -cpuprofile, -memprofile and -exectrace bracket the whole
// run with pprof/runtime-trace captures (see make profile-smoke).
//
// Examples:
//
//	teleadjust-sim -scenario indoor -study control -proto tele -packets 40
//	teleadjust-sim -scenario tight -study coding -dur 8m
//	teleadjust-sim -scenario indoor -study control -proto rpl -reps 4 -parallel 4
//	teleadjust-sim -scenario indoor -study control -proto retele -trace ops.jsonl
//	teleadjust-sim -scenario indoor -study control -proto retele -trace-op 17
//	teleadjust-sim -scenario grid1k -study control -proto retele -progress 1m -convergence conv.txt
//	teleadjust-sim -scenario grid1k -study control -proto retele -trace ops.jsonl -trace-sample 8
//	teleadjust-sim -scenario line -study control -proto retele -cpuprofile cpu.pprof -memprofile mem.pprof
//	teleadjust-sim -scenario refgrid -study throughput -conc 1,2,4,8 -ops 40
//	teleadjust-sim -scenario refgrid -study throughput -workload open -rates 0.1,0.2,0.4 -csv sweep.csv
//	teleadjust-sim -scenario refgrid -study service -rates 0.5,1.8 -dist hotspot -csv svc.csv
//	teleadjust-sim -scenario refgrid -study service -queue-depth 32 -high-water 24 -shed delay
//	teleadjust-sim -scenario indoor -study control -proto retele -codec treeexplorer
//	teleadjust-sim -scenario refgrid,sparse -study coding-schemes -csv codecs.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/experiment"
	"teleadjust/internal/fault"
	"teleadjust/internal/obs"
	"teleadjust/internal/prof"
	"teleadjust/internal/radio"
	"teleadjust/internal/telemetry"
)

// cliConfig carries every parsed flag; validate checks the mutually
// dependent combinations before any simulation work starts.
type cliConfig struct {
	scenario string
	study    string
	proto    string
	codec    string
	codecs   string
	joins    int
	dur      time.Duration
	warmup   time.Duration
	packets  int
	interval time.Duration
	seed     uint64
	reps     int
	parallel int
	trace    string
	traceOp  int
	svg      string
	plan     string

	// Observability surface: the live progress period, the convergence
	// report file, and the 1-in-N trace sampling factor.
	progress    time.Duration
	convergence string
	traceSample int

	// Profiling capture harness outputs ("" = off).
	cpuprofile string
	memprofile string
	exectrace  string

	// Throughput-study knobs ("" / 0 = not specified).
	workload string
	rates    string
	conc     string
	ops      int
	dist     string
	window   int
	csv      string

	// Command-service study knobs (-study service); -1 / "" = not
	// specified, explicit 0 disables the feature.
	batchWindow time.Duration
	batchBits   int
	maxBatch    int
	cacheTTL    time.Duration
	cacheCap    int
	queueDepth  int
	highWater   int
	shed        string
}

// study is one -study value: the study-scoped flags it accepts, its own
// flag checks (optional), and the function that runs it and writes its
// outputs.
type study struct {
	name  string
	flags []string
	check func(*cliConfig) error
	run   func(*runner) error
}

// studies is the -study table; validate derives the study-scoped flag
// checks from it.
var studies = []study{
	{name: "coding", run: runCoding},
	{name: "control", flags: []string{"-trace", "-trace-op", "-progress", "-convergence"}, run: runControl},
	{name: "scope", check: checkScope, run: runScope},
	{name: "throughput", flags: []string{"-trace", "-csv", "-workload", "-rates", "-conc", "-ops", "-dist", "-window"},
		check: checkThroughput, run: runThroughput},
	{name: "service", flags: []string{"-trace", "-csv", "-rates", "-ops", "-dist", "-window",
		"-batch-window", "-batch-bits", "-max-batch", "-cache-ttl", "-cache-cap", "-queue-depth", "-high-water", "-shed"},
		check: checkService, run: runService},
	{name: "coding-schemes", flags: []string{"-csv", "-codecs", "-joins"}, check: checkCodingSchemes, run: runCodingSchemes},
}

// studyNamed looks a study up in the table.
func studyNamed(name string) (study, bool) {
	i := slices.IndexFunc(studies, func(st study) bool { return st.name == name })
	if i < 0 {
		return study{}, false
	}
	return studies[i], true
}

func studyNames() []string {
	var names []string
	for _, st := range studies {
		names = append(names, st.name)
	}
	return names
}

func protoNames() []string {
	var names []string
	for _, p := range experiment.Protocols() {
		names = append(names, string(p))
	}
	return names
}

// scopedFlag is a study-scoped flag and whether it was given.
type scopedFlag struct {
	name string
	set  bool
}

// scopedFlags lists every study-scoped flag in a fixed order, so the
// first misplaced one is always the one reported.
func (c *cliConfig) scopedFlags() []scopedFlag {
	return []scopedFlag{
		{"-trace", c.trace != ""},
		{"-trace-op", c.traceOp >= 0},
		{"-progress", c.progress > 0},
		{"-convergence", c.convergence != ""},
		{"-csv", c.csv != ""},
		{"-workload", c.workload != ""},
		{"-rates", c.rates != ""},
		{"-conc", c.conc != ""},
		{"-ops", c.ops != 0},
		{"-dist", c.dist != ""},
		{"-window", c.window != 0},
		{"-codecs", c.codecs != ""},
		{"-joins", c.joins >= 0},
		{"-batch-window", c.batchWindow >= 0},
		{"-batch-bits", c.batchBits >= 0},
		{"-max-batch", c.maxBatch >= 0},
		{"-cache-ttl", c.cacheTTL >= 0},
		{"-cache-cap", c.cacheCap >= 0},
		{"-queue-depth", c.queueDepth >= 0},
		{"-high-water", c.highWater >= 0},
		{"-shed", c.shed != ""},
	}
}

// acceptedBy lists the studies that accept a study-scoped flag.
func acceptedBy(flagName string) string {
	var names []string
	for _, st := range studies {
		if slices.Contains(st.flags, flagName) {
			names = append(names, st.name)
		}
	}
	return strings.Join(names, ", ")
}

// scenarios lists the -scenario names: a comma-separated list for the
// coding-schemes study, one name for every other study.
func (c *cliConfig) scenarios() []string {
	if c.study == "coding-schemes" {
		return splitList(c.scenario)
	}
	return []string{c.scenario}
}

// validate fails fast on flag combinations that would otherwise be
// silently ignored or crash mid-run.
func (c *cliConfig) validate() error {
	if c.reps < 1 {
		return fmt.Errorf("-reps must be >= 1")
	}
	if c.parallel < 0 {
		return fmt.Errorf("-parallel must be >= 0")
	}
	if c.parallel > 0 && c.reps == 1 {
		return fmt.Errorf("-parallel only applies to replicated runs: combine it with -reps > 1")
	}
	if c.reps > 1 && c.svg != "" {
		// The SVG hook instruments one network instance; with concurrent
		// replications there is no single network to tap. The telemetry
		// trace has no such restriction: each replication collects on its
		// own bus and the merge is deterministic in seed order.
		return fmt.Errorf("-svg requires -reps 1")
	}
	if c.packets < 1 {
		return fmt.Errorf("-packets must be >= 1")
	}
	if c.interval <= 0 {
		return fmt.Errorf("-interval must be positive")
	}
	if c.dur <= 0 {
		return fmt.Errorf("-dur must be positive")
	}
	if c.warmup < 0 {
		return fmt.Errorf("-warmup must be >= 0")
	}
	if c.progress < 0 {
		return fmt.Errorf("-progress must be a positive period")
	}
	if c.progress > 0 && c.reps > 1 {
		// Replications run concurrently on the worker pool; their live
		// lines would interleave nondeterministically. The merged
		// -convergence report has no such restriction.
		return fmt.Errorf("-progress requires -reps 1")
	}
	if c.traceSample < 0 {
		return fmt.Errorf("-trace-sample must be >= 1 (export every 1-in-N operation)")
	}
	if c.traceSample > 0 && c.trace == "" {
		return fmt.Errorf("-trace-sample requires -trace")
	}
	if c.joins < -1 { // -1 is the unset default
		return fmt.Errorf("-joins must be >= 0")
	}
	if c.ops < 0 {
		return fmt.Errorf("-ops must be >= 1")
	}
	if c.window < 0 {
		return fmt.Errorf("-window must be >= 1")
	}
	if !slices.Contains(experiment.Protocols(), experiment.Proto(c.proto)) {
		return fmt.Errorf("unknown protocol %q: %s", c.proto, strings.Join(protoNames(), ", "))
	}
	if c.codec != "" {
		if _, err := core.CodecByName(c.codec); err != nil {
			return err
		}
		if c.proto == "drip" || c.proto == "rpl" {
			return fmt.Errorf("-codec applies to TeleAdjusting variants only, not -proto %s", c.proto)
		}
	}
	st, ok := studyNamed(c.study)
	if !ok {
		return fmt.Errorf("unknown study %q: %s", c.study, strings.Join(studyNames(), ", "))
	}
	names := c.scenarios()
	if len(names) == 0 {
		return fmt.Errorf("-scenario must name at least one scenario")
	}
	for _, name := range names {
		if _, err := pickScenario(name, c.seed); err != nil {
			return err
		}
	}
	for _, f := range c.scopedFlags() {
		if f.set && !slices.Contains(st.flags, f.name) {
			return fmt.Errorf("%s applies only to -study %s", f.name, acceptedBy(f.name))
		}
	}
	if st.check != nil {
		return st.check(c)
	}
	return nil
}

func checkScope(c *cliConfig) error {
	if c.reps > 1 {
		return fmt.Errorf("the scope study does not support -reps")
	}
	return nil
}

func checkThroughput(c *cliConfig) error {
	switch c.workload {
	case "", "closed":
		if c.rates != "" {
			return fmt.Errorf("-rates applies to open-loop workloads only (-workload open)")
		}
	case "open":
		if c.conc != "" {
			return fmt.Errorf("-conc applies to closed-loop workloads only (-workload closed)")
		}
		if c.rates == "" {
			return fmt.Errorf("an open-loop workload requires -rates (offered ops/s, comma-separated)")
		}
	default:
		return fmt.Errorf("unknown workload mode %q: closed or open", c.workload)
	}
	return nil
}

func checkService(c *cliConfig) error {
	switch c.shed {
	case "", "reject", "delay":
	default:
		return fmt.Errorf("unknown -shed policy %q: reject or delay", c.shed)
	}
	if c.batchBits > 56 {
		return fmt.Errorf("-batch-bits must be <= 56 (prefix key width)")
	}
	if c.maxBatch >= 0 && (c.maxBatch < 2 || c.maxBatch > core.MaxBatchMembers) {
		return fmt.Errorf("-max-batch must be between 2 and %d (wire member bound)", core.MaxBatchMembers)
	}
	if c.queueDepth > 0 && c.highWater > c.queueDepth {
		return fmt.Errorf("-high-water must not exceed -queue-depth: the hard bound would shed before the soft one engages")
	}
	return nil
}

func checkCodingSchemes(c *cliConfig) error {
	if c.codec != "" {
		return fmt.Errorf("-codec conflicts with -study coding-schemes: use -codecs to pick the compared schemes")
	}
	for _, name := range splitList(c.codecs) {
		if _, err := core.CodecByName(name); err != nil {
			return err
		}
	}
	if c.svg != "" {
		// The study builds one network per (scenario, codec) cell; no
		// single topology represents the run.
		return fmt.Errorf("-svg does not apply to coding-schemes studies")
	}
	return nil
}

// splitList splits a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if p := strings.TrimSpace(part); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// parseConcurrency parses a comma-separated list of positive ints.
func parseConcurrency(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad concurrency level %q: want positive integers", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// parseRates parses a comma-separated list of positive rates (ops/s).
func parseRates(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad rate %q: want positive ops/s", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// serviceOpts assembles command-service study options from validated
// flags; -1 sentinels keep the study defaults, explicit zeros disable.
func (c *cliConfig) serviceOpts() (experiment.ServiceOpts, error) {
	opts := experiment.DefaultServiceOpts()
	opts.Warmup = c.warmup
	opts.Trace = c.trace != ""
	if c.ops > 0 {
		opts.Ops = c.ops
	}
	if c.dist != "" {
		opts.Dist = c.dist
	}
	if c.window > 0 {
		opts.Window = c.window
	}
	if c.rates != "" {
		rates, err := parseRates(c.rates)
		if err != nil {
			return opts, err
		}
		opts.Rates = rates
	}
	if c.batchWindow >= 0 {
		opts.BatchWindow = c.batchWindow
	}
	if c.batchBits >= 0 {
		opts.BatchBits = c.batchBits
	}
	if c.maxBatch >= 0 {
		opts.MaxBatch = c.maxBatch
	}
	if c.cacheTTL >= 0 {
		opts.CacheTTL = c.cacheTTL
	}
	if c.cacheCap >= 0 {
		opts.CacheCap = c.cacheCap
	}
	if c.queueDepth >= 0 {
		opts.QueueDepth = c.queueDepth
	}
	if c.highWater >= 0 {
		opts.HighWater = c.highWater
	}
	if c.shed != "" {
		opts.Policy = c.shed
	}
	return opts, nil
}

// throughputOpts assembles the study options from validated flags.
func (c *cliConfig) throughputOpts() (experiment.ThroughputOpts, error) {
	opts := experiment.DefaultThroughputOpts()
	opts.Warmup = c.warmup
	opts.Trace = c.trace != ""
	if c.workload != "" {
		opts.Mode = c.workload
	}
	if c.ops > 0 {
		opts.Ops = c.ops
	}
	if c.dist != "" {
		opts.Dist = c.dist
	}
	if c.window > 0 {
		opts.Window = c.window
	}
	if c.conc != "" {
		levels, err := parseConcurrency(c.conc)
		if err != nil {
			return opts, err
		}
		opts.Concurrency = levels
	}
	if c.rates != "" {
		rates, err := parseRates(c.rates)
		if err != nil {
			return opts, err
		}
		opts.Rates = rates
	}
	return opts, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "teleadjust-sim:", err)
		os.Exit(1)
	}
}

func run() (retErr error) {
	var c cliConfig
	flag.StringVar(&c.scenario, "scenario", "indoor", "scenario: tight, sparse, indoor, indoor-wifi, refgrid, grid1k, line")
	flag.StringVar(&c.study, "study", "control", "study: "+strings.Join(studyNames(), ", "))
	flag.StringVar(&c.proto, "proto", "tele", "protocol: "+strings.Join(protoNames(), ", "))
	flag.StringVar(&c.codec, "codec", "", "tree-coding scheme for TeleAdjusting variants: "+strings.Join(core.CodecNames(), ", "))
	flag.StringVar(&c.codecs, "codecs", "", "coding-schemes study: comma-separated codecs to compare (default all)")
	flag.IntVar(&c.joins, "joins", -1, "coding-schemes study: mid-probe crash-reboots per codec (default 3)")
	flag.DurationVar(&c.dur, "dur", 8*time.Minute, "coding study duration")
	flag.DurationVar(&c.warmup, "warmup", 4*time.Minute, "study warmup")
	flag.IntVar(&c.packets, "packets", 40, "control packets to send")
	flag.DurationVar(&c.interval, "interval", 15*time.Second, "inter-packet interval")
	flag.Uint64Var(&c.seed, "seed", 1, "simulation seed")
	flag.IntVar(&c.reps, "reps", 1, "independent replications over consecutive seeds")
	flag.IntVar(&c.parallel, "parallel", 0, "replication workers (0 = GOMAXPROCS; requires -reps > 1)")
	flag.StringVar(&c.trace, "trace", "", "write the telemetry event stream as JSONL to this file (control/throughput study)")
	flag.IntVar(&c.traceOp, "trace-op", -1, "render operation span traces for this destination node (control study)")
	flag.DurationVar(&c.progress, "progress", 0, "print a live windowed convergence/throughput line at this period (control study, -reps 1)")
	flag.StringVar(&c.convergence, "convergence", "", "write the windowed convergence report to this file (control study)")
	flag.IntVar(&c.traceSample, "trace-sample", 0, "thin the -trace export to every 1-in-N operation's events (whole spans kept)")
	flag.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	flag.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
	flag.StringVar(&c.exectrace, "exectrace", "", "write a runtime execution trace to this file")
	flag.StringVar(&c.svg, "svg", "", "write the converged topology/tree/codes as SVG to this file")
	flag.StringVar(&c.plan, "faultplan", "", "JSON fault plan scheduled on every replication (see EXPERIMENTS.md)")
	flag.StringVar(&c.workload, "workload", "", "throughput loop discipline: closed (default) or open")
	flag.StringVar(&c.rates, "rates", "", "open-loop offered rates in ops/s, comma-separated (e.g. 0.1,0.2,0.4)")
	flag.StringVar(&c.conc, "conc", "", "closed-loop concurrency levels, comma-separated (default 1,2,4,8)")
	flag.IntVar(&c.ops, "ops", 0, "control operations per throughput load point (default 40)")
	flag.StringVar(&c.dist, "dist", "", "throughput destinations: uniform (default), hotspot, depth")
	flag.IntVar(&c.window, "window", 0, "open-loop admission window (default 8)")
	flag.StringVar(&c.csv, "csv", "", "write the throughput/service sweep as CSV to this file")
	flag.DurationVar(&c.batchWindow, "batch-window", -1, "service study: prefix-batching window (0 disables batching; default 500ms)")
	flag.IntVar(&c.batchBits, "batch-bits", -1, "service study: code-prefix bits commands are batched by (default 3)")
	flag.IntVar(&c.maxBatch, "max-batch", -1, "service study: flush a batch group early at this many commands (default 16)")
	flag.DurationVar(&c.cacheTTL, "cache-ttl", -1, "service study: route-freshness cache TTL (0 disables the cache; default 5m)")
	flag.IntVar(&c.cacheCap, "cache-cap", -1, "service study: route cache capacity (default 256)")
	flag.IntVar(&c.queueDepth, "queue-depth", -1, "service study: hard admission backlog bound (0 = unbounded; default 128)")
	flag.IntVar(&c.highWater, "high-water", -1, "service study: soft backlog mark where -shed engages (0 disables; default 6)")
	flag.StringVar(&c.shed, "shed", "", "service study: over-high-water policy, delay (default) or reject")
	flag.Parse()

	if err := c.validate(); err != nil {
		return err
	}

	stopProf, err := prof.Start(prof.Config{CPU: c.cpuprofile, Mem: c.memprofile, Trace: c.exectrace})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); retErr == nil {
			retErr = perr
		}
	}()

	r := &runner{cliConfig: &c}
	if c.plan != "" {
		if r.plan, err = fault.LoadPlan(c.plan); err != nil {
			return err
		}
	}
	st, _ := studyNamed(c.study)
	if err := st.run(r); err != nil {
		return err
	}
	if r.built != nil {
		if err := writeFile(c.svg, r.built.WriteTopologySVG); err != nil {
			return err
		}
		fmt.Printf("topology SVG written to %s\n", c.svg)
	}
	return nil
}

// runner is what every study run shares: the validated flags, the loaded
// fault plan, and the last network built, kept for -svg.
type runner struct {
	*cliConfig
	plan  *fault.Plan
	built *experiment.Net
}

// build returns the scenario constructor a study replicates over: the
// named scenario at each seed with the fault plan and -codec applied and,
// under -svg, a hook that keeps the network for the topology export.
func (r *runner) build(name string) func(seed uint64) experiment.Scenario {
	return func(seed uint64) experiment.Scenario {
		scn, _ := pickScenario(name, seed)
		scn.Fault = r.plan
		scn.Codec = r.codec
		if r.svg != "" {
			scn.OnNetBuilt = func(net *experiment.Net) { r.built = net }
		}
		return scn
	}
}

// seeds returns the -reps consecutive replication seeds from -seed.
func (r *runner) seeds() []uint64 {
	seeds := make([]uint64, r.reps)
	for i := range seeds {
		seeds[i] = r.seed + uint64(i)
	}
	return seeds
}

// writeFile creates path, fills it with write, and returns the first of
// the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeTrace exports an event stream as JSONL and reports it; note
// qualifies the count (e.g. the sampling).
func writeTrace(path string, events []telemetry.Event, note string) error {
	if err := writeFile(path, func(w io.Writer) error { return telemetry.WriteJSONL(w, events) }); err != nil {
		return err
	}
	fmt.Printf("\n%d telemetry events written to %s%s\n", len(events), path, note)
	return nil
}

func runCoding(r *runner) error {
	res, err := experiment.CodingStudy(r.dur).Replicate(r.build(r.scenario), r.seeds(), r.parallel)
	if err != nil {
		return err
	}
	experiment.WriteCodingReport(os.Stdout, res)
	return nil
}

func runControl(r *runner) error {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = r.warmup
	opts.Packets = r.packets
	opts.Interval = r.interval
	opts.Trace = r.trace != "" || r.traceOp >= 0
	opts.Window = r.progress
	if r.convergence != "" && opts.Window == 0 {
		// -convergence without -progress still needs a window period;
		// 30 s matches the report/golden defaults.
		opts.Window = 30 * time.Second
	}
	if r.progress > 0 {
		opts.Progress = os.Stderr
	}
	res, err := experiment.ControlStudy(experiment.Proto(r.proto), opts).Replicate(r.build(r.scenario), r.seeds(), r.parallel)
	if err != nil {
		return err
	}
	experiment.WriteControlReport(os.Stdout, res)
	if r.convergence != "" {
		err := writeFile(r.convergence, func(w io.Writer) error {
			obs.WriteConvergenceReport(w, res.Convergence)
			return nil
		})
		if err != nil {
			return err
		}
		fmt.Printf("\nconvergence report written to %s\n", r.convergence)
	}
	if r.trace != "" {
		events, note := res.Events, ""
		if r.traceSample > 1 {
			events = telemetry.SampleOps(events, r.traceSample)
			note = fmt.Sprintf(" (1-in-%d op sample of %d)", r.traceSample, len(res.Events))
		}
		if err := writeTrace(r.trace, events, note); err != nil {
			return err
		}
	}
	if r.traceOp >= 0 {
		dst := radio.NodeID(r.traceOp)
		fmt.Printf("\n--- operation spans to node %d ---\n", dst)
		telemetry.RenderOpSpans(os.Stdout, res.Events, func(s *telemetry.OpSpan) bool {
			return s.Dst == dst
		})
	}
	return nil
}

func runThroughput(r *runner) error {
	opts, err := r.throughputOpts()
	if err != nil {
		return err
	}
	res, err := experiment.ThroughputStudy(experiment.Proto(r.proto), opts).Replicate(r.build(r.scenario), r.seeds(), r.parallel)
	if err != nil {
		return err
	}
	experiment.WriteThroughputReport(os.Stdout, res)
	if r.csv != "" {
		if err := writeFile(r.csv, func(w io.Writer) error { return experiment.WriteThroughputCSV(w, res) }); err != nil {
			return err
		}
		fmt.Printf("\nthroughput sweep written to %s\n", r.csv)
	}
	if r.trace != "" {
		return writeTrace(r.trace, res.Events, "")
	}
	return nil
}

func runService(r *runner) error {
	opts, err := r.serviceOpts()
	if err != nil {
		return err
	}
	res, err := experiment.ServiceStudy(experiment.Proto(r.proto), opts).Replicate(r.build(r.scenario), r.seeds(), r.parallel)
	if err != nil {
		return err
	}
	experiment.WriteServiceReport(os.Stdout, res)
	if r.csv != "" {
		if err := writeFile(r.csv, func(w io.Writer) error { return experiment.WriteServiceCSV(w, res) }); err != nil {
			return err
		}
		fmt.Printf("\nservice sweep written to %s\n", r.csv)
	}
	if r.trace != "" {
		// The service sub-runs' events (including the svc.batch
		// membership spans); a transparent study exports the baseline,
		// byte-identical to the open-loop throughput trace.
		return writeTrace(r.trace, res.EventsSvc, "")
	}
	return nil
}

func runScope(r *runner) error {
	opts := experiment.DefaultScopeOpts()
	opts.Warmup = r.warmup
	res, err := experiment.RunScopeStudy(r.build(r.scenario)(r.seed), opts)
	if err != nil {
		return err
	}
	experiment.WriteScopeReport(os.Stdout, res)
	return nil
}

// runCodingSchemes sweeps the codec list over every scenario in the
// comma-separated -scenario value, printing one comparison per scenario
// and optionally exporting all rows to one CSV file.
func runCodingSchemes(r *runner) error {
	codecs := splitList(r.codecs)
	if len(codecs) == 0 {
		codecs = core.CodecNames()
	}
	opts := experiment.DefaultCodingSchemesOpts()
	opts.Warmup = r.warmup
	opts.Packets = r.packets
	opts.Interval = r.interval
	if r.joins >= 0 {
		opts.Joins = r.joins
	}
	study := experiment.CodingSchemesStudy(codecs, opts)
	var results []*experiment.CodingSchemesResult
	for i, name := range r.scenarios() {
		res, err := study.Replicate(r.build(name), r.seeds(), r.parallel)
		if err != nil {
			return err
		}
		if i > 0 {
			fmt.Println()
		}
		experiment.WriteCodingSchemesReport(os.Stdout, res)
		results = append(results, res)
	}
	if r.csv != "" {
		if err := writeFile(r.csv, func(w io.Writer) error { return experiment.WriteCodingSchemesCSV(w, results...) }); err != nil {
			return err
		}
		fmt.Printf("\ncodec comparison written to %s\n", r.csv)
	}
	return nil
}

func pickScenario(name string, seed uint64) (experiment.Scenario, error) {
	switch name {
	case "tight":
		return experiment.TightGrid(seed), nil
	case "sparse":
		return experiment.SparseLinear(seed), nil
	case "indoor":
		return experiment.Indoor(seed, false), nil
	case "indoor-wifi":
		return experiment.Indoor(seed, true), nil
	case "refgrid":
		return experiment.ReferenceGrid(seed), nil
	case "grid1k":
		return experiment.Grid1K(seed), nil
	case "line":
		return experiment.Line(seed), nil
	}
	return experiment.Scenario{}, fmt.Errorf("unknown scenario %q", name)
}
