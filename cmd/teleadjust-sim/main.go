// Command teleadjust-sim runs a single TeleAdjusting simulation scenario
// and prints its metrics: a coding study (path-code length, convergence,
// reverse hops), a control study (PDR, latency, duty cycle, transmission
// counts) for one protocol, a scoped-dissemination study, a throughput
// study sweeping offered control load through the sink command plane, or
// a coding-schemes study comparing tree-coding codecs side by side, or a
// command-service study ramping open-loop load through the persistent
// sink front-end (prefix batching, route-freshness cache, backpressure)
// against the plain scheduler (an open-loop throughput point).
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
// trees for one destination node to stdout. Throughput and service
// studies export the sink-layer command-plane events through -trace and
// the per-point sweep through -csv.
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
	"errors"
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

	// Load flags the throughput and service studies share; each one
	// replaces the study's default only when given.
	rates  string
	ops    int
	dist   string
	window int
	csv    string
	conc   string

	// The options of the studies that own single-study flags, bound
	// straight to those flags over the study defaults.
	throughput experiment.ThroughputOpts
	service    experiment.ServiceOpts
	schemes    experiment.CodingSchemesOpts

	// given names the flags set on the command line, in sorted order.
	given []string
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
	{name: "control", flags: []string{"-trace", "-trace-op", "-trace-sample", "-progress", "-convergence"}, run: runControl},
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

// acceptedBy lists the studies that accept a study-scoped flag ("" for a
// flag every study accepts).
func acceptedBy(flagName string) string {
	var names []string
	for _, st := range studies {
		if slices.Contains(st.flags, flagName) {
			names = append(names, st.name)
		}
	}
	return strings.Join(names, ", ")
}

// isSet reports whether the named flag (without its dash) was given.
func (c *cliConfig) isSet(name string) bool { return slices.Contains(c.given, name) }

// scenarios lists the -scenario names: a comma-separated list for the
// coding-schemes study, one name for every other study.
func (c *cliConfig) scenarios() []string {
	if c.study == "coding-schemes" {
		return splitList(c.scenario)
	}
	return []string{c.scenario}
}

// parse reads the command line into a cliConfig and validates it.
func parse(args []string) (*cliConfig, error) {
	c := new(cliConfig)
	fs := flag.NewFlagSet("teleadjust-sim", flag.ContinueOnError)
	c.register(fs)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	fs.Visit(func(f *flag.Flag) { c.given = append(c.given, f.Name) })
	return c, c.validate()
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
	if c.traceOp < 0 {
		return fmt.Errorf("-trace-op must be a node id >= 0")
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
	if c.schemes.Joins < 0 {
		return fmt.Errorf("-joins must be >= 0")
	}
	if c.isSet("ops") && c.ops < 1 {
		return fmt.Errorf("-ops must be >= 1")
	}
	if c.isSet("window") && c.window < 1 {
		return fmt.Errorf("-window must be >= 1")
	}
	proto := experiment.Proto(c.proto)
	if !slices.Contains(experiment.Protocols(), proto) {
		return fmt.Errorf("unknown protocol %q: %s", c.proto, strings.Join(protoNames(), ", "))
	}
	if c.codec != "" {
		if _, err := core.CodecByName(c.codec); err != nil {
			return err
		}
		if !proto.TakesCodec() {
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
		if _, err := experiment.ScenarioNamed(name); err != nil {
			return err
		}
	}
	for _, name := range c.given {
		if by := acceptedBy("-" + name); by != "" && !slices.Contains(st.flags, "-"+name) {
			return fmt.Errorf("-%s applies only to -study %s", name, by)
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
	switch c.throughput.Mode {
	case "closed":
		if c.isSet("rates") {
			return fmt.Errorf("-rates applies to open-loop workloads only (-workload open)")
		}
	case "open":
		if c.isSet("conc") {
			return fmt.Errorf("-conc applies to closed-loop workloads only (-workload closed)")
		}
		if c.rates == "" {
			return fmt.Errorf("an open-loop workload requires -rates (offered ops/s, comma-separated)")
		}
	default:
		return fmt.Errorf("unknown workload mode %q: closed or open", c.throughput.Mode)
	}
	return nil
}

func checkService(c *cliConfig) error {
	o := c.service
	switch o.Policy {
	case "reject", "delay":
	default:
		return fmt.Errorf("unknown -shed policy %q: reject or delay", o.Policy)
	}
	if min(o.BatchWindow, o.CacheTTL) < 0 || min(o.BatchBits, o.CacheCap, o.QueueDepth, o.HighWater) < 0 {
		return fmt.Errorf("-batch-window, -batch-bits, -cache-ttl, -cache-cap, -queue-depth and -high-water must be >= 0")
	}
	if o.BatchBits > 56 {
		return fmt.Errorf("-batch-bits must be <= 56 (prefix key width)")
	}
	if o.MaxBatch < 2 || o.MaxBatch > core.MaxBatchMembers {
		return fmt.Errorf("-max-batch must be between 2 and %d (wire member bound)", core.MaxBatchMembers)
	}
	if o.QueueDepth > 0 && o.HighWater > o.QueueDepth {
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

// joinList renders a list the way its comma-separated flag takes it.
func joinList[T any](vs []T) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = fmt.Sprint(v)
	}
	return strings.Join(parts, ",")
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

// loadOpts applies the load flags the throughput and service studies
// share over a study's defaults.
func (c *cliConfig) loadOpts(o *experiment.LoadOpts) error {
	o.Warmup = c.warmup
	o.Trace = c.trace != ""
	if c.isSet("ops") {
		o.Ops = c.ops
	}
	if c.isSet("dist") {
		o.Dist = c.dist
	}
	if c.isSet("window") {
		o.Window = c.window
	}
	if c.isSet("rates") {
		rates, err := parseRates(c.rates)
		if err != nil {
			return err
		}
		o.Rates = rates
	}
	return nil
}

// serviceOpts assembles the command-service study options.
func (c *cliConfig) serviceOpts() (experiment.ServiceOpts, error) {
	opts := c.service
	err := c.loadOpts(&opts.LoadOpts)
	return opts, err
}

// throughputOpts assembles the throughput study options.
func (c *cliConfig) throughputOpts() (experiment.ThroughputOpts, error) {
	opts := c.throughput
	if err := c.loadOpts(&opts.LoadOpts); err != nil {
		return opts, err
	}
	var err error
	opts.Concurrency, err = parseConcurrency(c.conc)
	return opts, err
}

// register defines every flag on fs. A flag only one study reads is bound
// into that study's options, so its default is the study's. A
// study-scoped flag's usage ends with the studies that accept it, read
// from the studies table.
func (c *cliConfig) register(fs *flag.FlagSet) {
	c.throughput = experiment.DefaultThroughputOpts()
	c.service = experiment.DefaultServiceOpts()
	c.schemes = experiment.DefaultCodingSchemesOpts()
	thr, svc := &c.throughput, &c.service
	fs.StringVar(&c.scenario, "scenario", "indoor", "scenario: "+strings.Join(experiment.ScenarioNames(), ", "))
	fs.StringVar(&c.study, "study", "control", "study: "+strings.Join(studyNames(), ", "))
	fs.StringVar(&c.proto, "proto", "tele", "protocol: "+strings.Join(protoNames(), ", "))
	fs.StringVar(&c.codec, "codec", "", "tree-coding scheme for TeleAdjusting variants: "+strings.Join(core.CodecNames(), ", "))
	fs.StringVar(&c.codecs, "codecs", "", "comma-separated codecs to compare (default all)")
	fs.IntVar(&c.schemes.Joins, "joins", c.schemes.Joins, "mid-probe crash-reboots per codec")
	fs.DurationVar(&c.dur, "dur", 8*time.Minute, "coding study duration")
	fs.DurationVar(&c.warmup, "warmup", 4*time.Minute, "study warmup")
	fs.IntVar(&c.packets, "packets", 40, "control packets to send")
	fs.DurationVar(&c.interval, "interval", 15*time.Second, "inter-packet interval")
	fs.Uint64Var(&c.seed, "seed", 1, "simulation seed")
	fs.IntVar(&c.reps, "reps", 1, "independent replications over consecutive seeds")
	fs.IntVar(&c.parallel, "parallel", 0, "replication workers (0 = GOMAXPROCS; requires -reps > 1)")
	fs.StringVar(&c.trace, "trace", "", "write the telemetry event stream as JSONL to this file")
	fs.IntVar(&c.traceOp, "trace-op", 0, "render operation span traces for this destination node")
	fs.DurationVar(&c.progress, "progress", 0, "print a live windowed status line at this period, -reps 1 only")
	fs.StringVar(&c.convergence, "convergence", "", "write the windowed convergence report to this file")
	fs.IntVar(&c.traceSample, "trace-sample", 0, "thin the -trace export to every 1-in-N operation's events, whole spans kept")
	fs.StringVar(&c.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&c.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&c.exectrace, "exectrace", "", "write a runtime execution trace to this file")
	fs.StringVar(&c.svg, "svg", "", "write the converged topology/tree/codes as SVG to this file")
	fs.StringVar(&c.plan, "faultplan", "", "JSON fault plan scheduled on every replication (see EXPERIMENTS.md)")
	fs.StringVar(&thr.Mode, "workload", thr.Mode, "loop discipline: closed or open")
	fs.StringVar(&c.rates, "rates", "", "open-loop offered rates in ops/s, comma-separated (e.g. 0.1,0.2,0.4; service default "+joinList(svc.Rates)+")")
	fs.StringVar(&c.conc, "conc", joinList(thr.Concurrency), "closed-loop concurrency levels, comma-separated")
	fs.IntVar(&c.ops, "ops", 0, fmt.Sprintf("operations per load point (default %d, service %d)", thr.Ops, svc.Ops))
	fs.StringVar(&c.dist, "dist", "", fmt.Sprintf("load destinations: uniform, hotspot, depth (default %s, service %s)", thr.Dist, svc.Dist))
	fs.IntVar(&c.window, "window", 0, fmt.Sprintf("open-loop admission window (default %d, service %d)", thr.Window, svc.Window))
	fs.StringVar(&c.csv, "csv", "", "write the study's sweep as CSV to this file")
	fs.DurationVar(&svc.BatchWindow, "batch-window", svc.BatchWindow, "prefix-batching window (0 disables batching)")
	fs.IntVar(&svc.BatchBits, "batch-bits", svc.BatchBits, "code-prefix bits commands are batched by")
	fs.IntVar(&svc.MaxBatch, "max-batch", svc.MaxBatch, "flush a batch group early at this many commands")
	fs.DurationVar(&svc.CacheTTL, "cache-ttl", svc.CacheTTL, "route-freshness cache TTL (0 disables the cache)")
	fs.IntVar(&svc.CacheCap, "cache-cap", svc.CacheCap, "route cache capacity")
	fs.IntVar(&svc.QueueDepth, "queue-depth", svc.QueueDepth, "hard admission backlog bound (0 = unbounded)")
	fs.IntVar(&svc.HighWater, "high-water", svc.HighWater, "soft backlog mark where -shed engages (0 disables)")
	fs.StringVar(&svc.Policy, "shed", svc.Policy, "over-high-water policy: delay or reject")
	fs.VisitAll(func(f *flag.Flag) {
		if by := acceptedBy("-" + f.Name); by != "" {
			f.Usage += " (-study " + by + ")"
		}
	})
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "teleadjust-sim:", err)
		os.Exit(1)
	}
}

func run(args []string) (retErr error) {
	c, err := parse(args)
	if errors.Is(err, flag.ErrHelp) {
		return nil
	}
	if err != nil {
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

	r := &runner{cliConfig: c}
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
		build, _ := experiment.ScenarioNamed(name)
		scn := build(seed)
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
	opts.Trace = r.trace != "" || r.isSet("trace-op")
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
	if r.isSet("trace-op") {
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
		// The service runs' events (including the svc.batch membership
		// spans); a transparent study exports the baseline,
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
	opts := r.schemes
	opts.Warmup = r.warmup
	opts.Packets = r.packets
	opts.Interval = r.interval
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
