// Command teleadjust-bench regenerates every table and figure of the
// paper's evaluation section:
//
//	fig6a/fig6b/fig6c/fig6d  — path-code studies on Tight-grid and
//	                           Sparse-linear (225 nodes)
//	table2                   — indoor code length by hop
//	fig7/fig8/fig9/fig10,
//	table3                   — protocol comparison (Tele, Re-Tele, Drip,
//	                           RPL) on the 40-node indoor testbed, clean
//	                           channel 26 and WiFi-interfered channel 19
//	ablation                 — reserve-policy and opportunistic-forwarding
//	                           ablations
//	scope                    — the one-to-many extension: subtree-scoped
//	                           floods vs per-member unicast
//
// Use -exp to select one experiment, -quick for a fast pass, -csv DIR to
// also emit plot-ready CSV files. -cpuprofile, -memprofile and -exectrace
// bracket the selected experiments with pprof/runtime-trace captures
// (see make profile-smoke).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"teleadjust/internal/core"
	"teleadjust/internal/experiment"
	"teleadjust/internal/prof"
	"teleadjust/internal/radio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "teleadjust-bench:", err)
		os.Exit(1)
	}
}

type settings struct {
	out        io.Writer
	exp        string
	quick      bool
	seeds      int
	seed       uint64
	packet     int
	parallel   int
	csvDir     string
	cpuprofile string
	memprofile string
	exectrace  string
}

// benchExperiment is one -exp choice.
type benchExperiment struct {
	name string
	run  func(settings) error
}

// experiments are the -exp choices, in the order -exp all runs them.
var experiments = []benchExperiment{
	{"fig6", runFig6},
	{"table2", runTable2},
	{"compare26", func(s settings) error { return runComparison(s, false) }},
	{"compare19", func(s settings) error { return runComparison(s, true) }},
	{"ablation", runAblation},
	{"scope", runScope},
}

func experimentNames() string {
	var names []string
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

func run(args []string, out io.Writer) (retErr error) {
	s := settings{out: out}
	fs := flag.NewFlagSet("teleadjust-bench", flag.ContinueOnError)
	fs.StringVar(&s.exp, "exp", "all", "experiment: "+experimentNames())
	fs.BoolVar(&s.quick, "quick", false, "reduced durations and seed counts")
	fs.IntVar(&s.seeds, "seeds", 3, "seeds per protocol for comparison studies")
	fs.Uint64Var(&s.seed, "seed", 1, "base seed")
	fs.IntVar(&s.packet, "packets", 40, "control packets per run")
	fs.IntVar(&s.parallel, "parallel", 0, "replication workers for multi-seed studies (0 = GOMAXPROCS, 1 = serial)")
	fs.StringVar(&s.csvDir, "csv", "", "also write plot-ready CSV files into this directory")
	fs.StringVar(&s.cpuprofile, "cpuprofile", "", "write a pprof CPU profile of the whole run to this file")
	fs.StringVar(&s.memprofile, "memprofile", "", "write a pprof heap profile at exit to this file")
	fs.StringVar(&s.exectrace, "exectrace", "", "write a runtime execution trace to this file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	one := -1 // index of the selected experiment; -1 runs them all
	if s.exp != "all" {
		one = slices.IndexFunc(experiments, func(e benchExperiment) bool { return e.name == s.exp })
		if one < 0 {
			return fmt.Errorf("unknown experiment %q: %s", s.exp, experimentNames())
		}
	}
	if s.csvDir != "" {
		if err := os.MkdirAll(s.csvDir, 0o755); err != nil {
			return err
		}
	}
	stopProf, err := prof.Start(prof.Config{CPU: s.cpuprofile, Mem: s.memprofile, Trace: s.exectrace})
	if err != nil {
		return err
	}
	defer func() {
		if perr := stopProf(); retErr == nil {
			retErr = perr
		}
	}()

	if s.quick {
		s.seeds = 1
		s.packet = 15
	}
	if one >= 0 {
		return experiments[one].run(s)
	}
	for _, e := range experiments {
		if err := e.run(s); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

// runFig6 regenerates Fig 6a–d on both 225-node simulation fields. The
// sparse strip is tens of hops deep and needs a longer construction phase.
func runFig6(s settings) error {
	cases := []struct {
		build func(uint64) experiment.Scenario
		dur   time.Duration
	}{
		{experiment.TightGrid, 10 * time.Minute},
		{experiment.SparseLinear, 30 * time.Minute},
	}
	for _, tc := range cases {
		dur := tc.dur
		if s.quick {
			dur /= 2
		}
		res, err := experiment.CodingStudy(dur).Run(tc.build(s.seed))
		if err != nil {
			return err
		}
		experiment.WriteCodingReport(s.out, res)
		if err := writeCSV(s, "coding_"+res.Scenario+".csv", func(w io.Writer) error {
			return experiment.WriteCodingCSV(w, res)
		}); err != nil {
			return err
		}
		fmt.Fprintln(s.out)
	}
	return nil
}

// writeCSV exports one study into the -csv directory when it is set,
// returning the first of the write and close errors.
func writeCSV(s settings, name string, write func(io.Writer) error) error {
	if s.csvDir == "" {
		return nil
	}
	f, err := os.Create(filepath.Join(s.csvDir, name))
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// runTable2 regenerates the indoor code-length table.
func runTable2(s settings) error {
	dur := 8 * time.Minute
	if s.quick {
		dur = 4 * time.Minute
	}
	res, err := experiment.CodingStudy(dur).Run(experiment.Indoor(s.seed, false))
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, "Table II — indoor testbed code length by hop (paper: avg 4.2→15.8 bits over 6 hops, max ≤20):")
	experiment.WriteCodingReport(s.out, res)
	return nil
}

// indoorControl is the tuned indoor-testbed scenario the control-plane
// comparisons replicate over.
func indoorControl(wifi bool) func(seed uint64) experiment.Scenario {
	return func(seed uint64) experiment.Scenario {
		scn := experiment.Indoor(seed, wifi)
		scn.TuneControlTimeouts(18 * time.Second)
		return scn
	}
}

// runComparison regenerates Fig 7–10 and Table III on one channel.
func runComparison(s settings, wifi bool) error {
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 7 * time.Minute
	opts.Packets = s.packet
	opts.Interval = 20 * time.Second
	if s.quick {
		opts.Warmup = 5 * time.Minute
	}
	seeds := make([]uint64, s.seeds)
	for i := range seeds {
		seeds[i] = s.seed + uint64(i)
	}
	var results []*experiment.ControlResult
	for _, proto := range []experiment.Proto{
		experiment.ProtoTele,
		experiment.ProtoReTele,
		experiment.ProtoDrip,
		experiment.ProtoRPL,
	} {
		res, err := experiment.ControlStudy(proto, opts).Replicate(indoorControl(wifi), seeds, s.parallel)
		if err != nil {
			return err
		}
		results = append(results, res)
		experiment.WriteControlReport(s.out, res)
		name := fmt.Sprintf("control_%s_%s.csv", res.Scenario, res.Proto)
		if err := writeCSV(s, name, func(w io.Writer) error { return experiment.WriteControlCSV(w, res) }); err != nil {
			return err
		}
		fmt.Fprintln(s.out)
	}
	experiment.WriteComparisonSummary(s.out, results)
	return nil
}

// runAblation evaluates the design choices DESIGN.md calls out: the
// Algorithm 1 reserve policy (code length vs extension count) and
// opportunistic forwarding (PDR vs the strict-path variant).
func runAblation(s settings) error {
	dur := 6 * time.Minute
	if s.quick {
		dur = 3 * time.Minute
	}
	fmt.Fprintln(s.out, "--- Ablation: Algorithm 1 reserve policy (indoor testbed) ---")
	fmt.Fprintf(s.out, "%-10s %14s %14s %12s\n", "policy", "avg code bits", "max code bits", "extensions")
	for _, p := range []struct {
		name   string
		policy core.ReservePolicy
	}{
		{"tight", core.TightReserve},
		{"default", core.DefaultReserve},
		{"generous", core.GenerousReserve},
	} {
		scn := experiment.Indoor(s.seed, false)
		scn.Tele.Reserve = p.policy
		var net *experiment.Net
		scn.OnNetBuilt = func(n *experiment.Net) { net = n }
		res, err := experiment.CodingStudy(dur).Run(scn)
		if err != nil {
			return err
		}
		var sum, count, maxBits float64
		for _, k := range res.CodeLenByHop.Keys() {
			series := res.CodeLenByHop.Get(k)
			sum += series.Mean() * float64(series.Count())
			count += float64(series.Count())
			if series.Max() > maxBits {
				maxBits = series.Max()
			}
		}
		avg := 0.0
		if count > 0 {
			avg = sum / count
		}
		// Algorithm 1's cost side: bit-space extensions summed over the
		// live stacks.
		var extensions uint64
		for i := range net.Stacks {
			if te := net.Tele(radio.NodeID(i)); te != nil {
				extensions += te.Stats().SpaceExtensions
			}
		}
		fmt.Fprintf(s.out, "%-10s %14.1f %14.0f %12d\n", p.name, avg, maxBits, extensions)
	}

	fmt.Fprintln(s.out, "\n--- Ablation: opportunistic vs strict-path forwarding ---")
	opts := experiment.DefaultControlOpts()
	opts.Warmup = 6 * time.Minute
	opts.Packets = s.packet
	opts.Interval = 20 * time.Second
	var results []*experiment.ControlResult
	for _, proto := range []experiment.Proto{experiment.ProtoTele, experiment.ProtoTeleStrict} {
		res, err := experiment.ControlStudy(proto, opts).Run(indoorControl(false)(s.seed))
		if err != nil {
			return err
		}
		results = append(results, res)
	}
	experiment.WriteComparisonSummary(s.out, results)
	return nil
}

// runScope evaluates the one-to-many extension: subtree-scoped floods vs
// per-member unicast control.
func runScope(s settings) error {
	opts := experiment.DefaultScopeOpts()
	if s.quick {
		opts.Warmup = 5 * time.Minute
		opts.Operations = 2
	}
	res, err := experiment.RunScopeStudy(experiment.Indoor(s.seed, false), opts)
	if err != nil {
		return err
	}
	experiment.WriteScopeReport(s.out, res)
	return nil
}
