// Package prof is the CLI profiling capture harness shared by
// teleadjust-sim and teleadjust-bench: it turns the -cpuprofile,
// -memprofile and -exectrace flags into pprof/trace captures bracketing
// the whole run, so the frame hot path can be profiled from any study
// the binaries already know how to run. make profile-smoke checks that
// the flags write captures pprof can load.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the capture output files; empty fields disable that
// capture.
type Config struct {
	// CPU receives a pprof CPU profile covering Start..stop.
	CPU string
	// Mem receives a pprof heap profile written at stop, after a final
	// GC, so it shows live allocations plus cumulative allocation sites.
	Mem string
	// Trace receives a runtime execution trace covering Start..stop.
	Trace string
}

// Enabled reports whether any capture is requested.
func (c Config) Enabled() bool { return c.CPU != "" || c.Mem != "" || c.Trace != "" }

// Start begins the requested captures and returns a stop function that
// ends them and writes the heap profile; the caller must invoke it
// exactly once (typically via defer) and check its error. A config with
// no captures returns a no-op stop.
func Start(c Config) (stop func() error, err error) {
	var cpuF, traceF *os.File
	cleanup := func() {
		if cpuF != nil {
			pprof.StopCPUProfile()
			cpuF.Close()
		}
		if traceF != nil {
			trace.Stop()
			traceF.Close()
		}
	}
	if c.CPU != "" {
		cpuF, err = os.Create(c.CPU)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if c.Trace != "" {
		traceF, err = os.Create(c.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("exec trace: %w", err)
		}
		if err := trace.Start(traceF); err != nil {
			traceF.Close()
			traceF = nil
			cleanup()
			return nil, fmt.Errorf("exec trace: %w", err)
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
			cpuF = nil
		}
		if traceF != nil {
			trace.Stop()
			if err := traceF.Close(); err != nil {
				return fmt.Errorf("exec trace: %w", err)
			}
			traceF = nil
		}
		if c.Mem != "" {
			f, err := os.Create(c.Mem)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("mem profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
