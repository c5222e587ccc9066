// Package profiling wraps runtime/pprof for the CLIs: one call starts
// the requested profiles and returns a stop function that finishes
// them, so mtpu-run and mtpu-bench expose identical
// -cpuprofile/-memprofile/-blockprofile/-mutexprofile flags for
// profile-guided perf passes.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiles selects which profiles to write; empty paths disable.
type Profiles struct {
	// CPU is sampled for the whole run.
	CPU string
	// Mem is the heap profile at exit (after a final GC).
	Mem string
	// Block records goroutine blocking (channel/select/sync waits) for
	// the whole run; enabling it sets the block profile rate to 1.
	Block string
	// Mutex records contended mutex holders for the whole run; enabling
	// it sets the mutex profile fraction to 1.
	Mutex string
}

// Start begins profiling per the flag values (empty strings disable).
// The returned stop must be called exactly once before the process
// exits; it is safe to call when no profile was requested.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	return StartAll(Profiles{CPU: cpuPath, Mem: memPath})
}

// StartAll is Start over the full profile set.
func StartAll(p Profiles) (stop func() error, err error) {
	var cpuFile *os.File
	if p.CPU != "" {
		cpuFile, err = os.Create(p.CPU)
		if err != nil {
			return nil, fmt.Errorf("profiling: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profiling: starting CPU profile: %w", err)
		}
	}
	if p.Block != "" {
		runtime.SetBlockProfileRate(1)
	}
	if p.Mutex != "" {
		runtime.SetMutexProfileFraction(1)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("profiling: closing CPU profile: %w", err)
			}
		}
		if p.Mem != "" {
			f, err := os.Create(p.Mem)
			if err != nil {
				return fmt.Errorf("profiling: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("profiling: writing heap profile: %w", err)
			}
		}
		if err := writeLookup("block", p.Block); err != nil {
			return err
		}
		if err := writeLookup("mutex", p.Mutex); err != nil {
			return err
		}
		return nil
	}, nil
}

// writeLookup dumps one named runtime profile to path (no-op when
// path is empty).
func writeLookup(name, path string) error {
	if path == "" {
		return nil
	}
	prof := pprof.Lookup(name)
	if prof == nil {
		return fmt.Errorf("profiling: no %q profile in this runtime", name)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("profiling: %w", err)
	}
	defer f.Close()
	if err := prof.WriteTo(f, 0); err != nil {
		return fmt.Errorf("profiling: writing %s profile: %w", name, err)
	}
	return nil
}
