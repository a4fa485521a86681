// Package profiling wires the stdlib pprof profilers into the
// command-line tools: one call after flag parsing starts the CPU
// profile, and the returned stop function finishes it and captures the
// heap. Paths are optional — empty strings disable each profile — so
// the commands can expose -cpuprofile/-memprofile flags that cost
// nothing when unused.
package profiling

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile when cpuPath is non-empty. The returned
// stop function ends the CPU profile and, when memPath is non-empty,
// writes a heap profile; call it exactly once on the way out. Defer it
// inside a run() error function (as cmd/repro does)
// rather than alongside os.Exit calls: an os.Exit skips deferred
// stops, losing the profile on exactly the failing runs one most
// wants to profile.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("cpuprofile: %w", err)
		}
		cpuFile = f
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpuprofile: %w", err)
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("memprofile: %w", err)
		}
		return nil
	}, nil
}
