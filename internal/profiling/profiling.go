// Package profiling wires the conventional -cpuprofile / -memprofile
// flags into the repo's binaries (eaexp, easim) so any
// experiment invocation can be profiled with `go tool pprof` without a
// bespoke harness.
package profiling

import (
	"os"
	"runtime"
	"runtime/pprof"
)

// StartCPU begins a CPU profile written to path and returns the stop
// function. With path == "" it is a no-op (stop is still non-nil).
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap forces a GC (so the allocation profile reflects live data and
// cumulative allocs up to now) and writes the heap profile to path. With
// path == "" it is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
