// Package prof wires the conventional -cpuprofile/-memprofile flags
// into the CLIs, and the services' -pprof listener. Combined with the policy's per-phase pprof labels
// (sketch / evolve / score / measure / train), a profile of a tuning run
// splits cleanly by search stage:
//
//	ansor-tune -workload GMM.s1 -trials 128 -cpuprofile cpu.pb.gz
//	go tool pprof -tagfocus phase=score cpu.pb.gz
package prof

import (
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the default mux for Serve
	"os"
	"runtime"
	"runtime/pprof"
)

// Serve serves net/http/pprof's /debug/pprof endpoints on addr when
// non-empty, reporting a listener failure to stderr as name's. The
// listener is token-free and off by default: point it at localhost (or a
// firewalled interface) only while profiling. It is separate from any
// service listener, so profiling never rides a (possibly token-guarded)
// API port.
func Serve(addr, name string, stderr io.Writer) {
	if addr == "" {
		return
	}
	go func() {
		if err := http.ListenAndServe(addr, nil); err != nil {
			fmt.Fprintf(stderr, "%s: pprof server: %v\n", name, err)
		}
	}()
}

// Start begins a CPU profile to cpuPath (empty = disabled) and returns
// a stop function that finishes it and, when memPath is non-empty,
// writes an allocation profile (pprof "allocs", which includes the live
// heap) at shutdown. Call stop exactly once, after the profiled work.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			// Up-to-date live-heap numbers alongside the cumulative
			// allocation counts.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
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
