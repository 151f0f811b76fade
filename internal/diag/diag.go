// Package diag is the observability scaffolding the long-running binaries
// share: the -trace, -telemetry, -pprof, -cpuprofile and -memprofile flags
// and what each does. Everything it writes goes to stderr or side files, so
// a program's stdout stays byte-comparable with diagnostics on or off.
package diag

import (
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // registers its handlers on the default mux -pprof serves
	"os"
	"runtime"
	"runtime/pprof"

	"caribou/internal/telemetry"
)

// Flags holds the parsed values of the five flags.
type Flags struct {
	trace, pprofAddr, cpuProfile, memProfile string
	summary                                  bool
}

// Register declares the five flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.trace, "trace", "", "write an NDJSON telemetry trace to this file on exit")
	fs.BoolVar(&f.summary, "telemetry", false, "print a telemetry summary table to stderr on exit")
	fs.StringVar(&f.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.StringVar(&f.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memProfile, "memprofile", "", "write a heap profile to this file")
	return f
}

// Start acts on the parsed flags: it enables the telemetry recorder when a
// trace or summary was asked for, serves pprof and starts the CPU profile.
// Call it before any component is constructed — instrument handles are
// captured at construction time — and defer the returned stop, which
// flushes the CPU profile.
func (f *Flags) Start() (stop func(), err error) {
	if f.trace != "" || f.summary {
		telemetry.Enable(telemetry.Options{})
	}
	if f.pprofAddr != "" {
		//caribou:allow goroutines pprof server lives beside the program; it never touches simulated or tenant state
		go func() {
			if err := http.ListenAndServe(f.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
	}
	if f.cpuProfile == "" {
		return func() {}, nil
	}
	out, err := os.Create(f.cpuProfile)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(out); err != nil {
		out.Close()
		return nil, err
	}
	return func() {
		pprof.StopCPUProfile()
		out.Close()
	}, nil
}

// Finish writes what the flags asked for once the program's work is done:
// the summary table to stderr, the NDJSON trace (flight recorder and
// instrument registry) and the heap profile.
func (f *Flags) Finish() error {
	if f.summary {
		telemetry.Default().WriteSummary(os.Stderr)
	}
	var errs []error
	if f.trace != "" {
		errs = append(errs, writeFile(f.trace, func(out *os.File) error { return telemetry.Default().WriteNDJSON(out) }))
	}
	if f.memProfile != "" {
		runtime.GC() // materialize up-to-date allocation statistics
		errs = append(errs, writeFile(f.memProfile, func(out *os.File) error { return pprof.WriteHeapProfile(out) }))
	}
	return errors.Join(errs...)
}

func writeFile(path string, write func(*os.File) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
