// Command perfbench is the repository's serving benchmark. It drives
// real ssdserved and ssdrouter binaries, built from the tree under test,
// over loopback with seeded internal/loadgen schedules, checks the
// daemons' end state, and prints one JSON result line.
//
// Run it from the repository root through its wrapper, which builds
// everything into .bench_build first:
//
//	bash _perfbench/run.sh --workload ingest_bin --seed 1 --seconds 30 --trace 0
//	bash _perfbench/run.sh --workload all --seed 1 --seconds 30
//
// --trace 0 reports the end-to-end metrics of BENCHMARK.json, measured
// against daemons in their own processes. --trace 1 hosts the daemons
// in this process instead, times calls into their public seams and
// replays the run's inputs through each layer, and reports the
// per-layer metrics. A run whose correctness checks fail prints the
// failures and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

// runLimit bounds a whole run, so a hung daemon fails the run instead
// of outliving it.
const runLimit = 170 * time.Second

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{}
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "seed the inputs are built from")
	fs.Float64Var(&o.seconds, "seconds", 15, "how long one run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 reports per-layer metrics from a traced in-process run")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the ssdserved and ssdrouter binaries")
	fs.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	fs.Float64Var(&o.scale, "scale", 1, "fleet size factor (tests use a tiny scale)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag == 1
	if o.workload == "" || o.seconds <= 0 || o.scale <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --workload is required; --seconds and --scale must be positive; --trace is 0 or 1")
		return 2
	}
	for _, p := range []*string{&o.bin, &o.work} {
		abs, err := filepath.Abs(*p)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		*p = abs
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if o.workload != "all" {
		ctx, cancel := context.WithTimeout(sigCtx, runLimit)
		defer cancel()
		rep, err := runWorkload(ctx, &o)
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := rep.write(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !rep.Correct {
			return 1
		}
		return 0
	}
	code := 0
	for _, name := range workloadNames {
		wo := o
		wo.workload = name
		fmt.Fprintf(stdout, "== %s\n", name)
		// Each workload gets the whole time limit.
		wctx, wcancel := context.WithTimeout(sigCtx, runLimit)
		rep, err := runWorkload(wctx, &wo)
		wcancel()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			code = 1
			continue
		}
		if err := rep.write(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if !rep.Correct {
			code = 1
		}
	}
	return code
}

// runWorkload builds a workload's inputs and runs it, traced or not.
func runWorkload(ctx context.Context, o *options) (*report, error) {
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		return nil, err
	}
	for _, b := range []string{"ssdserved", "ssdrouter"} {
		if _, err := os.Stat(filepath.Join(o.bin, b)); err != nil && !o.trace {
			return nil, fmt.Errorf("daemon binary missing (build it first): %w", err)
		}
	}
	model, err := ensureModel(filepath.Join(o.work, "model"))
	if err != nil {
		return nil, fmt.Errorf("model: %w", err)
	}
	// A traced run makes two passes, untimed and timed; for the
	// open-loop workload each gets half the run.
	span := o.seconds
	if o.trace {
		span /= 2
	}
	in, err := buildInputs(o.workload, o.seed, o.scale, span, model)
	if err != nil {
		return nil, err
	}
	rep := newReport()
	rep.env = newEnv(o, in)
	if o.trace {
		err = runTraced(ctx, o, in, rep)
	} else {
		err = runUntraced(ctx, o, in, rep)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		rep.violations = append(rep.violations, "run cut short: "+ctx.Err().Error())
	}
	rep.Correct = len(rep.violations) == 0
	return rep, nil
}
