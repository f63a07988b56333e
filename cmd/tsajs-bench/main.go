// Command tsajs-bench records and compares benchmark runs.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchmem . | tsajs-bench record -o BENCH_20260806.json
//	tsajs-bench compare -baseline results/bench/BENCH_baseline.json -current /tmp/run.json
//
// record parses `go test -bench` output (stdin or -in) into a JSON report
// stamped with the recording environment (nproc, GOMAXPROCS, Go version,
// commit); compare diffs two reports, ignoring the environment, and exits
// nonzero when the current run has regressed beyond the thresholds —
// slower than -time-threshold allows, any allocation growth in
// allocation-free kernels, or a drop in solver utility. This is the
// machine check behind `make bench-check`.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/tsajs/tsajs/internal/perf"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsajs-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: tsajs-bench record|compare [flags]")
	}
	switch args[0] {
	case "record":
		return runRecord(args[1:], stdin, stdout)
	case "compare":
		return runCompare(args[1:], stdout)
	default:
		return fmt.Errorf("unknown subcommand %q (want record or compare)", args[0])
	}
}

func runRecord(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-bench record", flag.ContinueOnError)
	var (
		in    = fs.String("in", "", "bench output file (default: stdin)")
		out   = fs.String("o", "", "output JSON file (default: stdout)")
		date  = fs.String("date", "", "recording date, YYYY-MM-DD (default: today)")
		notes = fs.String("notes", "", "free-form context stored with the report")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	src := stdin
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	rep, err := perf.ParseBench(src)
	if err != nil {
		return err
	}
	rep.Date = *date
	if rep.Date == "" {
		rep.Date = time.Now().Format("2006-01-02")
	}
	rep.Notes = *notes
	rep.RecordEnvironment()

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		dst = f
	}
	if err := rep.Encode(dst); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "tsajs-bench: recorded %d benchmarks\n", len(rep.Records))
	return nil
}

func runCompare(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("tsajs-bench compare", flag.ContinueOnError)
	def := perf.DefaultThresholds()
	var (
		basePath = fs.String("baseline", "", "baseline report JSON (required)")
		curPath  = fs.String("current", "", "current report JSON (required)")
		timeTh   = fs.Float64("time-threshold", def.Time, "tolerated relative ns/op growth")
		allocTh  = fs.Float64("alloc-threshold", def.Allocs, "tolerated relative allocs/op growth")
		metricTh = fs.Float64("metric-threshold", def.MetricDrop, "tolerated relative drop in custom metrics")
		skipTime = fs.Bool("skip-time", false, "ignore timing regressions (for noisy shared runners)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("compare requires -baseline and -current")
	}
	base, err := decodeFile(*basePath)
	if err != nil {
		return err
	}
	cur, err := decodeFile(*curPath)
	if err != nil {
		return err
	}
	th := perf.Thresholds{Time: *timeTh, Allocs: *allocTh, MetricDrop: *metricTh}
	regs := perf.Compare(base, cur, th)
	if *skipTime {
		kept := regs[:0]
		for _, r := range regs {
			if r.Kind != "time" {
				kept = append(kept, r)
			}
		}
		regs = kept
	}
	if len(regs) == 0 {
		fmt.Fprintf(stdout, "tsajs-bench: no regressions against %s (%s)\n", *basePath, base.Date)
		return nil
	}
	for _, r := range regs {
		fmt.Fprintln(stdout, "REGRESSION", r)
	}
	return fmt.Errorf("%d regression(s) against %s", len(regs), *basePath)
}

func decodeFile(path string) (perf.Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return perf.Report{}, err
	}
	defer f.Close()
	rep, err := perf.Decode(f)
	if err != nil {
		return perf.Report{}, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}
