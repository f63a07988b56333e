// Command perfbench is the repository benchmark. It runs one named
// workload against the tsajs serving stack or the offline replay in a
// single process, checks the program's outputs, and prints its metrics as
// one JSON object on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload serve-open --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics. With --trace 1
// the workload runs twice, half the time untraced and half traced (a span
// around every Client.Offload or dynamic.Run call), and the traced
// window's epochs are then fed through each layer's public calls; the
// result carries the per-layer metrics and the tracing overhead (traced
// minus untraced end-to-end numbers). Spans are written to .bench_out/.
//
// A failed correctness check prints the result with "correct": false and
// exits with status 1.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many times a run sets the program up; setup_s is the
// median.
const setupRepeats = 15

// spanDir receives the traced run's spans, relative to the working
// directory.
const spanDir = ".bench_out"

// metricSpec names a reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed by every
// --trace 0 run. Replay workloads read latency as the per-epoch solve time
// and goodput as decisions per second of wall time.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"goodput_rps", "1/s"},
	{"answered_share", "share"},
	{"utility_per_decision", "utility"},
	{"cpu_ms_per_decision", "ms"},
	{"epochs_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by every --trace 1
// run; a layer a workload bypasses reads zero.
var perLayer = []metricSpec{
	{"core.schedule_ms_per_epoch", "ms"},
	{"core.evaluations_per_epoch", "count"},
	{"cran.solve.ms_per_epoch", "ms"},
	{"cran.solve.busy_share", "share"},
	{"dynamic.solve_ms_per_epoch", "ms"},
	{"dynamic.other_ms_per_epoch", "ms"},
	{"simrand.derive_per_epoch", "count"},
	{"simrand.derive_us_per_epoch", "us"},
	{"delta.repair_share", "share"},
	{"delta.dirty_share", "share"},
	{"delta.rows_reused_share", "share"},
	{"delta.plan_us_per_epoch", "us"},
	{"cran.wire.bytes_per_decision", "B"},
	{"cran.collector.batch_mean", "count"},
	{"cran.collector.epochs_per_s", "1/s"},
	{"cran.epoch.latency_ms_mean", "ms"},
	{"cran.window_and_wire_ms_mean", "ms"},
	{"cran.queue.depth_max", "count"},
	{"cran.queue.shed", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.latency_samples", "count"},
	{"radio.gain_us_per_epoch", "us"},
	{"scenario.finalize_us_per_epoch", "us"},
	{"solver.verify_us_per_epoch", "us"},
	{"objective.evaluate_us_per_epoch", "us"},
	{"go.allocs_per_decision", "count"},
	{"go.alloc_bytes_per_decision", "B"},
	{"go.gc_cpu_share", "share"},
	{"probe.epochs", "count"},
	{"probe.match_share", "share"},
	{"probe.simrand.share", "share"},
	{"probe.radio.share", "share"},
	{"probe.scenario.share", "share"},
	{"probe.core.share", "share"},
	{"probe.solver.share", "share"},
	{"probe.objective.share", "share"},
	{"probe.delta.share", "share"},
	{"probe.other.share", "share"},
	{"trace.overhead.latency_p50_ms", "ms"},
	{"trace.overhead.cpu_ms_per_decision", "ms"},
	{"trace.overhead.epochs_per_s", "1/s"},
}

// overheadMetrics are the end-to-end metrics whose traced-minus-untraced
// difference the traced run reports.
var overheadMetrics = []string{"latency_p50_ms", "cpu_ms_per_decision", "epochs_per_s"}

// window is the outcome of one timed measurement.
type window struct {
	e2e       map[string]float64 // every end-to-end metric but setup_s
	layers    map[string]float64
	samples   int // latency samples behind the percentiles
	attempted int
	failed    int
	checks    []string // failed correctness checks
}

func (w *window) fail(format string, args ...any) {
	w.checks = append(w.checks, fmt.Sprintf(format, args...))
}

// bench is one workload's program set-up and measurement.
type bench interface {
	// setUp (re)starts the program and returns how long that took.
	setUp() (time.Duration, error)
	// measure runs input window w for d, traced when tr is set.
	measure(w int, d time.Duration, tr *tracer) (window, error)
	close()
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 10, "measured time per run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "perfbench: --seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	res, report, err := measureWorkload(wl, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(report); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !res.Correct {
		for _, c := range report.Checks {
			fmt.Fprintln(stderr, "perfbench: check failed:", c)
		}
		return 1
	}
	return 0
}

// runReport is printed before the result: what ran, where, and why a check
// failed.
type runReport struct {
	Workload       string      `json:"workload"`
	Seed           uint64      `json:"seed"`
	Trace          bool        `json:"trace"`
	Env            environment `json:"env"`
	LatencySamples int         `json:"latencySamples"`
	Checks         []string    `json:"failedChecks,omitempty"`
	Spans          string      `json:"spans,omitempty"`
}

func measureWorkload(wl workload, name string, seed uint64, d time.Duration, traced bool) (result, runReport, error) {
	windows := []time.Duration{d}
	if traced {
		windows = []time.Duration{d / 2, d / 2}
	}
	b := wl(seed, windows)
	defer b.close()

	setups := make([]float64, setupRepeats)
	for i := range setups {
		t, err := b.setUp()
		if err != nil {
			return result{}, runReport{}, fmt.Errorf("set-up: %w", err)
		}
		setups[i] = t.Seconds()
	}

	report := runReport{Workload: name, Seed: seed, Trace: traced, Env: readEnvironment()}
	var values map[string]float64
	var specs []metricSpec
	var wins []window
	if !traced {
		win, err := b.measure(0, d, nil)
		if err != nil {
			return result{}, report, err
		}
		wins = append(wins, win)
		values = win.e2e
		values["setup_s"] = median(setups)
		specs = endToEnd
	} else {
		plain, err := b.measure(0, windows[0], nil)
		if err != nil {
			return result{}, report, err
		}
		tr := newTracer()
		traced, err := b.measure(1, windows[1], tr)
		if err != nil {
			return result{}, report, err
		}
		wins = append(wins, plain, traced)
		values = traced.layers
		for _, m := range overheadMetrics {
			values["trace.overhead."+m] = traced.e2e[m] - plain.e2e[m]
		}
		report.Spans = filepath.Join(spanDir, fmt.Sprintf("spans-%s-%d.jsonl", name, seed))
		if err := tr.writeJSONL(report.Spans); err != nil {
			return result{}, report, err
		}
		specs = perLayer
	}

	res := result{Metrics: map[string]metricValue{}}
	for _, w := range wins {
		res.Attempted += w.attempted
		res.Failed += w.failed
		report.Checks = append(report.Checks, w.checks...)
		report.LatencySamples += w.samples
	}
	res.Correct = len(report.Checks) == 0
	for _, s := range specs {
		v, ok := values[s.name]
		if !ok {
			return result{}, report, fmt.Errorf("workload %s reported no %s", name, s.name)
		}
		res.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	if res.Attempted == 0 {
		return result{}, report, errors.New("no operation was attempted")
	}
	return res, report, nil
}
