// Package perf records and compares Go benchmark results so performance
// regressions are caught mechanically rather than by eyeballing `go test
// -bench` output.
//
// The workflow has three steps:
//
//  1. Parse: ParseBench reads the text emitted by `go test -bench -benchmem`
//     and extracts one Record per benchmark line — ns/op, B/op, allocs/op,
//     and any custom metrics reported with b.ReportMetric (e.g. the solver
//     benchmarks' "utility").
//  2. Record: the records plus environment metadata (CPU, CPU count,
//     GOMAXPROCS, Go version, commit) are wrapped in a Report and
//     serialized as JSON (the committed BENCH_<date>.json baselines).
//  3. Compare: Compare diffs a current report against a baseline and flags
//     regressions — time beyond a relative threshold, any growth in
//     allocations (which are deterministic in these kernels), and drops in
//     higher-is-better metrics such as utility.
package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// Record is one benchmark's measurements.
type Record struct {
	// Name is the benchmark name with the -cpu suffix stripped
	// (e.g. "BenchmarkIncrementalTTSA/preview").
	Name string `json:"name"`
	// Iterations is the b.N the line reported.
	Iterations int64 `json:"iterations"`
	// NsPerOp is wall time per operation in nanoseconds.
	NsPerOp float64 `json:"nsPerOp"`
	// BytesPerOp and AllocsPerOp come from -benchmem; -1 when absent.
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	// Metrics holds custom units reported via b.ReportMetric, keyed by unit
	// (e.g. "utility").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is a full benchmark run: environment header plus all records.
type Report struct {
	// Date is the recording date, YYYY-MM-DD (caller-supplied; this package
	// performs no clock reads so recordings are reproducible).
	Date string `json:"date"`
	// Goos, Goarch, Pkg and CPU are taken from the bench output header.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU, GOMAXPROCS, GoVersion and Commit describe the recording
	// process (see RecordEnvironment); reports recorded before these
	// fields existed leave them zero. Compare ignores them.
	NumCPU     int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"goVersion,omitempty"`
	Commit     string `json:"commit,omitempty"`
	// Notes is free-form context ("pre-flattening baseline", ...).
	Notes   string   `json:"notes,omitempty"`
	Records []Record `json:"records"`
}

// RecordEnvironment fills the environment fields from the running
// process: its CPU count, GOMAXPROCS, Go version, and the VCS revision
// the binary was built from, or "unknown" when it carries none (for
// example under go run without VCS stamping).
func (rep *Report) RecordEnvironment() {
	rep.NumCPU = runtime.NumCPU()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.GoVersion = runtime.Version()
	info, _ := debug.ReadBuildInfo()
	rep.Commit = commitOf(info)
}

// commitOf returns the vcs.revision build setting of info, with a
// "+dirty" suffix for a modified tree, or "unknown".
func commitOf(info *debug.BuildInfo) string {
	if info == nil {
		return "unknown"
	}
	rev, dirty := "", false
	for _, kv := range info.Settings {
		switch kv.Key {
		case "vcs.revision":
			rev = kv.Value
		case "vcs.modified":
			dirty = kv.Value == "true"
		}
	}
	switch {
	case rev == "":
		return "unknown"
	case dirty:
		return rev + "+dirty"
	}
	return rev
}

// ParseBench reads `go test -bench` text output and returns a report with
// the environment header filled in. Lines that are not benchmark results
// ("PASS", "ok ...", test log noise) are ignored.
func ParseBench(r io.Reader) (Report, error) {
	var rep Report
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			rec, ok, err := parseLine(line)
			if err != nil {
				return Report{}, err
			}
			if ok {
				rep.Records = append(rep.Records, rec)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return Report{}, err
	}
	if len(rep.Records) == 0 {
		return Report{}, fmt.Errorf("no benchmark result lines found")
	}
	return rep, nil
}

// parseLine parses one result line:
//
//	BenchmarkFoo/sub-8  123  4567 ns/op  10.5 utility  32 B/op  2 allocs/op
//
// The second return is false for lines that merely start with "Benchmark"
// but carry no measurements (e.g. a name echoed with -v).
func parseLine(line string) (Record, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Record{}, false, nil
	}
	rec := Record{
		Name:        trimCPUSuffix(fields[0]),
		BytesPerOp:  -1,
		AllocsPerOp: -1,
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false, nil
	}
	rec.Iterations = iters
	// The remainder is (value, unit) pairs.
	if len(fields[2:])%2 != 0 {
		return Record{}, false, fmt.Errorf("odd value/unit pairing: %q", line)
	}
	for i := 2; i < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false, fmt.Errorf("bad value %q in %q", fields[i], line)
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			rec.NsPerOp = val
		case "B/op":
			rec.BytesPerOp = val
		case "allocs/op":
			rec.AllocsPerOp = val
		case "MB/s":
			// throughput; not tracked
		default:
			if rec.Metrics == nil {
				rec.Metrics = make(map[string]float64)
			}
			rec.Metrics[unit] = val
		}
	}
	return rec, true, nil
}

// trimCPUSuffix drops the trailing "-<gomaxprocs>" go test appends.
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// Encode writes the report as indented JSON.
func (rep Report) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Decode reads a JSON report.
func Decode(r io.Reader) (Report, error) {
	var rep Report
	if err := json.NewDecoder(r).Decode(&rep); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// Find returns the record with the given name, if present.
func (rep Report) Find(name string) (Record, bool) {
	for _, rec := range rep.Records {
		if rec.Name == name {
			return rec, true
		}
	}
	return Record{}, false
}

// Thresholds configures Compare.
type Thresholds struct {
	// Time is the tolerated relative ns/op growth (0.25 = +25%). Benchmark
	// timings are noisy, so this should be generous on shared machines.
	Time float64
	// Allocs is the tolerated relative allocs/op growth. The hot-path
	// kernels are allocation-free by contract, so 0 is the right setting:
	// any new allocation in a 0-alloc benchmark is flagged.
	Allocs float64
	// MetricDrop is the tolerated relative decrease in custom metrics
	// (higher is better, e.g. solver utility).
	MetricDrop float64
}

// DefaultThresholds is a CI-friendly configuration: generous on time
// (shared runners), strict on allocations and achieved utility.
func DefaultThresholds() Thresholds {
	return Thresholds{Time: 0.25, Allocs: 0, MetricDrop: 0.01}
}

// Regression is one detected degradation.
type Regression struct {
	Name     string  `json:"name"`
	Kind     string  `json:"kind"` // "time", "allocs", or the metric unit
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Delta is the relative change, signed so that positive is worse.
	Delta float64 `json:"delta"`
}

func (r Regression) String() string {
	return fmt.Sprintf("%s: %s %g -> %g (%+.1f%%)",
		r.Name, r.Kind, r.Baseline, r.Current, 100*r.Delta)
}

// Compare diffs current against baseline and returns the regressions, in
// deterministic (name, kind) order. Benchmarks present in only one report
// are skipped: the harness compares like with like.
func Compare(baseline, current Report, th Thresholds) []Regression {
	var regs []Regression
	for _, cur := range current.Records {
		base, ok := baseline.Find(cur.Name)
		if !ok {
			continue
		}
		if base.NsPerOp > 0 && cur.NsPerOp > base.NsPerOp*(1+th.Time) {
			regs = append(regs, Regression{
				Name: cur.Name, Kind: "time",
				Baseline: base.NsPerOp, Current: cur.NsPerOp,
				Delta: cur.NsPerOp/base.NsPerOp - 1,
			})
		}
		if base.AllocsPerOp >= 0 && cur.AllocsPerOp >= 0 &&
			cur.AllocsPerOp > base.AllocsPerOp*(1+th.Allocs) {
			delta := 1.0 // from-zero growth is infinitely worse; report 100%
			if base.AllocsPerOp > 0 {
				delta = cur.AllocsPerOp/base.AllocsPerOp - 1
			}
			regs = append(regs, Regression{
				Name: cur.Name, Kind: "allocs",
				Baseline: base.AllocsPerOp, Current: cur.AllocsPerOp,
				Delta: delta,
			})
		}
		for unit, baseVal := range base.Metrics {
			curVal, ok := cur.Metrics[unit]
			if !ok {
				continue
			}
			// Higher is better; flag relative drops beyond tolerance.
			scale := baseVal
			if scale < 0 {
				scale = -scale
			}
			if scale == 0 {
				scale = 1
			}
			if drop := (baseVal - curVal) / scale; drop > th.MetricDrop {
				regs = append(regs, Regression{
					Name: cur.Name, Kind: unit,
					Baseline: baseVal, Current: curVal,
					Delta: drop,
				})
			}
		}
	}
	sort.Slice(regs, func(i, j int) bool {
		if regs[i].Name != regs[j].Name {
			return regs[i].Name < regs[j].Name
		}
		return regs[i].Kind < regs[j].Kind
	})
	return regs
}
