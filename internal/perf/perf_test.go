package perf

import (
	"bytes"
	"math"
	"os"
	"runtime/debug"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: github.com/tsajs/tsajs
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSystemUtility-8         	 2117misparse
BenchmarkSystemUtility-8         	 2117347	       570.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkSolveTSAJS_U30-8        	     152	   7381234 ns/op	         5.719 utility	  941234 B/op	    1234 allocs/op
BenchmarkIncrementalTTSA/preview-8 	 1000000	      1149 ns/op	       0 B/op	       0 allocs/op
PASS
ok  	github.com/tsajs/tsajs	12.3s
`

func TestParseBench(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Goarch != "amd64" {
		t.Errorf("header = %q/%q", rep.Goos, rep.Goarch)
	}
	if !strings.Contains(rep.CPU, "Xeon") {
		t.Errorf("cpu = %q", rep.CPU)
	}
	if len(rep.Records) != 3 {
		t.Fatalf("parsed %d records, want 3", len(rep.Records))
	}
	su := rep.Records[0]
	if su.Name != "BenchmarkSystemUtility" {
		t.Errorf("cpu suffix not stripped: %q", su.Name)
	}
	if su.Iterations != 2117347 || su.NsPerOp != 570.7 || su.AllocsPerOp != 0 || su.BytesPerOp != 0 {
		t.Errorf("record = %+v", su)
	}
	solve, ok := rep.Find("BenchmarkSolveTSAJS_U30")
	if !ok {
		t.Fatal("solver record missing")
	}
	if got := solve.Metrics["utility"]; math.Abs(got-5.719) > 1e-12 {
		t.Errorf("utility metric = %g", got)
	}
	sub, ok := rep.Find("BenchmarkIncrementalTTSA/preview")
	if !ok || sub.NsPerOp != 1149 {
		t.Errorf("sub-benchmark record = %+v (found %v)", sub, ok)
	}
}

func TestParseBenchNoRecords(t *testing.T) {
	if _, err := ParseBench(strings.NewReader("PASS\nok x 0.1s\n")); err == nil {
		t.Error("empty bench output accepted")
	}
}

func TestParseBenchWithoutBenchmem(t *testing.T) {
	rep, err := ParseBench(strings.NewReader("BenchmarkX-4 100 250 ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	r := rep.Records[0]
	if r.BytesPerOp != -1 || r.AllocsPerOp != -1 {
		t.Errorf("missing -benchmem columns should be -1, got %+v", r)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep, err := ParseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	rep.Date = "2026-08-06"
	rep.Notes = "test"
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != rep.Date || got.Notes != rep.Notes || len(got.Records) != len(rep.Records) {
		t.Fatalf("round trip changed report: %+v", got)
	}
	for i := range got.Records {
		a, b := got.Records[i], rep.Records[i]
		if a.Name != b.Name || a.NsPerOp != b.NsPerOp || a.AllocsPerOp != b.AllocsPerOp {
			t.Errorf("record %d changed: %+v vs %+v", i, a, b)
		}
	}
}

func rec(name string, ns, allocs float64, metrics map[string]float64) Record {
	return Record{Name: name, Iterations: 1, NsPerOp: ns, BytesPerOp: 0, AllocsPerOp: allocs, Metrics: metrics}
}

func TestCompareFlagsTimeRegression(t *testing.T) {
	base := Report{Records: []Record{rec("BenchmarkA", 100, 0, nil)}}
	cur := Report{Records: []Record{rec("BenchmarkA", 140, 0, nil)}}
	regs := Compare(base, cur, Thresholds{Time: 0.25})
	if len(regs) != 1 || regs[0].Kind != "time" {
		t.Fatalf("regressions = %v", regs)
	}
	if math.Abs(regs[0].Delta-0.4) > 1e-9 {
		t.Errorf("delta = %g, want 0.4", regs[0].Delta)
	}
	// Within threshold: clean.
	cur.Records[0].NsPerOp = 120
	if regs := Compare(base, cur, Thresholds{Time: 0.25}); len(regs) != 0 {
		t.Errorf("within-threshold run flagged: %v", regs)
	}
}

func TestCompareFlagsAllocGrowthFromZero(t *testing.T) {
	base := Report{Records: []Record{rec("BenchmarkHot", 100, 0, nil)}}
	cur := Report{Records: []Record{rec("BenchmarkHot", 100, 2, nil)}}
	regs := Compare(base, cur, DefaultThresholds())
	if len(regs) != 1 || regs[0].Kind != "allocs" {
		t.Fatalf("regressions = %v", regs)
	}
}

func TestCompareFlagsUtilityDrop(t *testing.T) {
	base := Report{Records: []Record{rec("BenchmarkSolve", 100, 0, map[string]float64{"utility": 5.72})}}
	cur := Report{Records: []Record{rec("BenchmarkSolve", 100, 0, map[string]float64{"utility": 5.0})}}
	regs := Compare(base, cur, DefaultThresholds())
	if len(regs) != 1 || regs[0].Kind != "utility" {
		t.Fatalf("regressions = %v", regs)
	}
	// Improvement is never a regression.
	cur.Records[0].Metrics["utility"] = 6.1
	if regs := Compare(base, cur, DefaultThresholds()); len(regs) != 0 {
		t.Errorf("utility gain flagged: %v", regs)
	}
}

func TestCompareSkipsUnmatched(t *testing.T) {
	base := Report{Records: []Record{rec("BenchmarkOld", 1, 0, nil)}}
	cur := Report{Records: []Record{rec("BenchmarkNew", 1e9, 50, nil)}}
	if regs := Compare(base, cur, DefaultThresholds()); len(regs) != 0 {
		t.Errorf("unmatched benchmark compared: %v", regs)
	}
}

func TestRegressionString(t *testing.T) {
	r := Regression{Name: "BenchmarkA", Kind: "time", Baseline: 100, Current: 140, Delta: 0.4}
	if got := r.String(); !strings.Contains(got, "BenchmarkA") || !strings.Contains(got, "+40.0%") {
		t.Errorf("String() = %q", got)
	}
}

func TestRecordEnvironment(t *testing.T) {
	var rep Report
	rep.RecordEnvironment()
	if rep.NumCPU < 1 || rep.GOMAXPROCS < 1 || !strings.HasPrefix(rep.GoVersion, "go") || rep.Commit == "" {
		t.Errorf("environment = nproc %d, GOMAXPROCS %d, Go %q, commit %q",
			rep.NumCPU, rep.GOMAXPROCS, rep.GoVersion, rep.Commit)
	}
	var buf bytes.Buffer
	if err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"nproc"`, `"gomaxprocs"`, `"goVersion"`, `"commit"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("encoded report lacks %s: %s", key, buf.String())
		}
	}
	back, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumCPU != rep.NumCPU || back.GOMAXPROCS != rep.GOMAXPROCS ||
		back.GoVersion != rep.GoVersion || back.Commit != rep.Commit {
		t.Errorf("round trip = %+v, want %+v", back, rep)
	}
}

func TestCommitOf(t *testing.T) {
	setting := func(kv ...string) *debug.BuildInfo {
		info := &debug.BuildInfo{}
		for i := 0; i < len(kv); i += 2 {
			info.Settings = append(info.Settings, debug.BuildSetting{Key: kv[i], Value: kv[i+1]})
		}
		return info
	}
	for _, tc := range []struct {
		info *debug.BuildInfo
		want string
	}{
		{nil, "unknown"},
		{setting("GOOS", "linux"), "unknown"},
		{setting("vcs.revision", "b8f698f", "vcs.modified", "false"), "b8f698f"},
		{setting("vcs.revision", "b8f698f", "vcs.modified", "true"), "b8f698f+dirty"},
	} {
		if got := commitOf(tc.info); got != tc.want {
			t.Errorf("commitOf(%+v) = %q, want %q", tc.info, got, tc.want)
		}
	}
}

// TestCommittedBaselineLoads: the quick-gate baseline predates the
// environment fields; it must still decode, with the fields zero, and an
// environment difference alone must never read as a regression.
func TestCommittedBaselineLoads(t *testing.T) {
	f, err := os.Open("../../results/bench/BENCH_baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	base, err := Decode(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Records) == 0 || base.NumCPU != 0 || base.Commit != "" {
		t.Fatalf("baseline = %d records, nproc %d, commit %q", len(base.Records), base.NumCPU, base.Commit)
	}
	cur := base
	cur.RecordEnvironment()
	if regs := Compare(base, cur, DefaultThresholds()); len(regs) != 0 {
		t.Errorf("environment fields produced regressions: %v", regs)
	}
}
