package main

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"testing"
	"time"

	"github.com/tsajs/tsajs"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	cases := []struct {
		samples []float64
		p       float64
		want    float64
		n       int
	}{
		{hundred, 50, 50, 100},
		{hundred, 99, 99, 100},
		{hundred, 100, 100, 100},
		{hundred, 1, 1, 100},
		{[]float64{3, 1, 2}, 50, 2, 3},
		{[]float64{3, 1, 2, 4}, 50, 2, 4},
		{[]float64{5, 1, 4, 2, 3, 6, 7, 8, 9, 10}, 99, 10, 10},
		{[]float64{7}, 99, 7, 1},
		{nil, 50, 0, 0},
	}
	for _, c := range cases {
		in := append([]float64(nil), c.samples...)
		got, n := percentile(in, c.p)
		if got != c.want || n != c.n {
			t.Errorf("percentile(%v, %g) = (%g, %d), want (%g, %d)", c.samples, c.p, got, n, c.want, c.n)
		}
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	windows := []time.Duration{500 * time.Millisecond, 250 * time.Millisecond}
	for _, fleet := range []bool{false, true} {
		a := newServeBench(fleet, 7, windows).windows
		b := newServeBench(fleet, 7, windows).windows
		if !reflect.DeepEqual(a, b) {
			t.Errorf("fleet=%v: seed 7 gave different inputs on two builds", fleet)
		}
		if c := newServeBench(fleet, 8, windows).windows; reflect.DeepEqual(a, c) {
			t.Errorf("fleet=%v: seeds 7 and 8 gave the same inputs", fleet)
		}
		if reflect.DeepEqual(a[0], a[1]) {
			t.Errorf("fleet=%v: the two windows of one seed share their inputs", fleet)
		}
	}
	open := newServeBench(false, 7, windows).windows[0].open
	if n, want := float64(len(open)), openRate/2; n < 0.75*want || n > 1.25*want {
		t.Errorf("a 500 ms window at %g req/s drew %g arrivals", openRate, n)
	}
	for i := 1; i < len(open); i++ {
		if open[i].due < open[i-1].due {
			t.Fatalf("arrival %d due before arrival %d", i, i-1)
		}
	}
	if subSeed(1, replaySeeds-1) == subSeed(2, 0) {
		t.Error("sub-seeds of neighbouring workload seeds overlap")
	}
}

func TestSlotBookRejectsDuplicate(t *testing.T) {
	sb := slotBook{}
	for _, g := range []struct {
		epoch uint64
		slot  int
	}{{1, 0}, {1, 1}, {2, 0}, {1, 26}} {
		if !sb.grant(g.epoch, g.slot) {
			t.Fatalf("epoch %d slot %d refused on first grant", g.epoch, g.slot)
		}
	}
	if sb.grant(1, 1) {
		t.Fatal("planted duplicate: epoch 1 slot 1 granted twice")
	}
	if !sb.grant(3, 1) {
		t.Fatal("a slot of another epoch was refused")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, s := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !metricName.MatchString(s.name) {
			t.Errorf("metric name %q does not match %s", s.name, metricName)
		}
		if seen[s.name] {
			t.Errorf("metric %q listed twice", s.name)
		}
		seen[s.name] = true
	}
	for _, bad := range []string{"", "has space", "_lead", "slash/name", "x\n"} {
		if metricName.MatchString(bad) {
			t.Errorf("metric name %q accepted", bad)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the command
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, specs []metricSpec) {
		if len(listed) != len(specs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(listed), len(specs))
		}
		for i, s := range specs {
			if listed[i].Name != s.name || listed[i].Unit != s.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the command prints %s [%s]",
					kind, i, listed[i].Name, listed[i].Unit, s.name, s.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the command has %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "epoch", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 0, Start: 10, End: 40},
		{Name: "b", Parent: 0, Start: 50, End: 90},
		{Name: "a", Parent: 0, Start: 90, End: 95},
	}}
	got := tr.selfTimes()
	if e := got["epoch"]; e.self != 25 || e.total != 100 {
		t.Errorf("epoch: self %d total %d, want 25 and 100", e.self, e.total)
	}
	if a := got["a"]; a.count != 2 || a.self != 35 {
		t.Errorf("a: count %d self %d, want 2 and 35", a.count, a.self)
	}
}

func TestRecorderChecks(t *testing.T) {
	rc := &recorder{fleet: true, params: newServeBench(true, 1, nil).params, slots: slotBook{}}
	ok := tsajs.OffloadResponse{UserID: "a", Offload: true, Server: 2, Channel: 1, Epoch: 5, Utility: 0.5}
	rc.record(0, "a", tsajs.Point{}, 0, 0, time.Millisecond, ok, nil)
	if rc.checkFailures != 0 || len(rc.latencies) != 1 || rc.good != 1 {
		t.Fatalf("clean answer: %d failed checks, %d samples, %d good", rc.checkFailures, len(rc.latencies), rc.good)
	}
	bad := []tsajs.OffloadResponse{
		{UserID: "someone-else", Epoch: 6},
		{UserID: "a", Degraded: true, Epoch: 6},
		{UserID: "a", Offload: true, Server: 9, Channel: 0, Epoch: 6},
		{UserID: "a", Offload: true, Server: 2, Channel: 1, Epoch: 5}, // slot taken above
	}
	for i, resp := range bad {
		rc.record(uint64(i+1), "a", tsajs.Point{}, 0, 0, time.Millisecond, resp, nil)
		if rc.checkFailures != i+1 {
			t.Errorf("bad answer %d (%+v) passed the checks", i, resp)
		}
	}
	rc.record(9, "a", tsajs.Point{}, 0, 0, 0, tsajs.OffloadResponse{}, errors.New("shed"))
	if rc.attempted != 6 || rc.failed != 1 || len(rc.latencies) != 5 {
		t.Errorf("attempted %d failed %d samples %d, want 6, 1, 5", rc.attempted, rc.failed, len(rc.latencies))
	}
}

// TestProbeReproducesDeterministicPaths runs short traced windows of the
// delta workloads and checks that the layer probe rebuilt the program's
// own epochs: every served fleet decision and every replay epoch's utility.
func TestProbeReproducesDeterministicPaths(t *testing.T) {
	if testing.Short() {
		t.Skip("starts a coordinator and runs replays")
	}
	fleet := newServeBench(true, 3, []time.Duration{300 * time.Millisecond})
	defer fleet.close()
	if _, err := fleet.setUp(); err != nil {
		t.Fatal(err)
	}
	replay := newReplayBench(true, 3)
	replay.cfg.Epochs = 20
	for name, b := range map[string]bench{"serve-fleet": fleet, "replay-delta": replay} {
		win, err := b.measure(0, 300*time.Millisecond, newTracer())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(win.checks) > 0 {
			t.Errorf("%s: failed checks %v", name, win.checks)
		}
		if win.layers["probe.epochs"] == 0 || win.layers["probe.match_share"] != 1 {
			t.Errorf("%s: probe reproduced a share %g of %g epochs", name, win.layers["probe.match_share"], win.layers["probe.epochs"])
		}
	}
}
