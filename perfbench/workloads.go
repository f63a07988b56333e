package main

import (
	"sort"
	"strings"
	"time"
)

// workload builds one named input set for a seed and the run's windows.
// BENCHMARK.json lists the same names with a one-line why. The first
// numbers below each definition were measured when the benchmark was
// added: 2-core Intel Xeon container, GOMAXPROCS 2, go1.24.0, 25 s runs,
// medians over seeds 1–10; layer shares from one traced run. The
// container's speed changed by up to 1.7x between spells of tens of
// minutes (replay-walk read 540 epochs/s in one spell and 900 in another),
// so compare only runs made side by side.
type workload func(seed uint64, windows []time.Duration) bench

var workloads = map[string]workload{
	// serve-open: open loop, Poisson arrivals at 2000 req/s, every request
	// from a fresh device placed uniformly over the default 9-cell,
	// 3-subchannel network; coordinator defaults (20 ms window, MaxBatch
	// 27, 2 workers, 4000-evaluation TTSA).
	//
	// Why: independent devices are how a C-RAN coordinator is loaded, and
	// a batch fills its 27 slots in about 13.5 ms, within the window, so
	// nearly every epoch is a full 27-user solve: the solver, collector
	// and queue do the work while delta does none. 4000 req/s sheds
	// nothing on a quiet machine (p50 5.79 ms, p99 11.2 ms, 0.110 ms CPU
	// per decision when the benchmark was added), but in spells where the
	// host steals a third of a CPU all ten runs of a set shed, up to 4.3%
	// of requests, and p99 read 49–180 ms; 2000 req/s keeps the same full
	// epochs with room to spare. Shedding starts somewhere between 6k and
	// 10k req/s on a quiet machine, a point too unsteady between runs to
	// report as a metric.
	//
	// First numbers: latency p50 10.6 ms, p99 21.4 ms (the batch fill time
	// is most of both); goodput 2000 req/s, nothing failed; 0.239 utility
	// and 0.23 ms CPU per decision; 74 epochs/s. At 4000 req/s TTSA was 94%
	// of a probed epoch and the gain draw 4%.
	//
	// The coordinator solves an epoch's requests in the order they
	// arrived, which the benchmark cannot see; the layer probe solves them
	// in send order. Under this load the two orders differ in nearly every
	// epoch (probe.match_share reads about 0; 0.9 at 150 req/s), so the
	// probe's epochs are stand-ins of the served epochs' size and shape,
	// not the served epochs themselves.
	"serve-open": func(seed uint64, windows []time.Duration) bench {
		return newServeBench(false, seed, windows)
	},
	// serve-fleet: closed loop, a stable fleet of 27 devices (one epoch's
	// slots) over the same clients; each device resubmits on reply, first
	// walking 60 m (over the 50 m delta threshold) with probability 0.1.
	// Delta serving on, everything else as serve-open.
	//
	// A fresh fleet (new IDs, three devices per cell) takes over after
	// every 500 requests per device, so one run averages dozens of
	// placements.
	//
	// Why: the same cran layer serves cache hits instead of fresh writes.
	// Repair epochs cost about a third of full ones, so wire, collector
	// and per-user RNG derivation carry a much larger share.
	//
	// First numbers (slow spell): latency p50 1.46 ms, p99 5.55 ms;
	// goodput 14.9k req/s; 0.190 utility and 0.077 ms CPU per decision;
	// 551 epochs/s; RSS 44 MB; set-up 22 ms. 87% of
	// epochs are repairs and 21% of rows are redrawn; derivation is 8–13%
	// of a probed epoch. The probe reproduces every served decision. Delta repair costs utility: with delta off a
	// single placement per seed read 0.235–0.250 per decision against about
	// 0.18 with delta on, at about half the goodput (seeds 1–3).
	"serve-fleet": func(seed uint64, windows []time.Duration) bench {
		return newServeBench(true, seed, windows)
	},
	// replay-walk: offline dynamic.Run, 80 random-waypoint walkers, 60%
	// active per epoch, default network, 1500-evaluation TTSA, cold start,
	// no delta; 16 replays of 250 epochs from sub-seeds of the seed.
	//
	// Why: the paper's algorithm path with no network. The solver is most
	// of the wall time, so the solver and its initial assignment show
	// here, and wire or queue changes must read no change.
	//
	// First numbers (slow spell): 539 epochs/s; solve p50 1.56 ms, p99
	// 2.32 ms; 0.076 utility and 0.039 ms CPU per decision; RSS 15 MB.
	// A fast spell read 903 epochs/s. Once the timings became the best of
	// each sub-seed's repeats and a set-up a one-epoch replay of every
	// sub-seed, two later sets of ten seeds read medians of 482 and 600
	// epochs/s, solve p50 1.51 and 1.18 ms, p99 2.27 and 2.04 ms, set-up
	// 38 and 37 ms.
	// The probe reproduces every replay epoch bit for bit; TTSA is 84% of
	// a probed epoch and the gain draw 13%.
	"replay-walk": func(seed uint64, windows []time.Duration) bench {
		return newReplayBench(false, seed)
	},
	// replay-delta: replay-walk with delta epochs at a 50 m threshold.
	//
	// Why: time outside the solver roughly triples, most of it per-user
	// simrand derivation and gain-row refresh, so internal/simrand and
	// internal/delta show here and not in replay-walk.
	//
	// First numbers (slow spell): 424 epochs/s; solve p50 1.41 ms, p99
	// 2.27 ms; 0.154 utility and 0.050 ms CPU per decision; RSS 15 MB.
	// A fast spell read 656 epochs/s. With best-of-repeats timings two
	// later sets read 405 and 408 epochs/s, p50 1.28 and 1.34 ms, p99 2.20
	// and 2.21 ms, set-up 59 and 61 ms.
	// 83% of epochs are repairs; 49 stream derivations per epoch are 30%
	// of a probed epoch, TTSA 61%.
	"replay-delta": func(seed uint64, windows []time.Duration) bench {
		return newReplayBench(true, seed)
	},
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}
