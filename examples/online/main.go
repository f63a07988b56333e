// Online: the multi-epoch deployment view. A population of pedestrians
// walks the network (random waypoint) while tasks arrive stochastically;
// TSAJS re-schedules every ten seconds. The example runs the same world
// twice — cold-started and warm-started — and compares total utility and
// scheduling effort, the trade a periodic re-optimizer actually cares
// about.
//
// Run with: go run ./examples/online
package main

import (
	"fmt"
	"log"

	"github.com/tsajs/tsajs"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	params := tsajs.DefaultParams()
	params.NumUsers = 35
	params.Workload.WorkCycles = 2500e6

	// A tight per-epoch budget is the realistic regime: a coordinator
	// re-scheduling every few seconds cannot run the full ladder.
	ttsaCfg := tsajs.DefaultConfig()
	ttsaCfg.MaxEvaluations = 600

	base := tsajs.DynamicConfig{
		Params:       params,
		Epochs:       15,
		EpochSeconds: 10,
		ActiveProb:   0.7,
		SpeedKmHMin:  2,
		SpeedKmHMax:  40, // mixed pedestrian/vehicular
		TTSAConfig:   &ttsaCfg,
		Seed:         21,
	}

	fmt.Println("Online MEC scheduling: 35 users, 15 epochs of 10 s, 70% task arrival")
	fmt.Printf("%-12s %14s %14s %12s\n", "mode", "total utility", "total solve", "evaluations")
	for _, warm := range []bool{false, true} {
		cfg := base
		cfg.WarmStart = warm
		res, err := tsajs.RunDynamic(cfg)
		if err != nil {
			return err
		}
		mode := "cold"
		if warm {
			mode = "warm"
		}
		fmt.Printf("%-12s %14.3f %14s %12d\n",
			mode, res.TotalUtility, res.TotalSolveTime.Round(1e6), res.TotalEvaluations)
	}

	// Epoch-by-epoch view of the warm run.
	cfg := base
	cfg.WarmStart = true
	res, err := tsajs.RunDynamic(cfg)
	if err != nil {
		return err
	}
	fmt.Println("\nWarm-started epochs:")
	fmt.Printf("%-6s %7s %9s %9s %8s\n", "epoch", "active", "offload", "utility", "warm")
	for _, e := range res.Epochs {
		fmt.Printf("%-6d %7d %9d %9.3f %8v\n", e.Epoch, e.Active, e.Offloaded, e.Utility, e.WarmStarted)
	}
	fmt.Printf("\nmean active %.1f, mean offloaded %.1f; users move, channels redraw,\n",
		res.MeanActive, res.MeanOffloaded)
	fmt.Println("yet the carried-over decision seeds each epoch's search in a good basin.")
	return nil
}
