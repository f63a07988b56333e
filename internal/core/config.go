// Package core implements the paper's primary contribution: the
// Threshold-Triggered Simulated Annealing (TTSA) scheduler of Algorithm 1,
// with the GetNeighborhood move generator of Algorithm 2 and the KKT-based
// resource allocation folded into every objective evaluation.
package core

import "fmt"

// MoveWeights is the probability mix of the Algorithm 2 neighbourhood
// moves. The fields need not sum to one; they are normalized. The paper's
// thresholds (0.05 / 0.2 / 0.75 over a uniform draw) correspond to the
// DefaultConfig mix.
type MoveWeights struct {
	// MoveServer relocates a user to a different server.
	MoveServer float64 `json:"moveServer"`
	// MoveChannel relocates a user to another subchannel on its server.
	MoveChannel float64 `json:"moveChannel"`
	// Swap exchanges the assignments of two users.
	Swap float64 `json:"swap"`
	// Toggle flips a user between offloaded and local.
	Toggle float64 `json:"toggle"`
}

func (w MoveWeights) total() float64 {
	return w.MoveServer + w.MoveChannel + w.Swap + w.Toggle
}

// Config parametrizes TTSA. DefaultConfig reproduces Algorithm 1 verbatim.
type Config struct {
	// InitialTemp is the starting temperature T. Zero means "use N, the
	// number of subchannels", as in Algorithm 1 line 3 (T ← N).
	InitialTemp float64 `json:"initialTemp"`
	// MinTemp is T_min (1e-9 in the paper).
	MinTemp float64 `json:"minTemp"`
	// CoolNormal is α₁, the regular cooling factor (0.97).
	CoolNormal float64 `json:"coolNormal"`
	// CoolFast is α₂, the accelerated cooling factor applied once the
	// accepted-worse counter crosses the threshold (0.90).
	CoolFast float64 `json:"coolFast"`
	// InnerIterations is L, the number of candidate moves per
	// temperature stage (30 in the paper; Figs. 4, 7 and 8 also use 10
	// and 50).
	InnerIterations int `json:"innerIterations"`
	// ThresholdFactor sets maxCount = ThresholdFactor·L (1.75).
	ThresholdFactor float64 `json:"thresholdFactor"`
	// InitOffloadProb is the per-user offloading probability of the
	// random feasible initial solution (Algorithm 1 line 5).
	InitOffloadProb float64 `json:"initOffloadProb"`
	// Moves is the neighbourhood move mix.
	Moves MoveWeights `json:"moves"`
	// DisableThreshold turns off the threshold trigger so cooling always
	// uses α₁ — plain simulated annealing, used by the ablation bench.
	DisableThreshold bool `json:"disableThreshold"`
	// DisableEviction makes occupied-slot moves fail instead of evicting
	// the occupant to local execution (ablation).
	DisableEviction bool `json:"disableEviction"`
	// MaxEvaluations caps objective evaluations (0 = no cap). The paper
	// runs to T_min; the cap is a safety valve for embedding TTSA in
	// latency-bounded services.
	MaxEvaluations int `json:"maxEvaluations"`
}

// DefaultConfig returns Algorithm 1's published constants with the
// Algorithm 2 move mix.
func DefaultConfig() Config {
	return Config{
		MinTemp:         1e-9,
		CoolNormal:      0.97,
		CoolFast:        0.90,
		InnerIterations: 30,
		ThresholdFactor: 1.75,
		InitOffloadProb: 0.5,
		Moves: MoveWeights{
			MoveServer:  0.55,
			MoveChannel: 0.25,
			Swap:        0.15,
			Toggle:      0.05,
		},
	}
}

// Validate checks the configuration domain.
func (c Config) Validate() error {
	switch {
	case c.InitialTemp < 0:
		return fmt.Errorf("core: initial temperature must be non-negative, got %g", c.InitialTemp)
	case c.MinTemp <= 0:
		return fmt.Errorf("core: minimum temperature must be positive, got %g", c.MinTemp)
	case c.InitialTemp != 0 && c.InitialTemp <= c.MinTemp:
		return fmt.Errorf("core: initial temperature %g must exceed minimum %g", c.InitialTemp, c.MinTemp)
	case c.CoolNormal <= 0 || c.CoolNormal >= 1:
		return fmt.Errorf("core: cooling factor alpha1 must be in (0,1), got %g", c.CoolNormal)
	case c.CoolFast <= 0 || c.CoolFast >= 1:
		return fmt.Errorf("core: cooling factor alpha2 must be in (0,1), got %g", c.CoolFast)
	case c.InnerIterations <= 0:
		return fmt.Errorf("core: inner iterations must be positive, got %d", c.InnerIterations)
	case c.ThresholdFactor <= 0:
		return fmt.Errorf("core: threshold factor must be positive, got %g", c.ThresholdFactor)
	case c.InitOffloadProb < 0 || c.InitOffloadProb > 1:
		return fmt.Errorf("core: initial offload probability must be in [0,1], got %g", c.InitOffloadProb)
	case c.Moves.total() <= 0:
		return fmt.Errorf("core: move weights must have positive total, got %+v", c.Moves)
	case c.Moves.MoveServer < 0 || c.Moves.MoveChannel < 0 || c.Moves.Swap < 0 || c.Moves.Toggle < 0:
		return fmt.Errorf("core: move weights must be non-negative, got %+v", c.Moves)
	case c.MaxEvaluations < 0:
		return fmt.Errorf("core: evaluation cap must be non-negative, got %d", c.MaxEvaluations)
	}
	return nil
}
