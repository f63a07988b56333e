// Package objective evaluates the JTORA objective for a fixed offloading
// decision: the communication cost Γ(X), the optimal computation cost
// Λ(X, F*) via the KKT allocation, the system utility J*(X) of Eq. (24),
// and the per-user delay/energy/utility breakdown of Eqs. (8)–(10).
//
// The evaluation kernels run against the scenario's flat precomputed
// tables — the received-power table p_u·G_us^j, the per-user
// communication weights φ_u+ψ_u·p_u, and the √η_u vector — so a
// SystemUtility call performs no allocation and no nested-slice pointer
// chasing.
package objective

import (
	"math"

	"github.com/tsajs/tsajs/internal/alloc"
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/radio"
	"github.com/tsajs/tsajs/internal/scenario"
)

// invLn2 is 1/ln2, precomputed so the rate denominator log2(1+γ) can be
// evaluated as Log1p(γ)·invLn2 (one log call, no 1+γ rounding for small γ).
const invLn2 = 1 / math.Ln2

// Evaluator computes objective values for one scenario. It holds scratch
// buffers, so a single Evaluator must not be used from multiple goroutines
// concurrently; create one per goroutine (New is cheap).
type Evaluator struct {
	sc *scenario.Scenario

	// Flat scenario tables (shared, read-only; see scenario.Finalize).
	recv      []float64 // p_u·G_us^j at (u·S+s)·N+j
	commW     []float64 // φ_u + ψ_u·p_u
	gainConst []float64
	sqrtEta   []float64
	serverF   []float64
	noiseW    float64
	numCh     int // N
	stride    int // S·N, the per-user stride into recv

	// byChannel[j] lists the (user, server) pairs transmitting on
	// subchannel j in ascending user order; rebuilt on every evaluation.
	// The lists are S-wide windows of one flat buffer: constraint (12d)
	// admits at most one user per (server, channel) slot.
	byChannel [][]slot
	// sums[s] accumulates Σ√η per server during grouping, giving Λ
	// without a second pass over the users.
	sums []float64

	// inc is the tracked-decision pricer handed out by Track.
	inc Incremental
}

type slot struct{ u, s int }

// New returns an evaluator for sc. The scenario must be finalized. All
// scratch, including the incremental pricer's, lives in one buffer per
// element type, so New makes five allocations at any scenario size.
func New(sc *scenario.Scenario) *Evaluator {
	U, S, N := sc.U(), sc.S(), sc.N()
	e := &Evaluator{
		sc:        sc,
		recv:      sc.RecvPower(),
		commW:     sc.CommWeights(),
		gainConst: sc.GainConsts(),
		sqrtEta:   sc.SqrtEtas(),
		serverF:   sc.ServerFreqs(),
		noiseW:    sc.NoiseW,
		numCh:     N,
		stride:    S * N,
		byChannel: make([][]slot, N),
	}
	slots := make([]slot, 3*N*S)
	floats := make([]float64, 2*N*S+3*S)
	ints := make([]int, 5*N+2*S+2*U)
	for j := range e.byChannel {
		e.byChannel[j] = carve(&slots, S)[:0]
	}
	e.sums = carve(&floats, S)
	e.inc = Incremental{
		e:        e,
		mem:      carve(&slots, 2*N*S),
		term:     carve(&floats, 2*N*S),
		lam:      carve(&floats, 2*S),
		cnt:      carve(&ints, 2*N),
		view:     carve(&ints, N),
		sview:    carve(&ints, S),
		slotOf:   carve(&ints, U),
		dirtyCh:  carve(&ints, N)[:0],
		dirtySrv: carve(&ints, S)[:0],
		changed:  carve(&ints, U)[:0],
		users:    carve(&ints, N)[:0],
	}
	return e
}

// carve cuts the next n elements off *buf with capacity n, so appends to
// the result can never spill into the next window.
func carve[T any](buf *[]T, n int) []T {
	w := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return w
}

// Scenario returns the scenario this evaluator is bound to.
func (e *Evaluator) Scenario() *scenario.Scenario { return e.sc }

// SystemUtility computes J*(X) of Eq. (24):
//
//	J*(X) = Σ_{u∈U_off} λ_u(β_u^t + β_u^e) − Γ(X) − Λ(X, F*),
//
// with the KKT-optimal resource allocation folded in via Eq. (23). It
// performs zero allocations.
func (e *Evaluator) SystemUtility(a *assign.Assignment) float64 {
	gain, gamma := e.gainAndComm(a)
	lambda := 0.0
	for s, sum := range e.sums {
		lambda += e.serverCost(s, sum)
	}
	return gain - gamma - lambda
}

// CommCost computes Γ(X) = Σ_s Σ_{u∈U_s} (φ_u + ψ_u·p_u)/log2(1+γ_us),
// the first term of Eq. (19).
func (e *Evaluator) CommCost(a *assign.Assignment) float64 {
	_, gamma := e.gainAndComm(a)
	return gamma
}

// gainAndComm walks the offloaded users once, returning the constant gain
// term Σ λ_u(β^t+β^e) and the communication cost Γ(X). As a side effect it
// leaves Σ√η per server in e.sums for the Λ term.
func (e *Evaluator) gainAndComm(a *assign.Assignment) (gain, comm float64) {
	e.groupByChannel(a)
	for j, group := range e.byChannel {
		for _, g := range group {
			gain += e.gainConst[g.u]
			comm += e.commTerm(g, j, group)
		}
	}
	return gain, comm
}

// commTerm is member g's share (φ_u + ψ_u·p_u)/log2(1+γ_us) of Γ(X),
// given the co-channel group on subchannel j.
func (e *Evaluator) commTerm(g slot, j int, group []slot) float64 {
	return e.commW[g.u] / (math.Log1p(e.sinrInGroup(g, j, group)) * invLn2)
}

// serverCost is server s's Λ term (Σ√η)²/F_s for the sum of its users'
// √η, or 0 for an idle server. Adding the 0 leaves a non-negative
// running total bit-identical, so folds need not skip idle servers.
func (e *Evaluator) serverCost(s int, sum float64) float64 {
	if sum > 0 {
		return sum * sum / e.serverF[s]
	}
	return 0
}

// SINR returns γ_us for user u on its assigned slot under decision a, or 0
// if u is local. This is the aggregate SINR of Eq. (4); since each user
// occupies exactly one subchannel it equals the single-channel SINR of
// Eq. (3). Only the queried channel's co-channel set is inspected (O(S)),
// not the full per-channel grouping.
func (e *Evaluator) SINR(a *assign.Assignment, u int) float64 {
	s, j := a.SlotOf(u)
	if s == assign.Local {
		return 0
	}
	sBase := s*e.numCh + j
	interference := 0.0
	for o := 0; o < len(e.serverF); o++ {
		if o == s {
			continue
		}
		if v := a.Occupant(o, j); v != assign.Local {
			interference += e.recv[v*e.stride+sBase]
		}
	}
	return e.recv[u*e.stride+sBase] / (interference + e.noiseW)
}

// sinrInGroup computes Eq. (3) for one transmitter given the co-channel
// group on subchannel j.
func (e *Evaluator) sinrInGroup(g slot, j int, group []slot) float64 {
	sBase := g.s*e.numCh + j
	interference := 0.0
	for _, o := range group {
		if o.u == g.u || o.s == g.s {
			// Same user, or a user served by the same base station:
			// intra-cell users are on orthogonal subchannels by
			// constraint (12d), so only other-cell users interfere.
			continue
		}
		interference += e.recv[o.u*e.stride+sBase]
	}
	return e.recv[g.u*e.stride+sBase] / (interference + e.noiseW)
}

func (e *Evaluator) groupByChannel(a *assign.Assignment) {
	for j := range e.byChannel {
		e.byChannel[j] = e.byChannel[j][:0]
	}
	for s := range e.sums {
		e.sums[s] = 0
	}
	// Iterate users rather than the S×N slot matrix: evaluation cost then
	// scales with the offloaded population, not the network size — the
	// difference dominates at the Fig. 7/8 subchannel counts.
	for u := 0; u < a.Users(); u++ {
		if s, j := a.SlotOf(u); s != assign.Local {
			e.byChannel[j] = append(e.byChannel[j], slot{u: u, s: s})
			e.sums[s] += e.sqrtEta[u]
		}
	}
}

// UserMetrics is the full per-user outcome under a decision and the KKT
// allocation.
type UserMetrics struct {
	// Offloaded reports whether the user offloads; when false the rate,
	// SINR and FUsHz fields are zero and the delay/energy are local.
	Offloaded bool `json:"offloaded"`
	// Server and Channel identify the slot (-1 when local).
	Server  int `json:"server"`
	Channel int `json:"channel"`
	// SINR is γ_us (linear); RateBps is R_us of Eq. (4).
	SINR    float64 `json:"sinr"`
	RateBps float64 `json:"rateBps"`
	// FUsHz is the KKT-allocated computation rate f*_us.
	FUsHz float64 `json:"fUsHz"`
	// UploadS, ExecuteS, DownloadS and DelayS decompose the offloading
	// delay (Eq. 8 plus the optional downlink-return extension); for a
	// local user DelayS is t_u^local and the others are zero.
	UploadS   float64 `json:"uploadS"`
	ExecuteS  float64 `json:"executeS"`
	DownloadS float64 `json:"downloadS,omitempty"`
	DelayS    float64 `json:"delayS"`
	// EnergyJ is E_u (Eq. 9) when offloading, E_u^local otherwise.
	EnergyJ float64 `json:"energyJ"`
	// Utility is J_u of Eq. (10); zero for local users.
	Utility float64 `json:"utility"`
}

// Report is the complete evaluation of one decision.
type Report struct {
	// SystemUtility is J(X, F*) = Σ λ_u·J_u, which equals J*(X).
	SystemUtility float64 `json:"systemUtility"`
	// Offloaded is |U_offload|.
	Offloaded int `json:"offloaded"`
	// MeanDelayS and MeanEnergyJ average completion time and energy over
	// all users (local users contribute their local cost), the metrics
	// plotted in Fig. 9.
	MeanDelayS  float64 `json:"meanDelayS"`
	MeanEnergyJ float64 `json:"meanEnergyJ"`
	// Users is the per-user breakdown.
	Users []UserMetrics `json:"users"`
	// Allocation is the KKT allocation F*.
	Allocation alloc.Allocation `json:"allocation"`
}

// Evaluate produces the full report for decision a.
func (e *Evaluator) Evaluate(a *assign.Assignment) Report {
	f, _ := alloc.KKT(e.sc, a)
	rep := Report{
		Offloaded:  a.Offloaded(),
		Users:      make([]UserMetrics, e.sc.U()),
		Allocation: f,
	}
	e.groupByChannel(a)
	w := e.sc.SubchannelHz()
	sumDelay, sumEnergy, sumWeighted := 0.0, 0.0, 0.0
	for u := 0; u < e.sc.U(); u++ {
		d := e.sc.Derived(u)
		usr := e.sc.Users[u]
		m := UserMetrics{Server: assign.Local, Channel: assign.Local}
		s, j := a.SlotOf(u)
		if s == assign.Local {
			m.DelayS = d.TLocalS
			m.EnergyJ = d.ELocalJ
		} else {
			m.Offloaded = true
			m.Server, m.Channel = s, j
			m.SINR = e.sinrInGroup(slot{u: u, s: s}, j, e.byChannel[j])
			m.RateBps = radio.Rate(w, m.SINR)
			m.FUsHz = f.FUs[u]
			m.UploadS = usr.Task.DataBits / m.RateBps
			m.ExecuteS = usr.Task.WorkCycles / m.FUsHz
			m.DownloadS = d.TDownS
			m.DelayS = m.UploadS + m.ExecuteS + m.DownloadS
			m.EnergyJ = usr.TxPowerW * m.UploadS
			m.Utility = usr.BetaTime*(d.TLocalS-m.DelayS)/d.TLocalS +
				usr.BetaEnergy*(d.ELocalJ-m.EnergyJ)/d.ELocalJ
		}
		rep.Users[u] = m
		sumDelay += m.DelayS
		sumEnergy += m.EnergyJ
		sumWeighted += usr.Lambda * m.Utility
	}
	n := float64(e.sc.U())
	rep.MeanDelayS = sumDelay / n
	rep.MeanEnergyJ = sumEnergy / n
	rep.SystemUtility = sumWeighted
	return rep
}
