package objective

import (
	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/scenario"
)

// Incremental prices neighbours of a tracked decision by re-pricing only
// the subchannels and servers whose membership a move changed, and returns
// exactly what Evaluator.SystemUtility returns for the same decision.
//
// SystemUtility folds the gain and Γ terms over ascending subchannels,
// then ascending users within a subchannel, and the Λ terms over ascending
// servers, each server's Σ√η itself folded over its users in ascending
// order. Incremental caches every term SystemUtility adds: each
// subchannel's members in ascending user order with their Γ terms, and
// each server's Λ term. A candidate rebuilds the terms of its dirty
// subchannels and servers with the same kernels (commTerm, serverCost),
// the untouched terms are the values SystemUtility would compute again,
// and the final utility re-folds all cached terms in SystemUtility's
// order. The summands and their order are the same, so the sums are the
// same bit for bit; no drift can accumulate over a walk.
//
// Preview prices a candidate; Accept commits the previewed candidate.
// Dropping a candidate needs no call: the next Preview discards it. All
// state lives in the owning Evaluator's flat buffers, so steady-state
// Preview and Accept perform zero allocations. An Incremental shares its
// Evaluator's single-goroutine contract.
type Incremental struct {
	e *Evaluator

	// Region r holds S member slots: region j < N is subchannel j of the
	// tracked decision, region N+j the last Preview's rebuild of it.
	mem  []slot    // 2·N·S members, ascending user order per region
	term []float64 // 2·N·S Γ terms, parallel to mem
	cnt  []int     // 2·N member counts
	lam  []float64 // 2·S Λ terms: tracked, then previewed
	// The fold reads subchannel j from region j+view[j] and server s's Λ
	// from lam[s+sview[s]]: offsets 0 for tracked terms, N and S for a
	// dirty subchannel's or server's candidate terms.
	view, sview []int
	// slotOf[u] is the tracked decision's s·N+j for user u, or -1 if local.
	slotOf []int

	dirtyCh, dirtySrv []int // the last Preview's dirty ids
	changed           []int // scratch: users whose slots differ
	users             []int // scratch: one server's users, ascending

	utility float64
	pending float64 // the last Preview's utility
	valid   bool    // whether pending belongs to an un-accepted Preview
}

// NewIncremental returns a pricer tracking decision a (copied; the
// caller's assignment is not retained) on a fresh Evaluator.
func NewIncremental(sc *scenario.Scenario, a *assign.Assignment) *Incremental {
	return New(sc).Track(a)
}

// Track makes a the tracked decision of e's incremental pricer and returns
// the pricer; a is read, not retained. The pricer is reset on every call,
// and it is independent of SystemUtility, Evaluate and the other Evaluator
// methods, which may be called between its own calls.
func (e *Evaluator) Track(a *assign.Assignment) *Incremental {
	e.inc.reset(a)
	return &e.inc
}

// reset rebuilds every cached term from decision a.
func (inc *Incremental) reset(a *assign.Assignment) {
	e := inc.e
	e.groupByChannel(a)
	S := len(e.serverF)
	for j, group := range e.byChannel {
		copy(inc.mem[j*S:], group)
		inc.cnt[j] = len(group)
		for k, g := range group {
			inc.term[j*S+k] = e.commTerm(g, j, group)
		}
	}
	for s, sum := range e.sums {
		inc.lam[s] = e.serverCost(s, sum)
	}
	for u := range inc.slotOf {
		inc.slotOf[u] = inc.slotIn(a, u)
	}
	inc.drop()
	inc.utility = inc.fold()
}

// Utility returns the tracked decision's system utility.
func (inc *Incremental) Utility() float64 { return inc.utility }

// Preview returns the system utility of cand. cand must differ from the
// tracked decision only in the slots of the moved users, given without
// repeats (a walk's undo record lists them); with no moved users given,
// every user is compared against the tracked decision. The tracked
// decision is unchanged.
func (inc *Incremental) Preview(cand *assign.Assignment, moved ...int) float64 {
	inc.drop()
	if len(moved) == 0 {
		moved = inc.changed[:0]
		for u, at := range inc.slotOf {
			if inc.slotIn(cand, u) != at {
				moved = append(moved, u)
			}
		}
	}
	for _, u := range moved {
		inc.mark(cand, u)
	}
	e := inc.e
	N, S := e.numCh, len(e.serverF)
	for _, j := range inc.dirtyCh {
		// Subchannel j's candidate members are its tracked members still
		// on j, in order, plus the moved users that joined it, inserted in
		// user order. A member's term depends only on its server and the
		// co-channel user set, so when nobody left or joined, members that
		// kept their server keep their terms.
		r := N + j
		lo, n, same := r*S, 0, true
		for _, g := range inc.mem[j*S : j*S+inc.cnt[j]] {
			if s, jj := cand.SlotOf(g.u); jj == j {
				inc.mem[lo+n] = slot{u: g.u, s: s}
				n++
			} else {
				same = false
			}
		}
		for _, u := range moved {
			s, jj := cand.SlotOf(u)
			if from := inc.slotOf[u]; jj != j || from >= 0 && from%N == j {
				continue
			}
			same = false
			k := lo + n
			for ; k > lo && inc.mem[k-1].u > u; k-- {
				inc.mem[k] = inc.mem[k-1]
			}
			inc.mem[k] = slot{u: u, s: s}
			n++
		}
		inc.cnt[r] = n
		group := inc.mem[lo : lo+n]
		for k, g := range group {
			if same && g.s == inc.mem[j*S+k].s {
				inc.term[lo+k] = inc.term[j*S+k]
			} else {
				inc.term[lo+k] = e.commTerm(g, j, group)
			}
		}
	}
	for _, s := range inc.dirtySrv {
		us := inc.users[:0]
		for j := 0; j < N; j++ {
			if u := cand.Occupant(s, j); u != assign.Local {
				us = append(us, u)
				for k := len(us) - 1; k > 0 && us[k-1] > u; k-- {
					us[k], us[k-1] = us[k-1], u
				}
			}
		}
		sum := 0.0
		for _, u := range us {
			sum += e.sqrtEta[u]
		}
		inc.lam[S+s] = e.serverCost(s, sum)
	}
	inc.pending = inc.fold()
	inc.valid = true
	return inc.pending
}

// Accept commits the most recently previewed candidate as the tracked
// decision. cand must be the assignment passed to that Preview, unchanged
// since; without a pending Preview the pricer rebuilds from cand.
func (inc *Incremental) Accept(cand *assign.Assignment) {
	if !inc.valid {
		inc.reset(cand)
		return
	}
	N, S := inc.e.numCh, len(inc.e.serverF)
	// Users leaving a dirty subchannel either join another dirty one or
	// go local: clear them all, then record the rebuilt memberships.
	for _, j := range inc.dirtyCh {
		for _, g := range inc.mem[j*S : j*S+inc.cnt[j]] {
			inc.slotOf[g.u] = -1
		}
	}
	for _, j := range inc.dirtyCh {
		lo, from, n := j*S, (N+j)*S, inc.cnt[N+j]
		copy(inc.mem[lo:lo+n], inc.mem[from:from+n])
		copy(inc.term[lo:lo+n], inc.term[from:from+n])
		inc.cnt[j] = n
		for _, g := range inc.mem[lo : lo+n] {
			inc.slotOf[g.u] = g.s*N + j
		}
	}
	for _, s := range inc.dirtySrv {
		inc.lam[s] = inc.lam[S+s]
	}
	inc.utility = inc.pending
	inc.drop()
}

// mark flags the subchannels and servers user u leaves and joins in cand.
func (inc *Incremental) mark(cand *assign.Assignment, u int) {
	N := inc.e.numCh
	from, to := inc.slotOf[u], inc.slotIn(cand, u)
	if from == to {
		return
	}
	if from >= 0 {
		inc.dirty(from/N, from%N)
	}
	if to >= 0 {
		inc.dirty(to/N, to%N)
	}
}

// slotIn returns user u's slot s·N+j in a, or -1 if u is local.
func (inc *Incremental) slotIn(a *assign.Assignment, u int) int {
	if s, j := a.SlotOf(u); s != assign.Local {
		return s*inc.e.numCh + j
	}
	return -1
}

func (inc *Incremental) dirty(s, j int) {
	if inc.view[j] == 0 {
		inc.view[j] = len(inc.view)
		inc.dirtyCh = append(inc.dirtyCh, j)
	}
	if inc.sview[s] == 0 {
		inc.sview[s] = len(inc.sview)
		inc.dirtySrv = append(inc.dirtySrv, s)
	}
}

// drop discards the last Preview: the fold reads the tracked terms again.
func (inc *Incremental) drop() {
	for _, j := range inc.dirtyCh {
		inc.view[j] = 0
	}
	for _, s := range inc.dirtySrv {
		inc.sview[s] = 0
	}
	inc.dirtyCh, inc.dirtySrv = inc.dirtyCh[:0], inc.dirtySrv[:0]
	inc.valid = false
}

// fold sums the viewed terms in SystemUtility's order.
func (inc *Incremental) fold() float64 {
	S := len(inc.e.serverF)
	gain, comm := 0.0, 0.0
	for j, off := range inc.view {
		r := j + off
		for k, g := range inc.mem[r*S : r*S+inc.cnt[r]] {
			gain += inc.e.gainConst[g.u]
			comm += inc.term[r*S+k]
		}
	}
	lambda := 0.0
	for s, off := range inc.sview {
		lambda += inc.lam[s+off]
	}
	return gain - comm - lambda
}
