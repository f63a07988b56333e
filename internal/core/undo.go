package core

import (
	"fmt"

	"github.com/tsajs/tsajs/internal/assign"
	"github.com/tsajs/tsajs/internal/simrand"
)

// Undo records the prior slots of the users a move touches, so the move
// can be reverted in O(touched) instead of restoring a full copy of the
// decision. Every Algorithm 2 move touches at most three users (the target,
// a swap partner, and a displaced occupant).
type Undo struct {
	users [3]int
	prior [3][2]int // each user's (server, channel) before the move
	n     int
}

// Users returns the users the recorded move touched, in recording order.
func (u *Undo) Users() []int { return u.users[:u.n] }

// reset clears the record.
func (u *Undo) reset() { u.n = 0 }

// note records user's current slot in a, once per user per move.
func (u *Undo) note(a *assign.Assignment, user int) {
	for _, v := range u.Users() {
		if v == user {
			return // first recording wins: it holds the pre-move slot
		}
	}
	if u.n == len(u.users) {
		// Cannot happen for Algorithm 2 moves; guard loudly in case the
		// move set grows without widening the record.
		panic("core: undo record overflow")
	}
	s, j := a.SlotOf(user)
	u.users[u.n], u.prior[u.n] = user, [2]int{s, j}
	u.n++
}

// Revert restores every recorded user to its recorded slot. Touched users
// are first sent local (freeing all their current slots), then re-placed;
// only touched users moved since the record, so the recorded slots are
// necessarily free.
func (u *Undo) Revert(a *assign.Assignment) error {
	for _, user := range u.Users() {
		a.SetLocal(user)
	}
	for i, user := range u.Users() {
		if p := u.prior[i]; p[0] != assign.Local {
			if err := a.Offload(user, p[0], p[1]); err != nil {
				return fmt.Errorf("core: undo revert: %w", err)
			}
		}
	}
	u.n = 0
	return nil
}

// ApplyUndo is Apply with move reversal support: it mutates a in place and
// fills undo so the caller can Revert a rejected candidate in O(touched).
// The random draw sequence is identical to Apply's.
func (n *Neighborhood) ApplyUndo(a *assign.Assignment, rng *simrand.Source, undo *Undo) bool {
	return n.inner.applyUndo(a, rng, undo)
}
