package epaxos

import (
	"cmp"
	"slices"
	"time"

	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// keyState is one key's interference index: per row (by index) the newest
// slot that wrote the key and the newest that touched it at all, and the
// highest sequence numbers of each. Reads order after writes only, writes
// after everything — matching the interference relation.
type keyState struct {
	lastWrite, lastOp      []uint64
	maxSeqWrite, maxSeqAny uint64
}

// attributes computes (seq, deps) for cmd as seen by this replica: deps are
// the latest interfering instances per row, seq exceeds every interfering
// sequence number. Deps come out sorted by (replica, slot), one per row, as
// the rows are walked in ID order.
func (r *Replica) attributes(cmd kvstore.Command, except wire.InstRef) (uint64, []wire.InstRef) {
	ks := r.keys[cmd.Key]
	if ks == nil {
		return 1, nil
	}
	last, seq := ks.lastOp, ks.maxSeqAny // writes order after reads too
	if cmd.IsRead() {
		last, seq = ks.lastWrite, ks.maxSeqWrite
	}
	var deps []wire.InstRef
	for i, slot := range last {
		if id := r.rows[i].id; slot != 0 && (id != except.Replica || slot != except.Slot) {
			deps = append(deps, wire.InstRef{Replica: id, Slot: slot})
		}
	}
	return seq + 1, deps
}

// scanCost is the interference-scan charge over the live working set,
// capped so a pathological backlog cannot stall virtual time entirely.
func (r *Replica) scanCost() time.Duration { return time.Duration(min(r.live, 2000)) * scanWork }

// recordInterference registers (ref, cmd, seq) in the conflict indexes.
func (r *Replica) recordInterference(ref wire.InstRef, cmd kvstore.Command, seq uint64) {
	ks := r.keys[cmd.Key]
	if ks == nil {
		n := len(r.rows)
		both := make([]uint64, 2*n)
		ks = &keyState{lastOp: both[:n], lastWrite: both[n:]}
		r.keys[cmd.Key] = ks
	}
	i := r.rowIndex(ref.Replica)
	ks.lastOp[i] = max(ks.lastOp[i], ref.Slot)
	ks.maxSeqAny = max(ks.maxSeqAny, seq)
	if !cmd.IsRead() {
		ks.lastWrite[i] = max(ks.lastWrite[i], ref.Slot)
		ks.maxSeqWrite = max(ks.maxSeqWrite, seq)
	}
}

// capSelfRow enforces the own-row chain invariant on a dependency set: an
// instance's dependency into its own row must point strictly below its own
// slot. Admission-time attributes guarantee this (the owner allocates
// slots in order), but attributes recomputed later — a recovery re-running
// phase 1, or a pre-accept processed after a newer own-row sibling — can
// otherwise point at or past the instance itself, welding the row's
// siblings into a cycle that skips older instances entirely and breaking
// the pairwise connection execution ordering relies on.
func (r *Replica) capSelfRow(deps []wire.InstRef, ref wire.InstRef, cmd kvstore.Command) []wire.InstRef {
	for i, d := range deps {
		if d.Replica != ref.Replica || d.Slot < ref.Slot {
			continue
		}
		if s, ok := r.latestBelow(ref, cmd); ok {
			deps[i].Slot = s
		} else {
			deps = append(deps[:i], deps[i+1:]...)
		}
		break // dependency sets hold at most one entry per row
	}
	return deps
}

// latestBelow finds the newest instance in ref's row strictly below
// ref.Slot that interferes with cmd; when everything below is already
// collected, the GC floor itself stands in (it is executed here, and a
// lagging replica treats the edge as a commit to chase).
func (r *Replica) latestBelow(ref wire.InstRef, cmd kvstore.Command) (uint64, bool) {
	rw := r.row(ref.Replica)
	floor := rw.floor()
	for s := min(ref.Slot, rw.win.End()) - 1; s > floor; s-- {
		if in := rw.win.At(s); in.status > statusNone && in.cmd.ConflictsWith(cmd) {
			return s, true
		}
	}
	if floor > 0 && ref.Slot > floor {
		return floor, true
	}
	return 0, false
}

// compareRefs orders instance references by (replica, slot).
func compareRefs(a, b wire.InstRef) int {
	return cmp.Or(cmp.Compare(a.Replica, b.Replica), cmp.Compare(a.Slot, b.Slot))
}

// mergeDeps unions b into a, keeping the newer slot of a row both name.
func mergeDeps(a, b []wire.InstRef) []wire.InstRef {
	for _, d := range b {
		if i := slices.IndexFunc(a, func(e wire.InstRef) bool { return e.Replica == d.Replica }); i < 0 {
			a = append(a, d)
		} else {
			a[i].Slot = max(a[i].Slot, d.Slot)
		}
	}
	return a
}

// depsEqual reports whether a and b hold the same references, in any order.
func depsEqual(a, b []wire.InstRef) bool {
	return len(a) == len(b) && !slices.ContainsFunc(a, func(d wire.InstRef) bool { return !slices.Contains(b, d) })
}
