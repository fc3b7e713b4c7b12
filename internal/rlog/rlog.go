// Package rlog implements the replicated command log shared by Paxos and
// PigPaxos replicas: a dense window of entries indexed by slot − base, with
// commit tracking and an in-order execution cursor that tolerates gaps
// (commands execute only once every lower slot has executed, per Paxos
// phase-3 semantics).
//
// Slots are contiguous above the compaction floor, so the window is a ring of
// Entry values: looking a slot up is an index, accepting into it allocates
// nothing, and compaction slides the base instead of sweeping. A gap is a
// cell nobody has written yet. The ring grows to the highest slot it is
// handed, so a slot slots.MaxAhead or more above the execution cursor is
// refused — a replica that far behind recovers through catch-up or a
// snapshot, and a corrupt slot number cannot make a node allocate.
//
// Each slot holds a command *batch*: the leader may pack several client
// commands into one consensus instance, amortizing the fan-out round over
// the whole batch. A one-element batch is the unbatched degenerate case; a
// nil batch is a no-op filler slot (leader-change gap anchoring).
package rlog

import (
	"fmt"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wal"
)

// Entry is one slot of the replicated log.
type Entry struct {
	Ballot    ids.Ballot        // ballot under which the batch was accepted
	Commands  []kvstore.Command // the accepted command batch (nil = no-op)
	Committed bool              // leader anchored the batch
	Executed  bool              // applied to the state machine

	present bool // the cell holds an entry (a zero cell is a gap)
}

// Log is a single replica's view of the replicated log. It is not safe for
// concurrent use; each replica's event loop owns its log.
type Log struct {
	win       slots.Window[Entry]
	live      int    // present cells in win
	firstSlot uint64 // lowest slot that may still be unexecuted
	nextSlot  uint64 // next slot a leader would propose into
	execCur   uint64 // next slot to execute

	// st, when attached, journals every Accept and Commit so the log is
	// reconstructible after a crash. Attached only after boot replay, so
	// replaying records does not re-journal them.
	st wal.Storage
}

// New creates an empty log whose first slot is 1.
func New() *Log {
	return &Log{firstSlot: 1, nextSlot: 1, execCur: 1}
}

// Attach turns on journaling: every subsequent Accept and Commit is
// appended to st (buffered; the replica decides when to Sync). Callers
// replay st into the log first, then attach.
func (l *Log) Attach(st wal.Storage) { l.st = st }

// InstallSnapshot positions the log on top of a state-machine snapshot
// covering every slot below floor: entries below floor are dropped and all
// cursors advance to at least floor. Handles a snapshot newer than the log
// tail (floor beyond nextSlot) — the log simply becomes empty at floor.
// The snapshot replaced the state machine, so nothing in it is on loan from
// the entries dropped.
func (l *Log) InstallSnapshot(floor uint64) {
	l.dropBelow(floor, nil)
	if floor > l.firstSlot {
		l.firstSlot = floor
	}
	if floor > l.execCur {
		l.execCur = floor
	}
	if floor > l.nextSlot {
		l.nextSlot = floor
	}
}

// NextSlot returns the next unproposed slot and advances the proposal cursor.
func (l *Log) NextSlot() uint64 {
	s := l.nextSlot
	l.nextSlot++
	return s
}

// PeekNextSlot returns the next unproposed slot without advancing.
func (l *Log) PeekNextSlot() uint64 { return l.nextSlot }

// BumpNextSlot ensures the proposal cursor is strictly beyond slot. Called
// when a replica learns of higher slots (e.g. a new leader recovering state).
func (l *Log) BumpNextSlot(slot uint64) {
	if slot >= l.nextSlot {
		l.nextSlot = slot + 1
	}
}

// cell returns the window cell to write slot into, or nil when the log must
// not hold the slot: it is below the compaction floor (compacted ⇒ committed
// and executed: any new proposal for the slot is necessarily stale, and
// accepting it as a fresh entry would let a lagging leader quorum a no-op
// over an anchored batch), or slots.MaxAhead or more above the execution
// cursor.
func (l *Log) cell(slot uint64) *Entry {
	if slot < l.firstSlot || l.Beyond(slot) {
		return nil
	}
	return l.win.Cover(slot)
}

// Beyond reports whether slot is slots.MaxAhead or more above the execution
// cursor, where the log refuses it.
func (l *Log) Beyond(slot uint64) bool {
	return slot >= l.execCur && slot-l.execCur >= slots.MaxAhead
}

// Accept records batch cmds as accepted in slot under ballot b, overwriting
// any previously accepted value with a lower ballot. It returns false when
// the slot already holds a value under a higher ballot (the accept is stale),
// the slot has already committed a different proposal, or the log does not
// hold the slot (see cell).
func (l *Log) Accept(slot uint64, b ids.Ballot, cmds []kvstore.Command) bool {
	e := l.cell(slot)
	if e == nil {
		return false
	}
	switch {
	case !e.present:
		e.present = true
		l.live++
	case e.Committed:
		// Same-ballot re-delivery is fine; conflicting commit is a bug
		// upstream, refuse to overwrite.
		return e.Ballot == b
	case b < e.Ballot:
		return false
	}
	e.Ballot = b
	e.Commands = cmds
	l.BumpNextSlot(slot)
	l.journal(wal.KindAccept, slot, b, cmds)
	return true
}

// journal appends one record to the attached storage (buffered until the
// replica syncs). Append on the provided implementations cannot fail; an
// I/O error from a file-backed journal is fatal — continuing would
// acknowledge state that was never persisted.
func (l *Log) journal(kind wal.Kind, slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	if l.st == nil {
		return
	}
	if err := l.st.Append(wal.Record{Kind: kind, Ballot: b, Slot: slot, Cmds: cmds}); err != nil {
		panic(fmt.Sprintf("rlog: journal append failed: %v", err))
	}
}

// Commit marks slot committed with batch cmds. Commit is authoritative:
// phase-3 messages carry the anchored batch, so the entry is overwritten
// even if a different value was accepted locally under an older ballot.
// A slot the log does not hold (see cell) is ignored: below the floor it is
// already committed and executed here; too far above, the catch-up path
// brings it once the cursor is near.
func (l *Log) Commit(slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	e := l.cell(slot)
	if e == nil || e.Executed {
		return
	}
	// The usual commit confirms what this log accepted and journaled under
	// the same ballot: the record names that accept instead of repeating it.
	// Same ballot alone is not enough — a proposer taught the anchored batch
	// of a slot it proposed into commits other commands under its own ballot
	// — so the batch must be the accepted one itself.
	ref := e.present && !e.Committed && e.Ballot == b && sameBatch(e.Commands, cmds)
	if !e.present {
		e.present = true
		l.live++
	}
	e.Ballot = b
	e.Commands = cmds
	e.Committed = true
	l.BumpNextSlot(slot)
	if ref {
		l.journal(wal.KindCommitRef, slot, b, nil)
	} else {
		l.journal(wal.KindCommit, slot, b, cmds)
	}
}

// sameBatch reports whether a and b are one slice, not merely equal ones.
func sameBatch(a, b []kvstore.Command) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Redo applies one record this log journaled — replay hands them over in
// journal order, before Attach. A KindCommitRef names the accept replayed
// before it; should that be missing, so is the commit, which is no loss: a
// commit is re-learned from the cluster.
func (l *Log) Redo(rec wal.Record) {
	switch rec.Kind {
	case wal.KindAccept:
		l.Accept(rec.Slot, rec.Ballot, rec.Cmds)
	case wal.KindCommit:
		l.Commit(rec.Slot, rec.Ballot, rec.Cmds)
	case wal.KindCommitRef:
		if e := l.Get(rec.Slot); e != nil && e.Ballot == rec.Ballot {
			l.Commit(rec.Slot, rec.Ballot, e.Commands)
		}
	}
}

// Get returns the entry at slot, or nil. The pointer aliases the window: it
// is good until the log is next handed a slot above everything it holds.
func (l *Log) Get(slot uint64) *Entry {
	if e := l.win.At(slot); e != nil && e.present {
		return e
	}
	return nil
}

// ExecuteReady executes every contiguous committed-but-unexecuted batch
// starting at the execution cursor, command by command: with fn nil each
// command is applied to sm; otherwise fn, handed the slot and the command's
// index within its batch, applies it to sm or skips it, and reports whether
// it applied it. It stops at the first gap or uncommitted slot and returns
// the number of commands applied (no-op slots advance the cursor without
// executing anything).
func (l *Log) ExecuteReady(sm *kvstore.Store, fn func(slot uint64, idx int, cmd kvstore.Command) bool) int {
	n := 0
	for {
		e := l.win.At(l.execCur)
		if e == nil || !e.Committed {
			return n
		}
		e.Executed = true
		for i, cmd := range e.Commands {
			if fn == nil {
				sm.Apply(cmd)
			} else if !fn(l.execCur, i, cmd) {
				continue
			}
			n++
		}
		l.execCur++
	}
}

// PendingWrite returns the newest slot at or above the execution cursor whose
// accepted batch writes key, or 0 when none does.
func (l *Log) PendingWrite(key uint64) uint64 {
	for end := l.win.End(); end > l.execCur; end-- {
		if e := l.Get(end - 1); e != nil {
			for _, c := range e.Commands {
				if c.Key == key && !c.Op.IsRead() {
					return end - 1
				}
			}
		}
	}
	return 0
}

// ExecuteCursor returns the next slot awaiting execution.
func (l *Log) ExecuteCursor() uint64 { return l.execCur }

// CommittedCount returns how many slots have committed (for tests/metrics).
func (l *Log) CommittedCount() int {
	n := 0
	for s := l.win.Base(); s < l.win.End(); s++ {
		if l.win.At(s).Committed {
			n++
		}
	}
	return n
}

// CompactTo discards executed entries below slot to bound memory, returning
// their commands' loans to sm, the store they were executed into (see
// kvstore). Slots are only discarded if executed; callers typically pass
// the cluster-wide minimum execution cursor.
func (l *Log) CompactTo(slot uint64, sm *kvstore.Store) int {
	n := l.dropBelow(min(slot, l.execCur), sm)
	if slot > l.firstSlot {
		l.firstSlot = slot
	}
	return n
}

// dropBelow slides the window's base up to slot, returns what executed
// entries lent to sm unless sm is nil, and returns how many entries that
// discarded.
func (l *Log) dropBelow(slot uint64, sm *kvstore.Store) int {
	end := min(slot, l.win.End())
	n := 0
	for s := l.win.Base(); s < end; s++ {
		if l.win.At(s).present {
			n++
		}
	}
	if sm != nil {
		sm.Return(func(yield func(kvstore.Command) bool) {
			for s := l.win.Base(); s < end; s++ {
				if e := l.win.At(s); e.Executed {
					for _, cmd := range e.Commands {
						if !yield(cmd) {
							return
						}
					}
				}
			}
		})
	}
	l.win.Advance(slot)
	l.live -= n
	return n
}

// Len returns the number of live entries.
func (l *Log) Len() int { return l.live }

// FirstSlot returns the compaction floor: the lowest slot the log may still
// hold. Requests for slots below it need snapshot-based catch-up.
func (l *Log) FirstSlot() uint64 { return l.firstSlot }

// String summarizes the log state.
func (l *Log) String() string {
	return fmt.Sprintf("log{next=%d exec=%d entries=%d}", l.nextSlot, l.execCur, l.live)
}
