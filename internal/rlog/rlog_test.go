package rlog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wal"
)

func bal(n int) ids.Ballot { return ids.NewBallot(n, ids.NewID(1, 1)) }

func cmd(k uint64) kvstore.Command {
	return kvstore.Command{Op: kvstore.Put, Key: k, Value: []byte{byte(k)}}
}

// one wraps a single command into the degenerate one-element batch.
func one(k uint64) []kvstore.Command { return []kvstore.Command{cmd(k)} }

func TestNextSlotMonotonic(t *testing.T) {
	l := New()
	if s := l.NextSlot(); s != 1 {
		t.Errorf("first slot = %d, want 1", s)
	}
	if s := l.NextSlot(); s != 2 {
		t.Errorf("second slot = %d, want 2", s)
	}
	if l.PeekNextSlot() != 3 {
		t.Error("peek should see 3")
	}
	if l.PeekNextSlot() != 3 {
		t.Error("peek must not advance")
	}
}

func TestAcceptBasic(t *testing.T) {
	l := New()
	if !l.Accept(1, bal(1), one(7)) {
		t.Fatal("fresh accept should succeed")
	}
	e := l.Get(1)
	if e == nil || e.Commands[0].Key != 7 || e.Committed {
		t.Fatalf("entry after accept: %+v", e)
	}
}

func TestAcceptStaleBallotRejected(t *testing.T) {
	l := New()
	l.Accept(1, bal(5), one(1))
	if l.Accept(1, bal(3), one(2)) {
		t.Error("lower-ballot accept must be rejected")
	}
	if l.Get(1).Commands[0].Key != 1 {
		t.Error("stale accept must not overwrite")
	}
}

func TestAcceptHigherBallotOverwrites(t *testing.T) {
	l := New()
	l.Accept(1, bal(1), one(1))
	if !l.Accept(1, bal(2), one(2)) {
		t.Error("higher-ballot accept must succeed")
	}
	if l.Get(1).Commands[0].Key != 2 {
		t.Error("higher-ballot accept must overwrite")
	}
}

func TestAcceptAfterCommit(t *testing.T) {
	l := New()
	l.Commit(1, bal(2), one(9))
	if l.Accept(1, bal(3), one(1)) {
		t.Error("accept on a committed slot under a different ballot must fail")
	}
	if !l.Accept(1, bal(2), one(9)) {
		t.Error("same-ballot re-delivery should be tolerated")
	}
	if l.Get(1).Commands[0].Key != 9 {
		t.Error("committed value must be preserved")
	}
}

func TestCommitBumpsNextSlot(t *testing.T) {
	l := New()
	l.Commit(10, bal(1), one(1))
	if l.PeekNextSlot() != 11 {
		t.Errorf("nextSlot = %d, want 11", l.PeekNextSlot())
	}
}

func TestExecuteInOrderWithGap(t *testing.T) {
	l := New()
	sm := kvstore.New()
	l.Commit(1, bal(1), one(1))
	l.Commit(3, bal(1), one(3)) // gap at 2
	var got []uint64
	n := l.ExecuteReady(sm, func(s uint64, _ int, _ kvstore.Command) bool {
		got = append(got, s)
		return true
	})
	if n != 1 || len(got) != 1 || got[0] != 1 {
		t.Fatalf("executed %v, want [1] only (gap at 2)", got)
	}
	l.Commit(2, bal(1), one(2))
	n = l.ExecuteReady(sm, func(s uint64, _ int, _ kvstore.Command) bool {
		got = append(got, s)
		return true
	})
	if n != 2 || len(got) != 3 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("after gap fill executed %v, want [1 2 3]", got)
	}
	if l.ExecuteCursor() != 4 {
		t.Errorf("exec cursor = %d, want 4", l.ExecuteCursor())
	}
}

func TestExecuteIdempotent(t *testing.T) {
	l := New()
	sm := kvstore.New()
	l.Commit(1, bal(1), one(1))
	l.ExecuteReady(sm, nil)
	if n := l.ExecuteReady(sm, nil); n != 0 {
		t.Error("second ExecuteReady must be a no-op")
	}
	if sm.Applied() != 1 {
		t.Errorf("applied %d commands, want 1", sm.Applied())
	}
}

func TestCommitAfterExecuteIgnored(t *testing.T) {
	l := New()
	sm := kvstore.New()
	l.Commit(1, bal(1), one(1))
	l.ExecuteReady(sm, nil)
	l.Commit(1, bal(9), one(99)) // late duplicate commit
	if l.Get(1).Commands[0].Key != 1 {
		t.Error("executed entry must not be overwritten")
	}
}

func TestCompactTo(t *testing.T) {
	l := New()
	sm := kvstore.New()
	for s := uint64(1); s <= 5; s++ {
		l.Commit(s, bal(1), one(s))
	}
	l.ExecuteReady(sm, nil)
	n := l.CompactTo(4, sm)
	if n != 3 {
		t.Errorf("compacted %d, want 3", n)
	}
	if l.Get(1) != nil || l.Get(4) == nil {
		t.Error("compaction boundary wrong")
	}
}

func TestCompactSkipsUnexecuted(t *testing.T) {
	l := New()
	l.Accept(1, bal(1), one(1)) // never committed/executed
	if n := l.CompactTo(10, nil); n != 0 {
		t.Error("unexecuted entries must survive compaction")
	}
}

func TestCommittedCount(t *testing.T) {
	l := New()
	l.Accept(1, bal(1), one(1))
	l.Commit(2, bal(1), one(2))
	l.Commit(3, bal(1), one(3))
	if got := l.CommittedCount(); got != 2 {
		t.Errorf("CommittedCount = %d, want 2", got)
	}
}

// Property: replaying any interleaving of commits for slots 1..n executes
// each slot exactly once and in ascending order.
func TestExecutionOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20
		order := rng.Perm(n)
		l := New()
		sm := kvstore.New()
		var execd []uint64
		for _, i := range order {
			l.Commit(uint64(i+1), bal(1), one(uint64(i)))
			l.ExecuteReady(sm, func(s uint64, _ int, _ kvstore.Command) bool {
				execd = append(execd, s)
				return true
			})
		}
		if len(execd) != n {
			return false
		}
		for i, s := range execd {
			if s != uint64(i+1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: two replicas that see the same commits (in different orders)
// converge to identical state machines.
func TestReplicaConvergenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30
		cmds := make([]kvstore.Command, n)
		for i := range cmds {
			cmds[i] = kvstore.Command{
				Op:    kvstore.Op(rng.Intn(3)),
				Key:   uint64(rng.Intn(5)),
				Value: []byte{byte(rng.Intn(256))},
			}
		}
		mk := func(order []int) uint64 {
			l := New()
			sm := kvstore.New()
			for _, i := range order {
				l.Commit(uint64(i+1), bal(1), []kvstore.Command{cmds[i]})
				l.ExecuteReady(sm, nil)
			}
			return sm.Checksum()
		}
		a := mk(rng.Perm(n))
		b := mk(rng.Perm(n))
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestExecuteBatchInOrder: the callback sees every command of a batch in
// order, applies what it chooses, and only what it applied is counted.
func TestExecuteBatchInOrder(t *testing.T) {
	l := New()
	sm := kvstore.New()
	l.Commit(1, bal(1), []kvstore.Command{cmd(1), cmd(2), cmd(3)})
	var idxs []int
	n := l.ExecuteReady(sm, func(s uint64, i int, c kvstore.Command) bool {
		if s != 1 || c.Key != uint64(i+1) {
			t.Errorf("slot %d idx %d got key %d", s, i, c.Key)
		}
		idxs = append(idxs, i)
		if i == 1 {
			return false // skipped: a duplicate, say
		}
		sm.Apply(c)
		return true
	})
	if n != 2 || len(idxs) != 3 || idxs[0] != 0 || idxs[2] != 2 {
		t.Fatalf("applied %d commands, idxs %v", n, idxs)
	}
	if l.ExecuteCursor() != 2 {
		t.Errorf("cursor = %d, want 2 (one slot, three commands)", l.ExecuteCursor())
	}
	if _, ok := sm.Get(2); sm.Applied() != 2 || ok {
		t.Errorf("applied %d, key 2 present %v; want 2 and the skipped command absent", sm.Applied(), ok)
	}
}

func TestNoopSlotAdvancesCursor(t *testing.T) {
	l := New()
	sm := kvstore.New()
	l.Commit(1, bal(1), nil) // leader-change filler
	l.Commit(2, bal(1), one(9))
	n := l.ExecuteReady(sm, nil)
	if n != 1 {
		t.Fatalf("executed %d commands, want 1 (no-op slot applies nothing)", n)
	}
	if l.ExecuteCursor() != 3 {
		t.Errorf("cursor = %d, want 3", l.ExecuteCursor())
	}
}

// rebuild replays a journal into a fresh log (the boot path paxos drives).
func rebuild(t *testing.T, st *wal.MemStorage, floor uint64) *Log {
	t.Helper()
	l := New()
	l.InstallSnapshot(floor)
	err := st.Replay(func(r wal.Record) error {
		if r.Slot < floor {
			return nil
		}
		l.Redo(r)
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	l.Attach(st)
	return l
}

// TestJournalRoundTrip drives a journaled log through accepts and commits,
// crashes it, and rebuilds from the WAL: the reconstruction must execute to
// the same state machine.
func TestJournalRoundTrip(t *testing.T) {
	st := wal.NewMem()
	l := New()
	l.Attach(st)
	sm := kvstore.New()
	for s := uint64(1); s <= 8; s++ {
		batch := one(s)
		l.Accept(s, bal(1), batch)
		if s%2 == 0 {
			batch = one(s) // an equal batch from elsewhere: journaled in full
		}
		l.Commit(s, bal(1), batch) // the accepted batch itself: by reference
	}
	l.Accept(9, bal(1), one(9)) // accepted, never committed
	l.ExecuteReady(sm, nil)
	if _, err := st.Sync(); err != nil {
		t.Fatal(err)
	}

	l2 := rebuild(t, st, 1)
	sm2 := kvstore.New()
	l2.ExecuteReady(sm2, nil)
	if sm2.Checksum() != sm.Checksum() {
		t.Fatal("rebuilt log executes to a different state")
	}
	if e := l2.Get(9); e == nil || e.Committed {
		t.Fatalf("uncommitted accept lost in replay: %+v", e)
	}
	if l2.PeekNextSlot() != l.PeekNextSlot() {
		t.Errorf("nextSlot %d, want %d", l2.PeekNextSlot(), l.PeekNextSlot())
	}
}

func TestInstallSnapshotDropsPrefix(t *testing.T) {
	l := New()
	for s := uint64(1); s <= 6; s++ {
		l.Commit(s, bal(1), one(s))
	}
	l.InstallSnapshot(4)
	if l.Get(3) != nil || l.Get(4) == nil {
		t.Error("snapshot floor boundary wrong")
	}
	if l.ExecuteCursor() != 4 || l.FirstSlot() != 4 {
		t.Errorf("cursors after install: exec=%d first=%d, want 4,4", l.ExecuteCursor(), l.FirstSlot())
	}
}

// TestInstallSnapshotNewerThanTail covers the recovery edge where the
// snapshot is ahead of everything the log holds: the log becomes empty and
// all cursors land on the floor.
func TestInstallSnapshotNewerThanTail(t *testing.T) {
	l := New()
	l.Commit(1, bal(1), one(1))
	l.InstallSnapshot(100)
	if l.Len() != 0 {
		t.Errorf("log should be empty, has %d entries", l.Len())
	}
	if l.ExecuteCursor() != 100 || l.PeekNextSlot() != 100 || l.FirstSlot() != 100 {
		t.Errorf("cursors: exec=%d next=%d first=%d, want 100 each",
			l.ExecuteCursor(), l.PeekNextSlot(), l.FirstSlot())
	}
	// Execution resumes cleanly above the floor.
	sm := kvstore.New()
	l.Commit(100, bal(1), one(7))
	if n := l.ExecuteReady(sm, nil); n != 1 {
		t.Errorf("executed %d, want 1", n)
	}
}

// TestCompactionConsistency is the satellite assertion: compacting to the
// snapshot floor preserves the execution cursor and the state machine
// checksum, and the journal's segments follow the floor.
func TestCompactionConsistency(t *testing.T) {
	st := wal.NewMem()
	st.SetSegBytes(64) // force frequent rolls
	l := New()
	l.Attach(st)
	sm := kvstore.New()
	for s := uint64(1); s <= 40; s++ {
		l.Accept(s, bal(1), one(s%5))
		l.Commit(s, bal(1), one(s%5))
		l.ExecuteReady(sm, nil)
		st.Sync()
	}
	cur := l.ExecuteCursor()
	sum := sm.Checksum()
	segsBefore := st.Segments()

	floor := cur // snapshot covers everything executed
	st.SaveSnapshot(wal.Snapshot{Floor: floor, Data: sm.Serialize(nil)})
	st.Sync() // the snapshot lands; only then may the journal compact
	l.CompactTo(floor, sm)
	st.CompactTo(floor)

	if l.ExecuteCursor() != cur {
		t.Errorf("compaction moved the execution cursor: %d → %d", cur, l.ExecuteCursor())
	}
	if sm.Checksum() != sum {
		t.Error("compaction changed the state machine checksum")
	}
	if l.Len() != 0 {
		t.Errorf("log holds %d entries below the floor", l.Len())
	}
	if st.Segments() >= segsBefore {
		t.Errorf("journal segments not reclaimed: %d → %d", segsBefore, st.Segments())
	}

	// A restart from snapshot + (empty) tail reproduces the state.
	snap, ok := st.Snapshot()
	if !ok {
		t.Fatal("snapshot missing")
	}
	sm2 := kvstore.New()
	if _, err := sm2.Restore(snap.Data); err != nil {
		t.Fatal(err)
	}
	l2 := rebuild(t, st, snap.Floor)
	l2.ExecuteReady(sm2, nil)
	if sm2.Checksum() != sum || sm2.Applied() != sm.Applied() {
		t.Fatal("restart from snapshot+tail diverged from pre-crash state")
	}
}

func BenchmarkAcceptCommitExecute(b *testing.B) {
	l := New()
	sm := kvstore.New()
	c := one(1)
	ball := bal(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		slot := l.NextSlot()
		l.Accept(slot, ball, c)
		l.Commit(slot, ball, c)
		l.ExecuteReady(sm, nil)
		if i%4096 == 0 {
			l.CompactTo(l.ExecuteCursor()-1, sm)
		}
	}
}

// TestSlotsFarAboveCursorRefused is the bound on the window: a slot MaxAhead
// or more above the execution cursor is refused without touching the ring,
// whatever it claims to be — Accept says no, Commit is dropped, and neither
// allocates.
func TestSlotsFarAboveCursorRefused(t *testing.T) {
	l := New()
	sm := kvstore.New()
	for s := uint64(1); s <= 5; s++ {
		l.Commit(s, bal(1), one(s))
	}
	l.ExecuteReady(sm, nil) // cursor at 6
	edge := l.ExecuteCursor() + slots.MaxAhead
	for _, slot := range []uint64{edge, edge + 1, 1 << 63, ^uint64(0)} {
		if !l.Beyond(slot) {
			t.Errorf("Beyond(%d) = false", slot)
		}
		if l.Accept(slot, bal(9), one(1)) {
			t.Errorf("Accept(%d) succeeded", slot)
		}
		l.Commit(slot, bal(9), one(1))
		if l.Get(slot) != nil {
			t.Errorf("slot %d is in the log", slot)
		}
	}
	if l.Len() != 5 || l.PeekNextSlot() != 6 {
		t.Errorf("refused slots moved the log: len %d next %d", l.Len(), l.PeekNextSlot())
	}
	c := one(1)
	if n := testing.AllocsPerRun(100, func() {
		l.Accept(1<<63, bal(9), c)
		l.Commit(1<<63, bal(9), c)
	}); n != 0 {
		t.Errorf("refusing a far slot allocates %.0f times", n)
	}
	if l.Beyond(edge-1) || l.Beyond(3) {
		t.Error("Beyond is true inside the window")
	}
	// The bound follows the cursor: a snapshot that moves the cursor up
	// brings slots above the old bound into range.
	l.InstallSnapshot(1000)
	if !l.Accept(edge+10, bal(1), one(1)) {
		t.Error("slot inside the moved window refused")
	}
}

// TestSteadyStateSlotAllocFree: once the ring has grown to the working span,
// a slot's whole life — accept, commit, execute, compaction behind it —
// allocates nothing.
func TestSteadyStateSlotAllocFree(t *testing.T) {
	l := New()
	sm := kvstore.New()
	c := []kvstore.Command{{Op: kvstore.Get, Key: 1}}
	slot := func() {
		s := l.NextSlot()
		l.Accept(s, bal(1), c)
		l.Commit(s, bal(1), c)
		l.ExecuteReady(sm, nil)
		if s%512 == 0 {
			l.CompactTo(s-256, sm)
		}
	}
	for i := 0; i < 4096; i++ {
		slot()
	}
	if n := testing.AllocsPerRun(4096, slot); n != 0 {
		t.Errorf("%.2f allocs per slot in steady state, want 0", n)
	}
}
