package rlog

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wal"
)

// mapLog is the log as it was before the ring: a sparse slot → *Entry map
// swept on compaction. It stays as the reference model the ring is checked
// against — same methods, same order of effects, nothing shared with Log.
type mapLog struct {
	entries   map[uint64]*Entry
	firstSlot uint64
	nextSlot  uint64
	execCur   uint64
	st        wal.Storage
}

func newMapLog() *mapLog {
	return &mapLog{entries: make(map[uint64]*Entry), firstSlot: 1, nextSlot: 1, execCur: 1}
}

func (l *mapLog) InstallSnapshot(floor uint64) {
	for s := range l.entries {
		if s < floor {
			delete(l.entries, s)
		}
	}
	l.firstSlot = max(l.firstSlot, floor)
	l.execCur = max(l.execCur, floor)
	l.nextSlot = max(l.nextSlot, floor)
}

func (l *mapLog) NextSlot() uint64 {
	s := l.nextSlot
	l.nextSlot++
	return s
}

func (l *mapLog) BumpNextSlot(slot uint64) {
	if slot >= l.nextSlot {
		l.nextSlot = slot + 1
	}
}

func (l *mapLog) Accept(slot uint64, b ids.Ballot, cmds []kvstore.Command) bool {
	if slot < l.firstSlot {
		return false
	}
	e, ok := l.entries[slot]
	if !ok {
		l.entries[slot] = &Entry{Ballot: b, Commands: cmds}
		l.BumpNextSlot(slot)
		l.journal(wal.KindAccept, slot, b, cmds)
		return true
	}
	if e.Committed {
		return e.Ballot == b
	}
	if b < e.Ballot {
		return false
	}
	e.Ballot = b
	e.Commands = cmds
	l.BumpNextSlot(slot)
	l.journal(wal.KindAccept, slot, b, cmds)
	return true
}

func (l *mapLog) journal(kind wal.Kind, slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	if l.st != nil {
		l.st.Append(wal.Record{Kind: kind, Ballot: b, Slot: slot, Cmds: cmds})
	}
}

func (l *mapLog) Commit(slot uint64, b ids.Ballot, cmds []kvstore.Command) {
	if slot < l.firstSlot {
		return
	}
	e, ok := l.entries[slot]
	if !ok {
		e = &Entry{}
		l.entries[slot] = e
	}
	if e.Executed {
		return
	}
	// A commit of the very slice accepted under the same ballot is journaled
	// by reference.
	kind, journaled := wal.KindCommit, cmds
	if ok && !e.Committed && e.Ballot == b && len(e.Commands) == len(cmds) &&
		(len(cmds) == 0 || &e.Commands[0] == &cmds[0]) {
		kind, journaled = wal.KindCommitRef, nil
	}
	e.Ballot = b
	e.Commands = cmds
	e.Committed = true
	l.BumpNextSlot(slot)
	l.journal(kind, slot, b, journaled)
}

func (l *mapLog) Get(slot uint64) *Entry { return l.entries[slot] }

func (l *mapLog) ExecuteReady(sm *kvstore.Store, fn func(slot uint64, idx int, cmd kvstore.Command) bool) int {
	n := 0
	for {
		e, ok := l.entries[l.execCur]
		if !ok || !e.Committed {
			return n
		}
		for i, cmd := range e.Commands {
			if fn == nil {
				sm.Apply(cmd)
			} else if !fn(l.execCur, i, cmd) {
				continue
			}
			n++
		}
		e.Executed = true
		l.execCur++
	}
}

func (l *mapLog) CommittedCount() int {
	n := 0
	for _, e := range l.entries {
		if e.Committed {
			n++
		}
	}
	return n
}

func (l *mapLog) CompactTo(slot uint64) int {
	n := 0
	for s, e := range l.entries {
		if s < slot && e.Executed {
			delete(l.entries, s)
			n++
		}
	}
	l.firstSlot = max(l.firstSlot, slot)
	return n
}

// recorder is a wal.Storage that keeps what it is handed, in order.
type recorder struct {
	wal.Storage
	recs []string
}

func (r *recorder) Append(rec wal.Record) error {
	r.recs = append(r.recs, fmt.Sprintf("%d s%d b%d %v", rec.Kind, rec.Slot, rec.Ballot, rec.Cmds))
	return nil
}

// differ drives a Log and a mapLog with the same operations and fails at the
// first observable difference: a return value, a cursor, Len, the entry at
// any slot either might hold, the execution callbacks, the journal.
type differ struct {
	t        *testing.T
	ring     *Log
	model    *mapLog
	ringSM   *kvstore.Store
	modelSM  *kvstore.Store
	ringJ    *recorder
	modelJ   *recorder
	hi       uint64 // highest slot ever named, for the entry sweep
	ops      int
	lastDesc string
}

func newDiffer(t *testing.T) *differ {
	d := &differ{
		t: t, ring: New(), model: newMapLog(),
		ringSM: kvstore.New(), modelSM: kvstore.New(),
		ringJ: &recorder{}, modelJ: &recorder{},
	}
	d.ring.Attach(d.ringJ)
	d.model.st = d.modelJ
	return d
}

// step decodes one operation from three bytes and applies it to both logs.
// Slots are drawn near the execution cursor — below it, across the floor and
// above the proposal cursor all included — so a short input reaches gaps,
// re-accepts, compaction mid-gap and snapshot floors beyond the tail.
func (d *differ) step(op, a, b byte) {
	d.ops++
	cur := d.model.execCur
	slot := cur + uint64(a%24)
	if a >= 192 {
		slot = cur - min(cur, uint64(a%8)) // at or below the cursor, 0 included
	}
	d.hi = max(d.hi, slot)
	bal := ids.NewBallot(int(b%4)+1, ids.NewID(1, 1))
	cmds := []kvstore.Command{{Op: kvstore.Put, Key: uint64(b % 5), Value: []byte{a, b}}}
	if b%7 == 0 {
		cmds = nil // no-op filler
	}
	switch op % 8 {
	case 0, 1:
		d.lastDesc = fmt.Sprintf("Accept(%d, b%d)", slot, b%4+1)
		if got, want := d.ring.Accept(slot, bal, cmds), d.model.Accept(slot, bal, cmds); got != want {
			d.t.Fatalf("op %d %s = %v, model %v", d.ops, d.lastDesc, got, want)
		}
	case 2, 3:
		if e := d.model.Get(slot); a%2 == 0 && e != nil && !e.Committed {
			// What a quorum or a watermark commits: the batch the slot holds,
			// under the ballot it was accepted with.
			bal, cmds = e.Ballot, e.Commands
		}
		d.lastDesc = fmt.Sprintf("Commit(%d, b%d)", slot, bal.N())
		d.ring.Commit(slot, bal, cmds)
		d.model.Commit(slot, bal, cmds)
	case 4:
		d.lastDesc = "ExecuteReady"
		var got, want []string
		// The callback skips key 0's commands, as a replica skips a
		// command its session table says already executed.
		rec := func(out *[]string, sm *kvstore.Store) func(uint64, int, kvstore.Command) bool {
			return func(s uint64, i int, c kvstore.Command) bool {
				if c.Key == 0 {
					*out = append(*out, fmt.Sprintf("%d/%d k0 skipped", s, i))
					return false
				}
				*out = append(*out, fmt.Sprintf("%d/%d k%d %v", s, i, c.Key, sm.Apply(c)))
				return true
			}
		}
		n, m := d.ring.ExecuteReady(d.ringSM, rec(&got, d.ringSM)), d.model.ExecuteReady(d.modelSM, rec(&want, d.modelSM))
		if n != m || !reflect.DeepEqual(got, want) {
			d.t.Fatalf("op %d ExecuteReady = %d %v, model %d %v", d.ops, n, got, m, want)
		}
	case 5:
		d.lastDesc = fmt.Sprintf("CompactTo(%d)", slot)
		if got, want := d.ring.CompactTo(slot, d.ringSM), d.model.CompactTo(slot); got != want {
			d.t.Fatalf("op %d %s = %d, model %d", d.ops, d.lastDesc, got, want)
		}
	case 6:
		if b%4 != 0 {
			return // snapshots are rarer than the rest
		}
		d.lastDesc = fmt.Sprintf("InstallSnapshot(%d)", slot)
		d.ring.InstallSnapshot(slot)
		d.model.InstallSnapshot(slot)
	case 7:
		if b%2 == 0 {
			d.lastDesc = "NextSlot"
			if got, want := d.ring.NextSlot(), d.model.NextSlot(); got != want {
				d.t.Fatalf("op %d NextSlot = %d, model %d", d.ops, got, want)
			}
		} else {
			d.lastDesc = fmt.Sprintf("BumpNextSlot(%d)", slot)
			d.ring.BumpNextSlot(slot)
			d.model.BumpNextSlot(slot)
		}
	}
	d.compare()
}

func (d *differ) compare() {
	r, m := d.ring, d.model
	if r.ExecuteCursor() != m.execCur || r.PeekNextSlot() != m.nextSlot || r.FirstSlot() != m.firstSlot {
		d.t.Fatalf("op %d %s: cursors exec/next/first %d/%d/%d, model %d/%d/%d", d.ops, d.lastDesc,
			r.ExecuteCursor(), r.PeekNextSlot(), r.FirstSlot(), m.execCur, m.nextSlot, m.firstSlot)
	}
	if r.Len() != len(m.entries) || r.CommittedCount() != m.CommittedCount() {
		d.t.Fatalf("op %d %s: Len/CommittedCount %d/%d, model %d/%d", d.ops, d.lastDesc,
			r.Len(), r.CommittedCount(), len(m.entries), m.CommittedCount())
	}
	lo := m.execCur - min(m.execCur, 40)
	for s := lo; s <= d.hi+1; s++ {
		got, want := r.Get(s), m.Get(s)
		if (got == nil) != (want == nil) {
			d.t.Fatalf("op %d %s: slot %d present=%v, model %v", d.ops, d.lastDesc, s, got != nil, want != nil)
		}
		if got != nil && (got.Ballot != want.Ballot || got.Committed != want.Committed ||
			got.Executed != want.Executed || !reflect.DeepEqual(got.Commands, want.Commands)) {
			d.t.Fatalf("op %d %s: slot %d = %+v, model %+v", d.ops, d.lastDesc, s, *got, *want)
		}
	}
	if !reflect.DeepEqual(d.ringJ.recs, d.modelJ.recs) {
		d.t.Fatalf("op %d %s: journals diverge: %d records, model %d; last %v vs %v", d.ops, d.lastDesc,
			len(d.ringJ.recs), len(d.modelJ.recs), tail(d.ringJ.recs), tail(d.modelJ.recs))
	}
	if d.ringSM.Checksum() != d.modelSM.Checksum() {
		d.t.Fatalf("op %d %s: state machines diverge", d.ops, d.lastDesc)
	}
}

func tail(s []string) string {
	if len(s) == 0 {
		return "<none>"
	}
	return s[len(s)-1]
}

// run feeds data to the differ three bytes at a time.
func (d *differ) run(data []byte) {
	for i := 0; i+2 < len(data); i += 3 {
		d.step(data[i], data[i+1], data[i+2])
	}
}

// TestRingMatchesMapModel is the differential test: seeded random operation
// sequences, each long enough to slide the window through several reallocations
// and wrap-arounds.
func TestRingMatchesMapModel(t *testing.T) {
	refs := 0 // commits journaled by reference, over all seeds
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := make([]byte, 3*1500)
		rng.Read(data)
		d := newDiffer(t)
		d.run(data)
		if d.ring.ExecuteCursor() < 50 {
			t.Fatalf("seed %d: cursor only reached %d — the sequence never got going", seed, d.ring.ExecuteCursor())
		}
		for _, rec := range d.ringJ.recs {
			if strings.HasPrefix(rec, fmt.Sprintf("%d ", wal.KindCommitRef)) {
				refs++
			}
		}
	}
	if refs < 100 {
		t.Fatalf("only %d commits journaled by reference — the sequences hardly ever commit what they accepted", refs)
	}
}

// FuzzRingMatchesMapModel lets the fuzzer hunt for an operation sequence on
// which the ring and the map model part ways. Seeded from the differential
// test's generator plus the hand-written shapes it is meant to cover.
func FuzzRingMatchesMapModel(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		data := make([]byte, 3*200)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	f.Add([]byte{0, 3, 1, 0, 3, 2, 2, 5, 1, 4, 0, 0})                    // re-accept under a higher ballot, commit above a gap
	f.Add([]byte{2, 0, 1, 2, 2, 1, 4, 0, 0, 5, 6, 0, 2, 1, 1, 4, 0, 0})  // compaction mid-gap
	f.Add([]byte{2, 0, 1, 6, 20, 4, 2, 0, 1, 4, 0, 0, 7, 0, 2})          // snapshot floor beyond nextSlot
	f.Add([]byte{0, 200, 1, 2, 197, 1, 5, 193, 0, 6, 195, 4, 7, 199, 1}) // everything at or below the cursor
	f.Fuzz(func(t *testing.T, data []byte) {
		newDiffer(t).run(data)
	})
}
