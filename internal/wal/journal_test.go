package wal

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"pigpaxos/internal/ids"
)

// Ops of FuzzJournalDisks, one byte each, then their arguments.
const (
	opPromise   = iota // ballot
	opAccept           // ballot, slot, commands (mod 17)
	opCommit           // ballot, slot, commands (mod 17)
	opCommitRef        // ballot, slot
	opFlush            // StartFlush + FinishFlush
	opSync
	opSnapshot // floor: SaveSnapshot, which rides the next flush
	opCompact  // floor: CompactTo
	opReplay
	numOps
)

// FuzzJournalDisks drives the journal over memory and over a directory
// through one op sequence, with segments small enough to roll, and after
// every op asserts the two disks hold the same journal: segment count,
// segment bytes, total size, record stream, flush count and snapshot. A
// snapshot is saved as a job of the next flush and counts once that flush
// is over; no compaction may drop a record at or above the floor of the
// newest snapshot that counts, or any record before one does.
func FuzzJournalDisks(f *testing.F) {
	// One promise, accept and commit, synced: the two disks frame them
	// identically.
	f.Add([]byte{opPromise, 42, opAccept, 42, 9, 1, opCommit, 42, 9, 1, opSync})
	// Batches big enough that every flush rolls a segment, compaction,
	// replay, and appends replay discards.
	f.Add([]byte{
		opPromise, 1, opAccept, 1, 1, 16, opFlush, opAccept, 1, 2, 3, opCommitRef, 1, 1,
		opSync, opAccept, 1, 3, 16, opCommit, 1, 2, 3, opFlush, opSnapshot, 3, opFlush, opCompact, 3,
		opAccept, 2, 4, 0, opReplay, opAccept, 2, 5, 5, opSnapshot, 9, opFlush, opCompact, 9, opReplay,
	})
	f.Add([]byte{opFlush, opSync, opReplay, opSnapshot, 0, opCompact, 0, opCommitRef, 7, 7, opReplay, opSync})
	// Compaction before the snapshot lands, a snapshot replaced before any
	// flush took it, one riding a flush behind records, one lost to replay.
	f.Add([]byte{
		opAccept, 1, 1, 16, opAccept, 1, 2, 16, opSnapshot, 2, opCompact, 2, opSnapshot, 3, opFlush,
		opCompact, 9, opAccept, 1, 5, 16, opSnapshot, 6, opSync, opCompact, 6, opAccept, 1, 7, 16,
		opSnapshot, 8, opReplay, opCompact, 8, opFlush,
	})
	f.Fuzz(func(t *testing.T, ops []byte) {
		mem := NewMem()
		dir := t.TempDir()
		fs, err := OpenFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer func() { fs.Close() }()
		mem.SetSegBytes(256)
		fs.SetSegBytes(256)
		next := func() uint64 {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return uint64(b)
		}
		var durable, buffered []Record // every record a flush covered; the rest
		var saved, landed *Snapshot    // riding the next flush; the newest over
		var cover *uint64              // the highest floor any landed snapshot had
		land := func() {
			if saved != nil {
				landed, saved = saved, nil
				if cover == nil || *cover < landed.Floor {
					cover = &landed.Floor
				}
			}
		}
		for step := 0; len(ops) > 0; step++ {
			var r Record
			switch op := next() % numOps; op {
			case opPromise:
				r = Record{Kind: KindPromise, Ballot: ids.Ballot(next())}
			case opAccept, opCommit:
				r = Record{Kind: KindAccept, Ballot: ids.Ballot(next()), Slot: next()}
				if op == opCommit {
					r.Kind = KindCommit
				}
				for k, n := uint64(1), next()%17; k <= n; k++ {
					r.Cmds = append(r.Cmds, cmd(k, k))
				}
			case opCommitRef:
				r = Record{Kind: KindCommitRef, Ballot: ids.Ballot(next()), Slot: next()}
			case opFlush:
				for _, st := range []Storage{mem, fs} {
					st.StartFlush(func() {})
					if err := st.FinishFlush(); err != nil {
						t.Fatal(err)
					}
				}
				durable, buffered = append(durable, buffered...), nil
				land()
			case opSync:
				a, aerr := mem.Sync()
				b, berr := fs.Sync()
				if a != b || aerr != nil || berr != nil {
					t.Fatalf("step %d: Sync = %v, %v on memory; %v, %v on a directory", step, a, aerr, b, berr)
				}
				durable, buffered = append(durable, buffered...), nil
				land()
			case opSnapshot:
				floor := next()
				saved = &Snapshot{Floor: floor, Data: fmt.Appendf(nil, "state below %d", floor)}
				for _, st := range []Storage{mem, fs} {
					if err := st.SaveSnapshot(*saved); err != nil {
						t.Fatal(err)
					}
				}
			case opCompact:
				floor := next()
				if a, b := mem.CompactTo(floor), fs.CompactTo(floor); a != b {
					t.Fatalf("step %d: CompactTo(%d) dropped %d segments of memory, %d of a directory", step, floor, a, b)
				}
			case opReplay:
				if a, b := replayAll(t, mem), replayAll(t, fs); !sameRecords(a, b) {
					t.Fatalf("step %d: replay differs: %+v vs %+v", step, a, b)
				}
				buffered, saved = nil, nil
			}
			if r.Kind != 0 {
				mem.Append(r)
				fs.Append(r)
				buffered = append(buffered, r)
			}
			sameJournal(t, step, mem, fs, durable, landed, cover)
		}
		// What the directory holds is the journal: closed (which syncs) and
		// reopened, it replays as the one in memory does.
		if err := mem.Close(); err != nil {
			t.Fatal(err)
		}
		if err := fs.Close(); err != nil {
			t.Fatal(err)
		}
		if fs, err = OpenFile(dir); err != nil {
			t.Fatal(err)
		}
		if a, b := replayAll(t, mem), replayAll(t, fs); !sameRecords(a, b) {
			t.Fatalf("replay after reopening differs: %+v vs %+v", a, b)
		}
		a, aok := mem.Snapshot()
		b, bok := fs.Snapshot()
		if aok != bok || a.Floor != b.Floor || !bytes.Equal(a.Data, b.Data) {
			t.Fatalf("snapshot after reopening: %+v, %v vs %+v, %v", a, aok, b, bok)
		}
	})
}

// sameJournal asserts mem and fs hold byte-identical segments, the same
// count of flushes, landed as their snapshot (the directory's in its file),
// and a record stream that is what the flushes covered minus a compacted
// prefix of records below cover.
func sameJournal(t *testing.T, step int, mem *MemStorage, fs *FileStorage, durable []Record, landed *Snapshot, cover *uint64) {
	t.Helper()
	for _, st := range []Storage{mem, fs} {
		snap, ok := st.Snapshot()
		if ok != (landed != nil) || ok && (snap.Floor != landed.Floor || !bytes.Equal(snap.Data, landed.Data)) {
			t.Fatalf("step %d: %T holds snapshot %+v, %v; want %+v", step, st, snap, ok, landed)
		}
	}
	if landed != nil {
		snap, err := readSnapshotFile(fs.dir.snapPath(landed.Floor))
		if err != nil || !bytes.Equal(snap.Data, landed.Data) {
			t.Fatalf("step %d: snapshot file holds %q, %v; want %q", step, snap.Data, err, landed.Data)
		}
	}
	if a, b := mem.Segments(), fs.Segments(); a != b {
		t.Fatalf("step %d: %d segments in memory, %d in the directory", step, a, b)
	}
	if a, b := mem.Syncs(), fs.Syncs(); a != b {
		t.Fatalf("step %d: %d flushes to memory, %d to the directory", step, a, b)
	}
	size := 0
	var recs []Record
	for i, path := range fs.dir.segs {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(mem.mem.segs[i], b) {
			t.Fatalf("step %d: segment %d: %d bytes in memory, %d in %s", step, i, len(mem.mem.segs[i]), len(b), path)
		}
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		size += int(st.Size())
		if _, err := parseFrames(b, i == len(fs.dir.segs)-1, func(r Record, _ int) error {
			recs = append(recs, r)
			return nil
		}); err != nil {
			t.Fatalf("step %d: segment %d: %v", step, i, err)
		}
	}
	if mem.Bytes() != size {
		t.Fatalf("step %d: %d bytes in memory, %d in the directory", step, mem.Bytes(), size)
	}
	if len(recs) > len(durable) || !sameRecords(recs, durable[len(durable)-len(recs):]) {
		t.Fatalf("step %d: journal holds %+v, want a suffix of %+v", step, recs, durable)
	}
	for _, r := range durable[:len(durable)-len(recs)] {
		if cover == nil || r.Slot >= *cover {
			t.Fatalf("step %d: compaction dropped %+v, which no landed snapshot covers", step, r)
		}
	}
}
