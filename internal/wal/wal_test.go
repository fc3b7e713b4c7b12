package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

func rec(kind Kind, b ids.Ballot, slot uint64, cmds ...kvstore.Command) Record {
	return Record{Kind: kind, Ballot: b, Slot: slot, Cmds: cmds}
}

func cmd(key, seq uint64) kvstore.Command {
	return kvstore.Command{Op: kvstore.Put, Key: key, Value: []byte("v"), ClientID: 7, Seq: seq}
}

func mustAppend(t *testing.T, st Storage, recs ...Record) {
	t.Helper()
	for _, r := range recs {
		if err := st.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if _, err := st.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
}

func replayAll(t *testing.T, st Storage) []Record {
	t.Helper()
	var out []Record
	if err := st.Replay(func(r Record) error { out = append(out, r); return nil }); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].Ballot != b[i].Ballot || a[i].Slot != b[i].Slot ||
			len(a[i].Cmds) != len(b[i].Cmds) {
			return false
		}
		for j := range a[i].Cmds {
			x, y := a[i].Cmds[j], b[i].Cmds[j]
			if x.Op != y.Op || x.Key != y.Key || x.ClientID != y.ClientID || x.Seq != y.Seq ||
				!bytes.Equal(x.Value, y.Value) {
				return false
			}
		}
	}
	return true
}

// openStorages returns a fresh MemStorage and FileStorage for table-driven
// tests that must behave identically.
func openStorages(t *testing.T) map[string]Storage {
	t.Helper()
	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	t.Cleanup(func() { fs.Close() })
	return map[string]Storage{"mem": NewMem(), "file": fs}
}

func TestRoundTrip(t *testing.T) {
	recs := []Record{
		rec(KindPromise, 0x100000001, 0),
		rec(KindAccept, 0x100000001, 1, cmd(10, 1), cmd(11, 2)),
		rec(KindCommit, 0x100000001, 1, cmd(10, 1), cmd(11, 2)),
		rec(KindAccept, 0x100000001, 2), // no-op filler batch
	}
	for name, st := range openStorages(t) {
		mustAppend(t, st, recs...)
		got := replayAll(t, st)
		if !sameRecords(recs, got) {
			t.Errorf("%s: replay mismatch: got %+v", name, got)
		}
	}
}

func TestUnsyncedAppendsLostOnCrash(t *testing.T) {
	m := NewMem()
	mustAppend(t, m, rec(KindAccept, 1, 1, cmd(1, 1)))
	m.Append(rec(KindAccept, 1, 2, cmd(2, 2))) // never synced
	m.Crash()
	got := replayAll(t, m)
	if len(got) != 1 || got[0].Slot != 1 {
		t.Fatalf("want only the synced record, got %+v", got)
	}
}

func TestTornTailTruncates(t *testing.T) {
	m := NewMem()
	mustAppend(t, m,
		rec(KindAccept, 1, 1, cmd(1, 1)),
		rec(KindAccept, 1, 2, cmd(2, 2)),
		rec(KindAccept, 1, 3, cmd(3, 3)))
	if !m.TearTail() {
		t.Fatal("TearTail found nothing to tear")
	}
	got := replayAll(t, m)
	if len(got) != 2 || got[1].Slot != 2 {
		t.Fatalf("want slots 1,2 after torn tail, got %+v", got)
	}
	// The journal stays appendable after truncation.
	mustAppend(t, m, rec(KindAccept, 1, 4, cmd(4, 4)))
	got = replayAll(t, m)
	if len(got) != 3 || got[2].Slot != 4 {
		t.Fatalf("append after torn-tail recovery: got %+v", got)
	}
}

func TestFileTornTailTruncates(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, fs,
		rec(KindAccept, 1, 1, cmd(1, 1)),
		rec(KindAccept, 1, 2, cmd(2, 2)))
	fs.Close()
	// Chop bytes mid-way through the last frame, as a power cut would.
	path := filepath.Join(dir, "wal-00000001.seg")
	b, _ := os.ReadFile(path)
	if err := os.Truncate(path, int64(len(b)-5)); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	got := replayAll(t, fs2)
	if len(got) != 1 || got[0].Slot != 1 {
		t.Fatalf("want slot 1 only, got %+v", got)
	}
	// Double restart: a second replay sees the truncated, stable journal.
	if again := replayAll(t, fs2); !sameRecords(got, again) {
		t.Fatalf("second replay diverged: %+v vs %+v", got, again)
	}
}

func TestCorruptMiddleSegmentFailsLoud(t *testing.T) {
	m := NewMem()
	m.SetSegBytes(1) // every sync seals a segment
	mustAppend(t, m, rec(KindAccept, 1, 1, cmd(1, 1)))
	mustAppend(t, m, rec(KindAccept, 1, 2, cmd(2, 2)))
	mustAppend(t, m, rec(KindAccept, 1, 3, cmd(3, 3)))
	if m.Segments() < 3 {
		t.Fatalf("want ≥3 segments, got %d", m.Segments())
	}
	if !m.CorruptFrame(1, 12) {
		t.Fatal("CorruptFrame failed")
	}
	err := m.Replay(nil)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt for mid-segment damage, got %v", err)
	}
}

func TestEmptySegmentReplays(t *testing.T) {
	m := NewMem()
	m.SetSegBytes(1)
	mustAppend(t, m, rec(KindAccept, 1, 1, cmd(1, 1)))
	// The roll left an empty active segment behind; replay must be clean.
	if m.Segments() != 2 {
		t.Fatalf("want 2 segments, got %d", m.Segments())
	}
	got := replayAll(t, m)
	if len(got) != 1 {
		t.Fatalf("want 1 record, got %+v", got)
	}
}

func TestCompactToReclaimsSegments(t *testing.T) {
	for name, st := range openStorages(t) {
		st.(interface{ SetSegBytes(int) }).SetSegBytes(1)
		for slot := uint64(1); slot <= 5; slot++ {
			mustAppend(t, st, rec(KindAccept, 1, slot, cmd(slot, slot)))
		}
		if err := st.SaveSnapshot(Snapshot{Floor: 4, Data: []byte("state")}); err != nil {
			t.Fatalf("%s: SaveSnapshot: %v", name, err)
		}
		replayAll(t, st) // populate segment metadata for the file backend
		// Saved is not landed: until a flush has written the snapshot, the
		// segments below its floor are all a crash would have.
		if n := st.CompactTo(4); n != 0 {
			t.Errorf("%s: CompactTo dropped %d segments before the snapshot landed", name, n)
		}
		if err := st.SaveSnapshot(Snapshot{Floor: 4, Data: []byte("state")}); err != nil {
			t.Fatalf("%s: SaveSnapshot: %v", name, err)
		}
		if _, err := st.Sync(); err != nil {
			t.Fatalf("%s: Sync: %v", name, err)
		}
		if n := st.CompactTo(4); n < 3 {
			t.Errorf("%s: CompactTo dropped %d segments, want ≥3", name, n)
		}
		got := replayAll(t, st)
		for _, r := range got {
			if r.Slot < 4 && r.Slot != 0 {
				t.Errorf("%s: slot %d survived compaction below floor 4", name, r.Slot)
			}
		}
		snap, ok := st.Snapshot()
		if !ok || snap.Floor != 4 || string(snap.Data) != "state" {
			t.Errorf("%s: snapshot lost after compaction: %+v ok=%v", name, snap, ok)
		}
	}
}

func TestFileSnapshotAtomicity(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveSnapshot(Snapshot{Floor: 10, Data: []byte("ten")}); err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveSnapshot(Snapshot{Floor: 20, Data: []byte("twenty")}); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	// A leftover tmp file from a crashed save must be ignored and removed.
	if err := os.WriteFile(filepath.Join(dir, "snap-0000000000000030.snap.tmp"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	snap, ok := fs2.Snapshot()
	if !ok || snap.Floor != 20 || string(snap.Data) != "twenty" {
		t.Fatalf("want floor-20 snapshot, got %+v ok=%v", snap, ok)
	}
	if _, err := os.Stat(filepath.Join(dir, "snap-0000000000000030.snap.tmp")); !os.IsNotExist(err) {
		t.Fatal("tmp snapshot file not cleaned up")
	}
}

func TestFileCorruptSnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := fs.SaveSnapshot(Snapshot{Floor: 10, Data: []byte("ten")}); err != nil {
		t.Fatal(err)
	}
	fs.Close()
	// Plant a newer snapshot with a bad checksum: open must fall back.
	bad := filepath.Join(dir, "snap-0000000000000099.snap")
	if err := os.WriteFile(bad, []byte("garbage that is long enough"), 0o644); err != nil {
		t.Fatal(err)
	}
	fs2, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	snap, ok := fs2.Snapshot()
	if !ok || snap.Floor != 10 {
		t.Fatalf("want fallback to floor-10 snapshot, got %+v ok=%v", snap, ok)
	}
}

// TestFileDoubleRestart closes and reopens the journal twice, appending in
// between: both reopen paths must see a consistent, growing record stream.
func TestFileDoubleRestart(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, fs, rec(KindAccept, 1, 1, cmd(1, 1)))
	fs.Close()

	fs, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, fs); len(got) != 1 {
		t.Fatalf("first restart: got %+v", got)
	}
	mustAppend(t, fs, rec(KindAccept, 1, 2, cmd(2, 2)))
	fs.Close()

	fs, err = OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	got := replayAll(t, fs)
	if len(got) != 2 || got[1].Slot != 2 {
		t.Fatalf("second restart: got %+v", got)
	}
}

// TestFileAppendAllocFree asserts the acceptance criterion: the file-backed
// append hot path performs zero allocations once the encode buffer has
// grown to the working-set size.
func TestFileAppendAllocFree(t *testing.T) {
	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	batch := []kvstore.Command{cmd(1, 1), cmd(2, 2), cmd(3, 3), cmd(4, 4)}
	r := rec(KindAccept, 7, 100, batch...)
	// Warm up: grow the pending buffer to hold a full AllocsPerRun round.
	for i := 0; i < 2000; i++ {
		fs.Append(r)
	}
	if _, err := fs.Sync(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if err := fs.Append(r); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("file WAL append allocates %v allocs/op, want 0", allocs)
	}
}

// FuzzWALReplay feeds arbitrary segment bytes to the frame parser: it must
// never panic, and whatever it accepts as the valid prefix must reparse to
// the same records (truncation is idempotent). Seeds come from the real
// encoder.
func FuzzWALReplay(f *testing.F) {
	var enc frameEncoder
	seed1 := enc.appendFrame(nil, rec(KindPromise, 0x200000003, 0))
	seed2 := enc.appendFrame(nil, rec(KindAccept, 5, 12, cmd(3, 9)))
	seed2 = enc.appendFrame(seed2, rec(KindCommit, 5, 12, cmd(3, 9)))
	f.Add(seed1)
	f.Add(seed2)
	f.Add(seed2[:len(seed2)-3]) // torn tail
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var first []Record
		valid, err := parseFrames(data, true, func(r Record, _ int) error {
			first = append(first, r)
			return nil
		})
		if err != nil {
			return // malformed payload under a valid CRC: rejected loudly
		}
		if valid > len(data) {
			t.Fatalf("valid prefix %d exceeds input %d", valid, len(data))
		}
		var second []Record
		valid2, err := parseFrames(data[:valid], true, func(r Record, _ int) error {
			second = append(second, r)
			return nil
		})
		if err != nil || valid2 != valid {
			t.Fatalf("truncated prefix not stable: valid %d→%d err=%v", valid, valid2, err)
		}
		if !sameRecords(first, second) {
			t.Fatalf("reparse mismatch: %+v vs %+v", first, second)
		}
	})
}
