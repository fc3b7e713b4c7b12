package wal

import (
	"strings"
	"sync"
	"testing"
)

// slots lists the slots of recs, in order.
func slots(recs []Record) []uint64 {
	out := make([]uint64, len(recs))
	for i, r := range recs {
		out[i] = r.Slot
	}
	return out
}

func wantSlots(t *testing.T, st Storage, want ...uint64) {
	t.Helper()
	got := slots(replayAll(t, st))
	if len(got) != len(want) {
		t.Fatalf("replayed slots %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("replayed slots %v, want %v", got, want)
		}
	}
}

// TestMemCrashMidFlight: a crash while a flush is in flight loses exactly
// the flight's frames and the ones appended since; what an earlier flush
// finished stays.
func TestMemCrashMidFlight(t *testing.T) {
	m := NewMem()
	m.Append(rec(KindAccept, 1, 1, cmd(1, 1)))
	if started, async := m.StartFlush(nil); !started || async {
		t.Fatalf("StartFlush = %v, %v; want a modelled flush started", started, async)
	}
	m.Append(rec(KindAccept, 1, 2, cmd(2, 2))) // rides the next flush
	if err := m.FinishFlush(); err != nil {
		t.Fatal(err)
	}
	if started, _ := m.StartFlush(nil); !started {
		t.Fatal("second flush not started")
	}
	m.Append(rec(KindAccept, 1, 3, cmd(3, 3)))
	if m.Bytes() == 0 || m.Syncs() != 2 {
		t.Fatalf("Bytes %d Syncs %d before the crash", m.Bytes(), m.Syncs())
	}
	m.Crash() // slot 2 in flight, slot 3 buffered
	wantSlots(t, m, 1)
	// The flight is gone with the crash: finishing it late hardens nothing.
	m.Append(rec(KindAccept, 1, 4, cmd(4, 4)))
	if err := m.FinishFlush(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	wantSlots(t, m, 1)
	// And the journal stays appendable.
	mustAppend(t, m, rec(KindAccept, 1, 5, cmd(5, 5)))
	wantSlots(t, m, 1, 5)
}

// TestMemFlightAcrossSegmentRoll: the flush that fills a segment seals it
// and carries the frames buffered behind it over to the next one. The sync
// that follows fills and seals the second segment too, so the final one
// holds no frame and there is nothing to tear.
func TestMemFlightAcrossSegmentRoll(t *testing.T) {
	m := NewMem()
	m.SetSegBytes(1)
	m.Append(rec(KindAccept, 1, 1, cmd(1, 1)))
	m.StartFlush(nil)
	m.Append(rec(KindAccept, 1, 2, cmd(2, 2)))
	m.Append(rec(KindAccept, 1, 3, cmd(3, 3)))
	m.FinishFlush()
	if m.Segments() != 2 {
		t.Fatalf("%d segments after the first flush, want the sealed one and the active", m.Segments())
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	wantSlots(t, m, 1, 2, 3)
	if m.TearTail() {
		t.Fatal("tore a frame of a sealed segment")
	}
	wantSlots(t, m, 1, 2, 3)
}

// TestTearTailAfterRollLeavesJournalReadable: a crash right after the flush
// that sealed a segment leaves the final segment empty. Tearing must not
// reach into the sealed one — it was written whole — or replay refuses the
// journal and the rebooted replica panics.
func TestTearTailAfterRollLeavesJournalReadable(t *testing.T) {
	m := NewMem()
	m.SetSegBytes(1)
	mustAppend(t, m, rec(KindAccept, 1, 1, cmd(1, 1)))
	if m.Segments() != 2 {
		t.Fatalf("%d segments, want the sealed one and the empty active", m.Segments())
	}
	m.Crash()
	if m.TearTail() {
		t.Fatal("tore a frame of a sealed segment")
	}
	wantSlots(t, m, 1)
	// Once the final segment holds a frame again, that is the one torn.
	m.SetSegBytes(DefaultSegBytes)
	mustAppend(t, m, rec(KindAccept, 1, 2, cmd(2, 2)))
	if !m.TearTail() {
		t.Fatal("nothing to tear")
	}
	wantSlots(t, m, 1)
}

// TestMemTearTailKeepsBufferedFrames: tearing the last durable frame leaves
// the frames buffered behind it intact.
func TestMemTearTailKeepsBufferedFrames(t *testing.T) {
	m := NewMem()
	mustAppend(t, m, rec(KindAccept, 1, 1, cmd(1, 1)), rec(KindAccept, 1, 2, cmd(2, 2)))
	m.Append(rec(KindAccept, 1, 3, cmd(3, 3)))
	if !m.TearTail() {
		t.Fatal("nothing to tear")
	}
	if _, err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	// Slot 2's frame is torn mid-way, so replay stops in front of it.
	wantSlots(t, m, 1)
}

// TestFileAppendWhileFlushing appends from the owner while the syncer writes
// (run under -race): every record ends up in the journal once, in order.
func TestFileAppendWhileFlushing(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetSegBytes(4 << 10) // roll often: the syncer rewrites the segment list
	const rounds, perRound = 20, 150
	const total = rounds * perRound
	woken := make(chan struct{}, 1)
	wake := func() { woken <- struct{}{} }
	slot := uint64(0)
	add := func(n int) {
		for i := 0; i < n; i++ {
			slot++
			if err := fs.Append(rec(KindAccept, 1, slot, cmd(slot, slot))); err != nil {
				t.Fatal(err)
			}
		}
	}
	for r := 0; r < rounds; r++ {
		add(perRound / 3)
		if started, async := fs.StartFlush(wake); !started || !async {
			t.Fatalf("StartFlush = %v, %v with records buffered", started, async)
		}
		add(perRound - perRound/3) // while the syncer writes, fsyncs and rolls
		if r%4 == 3 {
			fs.Segments() // reads the list the syncer may be rolling: lands the flight
		}
		<-woken
		if err := fs.FinishFlush(); err != nil {
			t.Fatal(err)
		}
	}
	// Sync flushes what the last flight left behind.
	if synced, err := fs.Sync(); err != nil || !synced {
		t.Fatalf("Sync = %v, %v", synced, err)
	}
	if fs.Segments() < 2 || fs.Syncs() != rounds+1 {
		t.Fatalf("%d segments, %d syncs: want a rolled journal and %d flushes", fs.Segments(), fs.Syncs(), rounds+1)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got := replayAll(t, re)
	if len(got) != total {
		t.Fatalf("%d records replayed, want %d", len(got), total)
	}
	for i, r := range got {
		if r.Slot != uint64(i+1) {
			t.Fatalf("record %d is slot %d", i, r.Slot)
		}
	}
}

// TestFileCloseWaitsForTheFlight: Close with a flush in flight and appends
// behind it loses neither.
func TestFileCloseWaitsForTheFlight(t *testing.T) {
	dir := t.TempDir()
	fs, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	fs.Append(rec(KindAccept, 1, 1, cmd(1, 1)))
	fs.StartFlush(wg.Done)
	fs.Append(rec(KindAccept, 1, 2, cmd(2, 2)))
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait() // the owner is woken even though Close took the result
	re, err := OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	wantSlots(t, re, 1, 2)
}

// TestFileFlushErrorSticks: a flush the disk refused is reported by
// FinishFlush on the owner's goroutine, and by everything after it.
func TestFileFlushErrorSticks(t *testing.T) {
	fs, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fs.dir.f.Close() // the next write fails
	woken := make(chan struct{})
	fs.Append(rec(KindAccept, 1, 1, cmd(1, 1)))
	if started, _ := fs.StartFlush(func() { close(woken) }); !started {
		t.Fatal("flush not started")
	}
	<-woken
	err = fs.FinishFlush()
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("FinishFlush = %v, want the write error", err)
	}
	fs.Append(rec(KindAccept, 1, 2, cmd(2, 2)))
	if started, _ := fs.StartFlush(nil); started {
		t.Fatal("a failed storage started another flush")
	}
	if _, serr := fs.Sync(); serr == nil {
		t.Fatal("Sync on a failed storage reported success")
	}
	if fs.FinishFlush() == nil {
		t.Fatal("the error did not stick")
	}
	fs.dir.f = nil
	fs.Close()
}

// BenchmarkFileAppendGroupFlush is the pipeline's storage half: append
// records while one flush is in flight, start the next as soon as it lands.
// It reports the cost per record with the fsync overlapped and how wide
// group commit gets on this disk.
func BenchmarkFileAppendGroupFlush(b *testing.B) {
	fs, err := OpenFile(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer fs.Close()
	r := rec(KindAccept, 7, 0, cmd(1, 1), cmd(2, 2), cmd(3, 3), cmd(4, 4))
	woken := make(chan struct{}, 1)
	wake := func() { woken <- struct{}{} }
	flying, flushes := false, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Slot = uint64(i + 1)
		if err := fs.Append(r); err != nil {
			b.Fatal(err)
		}
		if flying {
			select {
			case <-woken:
				if err := fs.FinishFlush(); err != nil {
					b.Fatal(err)
				}
				flying = false
			default:
				continue
			}
		}
		fs.StartFlush(wake)
		flying = true
		flushes++
	}
	if _, err := fs.Sync(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/float64(flushes), "records/flush")
}
