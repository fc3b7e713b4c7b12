// The journal: the one implementation of Storage. It owns everything about a
// write-ahead log but the place its bytes live — the append buffer, the
// single flush in flight, segment rolling, compaction, replay with torn-tail
// truncation and the snapshot slot — and keeps the bytes on a disk: a
// directory of files (FileStorage) or memory (MemStorage). A snapshot is a
// disk job like a flush's write: it rides the next flight, behind the
// frames that flight carries, and is the journal's snapshot once the flight
// has landed.
package wal

import (
	"fmt"
	"sync/atomic"
	"time"
)

// disk is where a journal's segments live. Segments are addressed by their
// position in the journal, oldest first; the last one is the active segment,
// the only one written to.
type disk interface {
	// write appends p to the active segment; it is durable on return.
	// segBytes is the roll threshold, for a disk that sizes a fresh segment.
	write(p []byte, segBytes int) error
	// roll seals the active segment and starts an empty one.
	roll() error
	// read returns segment i's bytes. The journal does not modify them.
	read(i int) ([]byte, error)
	// truncate cuts segment i down to its first n bytes.
	truncate(i, n int) error
	// drop deletes the n oldest segments (best effort: a segment that
	// outlives its drop is only wasted space).
	drop(n int)
	// saveSnapshot makes snap durable. It runs where write does.
	saveSnapshot(snap Snapshot) error
	close() error
}

// segment is the journal's account of one segment on its disk.
type segment struct {
	size    int
	maxSlot uint64 // highest slot a record in it concerns (0 = promises only)
}

// flight is one flush: the frames it makes durable, the snapshot it saves
// after them if hasSnap, and the wake function StartFlush was given.
type flight struct {
	data    []byte
	maxSlot uint64
	snap    Snapshot
	hasSnap bool
	wake    func()
}

// journal implements Storage over a disk. Like every Storage it belongs to
// one goroutine, the owner's event loop. An async disk (a directory) flushes
// on the journal's syncer goroutine: between StartFlush and the flight's
// landing the syncer owns the disk and the segment list, and every owner-side
// method that needs them lands the flight first (the channel hand-offs order
// the two). A disk that is not async (memory) has nothing to run: StartFlush
// holds the flight and FinishFlush, SyncCost() later, writes it — so until
// then the flight, snapshot included, is as volatile as the appends behind
// it.
type journal struct {
	d        disk
	async    bool
	enc      frameEncoder
	segBytes int
	segs     []segment

	buf     []byte // framed appends no flush has taken yet
	pending uint64 // highest slot a frame in buf concerns
	spare   []byte // the pair's other buffer: in flight, or empty

	flying  bool
	flight  flight      // the flight in progress (held, for a disk that is not async)
	flights chan flight // to the syncer; nil until the first async flush
	landed  chan error  // the syncer's result, one per flight
	exited  chan struct{}
	err     error // the first failed flush; sticky

	next     Snapshot // saved, not taken by a flight yet
	hasNext  bool
	snap     Snapshot // the newest snapshot that landed
	hasSnap  bool
	syncCost time.Duration
	syncs    atomic.Uint64 // the owner counts, anyone may read
}

// SetSegBytes overrides the segment roll threshold (tests use tiny segments
// to exercise multi-segment replay and compaction).
func (j *journal) SetSegBytes(n int) {
	if n > 0 {
		j.segBytes = n
	}
}

// SetSyncCost sets the simulated latency one fsync costs: the whole cost of a
// flush to memory (the DiskSlow chaos fault adjusts it mid-run), on top of
// the real one for a directory.
func (j *journal) SetSyncCost(d time.Duration) { j.syncCost = d }

// SyncCost implements Storage.
func (j *journal) SyncCost() time.Duration { return j.syncCost }

// Append implements Storage: frame rec into the pending buffer. Both buffers
// are retained across flushes, so the steady-state append path allocates
// nothing (asserted by TestFileAppendAllocFree).
func (j *journal) Append(rec Record) error {
	j.buf = j.enc.appendFrame(j.buf, rec)
	j.pending = max(j.pending, rec.Slot)
	return nil
}

// take empties the pending buffer and the saved snapshot into the flight
// and makes the spare buffer the pending one.
func (j *journal) take(wake func()) {
	j.flight = flight{data: j.buf, maxSlot: j.pending, snap: j.next, hasSnap: j.hasNext, wake: wake}
	j.buf, j.spare, j.pending = j.spare[:0], nil, 0
	j.next, j.hasNext = Snapshot{}, false
}

// idle reports whether there is nothing for a flush to do.
func (j *journal) idle() bool { return len(j.buf) == 0 && !j.hasNext }

// StartFlush implements Storage: the appends buffered so far and the saved
// snapshot become the flight. An async disk's syncer writes it, rolls the
// segment if it is full, saves the snapshot and calls wake; otherwise the
// flight is held until FinishFlush.
func (j *journal) StartFlush(wake func()) (started, async bool) {
	if j.FinishFlush() != nil || j.idle() {
		return false, false // a failed storage starts nothing; FinishFlush says why
	}
	j.syncs.Add(1)
	j.flying = true
	j.take(wake)
	if !j.async {
		return true, false
	}
	if j.flights == nil {
		j.flights = make(chan flight)
		j.landed = make(chan error, 1) // the syncer never waits for the owner
		j.exited = make(chan struct{})
		go j.syncer()
	}
	j.flights <- j.flight
	return true, true
}

// syncer runs the flights, one at a time, until Close.
func (j *journal) syncer() {
	defer close(j.exited)
	for fl := range j.flights {
		j.landed <- j.write(fl)
		fl.wake()
	}
}

// FinishFlush implements Storage: the flight in progress, if any, is over —
// an async disk's is waited for, a held one is written now — and the
// storage's sticky error is returned.
func (j *journal) FinishFlush() error {
	if j.flying {
		j.flying = false
		if j.async {
			j.over(<-j.landed)
		} else {
			j.over(j.write(j.flight))
		}
	}
	return j.err
}

// over records the end of the flight: the first error sticks, and a
// snapshot the flight saved is now the journal's.
func (j *journal) over(err error) {
	switch {
	case err != nil && j.err == nil:
		j.err = err
	case err == nil && j.flight.hasSnap:
		j.snap, j.hasSnap = j.flight.snap, true
	}
	j.flight = flight{}
}

// settle lands an async disk's running write before the owner touches the
// disk or the segment list. A held flight stays held: writing it early would
// make it durable before its modelled SyncCost, changing what a crash keeps.
func (j *journal) settle() error {
	if j.async {
		return j.FinishFlush()
	}
	return j.err
}

// Sync implements Storage: one write for every buffered append and the
// saved snapshot, after the flight in progress has landed.
func (j *journal) Sync() (bool, error) {
	if err := j.FinishFlush(); err != nil {
		return false, err
	}
	if j.idle() {
		return false, nil
	}
	j.syncs.Add(1)
	j.take(nil)
	j.over(j.write(j.flight))
	return j.err == nil, j.err
}

// write makes one flight durable: its frames are accounted to the active
// segment, which rolls once it is full, and then its snapshot is saved. It
// runs on the syncer goroutine for an async disk's StartFlush and on the
// owner's otherwise, never both at once. The flight's buffer becomes the
// spare when it is done.
func (j *journal) write(fl flight) error {
	defer func() { j.spare = fl.data[:0] }()
	if len(fl.data) > 0 {
		if err := j.d.write(fl.data, j.segBytes); err != nil {
			return err
		}
		cur := &j.segs[len(j.segs)-1]
		cur.size += len(fl.data)
		cur.maxSlot = max(cur.maxSlot, fl.maxSlot)
		if cur.size >= j.segBytes {
			if err := j.d.roll(); err != nil {
				return err
			}
			j.segs = append(j.segs, segment{})
		}
	}
	if fl.hasSnap {
		return j.d.saveSnapshot(fl.snap)
	}
	return nil
}

// discard drops everything no finished flush covers: the buffered appends,
// the saved snapshot and a held flight. An async disk's running write must
// have landed.
func (j *journal) discard() {
	if j.flying {
		j.flying = false
		j.spare = j.flight.data[:0]
		j.flight = flight{}
	}
	j.buf, j.pending = j.buf[:0], 0
	j.next, j.hasNext = Snapshot{}, false
}

// SaveSnapshot implements Storage: snap rides the next flush, replacing a
// snapshot no flush has taken yet, and is the journal's once that flush is
// over. The journal keeps snap.Data.
func (j *journal) SaveSnapshot(snap Snapshot) error {
	if j.err != nil {
		return j.err
	}
	j.next, j.hasNext = snap, true
	return nil
}

// Snapshot implements Storage: the newest snapshot a finished flush saved,
// or the one a reopened directory holds. The returned blob is owned by the
// storage; callers must not modify it.
func (j *journal) Snapshot() (Snapshot, bool) { return j.snap, j.hasSnap }

// CompactTo implements Storage: drop sealed segments whose every record
// concerns a slot below floor, or below the landed snapshot's floor if that
// is lower — a segment no durable snapshot covers is never dropped, so
// before the first snapshot lands nothing is. The active segment is never
// dropped. A segment's slots are known once Replay read it or a flush wrote
// it, so the owner must Replay a journal it reopened before compacting it
// (paxos.recoverFromStorage always does); a segment nothing has read counts
// as holding no slot and is dropped.
func (j *journal) CompactTo(floor uint64) int {
	j.settle() // its error stays for FinishFlush
	if !j.hasSnap {
		return 0
	}
	floor = min(floor, j.snap.Floor)
	n := 0
	for n < len(j.segs)-1 && j.segs[n].maxSlot < floor {
		n++
	}
	if n > 0 {
		j.d.drop(n)
		j.segs = append(j.segs[:0], j.segs[n:]...)
	}
	return n
}

// Replay implements Storage: stream every durable record in order. A torn
// tail in the final segment is truncated in place; corruption anywhere else
// aborts with ErrCorrupt. Appends no finished flush covers are discarded
// first — replay reconstructs what the disk holds, nothing more.
func (j *journal) Replay(fn func(rec Record) error) error {
	if err := j.settle(); err != nil {
		return err
	}
	j.discard()
	for i := range j.segs {
		data, err := j.d.read(i)
		if err != nil {
			return err
		}
		var maxSlot uint64
		valid, err := parseFrames(data, i == len(j.segs)-1, func(rec Record, _ int) error {
			maxSlot = max(maxSlot, rec.Slot)
			if fn != nil {
				return fn(rec)
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("segment %d of %d: %w", i+1, len(j.segs), err)
		}
		if valid < len(data) {
			if err := j.d.truncate(i, valid); err != nil {
				return err
			}
		}
		j.segs[i] = segment{size: valid, maxSlot: maxSlot}
	}
	return nil
}

// Close implements Storage: land the flight in progress, flush pending
// appends and the saved snapshot, stop the syncer and close the disk.
func (j *journal) Close() error {
	_, err := j.Sync()
	if j.flights != nil {
		close(j.flights)
		<-j.exited
		j.flights = nil
	}
	if cerr := j.d.close(); err == nil {
		err = cerr
	}
	return err
}

// Segments reports the live segment count (bounded-disk assertions). It
// lands an async disk's running write first: the syncer may be rolling.
func (j *journal) Segments() int {
	j.settle()
	return len(j.segs)
}

// Syncs reports how many flushes were started, by StartFlush and by Sync —
// on either disk, whether or not the flush has landed (or, on a directory,
// succeeded) yet.
func (j *journal) Syncs() uint64 { return j.syncs.Load() }
