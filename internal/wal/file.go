// File-backed Storage: a directory of wal-NNNNNNNN.seg segment files plus
// snap-*.snap snapshot files. Appends buffer frames in one of two persistent
// encode buffers (allocation-free once grown); a flush writes and fsyncs the
// whole batch at once, so durability costs one fsync per group of appends,
// not per record. StartFlush swaps the buffers and hands the full one to the
// storage's syncer goroutine, so the event loop keeps appending while the
// disk works; Sync does the same work on the calling goroutine. Snapshots
// are written to a temp file, fsynced, then atomically renamed.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

// fileSeg tracks one segment file. maxSlot/frames are populated by Replay
// (sealed segments) and by Sync (the active segment).
type fileSeg struct {
	path    string
	idx     uint64
	size    int
	maxSlot uint64
	frames  int
}

// FileStorage implements Storage on a directory. Like every Storage it
// belongs to one goroutine, the owner's event loop. The segment list, the
// active file and the roll counter are the owner's too, except while a flush
// StartFlush began is in flight: then they are the syncer goroutine's, and
// every owner-side method that needs them lands the flight first (the
// channel hand-offs order the two). I/O errors surface from Sync,
// FinishFlush and SaveSnapshot; callers must treat a failed flush as fatal
// (acknowledging unsynced state forges durability).
type FileStorage struct {
	enc      frameEncoder
	dir      string
	segBytes int
	segs     []*fileSeg
	f        *os.File // active segment, opened for append
	nextIdx  uint64

	buf   []byte // framed appends no flush has taken yet
	batch batch  // what buf holds
	spare []byte // the pair's other buffer: in flight, or empty

	flights chan flight // to the syncer; nil until the first StartFlush
	landed  chan error  // the syncer's result, one per flight
	exited  chan struct{}
	flying  bool
	err     error // the first failed flush; sticky

	snap     Snapshot
	hasSnap  bool
	syncCost time.Duration
	syncs    atomic.Uint64 // the syncer counts, anyone may read
}

// batch describes the frames of one flush.
type batch struct {
	frames  int
	maxSlot uint64
}

// flight is one flush on its way through the syncer.
type flight struct {
	data []byte
	batch
	wake func()
}

// OpenFile opens (creating if needed) a file-backed journal in dir. Leftover
// temp files from an interrupted snapshot save are removed; the newest
// snapshot whose checksum verifies is loaded.
func OpenFile(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &FileStorage{dir: dir, segBytes: DefaultSegBytes, nextIdx: 1}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			var idx uint64
			if _, err := fmt.Sscanf(name, "wal-%d.seg", &idx); err == nil {
				w.segs = append(w.segs, &fileSeg{path: filepath.Join(dir, name), idx: idx})
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		}
	}
	sort.Slice(w.segs, func(i, j int) bool { return w.segs[i].idx < w.segs[j].idx })
	for _, s := range w.segs {
		if st, err := os.Stat(s.path); err == nil {
			s.size = int(st.Size())
		}
		if s.idx >= w.nextIdx {
			w.nextIdx = s.idx + 1
		}
	}
	// Newest verifiable snapshot wins; unreadable ones are ignored (the
	// rename was atomic, so a bad snapshot file predates this code's
	// guarantees or the disk lost it — older ones may still verify).
	sort.Sort(sort.Reverse(sort.StringSlice(snaps)))
	for _, name := range snaps {
		if snap, err := readSnapshotFile(filepath.Join(dir, name)); err == nil {
			w.snap, w.hasSnap = snap, true
			break
		}
	}
	if len(w.segs) == 0 {
		if err := w.roll(); err != nil {
			return nil, err
		}
	} else if err := w.openActive(); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *FileStorage) openActive() error {
	f, err := os.OpenFile(w.segs[len(w.segs)-1].path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	w.f = f
	return nil
}

// roll seals the active segment and opens the next one.
func (w *FileStorage) roll() error {
	if w.f != nil {
		if err := w.f.Close(); err != nil {
			return err
		}
	}
	path := filepath.Join(w.dir, fmt.Sprintf("wal-%08d.seg", w.nextIdx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	w.segs = append(w.segs, &fileSeg{path: path, idx: w.nextIdx})
	w.nextIdx++
	w.f = f
	return syncDir(w.dir)
}

// SetSegBytes overrides the segment roll threshold.
func (w *FileStorage) SetSegBytes(n int) {
	if n > 0 {
		w.segBytes = n
	}
}

// SetSyncCost sets the simulated latency charged per fsync on top of the
// real one (used when a simulation runs over real files).
func (w *FileStorage) SetSyncCost(d time.Duration) { w.syncCost = d }

// SyncCost implements Storage.
func (w *FileStorage) SyncCost() time.Duration { return w.syncCost }

// Append implements Storage: frame rec into the pending buffer. Both buffers
// are retained across flushes, so the steady-state append path allocates
// nothing (asserted by TestFileAppendAllocFree).
func (w *FileStorage) Append(rec Record) error {
	w.buf = w.enc.appendFrame(w.buf, rec)
	w.batch.frames++
	if rec.Slot > w.batch.maxSlot {
		w.batch.maxSlot = rec.Slot
	}
	return nil
}

// take empties the pending buffer into a flight and makes the spare buffer
// the pending one.
func (w *FileStorage) take(wake func()) flight {
	fl := flight{data: w.buf, batch: w.batch, wake: wake}
	w.buf, w.spare, w.batch = w.spare[:0], nil, batch{}
	return fl
}

// StartFlush implements Storage: the syncer goroutine writes and fsyncs the
// appends buffered so far, rolls the segment if it is full, and calls wake.
func (w *FileStorage) StartFlush(wake func()) (started, async bool) {
	if w.FinishFlush() != nil || len(w.buf) == 0 {
		return false, false // a failed storage starts nothing; FinishFlush says why
	}
	if w.flights == nil {
		w.flights = make(chan flight)
		w.landed = make(chan error, 1) // the syncer never waits for the owner
		w.exited = make(chan struct{})
		go w.syncer()
	}
	w.flying = true
	w.flights <- w.take(wake)
	return true, true
}

// syncer runs the flights, one at a time, until Close.
func (w *FileStorage) syncer() {
	defer close(w.exited)
	for fl := range w.flights {
		w.landed <- w.write(fl)
		fl.wake()
	}
}

// FinishFlush implements Storage: it waits for the flight in progress, if
// any, takes the segment state back from the syncer and returns the
// storage's sticky error.
func (w *FileStorage) FinishFlush() error {
	if w.flying {
		w.flying = false
		if err := <-w.landed; err != nil && w.err == nil {
			w.err = err
		}
	}
	return w.err
}

// Sync implements Storage: one write + one fsync for every buffered append,
// after the flight in progress has landed.
func (w *FileStorage) Sync() (bool, error) {
	if err := w.FinishFlush(); err != nil {
		return false, err
	}
	if len(w.buf) == 0 {
		return false, nil
	}
	if err := w.write(w.take(nil)); err != nil {
		w.err = err
		return false, err
	}
	return true, nil
}

// write makes one flight durable: write, fsync, account it to the active
// segment, roll the segment once it is full. It runs on the syncer goroutine
// for StartFlush and on the owner's for Sync, never both at once. The
// flight's buffer becomes the spare when it is done.
func (w *FileStorage) write(fl flight) error {
	defer func() { w.spare = fl.data[:0] }()
	if _, err := w.f.Write(fl.data); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	cur := w.segs[len(w.segs)-1]
	cur.size += len(fl.data)
	cur.frames += fl.frames
	if fl.maxSlot > cur.maxSlot {
		cur.maxSlot = fl.maxSlot
	}
	w.syncs.Add(1)
	if cur.size >= w.segBytes {
		return w.roll()
	}
	return nil
}

// SaveSnapshot implements Storage: write-temp, fsync, rename, fsync dir.
// Older snapshot files are removed after the new one is durable.
func (w *FileStorage) SaveSnapshot(snap Snapshot) error {
	final := filepath.Join(w.dir, fmt.Sprintf("snap-%016d.snap", snap.Floor))
	tmp := final + ".tmp"
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], snap.Floor)
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(snap.Data, crcTable))
	binary.LittleEndian.PutUint32(hdr[12:], uint32(len(snap.Data)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(snap.Data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		return err
	}
	if err := syncDir(w.dir); err != nil {
		return err
	}
	data := make([]byte, len(snap.Data))
	copy(data, snap.Data)
	w.snap, w.hasSnap = Snapshot{Floor: snap.Floor, Data: data}, true
	// Reclaim superseded snapshots (best effort).
	if entries, err := os.ReadDir(w.dir); err == nil {
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") &&
				filepath.Join(w.dir, name) != final {
				os.Remove(filepath.Join(w.dir, name))
			}
		}
	}
	return nil
}

func readSnapshotFile(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	if len(b) < 16 {
		return Snapshot{}, fmt.Errorf("%w: snapshot %s truncated", ErrCorrupt, path)
	}
	floor := binary.LittleEndian.Uint64(b[0:])
	sum := binary.LittleEndian.Uint32(b[8:])
	n := int(binary.LittleEndian.Uint32(b[12:]))
	if len(b) != 16+n {
		return Snapshot{}, fmt.Errorf("%w: snapshot %s has %d bytes, want %d", ErrCorrupt, path, len(b), 16+n)
	}
	data := b[16:]
	if crc32.Checksum(data, crcTable) != sum {
		return Snapshot{}, fmt.Errorf("%w: snapshot %s checksum mismatch", ErrCorrupt, path)
	}
	return Snapshot{Floor: floor, Data: data}, nil
}

// Snapshot implements Storage.
func (w *FileStorage) Snapshot() (Snapshot, bool) { return w.snap, w.hasSnap }

// CompactTo implements Storage: delete sealed segment files whose every
// record concerns a slot below floor. Requires Replay (or live appends) to
// have populated segment metadata; unknown segments are conservatively
// kept. The active segment is never dropped. A flush in flight may be rolling
// the segment list, so it lands first (its error stays for FinishFlush).
func (w *FileStorage) CompactTo(floor uint64) int {
	w.FinishFlush()
	n := 0
	for n < len(w.segs)-1 && w.segs[n].maxSlot < floor {
		n++
	}
	for i := 0; i < n; i++ {
		os.Remove(w.segs[i].path)
	}
	if n > 0 {
		w.segs = append(w.segs[:0], w.segs[n:]...)
		syncDir(w.dir)
	}
	return n
}

// Replay implements Storage: stream every record from the segment files in
// order, truncating a torn tail in the final segment. Pending unsynced
// appends are discarded — replay reconstructs the disk's contents.
func (w *FileStorage) Replay(fn func(rec Record) error) error {
	if err := w.FinishFlush(); err != nil {
		return err
	}
	w.buf, w.batch = w.buf[:0], batch{}
	for i, s := range w.segs {
		data, err := os.ReadFile(s.path)
		if err != nil {
			return err
		}
		maxSlot, frames := uint64(0), 0
		valid, perr := parseFrames(data, i == len(w.segs)-1, func(rec Record, frameLen int) error {
			if rec.Slot > maxSlot {
				maxSlot = rec.Slot
			}
			frames++
			if fn != nil {
				return fn(rec)
			}
			return nil
		})
		if perr != nil {
			return fmt.Errorf("segment %s: %w", s.path, perr)
		}
		if valid < len(data) {
			if err := os.Truncate(s.path, int64(valid)); err != nil {
				return err
			}
		}
		s.size = valid
		s.maxSlot, s.frames = maxSlot, frames
	}
	return nil
}

// Close implements Storage: land the flight in progress, flush pending
// appends, stop the syncer and close the active file.
func (w *FileStorage) Close() error {
	_, err := w.Sync()
	if w.flights != nil {
		close(w.flights)
		<-w.exited
		w.flights = nil
	}
	if w.f != nil {
		if cerr := w.f.Close(); err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// Segments reports the live segment-file count. Like every owner-side reader
// of the segment list it lands the flight in progress first: the syncer may
// be rolling the segment.
func (w *FileStorage) Segments() int {
	w.FinishFlush()
	return len(w.segs)
}

// Syncs reports how many real fsyncs were performed on the journal.
func (w *FileStorage) Syncs() uint64 { return w.syncs.Load() }

// syncDir fsyncs a directory so entry creation/removal/rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
