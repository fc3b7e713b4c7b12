// In-memory Storage: the deterministic simulator's "disk". It keeps the
// exact byte framing FileStorage writes, models fsync as a configurable
// simulated latency (timed by the replica, not here), and exposes the crash
// surface chaos needs: Crash drops every append no completed flush covers
// (the strictest reading of a power cut) and TearTail rips the last durable
// frame in half (a torn sector write).
package wal

import (
	"time"
)

// memSeg is one sealed-or-active segment: a frame concatenation plus the
// metadata compaction and tearing need. The metadata describes the durable
// frames only.
type memSeg struct {
	buf       []byte
	maxSlot   uint64 // highest slot any frame concerns (0 = promises only)
	frames    int
	lastFrame int // byte length of the most recently flushed frame
}

// span is a run of whole frames at the end of the active segment's buffer.
type span struct {
	end     int    // offset the run ends at
	frames  int    // frames in it
	last    int    // byte length of its final frame
	maxSlot uint64 // highest slot its frames concern
}

// MemStorage implements Storage without a filesystem. Not safe for
// concurrent use; the owning replica's event loop serializes access. The
// harness keeps MemStorage instances alive across simulated crashes — they
// play the role of the machine's disk.
//
// Frames are encoded straight into the active segment's buffer, which is
// allocated once with room for a whole segment. The buffer holds the durable
// frames, then the frames of the flush in flight, then the appends since:
//
//	[0:durable) durable   [durable:flight.end) in flight   [flight.end:tail.end) buffered
type MemStorage struct {
	enc      frameEncoder
	segBytes int
	segs     []*memSeg

	durable int
	flight  span // empty (end == durable) unless flying
	tail    span // end == len(active buffer)
	flying  bool

	snap     Snapshot
	hasSnap  bool
	syncCost time.Duration
	syncs    uint64
}

// NewMem creates an empty in-memory journal with the default segment size.
func NewMem() *MemStorage {
	return &MemStorage{segBytes: DefaultSegBytes, segs: []*memSeg{{}}}
}

// SetSegBytes overrides the segment roll threshold (tests use tiny segments
// to exercise multi-segment replay and compaction).
func (m *MemStorage) SetSegBytes(n int) {
	if n > 0 {
		m.segBytes = n
	}
}

// SetSyncCost sets the simulated latency one fsync costs (the DiskSlow
// chaos fault adjusts it mid-run).
func (m *MemStorage) SetSyncCost(d time.Duration) { m.syncCost = d }

// SyncCost implements Storage.
func (m *MemStorage) SyncCost() time.Duration { return m.syncCost }

func (m *MemStorage) active() *memSeg { return m.segs[len(m.segs)-1] }

// Append implements Storage: frame rec onto the active segment's buffer,
// past everything durable or in flight.
func (m *MemStorage) Append(rec Record) error {
	cur := m.active()
	if cur.buf == nil {
		// A segment is sealed by the first flush that takes it past segBytes,
		// so it ends up holding that much plus one flush's worth of frames.
		cur.buf = make([]byte, 0, m.segBytes+m.segBytes/4)
	}
	cur.buf = m.enc.appendFrame(cur.buf, rec)
	m.tail.frames++
	m.tail.last = len(cur.buf) - m.tail.end
	m.tail.end = len(cur.buf)
	if rec.Slot > m.tail.maxSlot {
		m.tail.maxSlot = rec.Slot
	}
	return nil
}

// StartFlush implements Storage: the buffered appends become the flight.
// Nothing runs here — the caller ends the flight SyncCost() later — and the
// flight's frames stay volatile until it does (see Crash).
func (m *MemStorage) StartFlush(func()) (started, async bool) {
	m.FinishFlush()
	if m.tail.frames == 0 {
		return false, false
	}
	m.flight, m.tail = m.tail, span{end: m.tail.end}
	m.flying = true
	m.syncs++
	return true, false
}

// FinishFlush implements Storage: the flight's frames are durable.
func (m *MemStorage) FinishFlush() error {
	if m.flying {
		m.flying = false
		m.harden(m.flight)
		m.flight = span{end: m.durable}
	}
	return nil
}

// Sync implements Storage: everything appended so far is durable on return,
// the flight in progress included.
func (m *MemStorage) Sync() (bool, error) {
	m.FinishFlush()
	if m.tail.frames == 0 {
		return false, nil
	}
	m.harden(m.tail)
	m.flight, m.tail = span{end: m.durable}, span{end: m.durable}
	m.syncs++
	return true, nil
}

// harden extends the durable prefix over s, the run of frames that follows
// it, and seals the active segment once it crossed the roll threshold; the
// frames still buffered behind s move to the fresh segment.
func (m *MemStorage) harden(s span) {
	cur := m.active()
	cur.frames += s.frames
	cur.lastFrame = s.last
	if s.maxSlot > cur.maxSlot {
		cur.maxSlot = s.maxSlot
	}
	m.durable = s.end
	if m.durable < m.segBytes {
		return
	}
	next := &memSeg{}
	if rest := cur.buf[m.durable:]; len(rest) > 0 {
		next.buf = append(make([]byte, 0, max(m.segBytes+m.segBytes/4, len(rest))), rest...)
		cur.buf = cur.buf[:m.durable]
	}
	m.segs = append(m.segs, next)
	m.tail.end -= m.durable
	m.durable = 0
}

// Crash models power loss: every append no finished flush covers is gone —
// the buffered ones and those of a flush still in flight. The chaos injector
// calls it at the instant a node with durable state crashes.
func (m *MemStorage) Crash() {
	cur := m.active()
	cur.buf = cur.buf[:m.durable]
	m.flying = false
	m.flight, m.tail = span{end: m.durable}, span{end: m.durable}
}

// TearTail rips the last durable frame in half — a torn sector write that
// the next Replay must detect and truncate. Returns false when there is no
// durable frame to tear.
func (m *MemStorage) TearTail() bool {
	for i := len(m.segs) - 1; i >= 0; i-- {
		s := m.segs[i]
		if s.frames == 0 || s.lastFrame == 0 {
			continue
		}
		cut := (s.lastFrame + 1) / 2
		if i == len(m.segs)-1 {
			// Whatever is not durable yet sits behind the torn frame.
			copy(s.buf[m.durable-cut:], s.buf[m.durable:])
			m.durable -= cut
			m.flight.end -= cut
			m.tail.end -= cut
		}
		s.buf = s.buf[:len(s.buf)-cut]
		s.frames--
		s.lastFrame = 0
		return true
	}
	return false
}

// CorruptFrame flips one durable byte inside segment seg at offset off
// (tests use it to plant mid-segment corruption that replay must refuse to
// skip).
func (m *MemStorage) CorruptFrame(seg, off int) bool {
	if seg < 0 || seg >= len(m.segs) || off < 0 || off >= m.durableLen(seg) {
		return false
	}
	m.segs[seg].buf[off] ^= 0xff
	return true
}

// durableLen is how many of segment i's bytes are durable.
func (m *MemStorage) durableLen(i int) int {
	if i == len(m.segs)-1 {
		return m.durable
	}
	return len(m.segs[i].buf)
}

// SaveSnapshot implements Storage. The blob is copied; callers may reuse
// their buffer.
func (m *MemStorage) SaveSnapshot(snap Snapshot) error {
	data := make([]byte, len(snap.Data))
	copy(data, snap.Data)
	m.snap = Snapshot{Floor: snap.Floor, Data: data}
	m.hasSnap = true
	return nil
}

// Snapshot implements Storage. The returned blob is owned by the storage;
// callers must not modify it.
func (m *MemStorage) Snapshot() (Snapshot, bool) { return m.snap, m.hasSnap }

// CompactTo implements Storage: drop sealed segments whose every record
// concerns a slot below floor. The active segment is never dropped.
func (m *MemStorage) CompactTo(floor uint64) int {
	n := 0
	for n < len(m.segs)-1 && m.segs[n].maxSlot < floor {
		n++
	}
	if n > 0 {
		m.segs = append(m.segs[:0], m.segs[n:]...)
	}
	return n
}

// Replay implements Storage: stream every durable record in order. A torn
// tail in the final segment is truncated in place; corruption anywhere else
// aborts with ErrCorrupt. Appends no finished flush covers are discarded
// first — replay reconstructs what the disk holds, nothing more.
func (m *MemStorage) Replay(fn func(rec Record) error) error {
	m.Crash()
	for i, s := range m.segs {
		maxSlot, frames, lastFrame := uint64(0), 0, 0
		valid, err := parseFrames(s.buf, i == len(m.segs)-1, func(rec Record, frameLen int) error {
			if rec.Slot > maxSlot {
				maxSlot = rec.Slot
			}
			frames++
			lastFrame = frameLen
			if fn != nil {
				return fn(rec)
			}
			return nil
		})
		if err != nil {
			return err
		}
		s.buf = s.buf[:valid]
		s.maxSlot, s.frames, s.lastFrame = maxSlot, frames, lastFrame
	}
	m.durable = len(m.active().buf)
	m.flight, m.tail = span{end: m.durable}, span{end: m.durable}
	return nil
}

// Close implements Storage.
func (m *MemStorage) Close() error { return nil }

// Segments reports the live segment count (bounded-memory assertions).
func (m *MemStorage) Segments() int { return len(m.segs) }

// Bytes reports the total durable journal size in bytes.
func (m *MemStorage) Bytes() int {
	n := 0
	for i := range m.segs {
		n += m.durableLen(i)
	}
	return n
}

// Syncs reports how many flushes were performed: the ones StartFlush began
// and the blocking ones.
func (m *MemStorage) Syncs() uint64 { return m.syncs }
