// In-memory Storage: the deterministic simulator's "disk". It is the journal
// FileStorage runs, over segments kept in memory; fsync is a configurable
// simulated latency (timed by the replica, not here). It adds the crash
// surface chaos needs: Crash drops every append and snapshot no finished
// flush covers (the strictest reading of a power cut) and TearTail rips the
// last durable frame in half (a torn sector write).
package wal

// MemStorage implements Storage without a filesystem. Not safe for
// concurrent use; the owning replica's event loop serializes access. The
// harness keeps MemStorage instances alive across simulated crashes — they
// play the role of the machine's disk.
type MemStorage struct {
	journal
	mem memDisk
}

// memDisk keeps each segment as one byte slice.
type memDisk struct {
	segs [][]byte
}

// NewMem creates an empty in-memory journal with the default segment size.
func NewMem() *MemStorage {
	m := &MemStorage{mem: memDisk{segs: [][]byte{nil}}}
	m.journal = journal{d: &m.mem, segBytes: DefaultSegBytes, segs: []segment{{}}}
	return m
}

// write allocates a segment once, at its first write: a segment is sealed by
// the first write that takes it past segBytes, so it ends up holding that
// much plus one flush's worth of frames.
func (d *memDisk) write(p []byte, segBytes int) error {
	cur := &d.segs[len(d.segs)-1]
	if cap(*cur) == 0 {
		*cur = make([]byte, 0, max(segBytes+segBytes/4, len(p)))
	}
	*cur = append(*cur, p...)
	return nil
}

func (d *memDisk) roll() error {
	d.segs = append(d.segs, nil)
	return nil
}

func (d *memDisk) read(i int) ([]byte, error) { return d.segs[i], nil }

func (d *memDisk) truncate(i, n int) error {
	d.segs[i] = d.segs[i][:n]
	return nil
}

func (d *memDisk) drop(n int) { d.segs = append(d.segs[:0], d.segs[n:]...) }

func (d *memDisk) saveSnapshot(Snapshot) error { return nil }

func (d *memDisk) close() error { return nil }

// Crash models power loss: every append and snapshot no finished flush
// covers is gone — the buffered ones and those of a flush still in flight;
// Snapshot keeps returning the last one that landed. The chaos injector
// calls it at the instant a node with durable state crashes.
func (m *MemStorage) Crash() { m.discard() }

// TearTail rips the final segment's last frame in half — a torn sector write
// that the next Replay must detect and truncate. A sealed segment was written
// whole before the roll, so there is nothing to tear when the final segment
// holds no frame yet: TearTail then returns false.
func (m *MemStorage) TearTail() bool {
	i := len(m.segs) - 1
	last, n := 0, 0 // the final frame's offset and length
	if _, err := parseFrames(m.mem.segs[i], true, func(_ Record, frameLen int) error {
		last, n = last+n, frameLen
		return nil
	}); err != nil || n == 0 {
		return false
	}
	m.segs[i].size = last + n/2
	m.mem.segs[i] = m.mem.segs[i][:m.segs[i].size]
	return true
}

// CorruptFrame flips one durable byte inside segment seg at offset off
// (tests use it to plant mid-segment corruption that replay must refuse to
// skip).
func (m *MemStorage) CorruptFrame(seg, off int) bool {
	if seg < 0 || seg >= len(m.mem.segs) || off < 0 || off >= len(m.mem.segs[seg]) {
		return false
	}
	m.mem.segs[seg][off] ^= 0xff
	return true
}

// Bytes reports the total durable journal size in bytes.
func (m *MemStorage) Bytes() int {
	n := 0
	for _, s := range m.mem.segs {
		n += len(s)
	}
	return n
}
