// File-backed Storage: the journal over a directory of wal-NNNNNNNN.seg
// segment files plus snap-*.snap snapshot files. A flush writes and fsyncs
// its whole batch of frames at once, so durability costs one fsync per group
// of appends, not per record, and it runs on the journal's syncer goroutine,
// so the event loop keeps appending while the disk works. A snapshot is
// written there too, after the flush it rides: to a temp file, fsynced, then
// atomically renamed.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// FileStorage implements Storage on a directory. I/O errors surface from
// Sync and FinishFlush, snapshot saves included; callers must treat a failed
// flush as fatal (acknowledging unsynced state forges durability).
type FileStorage struct {
	journal
	dir dirDisk
}

// dirDisk keeps each segment in a file of its own.
type dirDisk struct {
	path string
	segs []string // segment file paths
	f    *os.File // the active segment, opened for append
	next uint64   // number of the next segment file
}

// OpenFile opens (creating if needed) a file-backed journal in dir. Leftover
// temp files from an interrupted snapshot save are removed; the newest
// snapshot whose checksum verifies is loaded.
func OpenFile(dir string) (*FileStorage, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	w := &FileStorage{dir: dirDisk{path: dir, next: 1}}
	w.journal = journal{d: &w.dir, async: true, segBytes: DefaultSegBytes}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []uint64
	var snaps []string
	for _, e := range entries {
		name := e.Name()
		switch {
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(dir, name))
		case strings.HasPrefix(name, "wal-") && strings.HasSuffix(name, ".seg"):
			var idx uint64
			if _, err := fmt.Sscanf(name, "wal-%d.seg", &idx); err == nil {
				idxs = append(idxs, idx)
			}
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap"):
			snaps = append(snaps, name)
		}
	}
	sort.Slice(idxs, func(i, j int) bool { return idxs[i] < idxs[j] })
	for _, idx := range idxs {
		path := w.dir.segPath(idx)
		size := 0
		if st, err := os.Stat(path); err == nil {
			size = int(st.Size())
		}
		w.dir.segs = append(w.dir.segs, path)
		w.segs = append(w.segs, segment{size: size})
		w.dir.next = idx + 1
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
		if err := w.dir.roll(); err != nil {
			return nil, err
		}
		w.segs = []segment{{}}
		return w, nil
	}
	if w.dir.f, err = os.OpenFile(w.dir.segs[len(w.dir.segs)-1], os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
		return nil, err
	}
	return w, nil
}

func (d *dirDisk) segPath(idx uint64) string {
	return filepath.Join(d.path, fmt.Sprintf("wal-%08d.seg", idx))
}

func (d *dirDisk) snapPath(floor uint64) string {
	return filepath.Join(d.path, fmt.Sprintf("snap-%016d.snap", floor))
}

func (d *dirDisk) write(p []byte, _ int) error {
	if _, err := d.f.Write(p); err != nil {
		return err
	}
	return d.f.Sync()
}

func (d *dirDisk) roll() error {
	if d.f != nil {
		if err := d.f.Close(); err != nil {
			return err
		}
	}
	path := d.segPath(d.next)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	d.segs = append(d.segs, path)
	d.next++
	d.f = f
	return syncDir(d.path)
}

func (d *dirDisk) read(i int) ([]byte, error) { return os.ReadFile(d.segs[i]) }

func (d *dirDisk) truncate(i, n int) error { return os.Truncate(d.segs[i], int64(n)) }

func (d *dirDisk) drop(n int) {
	for _, path := range d.segs[:n] {
		os.Remove(path)
	}
	d.segs = append(d.segs[:0], d.segs[n:]...)
	syncDir(d.path)
}

// saveSnapshot writes temp, fsyncs, renames and fsyncs the directory, on the
// syncer goroutine. Older snapshot files are removed after the new one is
// durable.
func (d *dirDisk) saveSnapshot(snap Snapshot) error {
	final := d.snapPath(snap.Floor)
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
	if err := syncDir(d.path); err != nil {
		return err
	}
	// Reclaim superseded snapshots (best effort).
	if entries, err := os.ReadDir(d.path); err == nil {
		for _, e := range entries {
			name := e.Name()
			if strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".snap") &&
				filepath.Join(d.path, name) != final {
				os.Remove(filepath.Join(d.path, name))
			}
		}
	}
	return nil
}

func (d *dirDisk) close() error {
	if d.f == nil {
		return nil
	}
	err := d.f.Close()
	d.f = nil
	return err
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

// syncDir fsyncs a directory so entry creation/removal/rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
