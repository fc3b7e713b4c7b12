// Package wal implements the durable write-ahead log behind crash-restart:
// a segmented, CRC-framed journal of ballot promises, slot accepts and slot
// commits, plus a state-machine snapshot slot. There is one journal and two
// disks it can keep its bytes on: FileStorage persists to a directory of
// segment files with group fsync, MemStorage — the deterministic simulator's
// default — keeps the same segments in memory, so every chaos run exercises
// the journal a real server runs.
//
// Record payloads reuse the wire codec: a promise is framed as a wire.P1a,
// an accept as a wire.P2a, a commit as a wire.P3 and a commit that only names
// the accept it confirms as a wire.P2b, so the journal format is exactly the
// protocol's own message encoding. Each frame is
//
//	[u32 payload length][u32 CRC-32C of payload][payload]
//
// and segments are plain frame concatenations. A partial trailing frame in
// the *final* segment is a torn tail (the crash interrupted the last write):
// replay truncates it and recovery proceeds. Any framing or checksum
// violation in a non-final segment is corruption and fails loudly — skipping
// acknowledged records would forge durability.
//
// Goroutines. A Storage belongs to one goroutine, its replica's event loop:
// Append, StartFlush, FinishFlush, Sync, SaveSnapshot, CompactTo, Replay,
// Close and Segments are called from there and nowhere else (a benchmark
// wrapping a Storage to trace Append and Sync relies on it). MemStorage runs
// nothing of its own. FileStorage runs one goroutine, the syncer, which
// between StartFlush and the flight's landing owns the active file and the
// segment list, does the write, the fsync, the segment roll and the snapshot
// save, and then calls the wake function StartFlush was given — from the
// syncer goroutine, so wake may do one thing only: post to the owner's event
// loop.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// Kind tags one journal record.
type Kind uint8

const (
	// KindPromise records a ballot this replica promised (phase-1) or
	// adopted; it must be durable before the promise is sent.
	KindPromise Kind = iota + 1
	// KindAccept records a slot accepted under a ballot; it must be durable
	// before the accept is acknowledged (P2b).
	KindAccept
	// KindCommit records a slot learned committed. Commits are recoverable
	// from the cluster (phase-1 re-reads a quorum), so they may be synced
	// lazily.
	KindCommit
	// KindCommitRef records a slot learned committed with the very batch
	// the journal's latest accept record for (Slot, Ballot) holds — the
	// common case, so the batch is not written twice. Cmds is unused. Only
	// the log that journaled the accept can resolve it (rlog.Log.Redo).
	KindCommitRef
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindPromise:
		return "promise"
	case KindAccept:
		return "accept"
	case KindCommit:
		return "commit"
	case KindCommitRef:
		return "commit-ref"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Record is one journal entry. Slot and Cmds are unused for KindPromise,
// Cmds for KindCommitRef.
type Record struct {
	Kind   Kind
	Ballot ids.Ballot
	Slot   uint64
	Cmds   []kvstore.Command
}

// Snapshot is a state-machine checkpoint. Floor is the first slot NOT
// covered: log replay resumes there. Data is an opaque blob owned by the
// protocol layer (see paxos snapshot encoding).
type Snapshot struct {
	Floor uint64
	Data  []byte
}

// Storage is the durability interface a replica journals through. Every
// method belongs to the replica's event loop — the one goroutine that owns
// the storage — and none may be called from anywhere else; what a storage
// does on a goroutine of its own (FileStorage's write and fsync) it
// synchronizes itself.
//
// Append buffers a record; nothing is durable until a flush covers it. There
// are two ways to flush:
//
//   - StartFlush/FinishFlush is the pipeline the replica runs on: StartFlush
//     begins making every record appended so far durable and returns at once
//     (started is false when nothing was pending). At most one flush is in
//     flight; records appended meanwhile ride the next one. A storage that
//     does real I/O flushes on its own goroutine and calls wake from there
//     when the flush is over (async true); wake must only post to the event
//     loop, e.g. node.Context.After(0, …). A simulated storage has nothing to
//     run: async is false and the caller ends the flush SyncCost() later. On
//     the loop again, FinishFlush ends the flight: it waits for it if it is
//     somehow still running, makes its records count as durable and returns
//     the storage's first flush error, which stays set — a failed flush is
//     fatal, acknowledging its records would forge durability.
//   - Sync is "flush and wait", for shutdown, Close and tests: it lands the
//     flight in progress, then writes and fsyncs every buffered append and
//     the saved snapshot on the calling goroutine, returning whether an
//     actual sync was performed (false when nothing was pending).
//
// SaveSnapshot hands a snapshot to the pipeline and takes ownership of
// snap.Data: the caller must not modify it afterwards. It is a disk job of
// the next flush, which saves it after that flush's records (a flush with
// nothing else to do is started for it all the same), and it replaces a
// snapshot no flush has taken yet. Snapshot returns the newest one a
// finished flush saved; until then a crash keeps the one before.
//
// CompactTo drops whole segments whose records all concern slots below
// floor. The snapshot blob is what carries the promise ballot across the
// discarded segments, so the storage never drops a segment below the floor
// of the snapshot Snapshot returns: the owner compacts once its snapshot has
// landed, and a floor above that one is capped.
type Storage interface {
	Append(rec Record) error
	StartFlush(wake func()) (started, async bool)
	FinishFlush() error
	Sync() (bool, error)
	SyncCost() time.Duration
	SaveSnapshot(snap Snapshot) error
	Snapshot() (Snapshot, bool)
	CompactTo(floor uint64) int
	Replay(fn func(rec Record) error) error
	Close() error
}

// ErrCorrupt marks an unrecoverable journal: a framing or checksum
// violation anywhere but the final segment's tail.
var ErrCorrupt = errors.New("wal: corrupt journal")

const (
	frameHdr = 8 // u32 length + u32 crc
	// maxFrame bounds a frame's payload; anything larger is a corrupted
	// length field, not a real record (the largest legal record is a
	// uint16-counted command batch).
	maxFrame = 1 << 26
	// DefaultSegBytes is the segment roll threshold: a segment is sealed
	// once it grows past this after a sync.
	DefaultSegBytes = 64 << 10
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// frameEncoder appends framed records using pointer-boxed scratch messages,
// so the hot append path performs no interface-boxing allocation (the PR 2
// codec discipline: a pointer converted to wire.Msg does not escape).
type frameEncoder struct {
	p1a wire.P1a
	p2a wire.P2a
	p3  wire.P3
	p2b wire.P2b
}

// appendFrame encodes rec as one frame onto dst and returns the extended
// buffer. Allocation-free once dst has capacity.
func (f *frameEncoder) appendFrame(dst []byte, rec Record) []byte {
	var m wire.Msg
	switch rec.Kind {
	case KindPromise:
		f.p1a = wire.P1a{Ballot: rec.Ballot}
		m = &f.p1a
	case KindAccept:
		f.p2a = wire.P2a{Ballot: rec.Ballot, Slot: rec.Slot, Cmds: rec.Cmds}
		m = &f.p2a
	case KindCommit:
		f.p3 = wire.P3{Ballot: rec.Ballot, Slot: rec.Slot, Cmds: rec.Cmds}
		m = &f.p3
	case KindCommitRef:
		f.p2b = wire.P2b{Ballot: rec.Ballot, Slot: rec.Slot}
		m = &f.p2b
	default:
		panic(fmt.Sprintf("wal: cannot journal %v record", rec.Kind))
	}
	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = wire.Encode(dst, m)
	payload := dst[hdr+frameHdr:]
	binary.LittleEndian.PutUint32(dst[hdr:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[hdr+4:], crc32.Checksum(payload, crcTable))
	return dst
}

// decodeRecord maps a wire message payload back to its Record.
func decodeRecord(payload []byte) (Record, error) {
	m, n, err := wire.Decode(payload)
	if err != nil {
		return Record{}, err
	}
	if n != len(payload) {
		return Record{}, fmt.Errorf("frame carries %d trailing bytes", len(payload)-n)
	}
	switch v := m.(type) {
	case wire.P1a:
		return Record{Kind: KindPromise, Ballot: v.Ballot}, nil
	case wire.P2a:
		return Record{Kind: KindAccept, Ballot: v.Ballot, Slot: v.Slot, Cmds: v.Cmds}, nil
	case wire.P3:
		return Record{Kind: KindCommit, Ballot: v.Ballot, Slot: v.Slot, Cmds: v.Cmds}, nil
	case wire.P2b:
		return Record{Kind: KindCommitRef, Ballot: v.Ballot, Slot: v.Slot}, nil
	default:
		return Record{}, fmt.Errorf("unexpected %v payload in journal", m.Type())
	}
}

// parseFrames walks the frames in one segment, invoking fn for each decoded
// record with the frame's total length. final marks the journal's last
// segment, where a partial or checksum-failing trailing region is a torn
// tail: parseFrames stops there and returns the valid prefix length so the
// caller can truncate. The same condition in a non-final segment — and any
// decodable-but-malformed payload anywhere — returns ErrCorrupt.
func parseFrames(data []byte, final bool, fn func(rec Record, frameLen int) error) (valid int, err error) {
	off := 0
	for off < len(data) {
		rem := data[off:]
		torn := func(what string) (int, error) {
			if final {
				return off, nil
			}
			return off, fmt.Errorf("%w: %s at offset %d of non-final segment", ErrCorrupt, what, off)
		}
		if len(rem) < frameHdr {
			return torn("truncated frame header")
		}
		plen := int(binary.LittleEndian.Uint32(rem))
		if plen == 0 || plen > maxFrame {
			return torn(fmt.Sprintf("implausible frame length %d", plen))
		}
		if len(rem) < frameHdr+plen {
			return torn("truncated frame payload")
		}
		payload := rem[frameHdr : frameHdr+plen]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(rem[4:]) {
			return torn("checksum mismatch")
		}
		rec, derr := decodeRecord(payload)
		if derr != nil {
			// The checksum matched, so these bytes were written whole: a
			// payload the codec rejects is corruption, not a torn write.
			return off, fmt.Errorf("%w: %v at offset %d", ErrCorrupt, derr, off)
		}
		if fn != nil {
			if ferr := fn(rec, frameHdr+plen); ferr != nil {
				return off, ferr
			}
		}
		off += frameHdr + plen
	}
	return off, nil
}
