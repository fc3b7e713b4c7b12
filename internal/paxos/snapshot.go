package paxos

import (
	"encoding/binary"
	"fmt"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/sessions"
)

// snapVersion tags the snapshot blob layout. Bump on incompatible change.
// Version 1 kept a high-water mark per client where version 2 keeps the
// session table's section; both are read.
const snapVersion = 2

// encodeSnapshot serializes everything a replica must recover besides the
// log itself: the promise ballot (compaction may discard journaled promise
// records once a snapshot holds the ballot), the state machine, and the
// at-most-once session table. The layout is deterministic (sorted keys), so
// replicas with equal state produce equal blobs. The buffer is allocated
// once, at its exact size.
func (r *Replica) encodeSnapshot() []byte {
	b := make([]byte, 0, 1+8+r.store.SerializedSize()+r.sessions.EncodedSize())
	b = append(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.ballot))
	b = r.store.Serialize(b)
	return r.sessions.Encode(b)
}

// restoreSnapshot replaces the store's contents and the session table with
// a blob produced by encodeSnapshot and returns the ballot recorded in it. The
// blob may come from a peer: nothing is installed until all of it has parsed
// (the store section parses into a scratch store — Store() has handed the
// real one out — and the blob parsing that far is no licence to keep it), and
// no count in it sizes an allocation before it is checked against the bytes
// that remain. What the old table held as admitted but not executed goes with
// it: a retry of such a command that is re-admitted into a second slot is
// skipped when that slot executes.
func (r *Replica) restoreSnapshot(data []byte) (ids.Ballot, error) {
	if len(data) < 1+8 {
		return 0, fmt.Errorf("paxos: snapshot truncated header")
	}
	if data[0] != 1 && data[0] != snapVersion {
		return 0, fmt.Errorf("paxos: snapshot version %d, want 1 or %d", data[0], snapVersion)
	}
	ballot := ids.Ballot(binary.LittleEndian.Uint64(data[1:]))
	off := 1 + 8
	store := kvstore.New()
	n, err := store.Restore(data[off:])
	if err != nil {
		return 0, err
	}
	off += n
	table, n, err := sessions.Decode(data[off:], data[0] == 1)
	if err != nil {
		return 0, fmt.Errorf("paxos: snapshot at offset %d: %w", off, err)
	}
	if off += n; off != len(data) {
		return 0, fmt.Errorf("paxos: snapshot trailing bytes at offset %d", off)
	}
	r.store.Adopt(store)
	r.sessions = table
	return ballot, nil
}
