package paxos

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// snapVersion tags the snapshot blob layout. Bump on incompatible change.
const snapVersion = 1

// encodeSnapshot serializes everything a replica must recover besides the
// log itself: the promise ballot (compaction may discard journaled promise
// records once a snapshot holds the ballot), the state machine, and the
// at-most-once session table. The layout is deterministic (sorted keys), so
// replicas with equal state produce equal blobs.
func (r *Replica) encodeSnapshot() []byte {
	b := make([]byte, 0, 512)
	b = append(b, snapVersion)
	b = binary.LittleEndian.AppendUint64(b, uint64(r.ballot))
	b = r.store.Serialize(b)
	cids := make([]uint64, 0, len(r.sessions))
	for id := range r.sessions {
		cids = append(cids, id)
	}
	sort.Slice(cids, func(i, j int) bool { return cids[i] < cids[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(cids)))
	for _, id := range cids {
		s := r.sessions[id]
		b = binary.LittleEndian.AppendUint64(b, id)
		b = binary.LittleEndian.AppendUint64(b, s.lastSeq)
		reply := wire.Encode(nil, s.lastReply)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(reply)))
		b = append(b, reply...)
	}
	return b
}

// restoreSnapshot replaces the store's contents and the session table with
// a blob produced by encodeSnapshot and returns the ballot recorded in it. The
// blob may come from a peer: nothing is installed until all of it has parsed
// (the store section parses into a scratch store — Store() has handed the
// real one out — and the blob parsing that far is no licence to keep it), and
// no count in it sizes an allocation before it is checked against the bytes
// that remain. pendingSeq is deliberately not persisted: it marks an in-flight
// proposal, and nothing is in flight on a freshly restored replica.
func (r *Replica) restoreSnapshot(data []byte) (ids.Ballot, error) {
	off := 0
	fail := func(what string) (ids.Ballot, error) {
		return 0, fmt.Errorf("paxos: snapshot %s at offset %d", what, off)
	}
	if len(data) < 1+8 {
		return fail("truncated header")
	}
	if data[0] != snapVersion {
		return 0, fmt.Errorf("paxos: snapshot version %d, want %d", data[0], snapVersion)
	}
	off = 1
	ballot := ids.Ballot(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	store := kvstore.New()
	n, err := store.Restore(data[off:])
	if err != nil {
		return 0, err
	}
	off += n
	if off+4 > len(data) {
		return fail("truncated session count")
	}
	nSess := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	if nSess > (len(data)-off)/20 {
		return fail("session count beyond the blob")
	}
	sessions := make(map[uint64]*session, nSess)
	for i := 0; i < nSess; i++ {
		if off+20 > len(data) {
			return fail("truncated session")
		}
		id := binary.LittleEndian.Uint64(data[off:])
		lastSeq := binary.LittleEndian.Uint64(data[off+8:])
		replyLen := int(binary.LittleEndian.Uint32(data[off+16:]))
		off += 20
		if replyLen > len(data)-off {
			return fail("truncated session reply")
		}
		m, consumed, err := wire.Decode(data[off : off+replyLen])
		if err != nil {
			return 0, err
		}
		reply, ok := m.(wire.Reply)
		if !ok || consumed != replyLen {
			return fail("malformed session reply")
		}
		off += replyLen
		sessions[id] = &session{lastSeq: lastSeq, lastReply: reply}
	}
	if off != len(data) {
		return fail("trailing bytes")
	}
	r.store.Adopt(store)
	r.sessions = sessions
	return ballot, nil
}
