package paxos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wire"
)

// snapFollower is a volatile follower on a null context that has executed
// slots 1..n of leader 1.1's first ballot, each a Put by client `client`.
func snapFollower(n int, client uint64) (*Replica, ids.Ballot) {
	cc := config.NewLAN(3)
	leader := cc.Nodes[0]
	b := ids.NewBallot(1, leader)
	r := New(nodetest.New(cc.Nodes[1]), Config{Cluster: cc, ID: cc.Nodes[1], InitialLeader: leader}, nil)
	r.Start()
	for s := uint64(1); s <= uint64(n); s++ {
		cmds := []kvstore.Command{{Op: kvstore.Put, Key: s, Value: []byte{byte(s), 7}, ClientID: client, Seq: s}}
		r.OnMessage(leader, wire.P2a{Ballot: b, Slot: s, Cmds: cmds, Commit: s})
	}
	r.OnMessage(leader, wire.Heartbeat{Ballot: b, From: leader, Commit: uint64(n) + 1})
	return r, b
}

type hostileSnapshot struct {
	name string
	data []byte
}

// hostileSnapshots is what a peer must not be able to hurt a replica with,
// cut from a real snapshot: every truncation, a count of four billion in
// each of the three places a count is read, bytes past the end, and a
// version this build does not read.
func hostileSnapshots(good []byte) []hostileSnapshot {
	var out []hostileSnapshot
	for n := 0; n < len(good); n++ {
		out = append(out, hostileSnapshot{fmt.Sprintf("truncated at %d", n), good[:n]})
	}
	huge := func(off int) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFFF)
		return b
	}
	// Header 1+8, then the store: applied (8), cell count, cells of 16
	// bytes, live count, values; then the session count.
	cells := 1 + 8 + 8
	nCells := int(binary.LittleEndian.Uint32(good[cells:]))
	live := cells + 4 + 16*nCells
	storeLen, _ := kvstore.New().Restore(good[1+8:])
	wrong := bytes.Clone(good)
	wrong[0] = snapVersion + 1
	return append(out,
		hostileSnapshot{"four billion cells", huge(cells)},
		hostileSnapshot{"four billion values", huge(live)},
		hostileSnapshot{"four billion sessions", huge(1 + 8 + storeLen)},
		hostileSnapshot{"trailing bytes", append(bytes.Clone(good), 0, 0, 0)},
		hostileSnapshot{"wrong version", wrong})
}

// TestMalformedSnapInstallDropped: a SnapInstall whose blob does not parse —
// wherever it stops parsing — is counted and dropped, and the replica is the
// replica it was: same store, same sessions, same ballot, same cursor. The
// blob's store section parsing fine is no licence to install it.
func TestMalformedSnapInstallDropped(t *testing.T) {
	source, _ := snapFollower(9, 21)
	good := source.encodeSnapshot()
	floor := source.Log().ExecuteCursor()

	victim, b := snapFollower(3, 42)
	before := victim.encodeSnapshot() // ballot, store and session table, canonically
	cursor := victim.Log().ExecuteCursor()
	newer := ids.NewBallot(2, ids.NewID(1, 3))
	rejects := uint64(0)
	for _, h := range hostileSnapshots(good) {
		name := h.name
		victim.OnMessage(newer.ID(), wire.SnapInstall{Ballot: newer, Floor: floor, Data: h.data})
		rejects++
		if got := victim.Stats().SnapRejects; got != rejects {
			t.Fatalf("%s: SnapRejects = %d, want %d", name, got, rejects)
		}
		if !bytes.Equal(victim.encodeSnapshot(), before) || victim.Ballot() != b ||
			victim.Log().ExecuteCursor() != cursor || victim.Stats().SnapRestores != 0 {
			t.Fatalf("%s: the replica changed: ballot %v cursor %d restores %d",
				name, victim.Ballot(), victim.Log().ExecuteCursor(), victim.Stats().SnapRestores)
		}
	}
	if v, ok := victim.Store().Get(3); !ok || !bytes.Equal(v, []byte{3, 7}) {
		t.Fatalf("victim's own key 3 = %v, %v", v, ok)
	}

	// The same snapshot, whole, still installs — into the store the replica
	// has already handed out.
	store := victim.Store()
	victim.OnMessage(newer.ID(), wire.SnapInstall{Ballot: newer, Floor: floor, Data: good})
	if victim.Stats().SnapRestores != 1 || victim.Log().ExecuteCursor() != floor || victim.Ballot() != newer {
		t.Fatalf("good snapshot: restores %d cursor %d ballot %v", victim.Stats().SnapRestores,
			victim.Log().ExecuteCursor(), victim.Ballot())
	}
	if store != victim.Store() || store.Checksum() != source.Store().Checksum() {
		t.Fatal("good snapshot did not land in the replica's store")
	}
	if s := victim.sessions[21]; s == nil || s.lastSeq != 9 || victim.sessions[42] != nil {
		t.Fatalf("session table after install: %+v", victim.sessions)
	}
}

// FuzzRestoreSnapshot: whatever the bytes, restoreSnapshot does not panic,
// does not allocate by a count it has not checked, and either installs the
// blob or leaves the replica alone.
func FuzzRestoreSnapshot(f *testing.F) {
	source, _ := snapFollower(9, 21)
	good := source.encodeSnapshot()
	f.Add(good)
	for _, h := range hostileSnapshots(good) {
		f.Add(h.data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, _ := snapFollower(3, 42)
		before := r.encodeSnapshot()
		if _, err := r.restoreSnapshot(data); err != nil && !bytes.Equal(r.encodeSnapshot(), before) {
			t.Fatalf("rejected (%v) yet the replica changed", err)
		}
	})
}
