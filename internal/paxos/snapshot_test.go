package paxos

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/sessions"
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
	v, cached := victim.sessions.Admit(21, 9)
	if v != sessions.Executed || cached == nil || cached.Seq != 9 {
		t.Fatalf("source's client 21 seq 9 after install: %v %+v", v, cached)
	}
	if v, _ := victim.sessions.Admit(42, 1); v != sessions.Fresh {
		t.Fatalf("victim's own client 42 seq 1 after install: %v, want Fresh", v)
	}
}

// v1Snapshot is r's snapshot in the version-1 layout, which kept each
// client's newest executed seq and its reply and nothing else.
func v1Snapshot(r *Replica, client, newest uint64) []byte {
	b := binary.LittleEndian.AppendUint64([]byte{1}, uint64(r.ballot))
	b = r.store.Serialize(b)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, client)
	b = binary.LittleEndian.AppendUint64(b, newest)
	_, cached := r.sessions.Admit(client, newest)
	reply := wire.Encode(nil, *cached)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(reply)))
	return append(b, reply...)
}

// TestRestoreV1Snapshot: a version-1 blob — a journal's checkpoint, or a
// peer's SnapInstall — still restores, every seq at or below a client's
// newest counting as executed, and it re-encodes as the version-2 blob of
// the replica that wrote it.
func TestRestoreV1Snapshot(t *testing.T) {
	source, _ := snapFollower(9, 21)
	victim, _ := snapFollower(3, 42)
	if _, err := victim.restoreSnapshot(v1Snapshot(source, 21, 9)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(victim.encodeSnapshot(), source.encodeSnapshot()) {
		t.Fatal("the restored version-1 snapshot re-encodes differently from its source")
	}
	for seq, want := range map[uint64]sessions.Verdict{1: sessions.Executed, 9: sessions.Executed, 10: sessions.Fresh} {
		if v, _ := victim.sessions.Admit(21, seq); v != want {
			t.Errorf("client 21 seq %d: %v, want %v", seq, v, want)
		}
	}
}

// FuzzRestoreSnapshot: whatever the bytes, restoreSnapshot does not panic,
// does not allocate by a count it has not checked, and either installs the
// blob or leaves the replica alone.
func FuzzRestoreSnapshot(f *testing.F) {
	source, _ := snapFollower(9, 21)
	good := source.encodeSnapshot()
	f.Add(good)
	f.Add(v1Snapshot(source, 21, 9))
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

// loadedFollower is a volatile follower that has executed one Put per key
// for keys 1..keys, spread over clients sessions.
func loadedFollower(keys, clients int) *Replica {
	cc := config.NewLAN(3)
	leader := cc.Nodes[0]
	b := ids.NewBallot(1, leader)
	r := New(nodetest.New(cc.Nodes[1]), Config{Cluster: cc, ID: cc.Nodes[1], InitialLeader: leader}, nil)
	r.Start()
	for s := uint64(1); s <= uint64(keys); s++ {
		client := 1 + s%uint64(clients)
		cmds := []kvstore.Command{{Op: kvstore.Put, Key: s, Value: []byte("value-01"), ClientID: client, Seq: 1 + s/uint64(clients)}}
		r.OnMessage(leader, wire.P2a{Ballot: b, Slot: s, Cmds: cmds, Commit: s})
	}
	r.OnMessage(leader, wire.Heartbeat{Ballot: b, From: leader, Commit: uint64(keys) + 1})
	return r
}

// BenchmarkEncodeSnapshot is the capture a snapshot costs the event loop:
// 1,000 keys and 16 sessions, with a key first written before each capture
// (merged into the kept order; the Put is timed too, a sliver of the
// capture, and the store grows by a key a round) and with none.
func BenchmarkEncodeSnapshot(b *testing.B) {
	for _, newKeys := range []int{0, 1} {
		b.Run(fmt.Sprintf("new=%d", newKeys), func(b *testing.B) {
			r := loadedFollower(1000, 16)
			r.encodeSnapshot()
			key := uint64(1 << 20)
			b.ReportAllocs()
			for b.Loop() {
				for range newKeys {
					key++
					r.store.Apply(kvstore.Command{Op: kvstore.Put, Key: key, Value: []byte("v")})
				}
				r.encodeSnapshot()
			}
		})
	}
}

// TestSnapshotEncodeAllocs pins the capture at two allocations in the
// steady state — the blob and the session table's sorted IDs — whether or
// not a key was first written since the last one.
func TestSnapshotEncodeAllocs(t *testing.T) {
	r := loadedFollower(1000, 16)
	if b := r.encodeSnapshot(); len(b) != cap(b) {
		t.Fatalf("a %d-byte snapshot in a buffer of %d: the size was not exact", len(b), cap(b))
	}
	// Counted as testing.AllocsPerRun counts, which cannot leave the write
	// of a new key out of the count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const rounds = 100
	var before, after runtime.MemStats
	for _, newKeys := range []int{0, 1} {
		var allocs uint64
		for i := range rounds {
			for range newKeys {
				r.store.Apply(kvstore.Command{Op: kvstore.Put, Key: uint64(1<<20 + i), Value: []byte("v")})
			}
			runtime.ReadMemStats(&before)
			r.encodeSnapshot()
			runtime.ReadMemStats(&after)
			allocs += after.Mallocs - before.Mallocs
		}
		if got := allocs / rounds; got > 2 {
			t.Errorf("%d new keys per capture: %d allocations per capture, want at most 2", newKeys, got)
		}
	}
}
