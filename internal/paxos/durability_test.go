package paxos

import (
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// The ordering tests drive one durable replica on a nodetest.Loop whose Disk
// holds every flush until the test completes it, so "left before its flush
// was over" is a position in one ordered record of sends and journal calls.

func durableReplica(id ids.ID, cc config.Cluster) (*Replica, *nodetest.Loop, *nodetest.Disk) {
	loop := nodetest.NewLoop(id)
	disk := loop.NewDisk()
	disk.Held = true
	r := New(loop, Config{Cluster: cc, ID: id, InitialLeader: cc.Nodes[0], Storage: disk, MaxPending: -1}, nil)
	return r, loop, disk
}

func put(client, seq uint64) kvstore.Command {
	return kvstore.Command{Op: kvstore.Put, Key: client, Value: []byte("v"), ClientID: client, Seq: seq}
}

// index returns the position of the first event match accepts, or -1.
func index(loop *nodetest.Loop, match func(nodetest.Event) bool) int {
	for i, e := range loop.Events {
		if match(e) {
			return i
		}
	}
	return -1
}

func TestP2bWaitsForItsFlushAndRidesTheNext(t *testing.T) {
	cc := config.NewLAN(3)
	leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
	r, loop, disk := durableReplica(cc.Nodes[1], cc)

	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 1, Cmds: []kvstore.Command{put(1, 1)}})
	if !disk.Flying() {
		t.Fatal("accepting a proposal started no flush")
	}
	// A second accept while the first flush is in flight starts no second
	// flush: it rides the next one.
	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 2, Cmds: []kvstore.Command{put(2, 1)}})
	if n := len(nodetest.SentOf[wire.P2b](loop)); n != 0 {
		t.Fatalf("%d votes left before any flush was over", n)
	}
	if got := r.Stats().WALSyncs; got != 1 {
		t.Fatalf("%d flushes started with one in flight, want 1", got)
	}

	disk.Complete()
	votes := nodetest.SentOf[wire.P2b](loop)
	if len(votes) != 1 || votes[0].Slot != 1 || votes[0].Ballot != b {
		t.Fatalf("after the first flush: votes %+v, want slot 1 alone", votes)
	}
	if !disk.Flying() || r.Stats().WALSyncs != 2 {
		t.Fatal("the vote parked during the flight did not get the next flush")
	}
	disk.Complete()
	if votes = nodetest.SentOf[wire.P2b](loop); len(votes) != 2 || votes[1].Slot != 2 {
		t.Fatalf("after the second flush: votes %+v", votes)
	}
	if disk.Flying() {
		t.Fatal("a flush started with nothing journaled and nobody waiting")
	}
	// The whole order for slot 2: its record is appended during the first
	// flight, so only the second flush — started after the first finished —
	// covers it, and the vote leaves after that one finished.
	appended := index(loop, func(e nodetest.Event) bool { return e.Kind == "append" && e.Rec.Slot == 2 })
	vote2 := index(loop, func(e nodetest.Event) bool { m, ok := e.Msg.(wire.P2b); return ok && m.Slot == 2 })
	var starts, finishes []int
	for i, e := range loop.Events {
		switch e.Kind {
		case "start-flush":
			starts = append(starts, i)
		case "finish-flush":
			finishes = append(finishes, i)
		}
	}
	if len(starts) != 2 || len(finishes) < 2 ||
		!(starts[0] < appended && appended < finishes[0] && finishes[0] < starts[1] && starts[1] < finishes[1] && finishes[1] < vote2) {
		t.Fatalf("append %d, flush starts %v, finishes %v, vote %d", appended, starts, finishes, vote2)
	}
}

func TestVoteReleasedAfterNewerPromiseKeepsItsBallot(t *testing.T) {
	cc := config.NewLAN(3)
	b1, b2 := ids.NewBallot(1, cc.Nodes[0]), ids.NewBallot(2, cc.Nodes[2])
	r, loop, disk := durableReplica(cc.Nodes[1], cc)
	r.OnMessage(cc.Nodes[0], wire.P2a{Ballot: b1, Slot: 1, Cmds: []kvstore.Command{put(1, 1)}})
	r.OnMessage(cc.Nodes[2], wire.P1a{Ballot: b2, From: 1})
	disk.Complete() // the accept's flush
	disk.Complete() // the promise's
	votes, promises := nodetest.SentOf[wire.P2b](loop), nodetest.SentOf[wire.P1b](loop)
	if len(votes) != 1 || votes[0].Ballot != b1 {
		t.Fatalf("votes %+v: want the accept under %v reported as such", votes, b1)
	}
	// The promise reports the accept: it happened first.
	if len(promises) != 1 || promises[0].Ballot != b2 || len(promises[0].Entries) != 1 || promises[0].Entries[0].Ballot != b1 {
		t.Fatalf("promises %+v", promises)
	}
}

func TestP1bWaitsForItsFlush(t *testing.T) {
	cc := config.NewLAN(3)
	bid := ids.NewBallot(3, cc.Nodes[2])
	r, loop, disk := durableReplica(cc.Nodes[1], cc)
	r.OnMessage(cc.Nodes[2], wire.P1a{Ballot: bid, From: 1})
	if r.Ballot() != bid {
		t.Fatal("the bid's ballot is adopted at once")
	}
	if n := len(nodetest.SentOf[wire.P1b](loop)); n != 0 || !disk.Flying() {
		t.Fatalf("%d promises left with the promise record's flush in flight=%v", n, disk.Flying())
	}
	disk.Complete()
	if p := nodetest.SentOf[wire.P1b](loop); len(p) != 1 || p[0].Ballot != bid {
		t.Fatalf("promises after the flush: %+v", p)
	}
	// The same bid again: the ballot is journaled, nothing to wait for.
	r.OnMessage(cc.Nodes[2], wire.P1a{Ballot: bid, From: 1})
	if n := len(nodetest.SentOf[wire.P1b](loop)); n != 2 || disk.Flying() {
		t.Fatalf("repeat bid: %d promises, flush in flight=%v", n, disk.Flying())
	}
}

// elect makes r, node 1 of cc, the leader: its bid goes out at once, its own
// promise must be durable before it wins.
func elect(t *testing.T, r *Replica, loop *nodetest.Loop, disk *nodetest.Disk, cc config.Cluster) {
	t.Helper()
	r.Start()
	if bids := nodetest.SentOf[wire.P1a](loop); len(bids) != len(cc.Nodes)-1 {
		t.Fatalf("%d bids left before the self-promise flush, want %d", len(bids), len(cc.Nodes)-1)
	}
	for _, id := range cc.Nodes[1:] {
		r.OnMessage(id, wire.P1b{Ballot: r.Ballot(), From: id, Floor: 1})
	}
	if r.IsLeader() {
		t.Fatal("won on others' promises with its own not durable")
	}
	disk.Complete()
	if !r.IsLeader() {
		t.Fatal("not elected once the self-promise was durable")
	}
}

func TestSelfVoteWaitsForItsFlush(t *testing.T) {
	cc := config.NewLAN(3)
	r, loop, disk := durableReplica(cc.Nodes[0], cc)
	elect(t, r, loop, disk, cc)

	r.OnMessage(ids.NewID(9, 1), wire.Request{Cmd: put(1, 1)})
	if p2a := nodetest.SentOf[wire.P2a](loop); len(p2a) != 2 {
		t.Fatalf("%d P2a left at once, want the fan-out of 2", len(p2a))
	}
	if !disk.Flying() {
		t.Fatal("proposing started no flush")
	}
	// One follower's vote plus an undurable self-vote is no quorum of 2.
	r.OnMessage(cc.Nodes[1], wire.P2b{Ballot: r.Ballot(), From: cc.Nodes[1], Slot: 1})
	if r.Stats().Commits != 0 {
		t.Fatal("committed on a self-vote whose accept was not durable")
	}
	disk.Complete()
	if r.Stats().Commits != 1 {
		t.Fatal("self-vote not counted once durable")
	}
	if replies := nodetest.SentOf[wire.Reply](loop); len(replies) != 1 || !replies[0].OK {
		t.Fatalf("replies %+v", replies)
	}
}

func TestFollowersAloneCommitWhileTheLeadersDiskIsBusy(t *testing.T) {
	cc := config.NewLAN(3)
	r, loop, disk := durableReplica(cc.Nodes[0], cc)
	elect(t, r, loop, disk, cc)
	r.OnMessage(ids.NewID(9, 1), wire.Request{Cmd: put(1, 1)})
	for _, id := range cc.Nodes[1:] {
		r.OnMessage(id, wire.P2b{Ballot: r.Ballot(), From: id, Slot: 1})
	}
	if r.Stats().Commits != 1 || len(nodetest.SentOf[wire.Reply](loop)) != 1 {
		t.Fatal("a quorum of followers did not commit without the leader's own vote")
	}
	disk.Complete() // the late self-vote finds the tally closed
	if r.Stats().Commits != 1 {
		t.Fatalf("%d commits", r.Stats().Commits)
	}
}

func TestStepDownDiscardsParkedSelfVotes(t *testing.T) {
	cc := config.NewLAN(3)
	r, loop, disk := durableReplica(cc.Nodes[0], cc)
	elect(t, r, loop, disk, cc)
	r.OnMessage(ids.NewID(9, 1), wire.Request{Cmd: put(1, 1)})
	r.OnMessage(cc.Nodes[1], wire.P2b{Ballot: r.Ballot(), From: cc.Nodes[1], Slot: 1})
	// Deposed with the self-vote parked: a higher ballot's heartbeat.
	r.OnMessage(cc.Nodes[2], wire.Heartbeat{Ballot: ids.NewBallot(5, cc.Nodes[2]), From: cc.Nodes[2]})
	if r.IsLeader() {
		t.Fatal("still leading under a higher ballot")
	}
	disk.Complete()
	if r.Stats().Commits != 0 {
		t.Fatal("a parked self-vote committed a slot after its leader stepped down")
	}
}

// A replica whose modelled flush completion was dropped (the simulator drops
// timers that come due on a crashed node) must not wedge: the next vote that
// parks finds the flush overdue and lands it.
func TestLostFlushCompletionIsLandedByTheNextVote(t *testing.T) {
	cc := config.NewLAN(3)
	leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
	loop := nodetest.NewLoop(cc.Nodes[1])
	disk := loop.NewDisk() // not held: a modelled flush, timed by the replica
	disk.SetSyncCost(400 * time.Microsecond)
	r := New(loop, Config{Cluster: cc, ID: cc.Nodes[1], InitialLeader: leader, Storage: disk}, nil)

	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 1, Cmds: []kvstore.Command{put(1, 1)}})
	loop.Advance(399 * time.Microsecond)
	if n := len(nodetest.SentOf[wire.P2b](loop)); n != 0 {
		t.Fatalf("%d votes left 1µs before the flush was over", n)
	}
	loop.Advance(time.Microsecond)
	if n := len(nodetest.SentOf[wire.P2b](loop)); n != 1 {
		t.Fatalf("%d votes after the modelled flush, want 1", n)
	}

	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 2, Cmds: []kvstore.Command{put(2, 1)}})
	loop.DropTimers()
	loop.Advance(10 * time.Millisecond)
	if n := len(nodetest.SentOf[wire.P2b](loop)); n != 1 {
		t.Fatalf("%d votes with the completion lost, want still 1", n)
	}
	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 3, Cmds: []kvstore.Command{put(3, 1)}})
	if votes := nodetest.SentOf[wire.P2b](loop); len(votes) != 2 || votes[1].Slot != 2 {
		t.Fatalf("votes %+v: want slot 2 released by the vote that parked after it", votes)
	}
	loop.Advance(400 * time.Microsecond)
	if votes := nodetest.SentOf[wire.P2b](loop); len(votes) != 3 || votes[2].Slot != 3 {
		t.Fatalf("votes %+v", votes)
	}
}

func TestFlushErrorIsFatalOnTheLoop(t *testing.T) {
	cc := config.NewLAN(3)
	r, _, disk := durableReplica(cc.Nodes[1], cc)
	r.OnMessage(cc.Nodes[0], wire.P2a{Ballot: ids.NewBallot(1, cc.Nodes[0]), Slot: 1, Cmds: []kvstore.Command{put(1, 1)}})
	disk.Fail = errors.New("disk on fire")
	defer func() {
		if p := recover(); p == nil || !strings.Contains(p.(string), "disk on fire") {
			t.Fatalf("a failed flush must stop the replica, got %v", p)
		}
	}()
	disk.Complete()
}

func TestFlushJournalReleasesEveryParkedVote(t *testing.T) {
	cc := config.NewLAN(3)
	leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
	r, loop, _ := durableReplica(cc.Nodes[1], cc)
	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 1, Cmds: []kvstore.Command{put(1, 1)}}) // in flight
	r.OnMessage(leader, wire.P2a{Ballot: b, Slot: 2, Cmds: []kvstore.Command{put(2, 1)}}) // waiting for the next
	if err := r.FlushJournal(); err != nil {
		t.Fatal(err)
	}
	if votes := nodetest.SentOf[wire.P2b](loop); len(votes) != 2 {
		t.Fatalf("votes after flush-and-wait: %+v", votes)
	}
	var recs []wal.Record
	r.st.Replay(func(rec wal.Record) error { recs = append(recs, rec); return nil })
	if len(recs) != 2 {
		t.Fatalf("%d durable records, want both accepts", len(recs))
	}
}

// heldStorage hands each flush to the storage it wraps but tells the replica
// the flush is over only when the test calls complete, so a test decides
// what is in flight when the replica crashes.
type heldStorage struct {
	wal.Storage
	loop *nodetest.Loop
	wake func()
}

func (h *heldStorage) StartFlush(wake func()) (started, async bool) {
	if started, _ = h.Storage.StartFlush(func() {}); started {
		h.wake = wake
	}
	return started, true
}

func (h *heldStorage) complete() {
	wake := h.wake
	h.wake = nil
	wake()
	h.loop.Run()
}

// A follower crashes with a snapshot captured but not landed: it was taken
// while a flush was in flight and waits for the next one. Nothing below its
// floor may be compacted yet, so the reboot rebuilds from the snapshot
// before it plus the journal tail, on either disk.
func TestCrashMidSnapshot(t *testing.T) {
	disks := []struct {
		name string
		// open returns a fresh storage and what a power cut leaves of it.
		open func(t *testing.T) (wal.Storage, func() wal.Storage)
	}{
		{"memory", func(t *testing.T) (wal.Storage, func() wal.Storage) {
			m := wal.NewMem()
			return m, func() wal.Storage { m.Crash(); return m }
		}},
		{"directory", func(t *testing.T) (wal.Storage, func() wal.Storage) {
			dir := t.TempDir()
			fs, err := wal.OpenFile(dir)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			return fs, func() wal.Storage {
				// The flight in progress reaches the disk (the syncer has it);
				// what the journal holds beyond it does not.
				if err := fs.FinishFlush(); err != nil {
					t.Fatal(err)
				}
				image := t.TempDir()
				if err := os.CopyFS(image, os.DirFS(dir)); err != nil {
					t.Fatal(err)
				}
				st, err := wal.OpenFile(image)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { st.Close() })
				return st
			}
		}},
	}
	for _, d := range disks {
		t.Run(d.name, func(t *testing.T) {
			cc := config.NewLAN(3)
			leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
			st, crash := d.open(t)
			st.(interface{ SetSegBytes(int) }).SetSegBytes(1) // every flush seals a segment
			loop := nodetest.NewLoop(cc.Nodes[1])
			h := &heldStorage{Storage: st, loop: loop}
			cfg := Config{Cluster: cc, ID: cc.Nodes[1], InitialLeader: leader, Storage: h, SnapshotEvery: 4, MaxPending: -1}
			r := New(loop, cfg, nil)
			p2a := func(slot, commit uint64) {
				r.OnMessage(leader, wire.P2a{Ballot: b, Slot: slot, Cmds: []kvstore.Command{put(slot, 1)}, Commit: commit})
			}
			// Slots 1..8, each committed by the next: executing 1..4 takes
			// the snapshot at floor 5, which lands and compacts.
			for s := uint64(1); s <= 8; s++ {
				p2a(s, s)
				h.complete()
			}
			if snap, ok := st.Snapshot(); !ok || snap.Floor != 5 {
				t.Fatalf("snapshot at floor %d, %v; want the one at floor 5 landed", snap.Floor, ok)
			}
			// Slot 9's accept is in flight when the heartbeat commits slot 8:
			// the snapshot at floor 9 is captured and waits behind it.
			p2a(9, 8)
			r.OnMessage(leader, wire.Heartbeat{Ballot: b, From: leader, Commit: 9})
			if got := r.Stats().Snapshots; got != 2 || r.Log().ExecuteCursor() != 9 {
				t.Fatalf("%d snapshots captured, cursor %d; want 2 and 9", got, r.Log().ExecuteCursor())
			}

			st = crash()
			if snap, ok := st.Snapshot(); !ok || snap.Floor != 5 {
				t.Fatalf("after the crash: snapshot at floor %d, %v; want the one at floor 5", snap.Floor, ok)
			}
			accepted := map[uint64]bool{}
			st.Replay(func(rec wal.Record) error {
				accepted[rec.Slot] = accepted[rec.Slot] || rec.Kind == wal.KindAccept
				return nil
			})
			for s := uint64(5); s <= 8; s++ {
				if !accepted[s] {
					t.Errorf("slot %d's accept was compacted away below a snapshot that never landed", s)
				}
			}
			// Slot 8's commit went down with the buffer: the reboot executes
			// 5..7 above the snapshot and learns 8 again from the leader.
			again := New(nodetest.NewLoop(cc.Nodes[1]), Config{Cluster: cc, ID: cc.Nodes[1], InitialLeader: leader, Storage: st}, nil)
			if again.Stats().SnapRestores != 1 || again.Log().ExecuteCursor() != 8 {
				t.Fatalf("reboot: %d snapshot restores, cursor %d; want 1 and 8",
					again.Stats().SnapRestores, again.Log().ExecuteCursor())
			}
			for k := uint64(1); k <= 8; k++ {
				if _, ok := again.Store().Get(k); ok != (k <= 7) {
					t.Errorf("reboot: key %d present %v", k, ok)
				}
			}
		})
	}
}
