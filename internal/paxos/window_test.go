package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// TestHostileSlotNumbersRefused feeds a follower and the leader every message
// that names a slot, with the slot set to 2^63: nothing may panic, the log
// must not grow to reach it, and the cluster must go on committing.
func TestHostileSlotNumbersRefused(t *testing.T) {
	tc := newCluster(t, 3, nil)
	leaderID, followerID := tc.cfg.Nodes[0], tc.cfg.Nodes[1]
	leader, follower := tc.replicas[leaderID], tc.replicas[followerID]
	put := func(seq uint64) {
		tc.client.send(leaderID, kvstore.Command{Op: kvstore.Put, Key: seq, Value: []byte{1}, ClientID: 9, Seq: seq})
	}
	tc.sim.Schedule(5*time.Millisecond, func() { put(1) })
	tc.sim.Run(20 * time.Millisecond)

	const far = uint64(1) << 63
	cmds := []kvstore.Command{{Op: kvstore.Put, Key: 66, Value: []byte{6}}}
	tc.sim.Schedule(0, func() {
		b := leader.Ballot()
		for _, r := range []*Replica{follower, leader} {
			lenBefore, next := r.Log().Len(), r.Log().PeekNextSlot()
			for _, m := range []wire.Msg{
				wire.P2a{Ballot: b, Slot: far, Cmds: cmds},
				wire.P2a{Ballot: b, Slot: far, Cmds: cmds, Commit: far}, // and a watermark to match
				wire.P3{Ballot: b, Slot: far, Cmds: cmds},
				wire.CatchupReply{Ballot: b, Entries: []wire.SlotEntry{{Slot: far, Ballot: b, Committed: true, Cmds: cmds}}},
				wire.P2b{Ballot: b, From: followerID, Slot: far},
				wire.Heartbeat{Ballot: b, From: leaderID, Commit: far},
			} {
				r.OnMessage(leaderID, m)
			}
			if r.Log().Len() != lenBefore || r.Log().PeekNextSlot() != next || r.Log().Get(far) != nil {
				t.Errorf("%v: log reached for slot 2^63: len %d→%d, next %d→%d", r.ID(),
					lenBefore, r.Log().Len(), next, r.Log().PeekNextSlot())
			}
		}
		put(2)
	})
	tc.sim.Run(tc.sim.Now() + 200*time.Millisecond)
	if len(tc.client.replies) != 2 || !tc.client.replies[1].OK {
		t.Fatalf("cluster stopped committing after the hostile messages: replies %+v", tc.client.replies)
	}
	if _, ok := follower.Store().Get(66); ok {
		t.Error("a refused slot's command reached the state machine")
	}
}

// TestStaleP2aBelowFloor pins the two answers to a P2a for a slot the
// follower has compacted away. From the ballot whose leader already
// announced the slot committed it is an old duplicate: dropped, no vote, no
// snapshot. From a proposer with no such announcement on record — a new
// ballot's leader that really is behind the floor — it is answered with the
// snapshot that brings it forward.
func TestStaleP2aBelowFloor(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.CompactEvery, c.CompactRetain = 4, 2
	})
	leaderID, followerID, laggardID := tc.cfg.Nodes[0], tc.cfg.Nodes[1], tc.cfg.Nodes[2]
	follower := tc.replicas[followerID]
	for i := 1; i <= 12; i++ {
		seq := uint64(i)
		tc.sim.Schedule(time.Duration(5+i)*time.Millisecond, func() {
			tc.client.send(leaderID, kvstore.Command{Op: kvstore.Put, Key: seq, Value: []byte{1}, ClientID: 9, Seq: seq})
		})
	}
	tc.sim.Run(100 * time.Millisecond)
	if follower.Log().FirstSlot() < 3 {
		t.Fatalf("follower floor at %d: compaction never ran", follower.Log().FirstSlot())
	}
	cmds := []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: []byte{1}, ClientID: 9, Seq: 1}}

	tc.sim.Schedule(0, func() {
		sent := tc.net.MessagesSent()
		follower.OnMessage(leaderID, wire.P2a{Ballot: follower.Ballot(), Slot: 1, Cmds: cmds, Commit: 1})
		if got := follower.Stats().SnapSends; got != 0 {
			t.Errorf("old duplicate from the current leader drew %d snapshots", got)
		}
		if tc.net.MessagesSent() != sent {
			t.Errorf("old duplicate was answered with %d messages, want silence", tc.net.MessagesSent()-sent)
		}

		newBallot := follower.Ballot().Next(laggardID)
		follower.OnMessage(laggardID, wire.P2a{Ballot: newBallot, Slot: 1, Commit: 1})
		if got := follower.Stats().SnapSends; got != 1 {
			t.Errorf("proposer behind the floor drew %d snapshots, want 1", got)
		}
	})
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if got := tc.replicas[laggardID].Stats().SnapRestores; got != 0 {
		// The "laggard" here is in fact caught up, so it must ignore the
		// snapshot — it is the follower's decision to send one under test.
		t.Errorf("caught-up node installed %d snapshots", got)
	}
}
