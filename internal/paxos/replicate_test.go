package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

func TestStaleBallotP2aRejected(t *testing.T) {
	tc := newCluster(t, 3, nil)
	tc.sim.Run(10 * time.Millisecond)
	follower := tc.replicas[tc.cfg.Nodes[1]]
	high := follower.Ballot()
	stale := wire.P2a{Ballot: ids.NewBallot(0, ids.NewID(1, 3)), Slot: 99, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}}
	vote, ok := follower.AcceptP2a(stale)
	if ok {
		t.Error("stale P2a must not be accepted")
	}
	if vote.Ballot <= stale.Ballot {
		t.Error("stale P2a must be answered with the higher ballot (NACK)")
	}
	if vote.Ballot != high {
		t.Errorf("NACK ballot = %v, want %v", vote.Ballot, high)
	}
	if follower.Log().Get(99) != nil {
		t.Error("stale P2a must not be accepted into the log")
	}
}

func TestThriftyModeUsesFewerMessages(t *testing.T) {
	run := func(thrifty bool) uint64 {
		tc := newCluster(t, 5, func(c *Config) {
			c.Thrifty = thrifty
			c.HeartbeatInterval = time.Hour // isolate P2a traffic
		})
		leader := tc.cfg.Nodes[0]
		for i := 0; i < 10; i++ {
			i := i
			tc.sim.Schedule(time.Duration(5+i)*time.Millisecond, func() {
				tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: uint64(i + 1)})
			})
		}
		tc.sim.Run(100 * time.Millisecond)
		if got := len(tc.client.replies); got != 10 {
			t.Fatalf("thrifty=%v: replies = %d", thrifty, got)
		}
		return tc.net.MessagesSent()
	}
	full := run(false)
	thrifty := run(true)
	if thrifty >= full {
		t.Errorf("thrifty should send fewer messages: %d vs %d", thrifty, full)
	}
}

func TestMinorityCrashStillCommits(t *testing.T) {
	// f failures in 2f+1 nodes: the leader and two live followers are a
	// majority of five, so phase-2 proceeds.
	tc := newCluster(t, 5, nil)
	tc.sim.Run(10 * time.Millisecond)
	tc.net.Crash(tc.cfg.Nodes[3])
	tc.net.Crash(tc.cfg.Nodes[4])
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 2, Value: []byte("fq"), ClientID: 1, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 100*time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatal("f=2 crashes in N=5 must not block commits")
	}
}

func TestMajorityBlockedWhenQuorumUnreachable(t *testing.T) {
	tc := newCluster(t, 5, nil)
	tc.sim.Run(10 * time.Millisecond)
	// Crash 3 of 5: majority unreachable, nothing commits.
	tc.net.Crash(tc.cfg.Nodes[2])
	tc.net.Crash(tc.cfg.Nodes[3])
	tc.net.Crash(tc.cfg.Nodes[4])
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 2, ClientID: 1, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 200*time.Millisecond)
	for _, rep := range tc.client.replies {
		if rep.OK {
			t.Fatal("commit without majority is a safety violation")
		}
	}
	if tc.leader().Stats().Commits != 0 {
		t.Fatal("no slot may commit")
	}
}

func TestDuplicateP2bIdempotent(t *testing.T) {
	tc := newCluster(t, 5, nil)
	tc.sim.Run(10 * time.Millisecond)
	leader := tc.leader()
	before := leader.Stats().Commits
	// Feed duplicate votes for a nonexistent slot: no effect.
	v := wire.P2b{Ballot: leader.Ballot(), From: tc.cfg.Nodes[1], Slot: 424242}
	leader.OnP2b(v)
	leader.OnP2b(v)
	if leader.Stats().Commits != before {
		t.Error("votes for unknown slots must not commit anything")
	}
}

func TestLinearOrderMatchesSlotOrder(t *testing.T) {
	tc := newCluster(t, 3, nil)
	leader := tc.cfg.Nodes[0]
	// Two writes to the same key: later slot must win.
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("first"), ClientID: 1, Seq: 1})
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("second"), ClientID: 1, Seq: 2})
	})
	tc.sim.Run(100 * time.Millisecond)
	if v, _ := tc.leader().Store().Get(1); string(v) != "second" {
		t.Errorf("final value %q, want \"second\"", v)
	}
	slots := map[uint64]uint64{}
	for _, rep := range tc.client.replies {
		slots[rep.Seq] = rep.Slot
	}
	if slots[1] >= slots[2] {
		t.Errorf("slot order %v does not respect submission order", slots)
	}
}
