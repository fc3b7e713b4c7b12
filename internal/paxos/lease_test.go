package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

func TestLeaseReadsServeLocally(t *testing.T) {
	tc := newCluster(t, 5, func(c *Config) {
		c.ReadMode = ReadLease
		c.HeartbeatInterval = 5 * time.Millisecond
	})
	leader := tc.cfg.Nodes[0]
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("leased"), ClientID: 1, Seq: 1})
	})
	// Let heartbeat acks establish the lease, then read.
	tc.sim.Schedule(40*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Get, Key: 1, ClientID: 1, Seq: 2})
	})
	tc.sim.Run(100 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	get := tc.client.replies[1]
	if !get.OK || string(get.Value) != "leased" {
		t.Fatalf("lease read: %+v", get)
	}
	if tc.leader().Stats().LeaseReads != 1 {
		t.Error("read did not use the lease path")
	}
	// Lease reads must not consume log slots.
	if got := tc.leader().Log().CommittedCount(); got != 1 {
		t.Errorf("committed slots = %d, want 1 (only the write)", got)
	}
}

func TestLeaseExpiresWhenMajorityUnreachable(t *testing.T) {
	tc := newCluster(t, 5, func(c *Config) {
		c.ReadMode = ReadLease
		c.HeartbeatInterval = 5 * time.Millisecond
	})
	leader := tc.cfg.Nodes[0]
	tc.sim.Run(50 * time.Millisecond) // lease established
	if !tc.leader().leaseValid() {
		t.Fatal("lease should be valid with all followers alive")
	}
	// Cut the leader from all followers: acks stop, the lease must lapse.
	tc.net.Partition([]ids.ID{leader}, tc.cfg.Nodes[1:])
	tc.sim.Run(tc.sim.Now() + 200*time.Millisecond)
	if tc.leader().leaseValid() {
		t.Fatal("lease must expire without majority acks")
	}
	// Reads now fall back to the log path, which cannot commit → no reply
	// (the client would retry elsewhere).
	before := len(tc.client.replies)
	tc.sim.Schedule(0, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Get, Key: 1, ClientID: 1, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 100*time.Millisecond)
	for _, rep := range tc.client.replies[before:] {
		if rep.OK {
			t.Fatal("a partitioned leader must not serve reads after lease expiry")
		}
	}
}
