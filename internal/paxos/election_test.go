package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

func TestLeaderElectionOnStart(t *testing.T) {
	tc := newCluster(t, 5, nil)
	tc.sim.Run(50 * time.Millisecond)
	if !tc.leader().IsLeader() {
		t.Fatal("initial leader did not become active")
	}
	for _, id := range tc.cfg.Nodes[1:] {
		r := tc.replicas[id]
		if r.IsLeader() {
			t.Errorf("%v should not be leader", id)
		}
		if r.Leader() != tc.cfg.Nodes[0] {
			t.Errorf("%v believes leader is %v", id, r.Leader())
		}
	}
}

func TestLeaderFailover(t *testing.T) {
	tc := newCluster(t, 5, func(c *Config) {
		c.ElectionTimeout = 100 * time.Millisecond
	})
	old := tc.cfg.Nodes[0]
	tc.sim.Schedule(20*time.Millisecond, func() { tc.net.Crash(old) })
	tc.sim.Run(2 * time.Second)
	var leaders []ids.ID
	for id, r := range tc.replicas {
		if id != old && r.IsLeader() {
			leaders = append(leaders, id)
		}
	}
	if len(leaders) != 1 {
		t.Fatalf("after failover, %d active leaders (%v), want exactly 1", len(leaders), leaders)
	}
	// The new leader serves requests.
	nl := leaders[0]
	tc.sim.Schedule(0, func() {
		tc.client.send(nl, kvstore.Command{Op: kvstore.Put, Key: 5, Value: []byte("x"), ClientID: 2, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 200*time.Millisecond)
	ok := false
	for _, rep := range tc.client.replies {
		if rep.OK && rep.Seq == 1 && rep.ClientID == 2 {
			ok = true
		}
	}
	if !ok {
		t.Error("new leader did not serve the request")
	}
}

// TestDeposedLeadersCampaignAgain hands leadership on twice by operator
// campaign, then crashes the third leader: the first two, deposed while they
// led, must still notice and elect one of themselves.
func TestDeposedLeadersCampaignAgain(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) { c.ElectionTimeout = 100 * time.Millisecond })
	n := tc.cfg.Nodes
	tc.sim.Schedule(50*time.Millisecond, func() { tc.replicas[n[1]].Campaign() })
	tc.sim.Schedule(400*time.Millisecond, func() { tc.replicas[n[2]].Campaign() })
	tc.sim.Schedule(800*time.Millisecond, func() { tc.net.Crash(n[2]) })
	tc.sim.Run(3 * time.Second)
	leaders := 0
	for _, id := range n[:2] {
		if tc.replicas[id].IsLeader() {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders among the live majority %v, want 1 (elections: %d, %d)", leaders, n[:2],
			tc.replicas[n[0]].Stats().Elections, tc.replicas[n[1]].Stats().Elections)
	}
}

func TestUncommittedRecoveryAcrossLeaderChange(t *testing.T) {
	// Leader proposes to a partitioned majority so the value stays
	// uncommitted, then a new leader must recover and commit it.
	tc := newCluster(t, 5, func(c *Config) {
		c.ElectionTimeout = 100 * time.Millisecond
	})
	old := tc.cfg.Nodes[0]
	tc.sim.Run(10 * time.Millisecond) // let the leader establish

	// Cut the leader off from nodes 4 and 5 so P2a reaches only 2 and 3:
	// leader+2 acceptors = 3 of 5 = majority — so instead cut from 3,4,5:
	// then only node 2 accepts → no quorum → uncommitted.
	cutoff := []ids.ID{tc.cfg.Nodes[2], tc.cfg.Nodes[3], tc.cfg.Nodes[4]}
	tc.net.Partition([]ids.ID{old}, cutoff)
	tc.sim.Schedule(0, func() {
		tc.client.send(old, kvstore.Command{Op: kvstore.Put, Key: 7, Value: []byte("ghost"), ClientID: 3, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if tc.leader().Stats().Commits != 0 {
		t.Fatal("command should not commit without majority")
	}
	// Now crash the old leader and heal; node 2 holds the accepted value.
	tc.net.Crash(old)
	tc.net.HealPartition()
	tc.sim.Run(tc.sim.Now() + 2*time.Second)
	// Whoever leads now must have committed the recovered value.
	for id, r := range tc.replicas {
		if id == old {
			continue
		}
		if r.IsLeader() {
			if v, ok := r.Store().Get(7); !ok || string(v) != "ghost" {
				t.Errorf("recovered leader %v did not commit uncommitted value (got %q, %v)", id, v, ok)
			}
			return
		}
	}
	t.Fatal("no new leader emerged")
}

func TestRejectionDethronesLeader(t *testing.T) {
	tc := newCluster(t, 3, nil)
	tc.sim.Run(10 * time.Millisecond)
	leader := tc.leader()
	higher := leader.Ballot().Next(tc.cfg.Nodes[2])
	leader.OnP2b(wire.P2b{Ballot: higher, From: tc.cfg.Nodes[2], Slot: 1})
	if leader.IsLeader() {
		t.Error("leader must step down on seeing a higher ballot")
	}
	if leader.Ballot() != higher {
		t.Error("leader must adopt the higher ballot")
	}
}

// A campaigner that adopts a rival's higher ballot has lost its campaign:
// the rival's NACK of its bid carries that same ballot and must not count as
// a promise, or the loser leads too, under the rival's ballot.
func TestLostCampaignIgnoresNackAtAdoptedBallot(t *testing.T) {
	tc := newCluster(t, 3, nil)
	tc.sim.Run(10 * time.Millisecond)
	bidder, rival := tc.replicas[tc.cfg.Nodes[1]], tc.cfg.Nodes[2]
	bidder.Campaign()
	higher := bidder.Ballot().Next(rival)
	bidder.OnP1a(rival, wire.P1a{Ballot: higher})
	bidder.OnP1b(wire.P1b{Ballot: higher, From: rival})
	if bidder.IsLeader() {
		t.Fatalf("%v leads under %v, a ballot it adopted from %v", tc.cfg.Nodes[1], bidder.Ballot(), rival)
	}
}
