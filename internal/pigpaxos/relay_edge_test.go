package pigpaxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// Relay-plane edge cases the batching change must not regress: late votes
// after a timeout flush and duplicate relay assignment on leader retry. Both
// drive a follower replica directly with relay messages under the leader's
// established ballot.

func establish(t *testing.T, n int, mut func(*Config)) (*cluster, *Replica) {
	t.Helper()
	tc := newCluster(t, n, false, mut)
	tc.sim.Run(20 * time.Millisecond)
	if !tc.leader().Core().IsLeader() {
		t.Fatal("no leader")
	}
	return tc, tc.replicas[tc.cfg.Nodes[3]] // an arbitrary follower
}

// openAggs counts the relay's aggregations still collecting votes.
func openAggs(r *Replica) int {
	n := 0
	for s := r.aggs.Base(); s < r.aggs.End(); s++ {
		if r.aggs.At(s).state == aggCollecting {
			n++
		}
	}
	return n
}

func TestLateVoteAfterTimeoutFlushDropped(t *testing.T) {
	tc, relay := establish(t, 9, nil)
	ballot := tc.leader().Core().Ballot()
	leaderID := tc.cfg.Nodes[0]
	peers := []ids.ID{tc.cfg.Nodes[4], tc.cfg.Nodes[5]}

	// The group is down, so it stays silent past the relay timeout: the
	// relay flushes its own vote alone as a partial aggregate and remembers
	// the slot as flushed.
	for _, p := range peers {
		tc.net.Crash(p)
	}
	timeout := 5 * time.Millisecond
	relay.OnMessage(leaderID, wire.RelayP2a{
		P2a:     wire.P2a{Ballot: ballot, Slot: 1000, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}},
		Peers:   peers,
		Timeout: timeout,
	})
	if openAggs(relay) != 1 {
		t.Fatal("the aggregation must wait for its group")
	}
	partial := relay.Stats().PartialFlushes
	tc.sim.Run(tc.sim.Now() + 2*timeout)
	if openAggs(relay) != 0 {
		t.Fatal("the relay timeout must flush the aggregation")
	}
	if relay.Stats().PartialFlushes != partial+1 {
		t.Error("timeout flush must be counted as partial")
	}

	// A group member's vote arrives after the flush: it must be dropped
	// (forwarding it would push the leader past 2r+2 messages per round).
	sentBefore := tc.net.MessagesSent()
	late := relay.Stats().LateVotes
	relay.OnMessage(peers[0], wire.P2b{Ballot: ballot, From: peers[0], Slot: 1000})
	if relay.Stats().LateVotes != late+1 {
		t.Error("late vote not counted")
	}
	if tc.net.MessagesSent() != sentBefore {
		t.Error("late vote after a timeout flush must not be forwarded")
	}

	// A vote for a slot this relay never aggregated is NOT dropped — it is
	// passed to the ballot owner rather than lost.
	relay.OnMessage(peers[0], wire.P2b{Ballot: ballot, From: peers[0], Slot: 2000})
	if tc.net.MessagesSent() != sentBefore+1 {
		t.Error("unknown-slot vote must be forwarded to the ballot owner")
	}
}

func TestDuplicateRelayAssignmentRestartsCleanly(t *testing.T) {
	tc, relay := establish(t, 9, nil)
	ballot := tc.leader().Core().Ballot()
	leaderID := tc.cfg.Nodes[0]
	peers := []ids.ID{tc.cfg.Nodes[4], tc.cfg.Nodes[5], tc.cfg.Nodes[6]}
	m := wire.RelayP2a{
		P2a:     wire.P2a{Ballot: ballot, Slot: 1000, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}},
		Peers:   peers,
		Timeout: time.Hour, // no timeout interference
	}

	relay.OnMessage(leaderID, m)
	relay.OnMessage(peers[0], wire.P2b{Ballot: ballot, From: peers[0], Slot: 1000})
	if a := relay.collecting(ballot, 1000); a == nil || len(a.acks) != 2 {
		t.Fatalf("pre-retry aggregation state wrong: %+v", a)
	}

	// The leader timed out and drew this relay again: the aggregation must
	// restart from scratch, not double-count stale acks.
	relay.OnMessage(leaderID, m)
	a := relay.collecting(ballot, 1000)
	if a == nil || len(a.acks) != 1 || a.acks[0] != relay.ctx.ID() {
		t.Fatalf("duplicate assignment must restart the aggregation, got %+v", a)
	}

	// Completing the restarted round still flushes one full aggregate.
	sentBefore := tc.net.MessagesSent()
	for _, p := range peers {
		relay.OnMessage(p, wire.P2b{Ballot: ballot, From: p, Slot: 1000})
	}
	if relay.collecting(ballot, 1000) != nil {
		t.Error("full group must flush the aggregation")
	}
	if tc.net.MessagesSent() != sentBefore+1 {
		t.Errorf("restarted round must flush exactly one aggregate, sent %d",
			tc.net.MessagesSent()-sentBefore)
	}
}

// The relay plane must forward batched P2as transparently: per-slot
// aggregation logic is unchanged, so a batch costs the leader the same
// 2r+2 messages a single command does (the paper's orthogonality claim).
func TestRelaysForwardBatchesTransparently(t *testing.T) {
	const n, cmds = 9, 24
	tc := newCluster(t, n, false, func(c *Config) {
		c.NumGroups = 2
		c.Paxos.MaxBatchSize = 8
		c.Paxos.MaxInFlight = 1
		// Lift the derived ingress bound: Busy/retry rounds would pollute
		// the per-command message-economy measurement below.
		c.Paxos.MaxPending = -1
		// Sparse heartbeats: enough to flush the final commit watermark to
		// followers without drowning the message-economy measurement.
		c.Paxos.HeartbeatInterval = 100 * time.Millisecond
	})
	tc.sim.Run(5 * time.Millisecond)
	lep := tc.net.Endpoint(tc.cfg.Nodes[0])
	base := lep.Sent() + lep.Received()
	tc.sim.Schedule(0, func() {
		for i := 0; i < cmds; i++ {
			tc.client.ep.Send(tc.cfg.Nodes[0], wire.Request{Cmd: kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: uint64(i + 1), Seq: 1,
			}})
		}
	})
	tc.sim.Run(tc.sim.Now() + 300*time.Millisecond)
	if len(tc.client.replies) != cmds {
		t.Fatalf("replies = %d, want %d", len(tc.client.replies), cmds)
	}
	st := tc.leader().Core().Stats()
	if st.MeanBatchSize() <= 2 {
		t.Fatalf("mean batch %.2f — batching did not engage through relays", st.MeanBatchSize())
	}
	// Leader messages per command: 2 client msgs + (2r+2−2)/batch, plus a
	// few heartbeat fan-outs — well under the unbatched 2r+2 = 6.
	perCmd := float64(lep.Sent()+lep.Received()-base) / cmds
	if perCmd >= 5 {
		t.Errorf("leader messages/command %.1f under batching, want < 5", perCmd)
	}
	// Replicas converge on the batched log once heartbeat watermarks flush
	// the tail.
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	want := tc.leader().Core().Store().Checksum()
	for _, id := range tc.cfg.Nodes[1:] {
		r := tc.replicas[id].Core()
		if r.Store().Applied() != cmds || r.Store().Checksum() != want {
			t.Errorf("%v diverged under batched relay rounds", id)
		}
	}
}

// TestRelayRingEdges covers the three ways a slot can fall outside the
// relay's aggregation ring. A slot the log itself refuses as too far ahead
// must not slide the ring off the live slots; a slot aggMemory above a
// still-open aggregation flushes that one as it stands instead of forgetting
// it; and a slot aggMemory below the high-water mark is relayed without an
// aggregation, its votes travelling to the leader one by one.
func TestRelayRingEdges(t *testing.T) {
	tc, relay := establish(t, 9, nil)
	ballot := tc.leader().Core().Ballot()
	leaderID := tc.cfg.Nodes[0]
	peers := []ids.ID{tc.cfg.Nodes[4], tc.cfg.Nodes[5]}
	round := func(slot uint64) {
		relay.OnMessage(leaderID, wire.RelayP2a{
			P2a:     wire.P2a{Ballot: ballot, Slot: slot, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}},
			Peers:   peers,
			Timeout: time.Hour,
		})
	}

	round(1000)
	if relay.collecting(ballot, 1000) == nil {
		t.Fatal("aggregation not opened")
	}
	round(1 << 63)
	if relay.collecting(ballot, 1000) == nil || relay.aggs.End() > 1001 {
		t.Fatalf("a slot the log refuses slid the ring to [%d,%d)", relay.aggs.Base(), relay.aggs.End())
	}

	partial := relay.Stats().PartialFlushes
	round(1000 + aggMemory)
	if relay.Stats().PartialFlushes != partial+1 || relay.collecting(ballot, 1000) != nil {
		t.Error("aggregation pushed out of the ring was not flushed as it stood")
	}
	if relay.relayDue.Armed() != 1 {
		t.Errorf("%d relay timeouts armed, want only the new slot's", relay.relayDue.Armed())
	}

	sent := tc.net.MessagesSent()
	round(1000) // now aggMemory below the high-water mark
	if relay.aggs.At(1000) != nil {
		t.Error("a slot below the ring got a cell")
	}
	// Forwarded to both peers, own vote sent up alone.
	if got := tc.net.MessagesSent() - sent; got != uint64(len(peers))+1 {
		t.Errorf("untracked round sent %d messages, want %d", got, len(peers)+1)
	}
	sent = tc.net.MessagesSent()
	relay.OnMessage(peers[0], wire.P2b{Ballot: ballot, From: peers[0], Slot: 1000})
	if tc.net.MessagesSent() != sent+1 {
		t.Error("vote of an untracked round was not passed on to the leader")
	}
}
