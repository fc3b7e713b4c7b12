package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// batchCluster builds a cluster with batching + a bounded pipeline window.
func batchCluster(t *testing.T, n, batch, window int, delay time.Duration) *testCluster {
	t.Helper()
	return newCluster(t, n, func(c *Config) {
		c.MaxBatchSize = batch
		c.MaxInFlight = window
		c.BatchDelay = delay
	})
}

func TestBatchRepliesReachEveryClient(t *testing.T) {
	tc := batchCluster(t, 5, 8, 1, 0)
	leader := tc.cfg.Nodes[0]
	// 20 commands from distinct sessions land in one instant: the 1-slot
	// window forces them into a handful of batches.
	tc.sim.Schedule(5*time.Millisecond, func() {
		for i := 0; i < 20; i++ {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: uint64(i + 1), Seq: 1,
			})
		}
	})
	tc.sim.Run(200 * time.Millisecond)
	if len(tc.client.replies) != 20 {
		t.Fatalf("replies = %d, want 20 (one per batched command)", len(tc.client.replies))
	}
	for _, rep := range tc.client.replies {
		if !rep.OK {
			t.Errorf("batched command %d/%d failed: %+v", rep.ClientID, rep.Seq, rep)
		}
	}
	st := tc.leader().Stats()
	if st.BatchedCmds != 20 {
		t.Errorf("BatchedCmds = %d, want 20", st.BatchedCmds)
	}
	if st.Batches >= 20 {
		t.Errorf("Batches = %d — commands were not packed (window 1, batch 8)", st.Batches)
	}
	if st.MeanBatchSize() <= 1.5 {
		t.Errorf("mean batch %.2f, expected > 1.5", st.MeanBatchSize())
	}
}

func TestBatchedFollowersConverge(t *testing.T) {
	tc := batchCluster(t, 5, 4, 2, 0)
	leader := tc.cfg.Nodes[0]
	for i := 0; i < 30; i++ {
		i := i
		tc.sim.Schedule(time.Duration(5+i/5)*time.Millisecond, func() {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i % 4), Value: []byte{byte(i)}, ClientID: uint64(i + 1), Seq: 1,
			})
		})
	}
	tc.sim.Run(500 * time.Millisecond)
	want := tc.leader().Store().Checksum()
	if tc.leader().Store().Applied() != 30 {
		t.Fatalf("leader applied %d, want 30", tc.leader().Store().Applied())
	}
	for _, id := range tc.cfg.Nodes[1:] {
		r := tc.replicas[id]
		if r.Store().Applied() != 30 || r.Store().Checksum() != want {
			t.Errorf("%v diverged under batching: applied=%d", id, r.Store().Applied())
		}
	}
}

func TestPipelineWindowBoundsInFlightSlots(t *testing.T) {
	tc := batchCluster(t, 5, 1, 2, 0) // batch off, window 2: pure pipelining bound
	leader := tc.cfg.Nodes[0]
	tc.sim.Schedule(5*time.Millisecond, func() {
		for i := 0; i < 10; i++ {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), ClientID: uint64(i + 1), Seq: 1,
			})
		}
		// Synchronous check right after admission: only 2 slots proposed.
		if inflight := tc.leader().voting; inflight > 2 {
			t.Errorf("in-flight slots = %d, want ≤ 2", inflight)
		}
	})
	tc.sim.Run(300 * time.Millisecond)
	if len(tc.client.replies) != 10 {
		t.Fatalf("replies = %d, want 10 (window must drain)", len(tc.client.replies))
	}
}

func TestBatchDelayAccumulates(t *testing.T) {
	// Window open, delay 5ms: two commands arriving 1ms apart share a slot.
	tc := batchCluster(t, 5, 8, 0, 5*time.Millisecond)
	leader := tc.cfg.Nodes[0]
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
	})
	tc.sim.Schedule(6*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 2, ClientID: 2, Seq: 1})
	})
	tc.sim.Run(100 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	st := tc.leader().Stats()
	if st.Batches != 1 || st.BatchedCmds != 2 {
		t.Errorf("batches=%d cmds=%d, want one 2-command batch", st.Batches, st.BatchedCmds)
	}
}

func TestPendingBatchRedirectedOnStepDown(t *testing.T) {
	tc := batchCluster(t, 3, 8, 1, time.Hour) // delay "forever": commands sit pending
	leader := tc.leader()
	tc.sim.Run(10 * time.Millisecond)
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 2, ClientID: 2, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 20*time.Millisecond)
	// First command proposed (window 1), second still pending. Dethrone.
	higher := leader.Ballot().Next(tc.cfg.Nodes[2])
	tc.sim.Schedule(0, func() {
		leader.OnP2b(wire.P2b{Ballot: higher, From: tc.cfg.Nodes[2], Slot: 1})
	})
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	redirected := 0
	for _, rep := range tc.client.replies {
		if !rep.OK && rep.Leader == tc.cfg.Nodes[2] {
			redirected++
		}
	}
	if redirected != 2 {
		t.Errorf("redirected %d of 2 (proposed + pending must both bounce)", redirected)
	}
	if leader.ingress.Len() != 0 {
		t.Error("pending batch must be cleared on step-down")
	}
}

func TestCatchupCarriesBatches(t *testing.T) {
	tc := batchCluster(t, 3, 4, 1, 0)
	leader := tc.cfg.Nodes[0]
	straggler := tc.cfg.Nodes[2]
	tc.sim.Run(5 * time.Millisecond)
	tc.net.Partition([]ids.ID{straggler}, []ids.ID{tc.cfg.Nodes[0], tc.cfg.Nodes[1]})
	tc.sim.Schedule(0, func() {
		for i := 0; i < 12; i++ {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: uint64(i + 1), Seq: 1,
			})
		}
	})
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if tc.replicas[straggler].Store().Applied() != 0 {
		t.Fatal("partitioned follower should have nothing")
	}
	tc.net.HealPartition()
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	st := tc.replicas[straggler]
	if st.Store().Applied() != 12 {
		t.Fatalf("straggler applied %d of 12 after batched catch-up", st.Store().Applied())
	}
	if st.Store().Checksum() != tc.leader().Store().Checksum() {
		t.Error("straggler diverged after batched catch-up")
	}
}

// Losing leadership with slots in flight must not poison the pipelining
// window: stale phase-2 tallies are aborted on step-down, so a re-elected
// leader proposes freely again.
func TestDepositionClearsInFlightWindow(t *testing.T) {
	tc := batchCluster(t, 3, 4, 2, 0)
	leader := tc.leader()
	tc.sim.Run(10 * time.Millisecond)
	// Cut the leader off so its proposals stall in the window.
	tc.net.Partition([]ids.ID{tc.cfg.Nodes[0]}, tc.cfg.Nodes[1:])
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 2, ClientID: 2, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 20*time.Millisecond)
	if leader.voting != 2 {
		t.Fatalf("in-flight slots = %d, want the window full", leader.voting)
	}
	// A higher ballot deposes the stranded leader.
	higher := leader.Ballot().Next(tc.cfg.Nodes[2])
	tc.sim.Schedule(0, func() {
		leader.OnP2b(wire.P2b{Ballot: higher, From: tc.cfg.Nodes[2], Slot: 1})
	})
	tc.sim.Run(tc.sim.Now() + 10*time.Millisecond)
	if leader.voting != 0 {
		t.Fatalf("stale tallies survive deposition: %d — the window is poisoned", leader.voting)
	}
	if leader.retx.Armed() != 0 {
		t.Error("retransmit timers must be stopped on step-down")
	}
}

// A retry of a command that was discarded on step-down must be re-admitted
// by a re-elected leader, not swallowed by the duplicate-in-flight branch —
// otherwise the client livelocks forever on that sequence number.
func TestRetryAfterStepDownReadmitted(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.MaxBatchSize = 8
		c.MaxInFlight = 1
		c.BatchDelay = 5 * time.Millisecond
		if c.ID == c.Cluster.Nodes[0] {
			// Only the deposed leader may campaign, so the retry provably
			// lands on the node holding the stale session state.
			c.ElectionTimeout = 30 * time.Millisecond
		}
	})
	leader := tc.leader()
	tc.sim.Run(10 * time.Millisecond)
	cmdB := kvstore.Command{Op: kvstore.Put, Key: 2, Value: []byte("b"), ClientID: 2, Seq: 1}
	tc.sim.Schedule(0, func() {
		// A fills the 1-slot window; B lands in the batch accumulator.
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
		tc.client.send(tc.cfg.Nodes[0], cmdB)
	})
	// Depose before B's batch-delay flush: B is dropped with a redirect
	// while its session still remembers seq 1 as pending.
	tc.sim.Schedule(time.Millisecond, func() {
		leader.OnP2b(wire.P2b{Ballot: leader.Ballot().Next(tc.cfg.Nodes[2]), From: tc.cfg.Nodes[2], Slot: 1})
	})
	// Let node 1 win re-election, then retry B there.
	tc.sim.Schedule(200*time.Millisecond, func() {
		if !leader.IsLeader() {
			t.Fatal("original leader did not re-elect itself")
		}
		tc.client.send(tc.cfg.Nodes[0], cmdB)
	})
	tc.sim.Run(500 * time.Millisecond)
	for _, rep := range tc.client.replies {
		if rep.OK && rep.ClientID == 2 && rep.Seq == 1 {
			return
		}
	}
	t.Fatal("retried command swallowed after step-down: no OK reply for client 2 seq 1")
}

// partitionedProposal sets up the duplicate-resurrection scenario: the
// leader proposes a command that cannot commit (partitioned), is deposed
// (routes dropped, session still pending), then heals and re-elects itself,
// re-proposing the recovered slot.
func partitionedProposal(t *testing.T) (*testCluster, kvstore.Command) {
	t.Helper()
	tc := newCluster(t, 3, func(c *Config) {
		if c.ID == c.Cluster.Nodes[0] {
			c.ElectionTimeout = 30 * time.Millisecond
		}
	})
	leader := tc.leader()
	cmd := kvstore.Command{Op: kvstore.Put, Key: 7, Value: []byte("once"), ClientID: 9, Seq: 1}
	tc.sim.Run(10 * time.Millisecond)
	tc.net.Partition([]ids.ID{tc.cfg.Nodes[0]}, tc.cfg.Nodes[1:])
	tc.sim.Schedule(0, func() { tc.client.send(tc.cfg.Nodes[0], cmd) })
	tc.sim.Run(tc.sim.Now() + 20*time.Millisecond)
	if leader.Stats().Commits != 0 {
		t.Fatal("command must not commit while partitioned")
	}
	tc.sim.Schedule(0, func() {
		leader.OnP2b(wire.P2b{Ballot: leader.Ballot().Next(tc.cfg.Nodes[2]), From: tc.cfg.Nodes[2], Slot: 1})
	})
	tc.sim.Run(tc.sim.Now() + time.Millisecond)
	tc.net.HealPartition()
	return tc, cmd
}

// A retry arriving while the recovered slot is still in flight must
// re-attach its reply route, not open a second slot for the same command.
func TestRetryWhileRecoveredSlotInFlight(t *testing.T) {
	tc, cmd := partitionedProposal(t)
	leader := tc.leader()
	injected := false
	var poll func()
	poll = func() {
		if injected {
			return
		}
		if leader.IsLeader() {
			if e := leader.Log().Get(1); e != nil && !e.Committed {
				injected = true
				before := leader.Stats().BatchedCmds
				leader.OnRequest(tc.client.id, wire.Request{Cmd: cmd})
				if leader.Stats().BatchedCmds != before {
					t.Error("retry re-admitted while the original slot is still in flight")
				}
				return
			}
		}
		tc.sim.Schedule(10*time.Microsecond, poll)
	}
	tc.sim.Schedule(0, poll)
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	if !injected {
		t.Fatal("never caught the recovered slot in flight (leader did not re-elect?)")
	}
	if got := tc.leader().Store().Applied(); got != 1 {
		t.Fatalf("command applied %d times, want exactly once", got)
	}
	okReplies := 0
	for _, rep := range tc.client.replies {
		if rep.OK && rep.ClientID == 9 && rep.Seq == 1 {
			okReplies++
		}
	}
	if okReplies != 1 {
		t.Fatalf("OK replies = %d, want exactly 1 via the re-attached route", okReplies)
	}
}

// A retry arriving after the recovered slot executed (with its route long
// gone) must be answered from the session cache, never re-admitted.
func TestRetryAfterExecutedWithoutRoute(t *testing.T) {
	tc, cmd := partitionedProposal(t)
	tc.sim.Run(tc.sim.Now() + 300*time.Millisecond) // re-elect, commit, execute
	if got := tc.leader().Store().Applied(); got != 1 {
		t.Fatalf("recovered command applied %d times, want 1", got)
	}
	tc.sim.Schedule(0, func() { tc.client.send(tc.cfg.Nodes[0], cmd) })
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if got := tc.leader().Store().Applied(); got != 1 {
		t.Fatalf("retry re-executed the command: applied %d", got)
	}
	served := false
	for _, rep := range tc.client.replies {
		if rep.OK && rep.ClientID == 9 && rep.Seq == 1 {
			served = true
		}
	}
	if !served {
		t.Fatal("retry after routeless execution must be served from the session cache")
	}
}

// A lagging node that wins an election must not quorum-commit its no-op
// gap filler over a slot the cluster already committed and executed: the
// followers refuse the doomed proposal and teach back the anchored batch.
func TestRecoveredLeaderCannotOverwriteAnchoredSlot(t *testing.T) {
	tc := newCluster(t, 5, func(c *Config) {
		c.HeartbeatInterval = 2 * time.Millisecond // flush commits fast
		if c.ID == c.Cluster.Nodes[4] {
			c.ElectionTimeout = 30 * time.Millisecond
		}
	})
	lagger := tc.cfg.Nodes[4]
	tc.sim.Run(5 * time.Millisecond)
	// The lagger misses the committed write entirely.
	tc.net.Partition([]ids.ID{lagger}, tc.cfg.Nodes[:4])
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{
			Op: kvstore.Put, Key: 7, Value: []byte("anchored"), ClientID: 1, Seq: 1,
		})
	})
	// Let heartbeat watermarks commit AND execute the slot on nodes 1-4.
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	for _, id := range tc.cfg.Nodes[:4] {
		if tc.replicas[id].Store().Applied() != 1 {
			t.Fatalf("%v did not execute the write pre-failover", id)
		}
	}
	// Old leader dies; the lagger heals and wins the election with a log
	// missing the anchored slot (every P1b omits committed+executed slots).
	tc.net.Crash(tc.cfg.Nodes[0])
	tc.net.HealPartition()
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	nl := tc.replicas[lagger]
	if !nl.IsLeader() {
		t.Fatal("lagging node did not take over")
	}
	// The new leader's first proposal collides with the anchored slot (its
	// empty log reuses slot 1): followers must refuse the doomed proposal
	// and teach back the anchored batch, and the leader must reclaim the
	// collided command into a fresh slot — no client retry needed.
	cmd2 := kvstore.Command{Op: kvstore.Put, Key: 8, Value: []byte("after"), ClientID: 2, Seq: 1}
	tc.sim.Schedule(0, func() { tc.client.send(lagger, cmd2) })
	tc.sim.Run(tc.sim.Now() + 300*time.Millisecond)
	served := false
	for _, rep := range tc.client.replies {
		if rep.OK && rep.ClientID == 2 {
			served = true
		}
	}
	if !served {
		t.Fatal("recovered leader wedged after the teach-back")
	}
	// The acknowledged write must have survived the collision everywhere.
	if v, ok := nl.Store().Get(7); !ok || string(v) != "anchored" {
		t.Fatalf("acknowledged write lost on recovered leader: got %q, %v", v, ok)
	}
	if v, ok := nl.Store().Get(8); !ok || string(v) != "after" {
		t.Fatalf("post-recovery write missing: got %q, %v", v, ok)
	}
	want := nl.Store().Checksum()
	for _, id := range tc.cfg.Nodes[1:4] {
		if tc.replicas[id].Store().Checksum() != want {
			t.Errorf("%v diverged from the recovered leader", id)
		}
	}
}

// Defense-in-depth behind phase-1 recovery: a follower whose slot already
// committed a different batch must refuse the proposal (no vote) and teach
// the proposer the anchored value.
func TestCommittedSlotRefusesConflictingProposal(t *testing.T) {
	tc := newCluster(t, 3, nil)
	tc.sim.Run(10 * time.Millisecond)
	f := tc.replicas[tc.cfg.Nodes[1]]
	anchored := []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: []byte("real"), ClientID: 1, Seq: 1}}
	f.Log().Commit(5, f.Ballot(), anchored)
	higher := f.Ballot().Next(tc.cfg.Nodes[2])
	sent := tc.net.MessagesSent()
	vote, ok := f.AcceptP2a(wire.P2a{Ballot: higher, Slot: 5})
	if ok {
		t.Fatal("conflicting proposal into a committed slot must be refused")
	}
	if vote.Ballot != higher {
		t.Errorf("refusal must still adopt the proposer's ballot, got %v", vote.Ballot)
	}
	if tc.net.MessagesSent() != sent+1 {
		t.Error("refusal must send exactly one teach-back P3 to the proposer")
	}
	if e := f.Log().Get(5); e == nil || len(e.Commands) != 1 {
		t.Error("anchored batch must survive the refused proposal")
	}
}

// A retry reaching a NEW leader that never saw the original request must be
// answered from the replicated at-most-once table, not executed again.
func TestRetryAtNewLeaderNotReExecuted(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.HeartbeatInterval = 2 * time.Millisecond // flush commits fast
		if c.ID == c.Cluster.Nodes[1] {
			c.ElectionTimeout = 30 * time.Millisecond
		}
	})
	cmd := kvstore.Command{Op: kvstore.Put, Key: 7, Value: []byte("once"), ClientID: 9, Seq: 1}
	tc.sim.Run(5 * time.Millisecond)
	// The old leader commits the write and heartbeat watermarks replicate
	// the execution to the followers.
	tc.sim.Schedule(0, func() { tc.client.send(tc.cfg.Nodes[0], cmd) })
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	next := tc.replicas[tc.cfg.Nodes[1]]
	if next.Store().Applied() != 1 {
		t.Fatal("follower did not execute the write pre-failover")
	}
	// Old leader dies; the follower takes over and the client retries there.
	tc.net.Crash(tc.cfg.Nodes[0])
	tc.sim.Run(tc.sim.Now() + 300*time.Millisecond)
	if !next.IsLeader() {
		t.Fatal("follower did not take over")
	}
	tc.sim.Schedule(0, func() { tc.client.send(tc.cfg.Nodes[1], cmd) })
	tc.sim.Run(tc.sim.Now() + 100*time.Millisecond)
	if got := next.Store().Applied(); got != 1 {
		t.Fatalf("retry at the new leader re-executed the command: applied %d", got)
	}
	served := false
	for _, rep := range tc.client.replies {
		if rep.OK && rep.ClientID == 9 && rep.Seq == 1 {
			served = true
		}
	}
	if !served {
		t.Fatal("retry at the new leader must be served from the replicated session cache")
	}
}

// A higher-ballot P3 reaching a stale active leader must dethrone it fully
// before the trailing flush, or its queued batch would propose under the
// new leader's ballot — two proposers on one ballot.
func TestHigherBallotP3Dethrones(t *testing.T) {
	tc := batchCluster(t, 3, 8, 1, time.Hour) // window 1, delay ∞: B stays pending
	leader := tc.leader()
	tc.sim.Run(10 * time.Millisecond)
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 2, ClientID: 2, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 5*time.Millisecond)
	higher := leader.Ballot().Next(tc.cfg.Nodes[2])
	tc.sim.Schedule(0, func() {
		leader.OnP3(wire.P3{Ballot: higher, Slot: 50, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 9}}})
	})
	tc.sim.Run(tc.sim.Now() + 20*time.Millisecond)
	if leader.IsLeader() {
		t.Fatal("higher-ballot P3 must dethrone the stale leader")
	}
	if leader.ingress.Len() != 0 {
		t.Error("pending batch must be redirected, not proposed under the new ballot")
	}
	redirected := 0
	for _, rep := range tc.client.replies {
		if !rep.OK && rep.Leader == tc.cfg.Nodes[2] {
			redirected++
		}
	}
	if redirected < 2 {
		t.Errorf("redirected %d of 2 queued commands", redirected)
	}
}

// Losing a campaign via a higher-ballot P1b must bounce queued commands to
// the new ballot owner like every other step-down path.
func TestLostCampaignRedirectsPending(t *testing.T) {
	tc := batchCluster(t, 3, 8, 1, time.Hour) // window 1, delay ∞: B stays pending
	leader := tc.leader()
	tc.sim.Run(10 * time.Millisecond)
	tc.sim.Schedule(0, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 2, ClientID: 2, Seq: 1})
	})
	tc.sim.Run(tc.sim.Now() + 5*time.Millisecond)
	higher := leader.Ballot().Next(tc.cfg.Nodes[2])
	tc.sim.Schedule(0, func() {
		leader.OnP1b(wire.P1b{Ballot: higher, From: tc.cfg.Nodes[2]})
	})
	tc.sim.Run(tc.sim.Now() + 20*time.Millisecond)
	redirected := map[uint64]bool{}
	for _, rep := range tc.client.replies {
		if !rep.OK && rep.Leader == tc.cfg.Nodes[2] {
			redirected[rep.ClientID] = true
		}
	}
	if !redirected[1] || !redirected[2] {
		t.Errorf("clients redirected: %v, want both 1 (in flight) and 2 (pending)", redirected)
	}
	if leader.ingress.Len() != 0 || leader.voting != 0 {
		t.Error("pending batch and in-flight tallies must be cleared on a lost campaign")
	}
}

// Batch caps beyond the wire format's uint16 count are clamped, not
// silently truncated into corrupt frames.
func TestHugeBatchCapClamped(t *testing.T) {
	c := Config{MaxBatchSize: 1 << 20}
	c.applyDefaults()
	if c.MaxBatchSize != 65535 {
		t.Errorf("MaxBatchSize = %d, want clamped to 65535", c.MaxBatchSize)
	}
}

func TestUnbatchedDefaultsMatchSeedMessageFlow(t *testing.T) {
	// MaxBatchSize 1 + unbounded window must produce exactly one slot per
	// command — the seed's message economy.
	tc := newCluster(t, 5, func(c *Config) {
		c.HeartbeatInterval = time.Hour
	})
	leader := tc.cfg.Nodes[0]
	for i := 0; i < 10; i++ {
		i := i
		tc.sim.Schedule(time.Duration(5+i)*time.Millisecond, func() {
			tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: uint64(i + 1)})
		})
	}
	tc.sim.Run(200 * time.Millisecond)
	st := tc.leader().Stats()
	if st.Batches != 10 || st.BatchedCmds != 10 {
		t.Errorf("batches=%d cmds=%d, want 10/10 (one slot per command)", st.Batches, st.BatchedCmds)
	}
	if st.MeanBatchSize() != 1 {
		t.Errorf("mean batch %.2f, want exactly 1", st.MeanBatchSize())
	}
}
