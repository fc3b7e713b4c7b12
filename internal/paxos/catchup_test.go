package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

func TestCatchupRepairsLossyFollower(t *testing.T) {
	tc := newCluster(t, 3, nil)
	leader := tc.cfg.Nodes[0]
	straggler := tc.cfg.Nodes[2]
	tc.sim.Run(5 * time.Millisecond)
	// Partition the straggler while commands commit.
	tc.net.Partition([]ids.ID{straggler}, []ids.ID{tc.cfg.Nodes[0], tc.cfg.Nodes[1]})
	for i := 0; i < 10; i++ {
		i := i
		tc.sim.Schedule(time.Duration(i)*time.Millisecond, func() {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1),
			})
		})
	}
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if tc.replicas[straggler].Store().Applied() != 0 {
		t.Fatal("partitioned follower should have nothing")
	}
	// Heal: heartbeat watermarks expose the gap; catch-up fills it.
	tc.net.HealPartition()
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	st := tc.replicas[straggler]
	if st.Store().Applied() != 10 {
		t.Fatalf("straggler applied %d of 10 after catch-up", st.Store().Applied())
	}
	if st.Store().Checksum() != tc.leader().Store().Checksum() {
		t.Error("straggler state diverged after catch-up")
	}
	if st.Stats().Catchups == 0 {
		t.Error("catch-up requests not counted")
	}
}

// TestCatchupSurvivesCrashMidRequest crashes the straggler of
// TestCatchupRepairsLossyFollower the moment its first catch-up request
// leaves, so the answer is lost: once back, it must ask again.
func TestCatchupSurvivesCrashMidRequest(t *testing.T) {
	tc := newCluster(t, 3, nil)
	leader, straggler := tc.cfg.Nodes[0], tc.cfg.Nodes[2]
	st := tc.replicas[straggler]
	var crashed bool
	// Crash from inside the handler that sent the request, before anything
	// else runs.
	tc.handlers[straggler].h = func(from ids.ID, m wire.Msg) {
		st.OnMessage(from, m)
		if st.Stats().Catchups == 1 && !crashed {
			crashed = true
			tc.net.Crash(straggler)
			tc.sim.Schedule(300*time.Millisecond, func() { tc.net.Recover(straggler) })
		}
	}
	tc.sim.Run(5 * time.Millisecond)
	tc.net.Partition([]ids.ID{straggler}, []ids.ID{tc.cfg.Nodes[0], tc.cfg.Nodes[1]})
	for i := 0; i < 10; i++ {
		i := i
		tc.sim.Schedule(time.Duration(i)*time.Millisecond, func() {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1),
			})
		})
	}
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	tc.net.HealPartition()
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	if !crashed {
		t.Fatal("the straggler never asked for catch-up")
	}
	tc.sim.Run(tc.sim.Now() + time.Second)
	if got := st.Store().Applied(); got != 10 {
		t.Fatalf("straggler applied %d of 10 a second after recovering (%d catch-up requests)", got, st.Stats().Catchups)
	}
}

func TestLogCompaction(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.CompactEvery = 10
		c.CompactRetain = 5
	})
	leader := tc.cfg.Nodes[0]
	const n = 50
	for i := 0; i < n; i++ {
		i := i
		tc.sim.Schedule(time.Duration(5+i)*time.Millisecond, func() {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1),
			})
		})
	}
	tc.sim.Run(500 * time.Millisecond)
	if len(tc.client.replies) != n {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	l := tc.leader()
	if l.Stats().Compactions == 0 {
		t.Fatal("compaction never ran")
	}
	if l.Log().Len() >= n {
		t.Errorf("log holds %d entries after compaction, want < %d", l.Log().Len(), n)
	}
	// State must be unaffected.
	if l.Store().Applied() != n {
		t.Errorf("applied %d, want %d", l.Store().Applied(), n)
	}
}
