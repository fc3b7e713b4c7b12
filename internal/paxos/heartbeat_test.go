package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// heartbeatCounter counts, between resets, the heartbeats each node
// receives and the heartbeat acks the leader receives.
type heartbeatCounter struct {
	hbs  map[ids.ID]int
	acks int
}

func countHeartbeats(tc *testCluster) *heartbeatCounter {
	c := &heartbeatCounter{hbs: map[ids.ID]int{}}
	for id, tr := range tc.handlers {
		h := tr.h
		tr.h = func(from ids.ID, m wire.Msg) {
			switch m.(type) {
			case wire.Heartbeat:
				c.hbs[id]++
			case wire.HeartbeatAck:
				c.acks++
			}
			h(from, m)
		}
	}
	return c
}

func (c *heartbeatCounter) reset() {
	clear(c.hbs)
	c.acks = 0
}

// loadLeader has the client write to the leader every gap over [from, to).
func (tc *testCluster) loadLeader(from, to, gap time.Duration) {
	seq := uint64(0)
	for at := from; at < to; at += gap {
		seq++
		cmd := kvstore.Command{Op: kvstore.Put, Key: seq, Value: []byte("v"), ClientID: 1, Seq: seq}
		tc.sim.Schedule(at, func() { tc.client.send(tc.cfg.Nodes[0], cmd) })
	}
}

// Replication is the heartbeat. A leader with rounds in flight skips every
// follower whose counted vote shows it heard a recent round; on the direct
// plane those are the first majority to answer (1.2 and 1.3 here), while the
// votes of 1.4 and 1.5 land after their slot executed, credit nothing, and
// so still earn one heartbeat per interval. Idle, or in ReadLease mode, the
// leader heartbeats every follower once per interval, and in ReadLease mode
// every follower acks each one.
func TestHeartbeatsSkipFollowersWhoseVotesProveContact(t *testing.T) {
	const hb = 5 * time.Millisecond
	const ticks = 20 // heartbeat intervals per measured window
	window := ticks * hb
	for _, mode := range []ReadMode{ReadLog, ReadLease} {
		tc := newCluster(t, 5, func(c *Config) {
			c.HeartbeatInterval = hb
			c.ReadMode = mode
		})
		c := countHeartbeats(tc)
		// A write every 250 µs: each round takes longer than that, so a
		// tally is open at every tick, and the leader stays unsaturated.
		loadFrom, loadTo := 10*time.Millisecond, 30*time.Millisecond+window
		tc.loadLeader(loadFrom, loadTo, 250*time.Microsecond)

		tc.sim.Run(loadFrom + 10*time.Millisecond)
		c.reset()
		tc.sim.Run(loadFrom + 10*time.Millisecond + window)
		voters, late := tc.cfg.Nodes[1:3], tc.cfg.Nodes[3:]
		for _, id := range voters {
			want := 0
			if mode == ReadLease {
				want = ticks
			}
			if got := c.hbs[id]; got != want {
				t.Errorf("mode %d, loaded: voter %v got %d heartbeats in %d intervals, want %d", mode, id, got, ticks, want)
			}
		}
		for _, id := range late {
			if got := c.hbs[id]; got != ticks {
				t.Errorf("mode %d, loaded: late voter %v got %d heartbeats in %d intervals, want %d", mode, id, got, ticks, ticks)
			}
		}
		if want := 4 * ticks; mode == ReadLease && c.acks != want {
			t.Errorf("ReadLease, loaded: leader got %d acks in %d intervals, want %d", c.acks, ticks, want)
		}

		idleFrom := loadTo + 10*time.Millisecond
		tc.sim.Run(idleFrom)
		c.reset()
		tc.sim.Run(idleFrom + window)
		for _, id := range tc.cfg.Nodes[1:] {
			if got := c.hbs[id]; got != ticks {
				t.Errorf("mode %d, idle: %v got %d heartbeats in %d intervals, want %d", mode, id, got, ticks, ticks)
			}
		}
		if want := 4 * ticks; mode == ReadLease && c.acks != want {
			t.Errorf("ReadLease, idle: leader got %d acks in %d intervals, want %d", c.acks, ticks, want)
		}
		if got, want := len(tc.client.replies), int((loadTo-loadFrom)/(250*time.Microsecond)); got != want {
			t.Errorf("mode %d: %d writes answered, want %d", mode, got, want)
		}
	}
}

// Once the pipeline drains, the leader's next heartbeat goes to every
// follower, its own recent voters included, so the watermark of the last
// commit reaches them within one interval of the commit. Writes spaced a
// little over two intervals apart land at every phase of the heartbeat tick,
// including just before one, and none carries the previous one's watermark
// in time.
func TestDrainedLeaderHeartbeatsTheLastCommitToAll(t *testing.T) {
	const hb = 5 * time.Millisecond
	const writes = 20
	tc := newCluster(t, 5, func(c *Config) { c.HeartbeatInterval = hb })
	gap := 2*hb + hb/writes
	for i := range writes {
		at := 10*time.Millisecond + time.Duration(i)*gap
		cmd := kvstore.Command{Op: kvstore.Put, Key: uint64(i), Value: []byte("v"), ClientID: 1, Seq: uint64(i + 1)}
		tc.sim.Schedule(at, func() { tc.client.send(tc.cfg.Nodes[0], cmd) })
		// The write commits within a millisecond; a heartbeat interval and
		// a one-way delay later every follower has executed it.
		tc.sim.Schedule(at+time.Millisecond+hb+tc.cfg.OneWay(tc.cfg.Nodes[0], tc.cfg.Nodes[1]), func() {
			for _, id := range tc.cfg.Nodes[1:] {
				if _, ok := tc.replicas[id].Store().Get(cmd.Key); !ok {
					t.Errorf("write %d: %v has not executed it an interval after its commit", i, id)
				}
			}
		})
	}
	tc.sim.Run(10*time.Millisecond + writes*gap + 2*hb)
	if got := len(tc.client.replies); got != writes {
		t.Errorf("%d of %d writes answered", got, writes)
	}
}
