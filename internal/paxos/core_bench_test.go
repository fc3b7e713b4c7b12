package paxos

import (
	"fmt"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wire"
)

// The step-function benchmarks drive one replica's handlers on a null
// context: what they report is the core's own bookkeeping per committed
// slot — log, tallies, routes, sessions, timers — with no codec, transport
// or scheduler in the number. Configured like a production node (compaction
// on, retransmit armed) so the per-slot timer and the window slide are paid.

const benchN = 5

func benchConfig(cc config.Cluster, id ids.ID, batch int) Config {
	return Config{
		Cluster: cc, ID: id, InitialLeader: cc.Nodes[0],
		RetryTimeout: 250 * time.Millisecond,
		CompactEvery: 4096,
		MaxBatchSize: batch,
		MaxInFlight:  1,
		MaxPending:   -1,
	}
}

// stepLeader is an elected leader with one batch-sized slot always in
// flight: step commits that slot from a quorum of votes, which executes it,
// answers its clients and proposes the batch queued behind it.
type stepLeader struct {
	ctx   *nodetest.Null
	r     *Replica
	cc    config.Cluster
	batch int
	seq   uint64
	slot  uint64 // the slot in flight
}

func newStepLeader(tb testing.TB, batch int) *stepLeader {
	cc := config.NewLAN(benchN)
	l := &stepLeader{ctx: nodetest.New(cc.Nodes[0]), cc: cc, batch: batch}
	l.r = New(l.ctx, benchConfig(cc, cc.Nodes[0], batch), nil)
	l.r.Start()
	for _, id := range cc.Nodes[1:3] {
		l.r.OnMessage(id, wire.P1b{Ballot: l.r.Ballot(), From: id, Floor: 1})
	}
	if !l.r.IsLeader() {
		tb.Fatal("leader not elected")
	}
	l.enqueue() // proposes slot 1 (the first command alone) and queues the rest
	l.slot = 1
	l.step()
	return l
}

// enqueue admits one batch of commands from the batch's sessions.
func (l *stepLeader) enqueue() {
	l.seq++
	for c := 0; c < l.batch; c++ {
		l.r.OnRequest(ids.NewID(999, c+1), wire.Request{Cmd: kvstore.Command{
			Op: kvstore.Put, Key: uint64(c), Value: benchValue, ClientID: uint64(c + 1), Seq: l.seq,
		}})
	}
}

var benchValue = []byte("8 bytes.")

// step queues the next batch, then commits the slot in flight.
func (l *stepLeader) step() {
	l.ctx.Clock += 50 * time.Microsecond
	l.enqueue()
	for _, id := range l.cc.Nodes[1:3] {
		l.r.OnMessage(id, wire.P2b{Ballot: l.r.Ballot(), From: id, Slot: l.slot})
	}
	l.slot++
}

// stepFollower accepts one batch-sized slot per step under a watermark that
// commits and executes the slot before it.
type stepFollower struct {
	ctx    *nodetest.Null
	r      *Replica
	leader ids.ID
	ballot ids.Ballot
	batch  int
	slot   uint64
}

func newStepFollower(batch int) *stepFollower {
	cc := config.NewLAN(benchN)
	f := &stepFollower{ctx: nodetest.New(cc.Nodes[1]), leader: cc.Nodes[0], ballot: ids.NewBallot(1, cc.Nodes[0]), batch: batch}
	f.r = New(f.ctx, benchConfig(cc, cc.Nodes[1], batch), nil)
	f.r.Start()
	return f
}

func (f *stepFollower) step() {
	f.ctx.Clock += 50 * time.Microsecond
	f.slot++
	// A fresh batch per slot, as the decoder hands one over: the log keeps it.
	cmds := make([]kvstore.Command, f.batch)
	for c := range cmds {
		cmds[c] = kvstore.Command{Op: kvstore.Put, Key: uint64(c), Value: benchValue, ClientID: uint64(c + 1), Seq: f.slot}
	}
	f.r.OnMessage(f.leader, wire.P2a{Ballot: f.ballot, Slot: f.slot, Cmds: cmds, Commit: f.slot})
}

func BenchmarkLeaderCommit(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			l := newStepLeader(b, batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.step()
			}
			b.StopTimer()
			if got := l.r.Stats().Commits; got < uint64(b.N) {
				b.Fatalf("%d commits in %d steps", got, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/cmd")
		})
	}
}

func BenchmarkFollowerAccept(b *testing.B) {
	for _, batch := range []int{1, 16} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			f := newStepFollower(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.step()
			}
			b.StopTimer()
			if got := f.r.Log().ExecuteCursor(); got < uint64(b.N) {
				b.Fatalf("cursor at %d after %d steps", got, b.N)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/cmd")
		})
	}
}

// TestCoreSteadyStateAllocs pins what one committed slot allocates in the
// core, the way TestHotPathZeroAllocs pins the codec. The leader's count is
// the batch and route slices it builds, the messages it boxes for Send and
// the ingress queue it regrows; the follower's is the batch the test itself
// builds and the vote it boxes. The state machine borrows each value and
// copies none (see kvstore). Per-slot state — log entry, vote tally, retransmit timer, in-flight record
// — allocates nothing: it lives in rings. A rise here is a new allocation on
// the commit path; find it before raising the pin.
func TestCoreSteadyStateAllocs(t *testing.T) {
	const warm = 10000 // past the rings' growth and the first compactions
	for _, tc := range []struct {
		name string
		step func()
		max  float64
	}{
		{"leader/B=1", newStepLeader(t, 1).step, 4},
		{"leader/B=16", newStepLeader(t, 16).step, 19},
		{"follower/B=1", newStepFollower(1).step, 2},
		{"follower/B=16", newStepFollower(16).step, 2},
	} {
		step := tc.step
		for i := 0; i < warm; i++ {
			step()
		}
		if got := testing.AllocsPerRun(2000, step); got > tc.max {
			t.Errorf("%s: %.1f allocs per committed slot, pinned at %.0f", tc.name, got, tc.max)
		} else {
			t.Logf("%s: %.1f allocs per committed slot (pin %.0f)", tc.name, got, tc.max)
		}
	}
}
