package epaxos

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wire"
)

// The step-function benchmark drives one command leader's handlers on a null
// context, the way paxos's BenchmarkLeaderCommit drives the shared core: what
// it reports is EPaxos's own bookkeeping per committed command — instance
// space, interference indexes, execution graph, sessions — with no codec,
// transport or scheduler in the number.

const benchN = 5

var benchValue = []byte("8 bytes.")

// stepCtx is a null context that keeps the last PreAccept the replica sent.
type stepCtx struct {
	*nodetest.Null
	pa wire.PreAccept
}

func (c *stepCtx) Broadcast(_ []ids.ID, m wire.Msg) {
	if pa, ok := m.(wire.PreAccept); ok {
		c.pa = pa
	}
}

// stepLeader is a command leader in an N=5 cluster: step hands it one
// client request, then the fast quorum's agreeing PreAcceptReplies, which
// commit the instance on the fast path and execute it.
type stepLeader struct {
	ctx  *stepCtx
	r    *Replica
	cc   config.Cluster
	keys uint64
	seq  uint64
}

// newStepLeader returns a leader warmed past the rings' growth and the first
// instance-space collections.
func newStepLeader(keys uint64) *stepLeader {
	cc := config.NewLAN(benchN)
	l := &stepLeader{ctx: &stepCtx{Null: nodetest.New(cc.Nodes[0])}, cc: cc, keys: keys}
	l.r = New(l.ctx, Config{Cluster: cc, ID: cc.Nodes[0]})
	l.r.Start()
	for i := 0; i < 10000; i++ {
		l.step()
	}
	return l
}

func (l *stepLeader) step() {
	l.ctx.Clock += 50 * time.Microsecond
	l.seq++
	l.r.OnMessage(ids.NewID(999, 1), wire.Request{Cmd: kvstore.Command{
		Op: kvstore.Put, Key: l.seq % l.keys, Value: benchValue, ClientID: 1, Seq: l.seq,
	}})
	pa := l.ctx.pa
	for _, id := range l.cc.Nodes[1:4] {
		l.r.OnMessage(id, wire.PreAcceptReply{
			Inst: pa.Inst, From: id, OK: true, Ballot: pa.Ballot, Seq: pa.Seq, Deps: pa.Deps,
		})
	}
}

var benchCases = []struct {
	name string
	keys uint64
}{
	{"nonconflicting", 1000},
	{"conflicting", 1},
}

func BenchmarkEPaxosCommit(b *testing.B) {
	for _, bc := range benchCases {
		b.Run(bc.name, func(b *testing.B) {
			l := newStepLeader(bc.keys)
			before := l.r.Stats().Executions
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.step()
			}
			b.StopTimer()
			if got := l.r.Stats().Executions - before; got != uint64(b.N) {
				b.Fatalf("%d executions in %d steps", got, b.N)
			}
		})
	}
}

// TestEPaxosSteadyStateAllocs pins what one committed command allocates on
// the command leader. The count is the messages it boxes for Send and
// Broadcast, the dependency slices that travel in them and the vote list;
// the state machine borrows the value instead of copying it (see kvstore).
// Per-instance state — the instance
// itself, its execution-graph marks, its recovery clock — lives in the row
// rings and allocates nothing. A rise here is a new allocation on the commit
// path; find it before raising the pin.
func TestEPaxosSteadyStateAllocs(t *testing.T) {
	for _, bc := range benchCases {
		l := newStepLeader(bc.keys)
		before := l.r.Stats().Executions
		got := testing.AllocsPerRun(2000, l.step)
		if n := l.r.Stats().Executions - before; n != 2001 {
			t.Fatalf("%s: %d executions in 2001 steps", bc.name, n)
		}
		const pin = 7
		if got > pin {
			t.Errorf("%s: %.1f allocs per committed command, pinned at %d", bc.name, got, pin)
		} else {
			t.Logf("%s: %.1f allocs per committed command (pin %d)", bc.name, got, pin)
		}
	}
}
