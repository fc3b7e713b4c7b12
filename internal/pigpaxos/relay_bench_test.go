package pigpaxos

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/wire"
)

// stepRelay is a follower of a 5-node, r=2 cluster serving as its group's
// relay every round, on a null context: step is one RelayP2a in (accept,
// forward, open the aggregation, arm its timeout), the group's other vote in,
// and the aggregate out. What it costs is the relay plane's own bookkeeping
// on top of the acceptor's.
type stepRelay struct {
	ctx    *nodetest.Null
	r      *Replica
	leader ids.ID
	peers  []ids.ID
	ballot ids.Ballot
	slot   uint64
}

func newStepRelay() *stepRelay {
	cc := config.NewLAN(5)
	s := &stepRelay{
		ctx: nodetest.New(cc.Nodes[1]), leader: cc.Nodes[0], peers: cc.Nodes[2:3],
		ballot: ids.NewBallot(1, cc.Nodes[0]),
	}
	s.r = New(s.ctx, Config{
		Paxos: paxos.Config{
			Cluster: cc, ID: cc.Nodes[1], InitialLeader: cc.Nodes[0],
			CompactEvery: 4096,
		},
		NumGroups: 2,
	})
	s.r.Start()
	return s
}

var relayBenchValue = []byte("8 bytes.")

func (s *stepRelay) step() {
	s.ctx.Clock += 50 * time.Microsecond
	s.slot++
	cmds := []kvstore.Command{{Op: kvstore.Put, Key: s.slot % 64, Value: relayBenchValue, ClientID: 1, Seq: s.slot}}
	s.r.OnMessage(s.leader, wire.RelayP2a{
		P2a:     wire.P2a{Ballot: s.ballot, Slot: s.slot, Cmds: cmds, Commit: s.slot},
		Peers:   s.peers,
		Timeout: 50 * time.Millisecond,
	})
	s.r.OnMessage(s.peers[0], wire.P2b{Ballot: s.ballot, From: s.peers[0], Slot: s.slot})
}

func BenchmarkRelayRound(b *testing.B) {
	s := newStepRelay()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.step()
	}
	b.StopTimer()
	if got := s.r.Stats().FullFlushes; got != uint64(b.N) {
		b.Fatalf("%d full aggregates from %d rounds", got, b.N)
	}
}

// TestRelaySteadyStateAllocs pins a relay round's allocations: the batch the
// test builds, the ack list that leaves in the aggregate, and the two
// messages boxed for Send. The state machine borrows the value instead of
// copying it (see kvstore); the aggregation itself and its timeout are ring
// cells.
func TestRelaySteadyStateAllocs(t *testing.T) {
	s := newStepRelay()
	for i := 0; i < 10000; i++ {
		s.step()
	}
	const pin = 4
	if got := testing.AllocsPerRun(2000, s.step); got > pin {
		t.Errorf("%.1f allocs per relay round, pinned at %d", got, pin)
	}
	if s.r.aggs.Len() > aggMemory || s.r.relayDue.Armed() != 0 {
		t.Errorf("relay state grew with the run: %d cells, %d timeouts armed", s.r.aggs.Len(), s.r.relayDue.Armed())
	}
}
