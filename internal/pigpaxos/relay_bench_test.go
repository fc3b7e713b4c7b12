package pigpaxos

import (
	"testing"
	"time"

	"pigpaxos/internal/client"
	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/transport"
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

// hiddenTurns wraps a context the way a tracing wrapper that embeds
// node.Context does: the substrate's node.Turns does not show through, so
// the replica draws relays per fan-out.
type hiddenTurns struct{ node.Context }

// BenchmarkRelayPlaneLoopback runs a five-replica PigPaxos cluster (r=2) on
// loopback TCP, each replica configured as the benchmark module's tcp5-pig
// builds it, under 64 closed-loop sessions pipelined over one client
// connection, and reports the cluster's socket calls per committed op. Under
// "turns" the leader draws relays once per event-loop turn; "hidden" hides
// the turns, so every fan-out draws its own. The gap between the two is what
// per-turn draws save in writes.
func BenchmarkRelayPlaneLoopback(b *testing.B) {
	b.Run("turns", func(b *testing.B) { benchLoopback(b, false) })
	b.Run("hidden", func(b *testing.B) { benchLoopback(b, true) })
}

func benchLoopback(b *testing.B, hide bool) {
	const sessions, warmup = 64, 2000
	cc := config.NewLAN(5)
	addrs := make(map[ids.ID]string)
	var nodes []*transport.TCPNode
	defer func() {
		for _, tn := range nodes {
			tn.Close()
		}
	}()
	var starts []func()
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		tn, err := transport.ListenTCP(id, "127.0.0.1:0", make(map[ids.ID]string), tr)
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, tn)
		addrs[id] = tn.Addr()
		var ctx node.Context = tn
		if hide {
			ctx = hiddenTurns{tn}
		}
		r := New(ctx, Config{
			Paxos: paxos.Config{
				Cluster: cc, ID: id, InitialLeader: cc.Nodes[0],
				ElectionTimeout: time.Minute, MaxPending: -1,
				RetryTimeout: 250 * time.Millisecond, CompactEvery: 4096, SnapshotEvery: 4096,
			},
			NumGroups: 2, RelayTimeout: 50 * time.Millisecond,
		})
		tr.h = r.OnMessage
		starts = append(starts, r.Start)
	}
	for i, tn := range nodes {
		for id, a := range addrs {
			tn.RegisterAddr(id, a)
		}
		tn.After(0, starts[i])
	}

	demux := &trampoline{}
	cl := transport.DialTCP(ids.NewID(999, 1), addrs, demux)
	nodes = append(nodes, cl)
	ss := make([]client.Session, sessions)
	var issued, done, want int // the client's event loop only
	var over chan struct{}
	value := []byte("8 bytes.")
	issue := func(s *client.Session) {
		if issued < want {
			issued++
			s.Issue(kvstore.Command{Op: kvstore.Put, Key: s.ClientID, Value: value}, cl.Now())
		}
	}
	for i := range ss {
		s := &ss[i]
		*s = client.Session{
			Ctx: cl, ClientID: uint64(i + 1), Targets: cc.Nodes, Target: cc.Nodes[0],
			Window: 1, Retry: time.Second,
			Done: func(client.Op, wire.Reply) {
				if done++; done == want {
					close(over)
				}
				issue(s)
			},
		}
	}
	demux.h = func(from ids.ID, m wire.Msg) {
		if i := client.Addressee(m) - 1; i < sessions {
			ss[i].OnMessage(from, m)
		}
	}
	run := func(ops int) {
		ch := make(chan struct{})
		cl.After(0, func() {
			issued, done, want, over = 0, 0, ops, ch
			for i := range ss {
				issue(&ss[i])
			}
		})
		select {
		case <-ch:
		case <-time.After(time.Minute):
			b.Fatalf("%d ops did not commit in a minute", ops)
		}
	}
	socket := func() (writes, reads uint64) {
		for _, tn := range nodes[:len(cc.Nodes)] {
			st := tn.Stats()
			writes, reads = writes+st.Writes, reads+st.Reads
		}
		return
	}

	run(warmup)
	w0, r0 := socket()
	start := time.Now()
	b.ResetTimer()
	run(b.N)
	b.StopTimer()
	elapsed := time.Since(start)
	w1, r1 := socket()
	b.ReportMetric(float64(w1-w0)/float64(b.N), "writes/op")
	b.ReportMetric(float64(r1-r0)/float64(b.N), "reads/op")
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
}
