package paxos

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/wire"
)

// testCluster wires n replicas and one unmetered client onto a simulated
// LAN.
type testCluster struct {
	sim      *des.Sim
	net      *netsim.Network
	cfg      config.Cluster
	replicas map[ids.ID]*Replica
	handlers map[ids.ID]*trampoline
	client   *testClient
}

type testClient struct {
	sim      *des.Sim
	ep       *netsim.Endpoint
	id       ids.ID
	replies  []wire.Reply
	busy     int
	lastBusy wire.Busy
	sent     map[[2]uint64]sentCmd // (ClientID, Seq) → original send, for Busy retries
}

type sentCmd struct {
	to  ids.ID
	cmd kvstore.Command
}

func (c *testClient) OnMessage(from ids.ID, m wire.Msg) {
	switch r := m.(type) {
	case wire.Reply:
		c.replies = append(c.replies, r)
	case wire.Busy:
		// Honor the backpressure: resend the same command after the hint.
		c.busy++
		c.lastBusy = r
		if s, ok := c.sent[[2]uint64{r.ClientID, r.Seq}]; ok {
			c.sim.Schedule(r.RetryAfter, func() { c.ep.Send(s.to, wire.Request{Cmd: s.cmd}) })
		}
	}
}

func (c *testClient) send(to ids.ID, cmd kvstore.Command) {
	c.sent[[2]uint64{cmd.ClientID, cmd.Seq}] = sentCmd{to: to, cmd: cmd}
	c.ep.Send(to, wire.Request{Cmd: cmd})
}

// trampoline lets us register an endpoint before the replica exists.
type trampoline struct{ h func(from ids.ID, m wire.Msg) }

func (tr *trampoline) OnMessage(from ids.ID, m wire.Msg) { tr.h(from, m) }

func newCluster(t *testing.T, n int, mut func(*Config)) *testCluster {
	t.Helper()
	sim := des.New(7)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	tc := &testCluster{sim: sim, net: net, cfg: cc, replicas: make(map[ids.ID]*Replica), handlers: make(map[ids.ID]*trampoline)}
	for _, id := range cc.Nodes {
		id := id
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		cfg := Config{Cluster: cc, ID: id, InitialLeader: cc.Nodes[0]}
		if mut != nil {
			mut(&cfg)
		}
		r := New(ep, cfg, nil)
		tr.h = r.OnMessage
		tc.replicas[id] = r
		tc.handlers[id] = tr
	}
	cl := &testClient{sim: sim, id: ids.NewID(999, 1), sent: make(map[[2]uint64]sentCmd)}
	cl.ep = net.Register(cl.id, cl, true)
	tc.client = cl
	sim.Schedule(0, func() {
		for _, r := range tc.replicas {
			r.Start()
		}
	})
	return tc
}

func (tc *testCluster) leader() *Replica { return tc.replicas[tc.cfg.Nodes[0]] }

func TestPutGetThroughLog(t *testing.T) {
	tc := newCluster(t, 5, nil)
	leader := tc.cfg.Nodes[0]
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("v1"), ClientID: 9, Seq: 1})
	})
	tc.sim.Schedule(10*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Get, Key: 1, ClientID: 9, Seq: 2})
	})
	tc.sim.Run(100 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d, want 2", len(tc.client.replies))
	}
	put, get := tc.client.replies[0], tc.client.replies[1]
	if !put.OK || put.Seq != 1 {
		t.Errorf("put reply: %+v", put)
	}
	if !get.OK || !get.Exists || string(get.Value) != "v1" {
		t.Errorf("get reply: %+v", get)
	}
}

func TestFollowerRedirects(t *testing.T) {
	tc := newCluster(t, 3, nil)
	follower := tc.cfg.Nodes[2]
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(follower, kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
	})
	tc.sim.Run(50 * time.Millisecond)
	if len(tc.client.replies) != 1 {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	rep := tc.client.replies[0]
	if rep.OK {
		t.Error("follower must not serve")
	}
	if rep.Leader != tc.cfg.Nodes[0] {
		t.Errorf("redirect to %v, want %v", rep.Leader, tc.cfg.Nodes[0])
	}
	if tc.replicas[follower].Stats().Redirects != 1 {
		t.Error("redirect not counted")
	}
}

func TestFollowersConvergeViaWatermarks(t *testing.T) {
	tc := newCluster(t, 5, nil)
	leader := tc.cfg.Nodes[0]
	for i := 0; i < 20; i++ {
		i := i
		tc.sim.Schedule(time.Duration(5+i)*time.Millisecond, func() {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i % 4), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1),
			})
		})
	}
	// Run long enough for heartbeat watermarks to flush the tail.
	tc.sim.Run(300 * time.Millisecond)
	want := tc.leader().Store().Checksum()
	applied := tc.leader().Store().Applied()
	if applied != 20 {
		t.Fatalf("leader applied %d, want 20", applied)
	}
	for _, id := range tc.cfg.Nodes[1:] {
		r := tc.replicas[id]
		if r.Store().Applied() != applied {
			t.Errorf("%v applied %d, want %d", id, r.Store().Applied(), applied)
		}
		if r.Store().Checksum() != want {
			t.Errorf("%v diverged from leader", id)
		}
	}
}

func TestSingleNodeCluster(t *testing.T) {
	tc := newCluster(t, 1, nil)
	tc.sim.Schedule(time.Millisecond, func() {
		tc.client.send(tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("solo"), ClientID: 1, Seq: 1})
	})
	tc.sim.Run(50 * time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatalf("single-node cluster must self-commit: %+v", tc.client.replies)
	}
}

func TestDuplicateRequestAnsweredFromSession(t *testing.T) {
	tc := newCluster(t, 3, nil)
	leader := tc.cfg.Nodes[0]
	cmd := kvstore.Command{Op: kvstore.Put, Key: 4, Value: []byte("once"), ClientID: 7, Seq: 1}
	tc.sim.Schedule(5*time.Millisecond, func() { tc.client.send(leader, cmd) })
	tc.sim.Run(50 * time.Millisecond)
	// Retry the same (ClientID, Seq) — e.g. the client timed out.
	tc.sim.Schedule(0, func() { tc.client.send(leader, cmd) })
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d, want original + cached", len(tc.client.replies))
	}
	if tc.leader().Store().Applied() != 1 {
		t.Fatalf("command applied %d times, want exactly once", tc.leader().Store().Applied())
	}
	if tc.leader().Stats().Duplicates != 1 {
		t.Error("duplicate not counted")
	}
	if tc.client.replies[1].Slot != tc.client.replies[0].Slot {
		t.Error("cached reply must reference the original slot")
	}
}

func TestInFlightDuplicateIgnored(t *testing.T) {
	tc := newCluster(t, 3, nil)
	leader := tc.cfg.Nodes[0]
	cmd := kvstore.Command{Op: kvstore.Put, Key: 4, Value: []byte("x"), ClientID: 7, Seq: 1}
	// Two copies in the same instant: only one slot may be allocated.
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(leader, cmd)
		tc.client.send(leader, cmd)
	})
	tc.sim.Run(100 * time.Millisecond)
	if tc.leader().Store().Applied() != 1 {
		t.Fatalf("applied %d, want 1", tc.leader().Store().Applied())
	}
	if len(tc.client.replies) != 1 {
		t.Fatalf("replies = %d, want 1 (in-flight duplicate ignored)", len(tc.client.replies))
	}
}

func TestLossyNetworkEndToEnd(t *testing.T) {
	// 10% message loss: retransmits + catch-up + client-side retries (the
	// harness client rotates) must still serve and converge. Here we rely
	// on leader retransmit only, with a patient client.
	sim := des.New(99)
	cc := config.NewLAN(5)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	replicas := make(map[ids.ID]*Replica)
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		r := New(ep, Config{
			Cluster: cc, ID: id, InitialLeader: cc.Nodes[0],
			RetryTimeout: 5 * time.Millisecond,
		}, nil)
		tr.h = r.OnMessage
		replicas[id] = r
	}
	cl := &testClient{sim: sim, id: ids.NewID(999, 1), sent: make(map[[2]uint64]sentCmd)}
	cl.ep = net.Register(cl.id, cl, true)
	net.SetAllLinkFaults(netsim.LinkFaults{Loss: 0.10})
	sim.Schedule(0, func() {
		for _, r := range replicas {
			r.Start()
		}
	})
	// Each command uses its own session (clients keep one outstanding
	// request per session; the cache remembers the last reply per client)
	// and retries until a reply lands — dedup makes retries harmless.
	const total = 20
	for i := 1; i <= total; i++ {
		i := i
		cmd := kvstore.Command{Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: uint64(i), Seq: 1}
		for attempt := 0; attempt < 12; attempt++ {
			at := time.Duration(i)*20*time.Millisecond + time.Duration(attempt)*150*time.Millisecond
			sim.Schedule(at, func() {
				done := false
				for _, rep := range cl.replies {
					if rep.ClientID == cmd.ClientID && rep.OK {
						done = true
					}
				}
				if !done {
					cl.send(cc.Nodes[0], cmd)
				}
			})
		}
	}
	sim.Run(10 * time.Second)
	okClients := map[uint64]bool{}
	for _, rep := range cl.replies {
		if rep.OK {
			okClients[rep.ClientID] = true
		}
	}
	if len(okClients) != total {
		t.Fatalf("served %d of %d commands under 10%% loss", len(okClients), total)
	}
	leader := replicas[cc.Nodes[0]]
	if leader.Store().Applied() != total {
		t.Fatalf("leader applied %d, want exactly %d (dedup under retries)", leader.Store().Applied(), total)
	}
}

// TestIngressBoundShedsWithBusy fires eight simultaneous commands at a
// leader whose window holds one slot and whose ingress queue holds two
// commands. The overflow must be shed with wire.Busy — never queued past
// MaxPending — and because Busy is backpressure rather than loss, every
// client's retry must eventually land.
func TestIngressBoundShedsWithBusy(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxBatchSize = 1
		c.MaxPending = 2
	})
	leader := tc.cfg.Nodes[0]
	tc.sim.Schedule(5*time.Millisecond, func() {
		for i := 1; i <= 8; i++ {
			tc.client.send(leader, kvstore.Command{
				Op: kvstore.Put, Key: uint64(i), Value: []byte("v"),
				ClientID: uint64(i), Seq: 1,
			})
		}
	})
	tc.sim.Run(2 * time.Second)
	st := tc.leader().Stats()
	if st.Busy == 0 {
		t.Error("8 simultaneous commands against window 1 + queue 2 shed none")
	}
	if st.MaxQueueDepth > 2 {
		t.Errorf("ingress high-water %d exceeded MaxPending 2", st.MaxQueueDepth)
	}
	if tc.client.lastBusy.RetryAfter <= 0 {
		t.Error("Busy carries no retry-after hint")
	}
	if tc.client.lastBusy.Leader != leader {
		t.Errorf("Busy names leader %v, want %v", tc.client.lastBusy.Leader, leader)
	}
	if got := len(tc.client.replies); got != 8 {
		t.Fatalf("replies = %d, want 8 (shed commands must complete on retry)", got)
	}
	for _, rep := range tc.client.replies {
		if !rep.OK {
			t.Errorf("failed reply %+v", rep)
		}
	}
}

// TestExpiredQueuedCommandsDropped wedges the pipeline with a partition so
// queued commands outlive QueueTTL, then checks the flush drops them
// instead of proposing dead work — and that a dropped command's sequence
// number stays re-admittable, since shedding never consumed its session
// slot.
func TestExpiredQueuedCommandsDropped(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.MaxInFlight = 1
		c.MaxBatchSize = 1
		c.QueueTTL = 20 * time.Millisecond
		c.RetryTimeout = 30 * time.Millisecond // re-propose the wedged slot after heal
	})
	leader := tc.cfg.Nodes[0]
	cmd := func(id uint64) kvstore.Command {
		return kvstore.Command{Op: kvstore.Put, Key: id, Value: []byte("v"), ClientID: id, Seq: 1}
	}
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.net.Partition([]ids.ID{leader}, tc.cfg.Nodes[1:])
	})
	// Command 1 fills the one-slot window and cannot commit; 2 and 3 queue
	// behind it.
	tc.sim.Schedule(10*time.Millisecond, func() { tc.client.send(leader, cmd(1)) })
	tc.sim.Schedule(12*time.Millisecond, func() {
		tc.client.send(leader, cmd(2))
		tc.client.send(leader, cmd(3))
	})
	// Heal before command 1's ~40ms retransmit: it then commits at ~41ms,
	// and that commit's flush finds 2 and 3 having sat past QueueTTL —
	// dropped, not proposed. Command 4 arrives after, into an open window.
	tc.sim.Schedule(35*time.Millisecond, func() { tc.net.HealPartition() })
	tc.sim.Schedule(50*time.Millisecond, func() { tc.client.send(leader, cmd(4)) })
	// A retry of dropped command 2 must be re-admitted as new work.
	tc.sim.Schedule(200*time.Millisecond, func() { tc.client.send(leader, cmd(2)) })
	tc.sim.Run(time.Second)

	if got := tc.leader().Stats().DroppedExpired; got != 2 {
		t.Errorf("dropped-expired = %d, want 2", got)
	}
	okBy := map[uint64]int{}
	for _, rep := range tc.client.replies {
		if rep.OK {
			okBy[rep.ClientID]++
		}
	}
	for _, id := range []uint64{1, 2, 4} {
		if okBy[id] != 1 {
			t.Errorf("client %d got %d OK replies, want 1", id, okBy[id])
		}
	}
	if okBy[3] != 0 {
		t.Errorf("dropped command 3 was answered %d times — it must not have been proposed", okBy[3])
	}
	if _, ok := tc.leader().Store().Get(3); ok {
		t.Error("dropped command 3 reached the state machine")
	}
	if _, ok := tc.leader().Store().Get(2); !ok {
		t.Error("re-admitted command 2 never reached the state machine")
	}
}

// TestOverloadLatencySheds trips the commit-latency arm of the overload
// detector: with OverloadLatency set below any real LAN commit latency, the
// first commit pushes the EWMA over the threshold and every later command
// must be shed with Busy.
func TestOverloadLatencySheds(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) {
		c.OverloadLatency = time.Nanosecond
	})
	leader := tc.cfg.Nodes[0]
	tc.sim.Schedule(5*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("v"), ClientID: 1, Seq: 1})
	})
	// By now the first command committed and seeded the EWMA.
	tc.sim.Schedule(100*time.Millisecond, func() {
		tc.client.send(leader, kvstore.Command{Op: kvstore.Put, Key: 2, Value: []byte("v"), ClientID: 2, Seq: 1})
	})
	tc.sim.Run(300 * time.Millisecond)
	if tc.client.busy == 0 || tc.leader().Stats().Busy == 0 {
		t.Error("EWMA above OverloadLatency did not shed")
	}
	okBy := map[uint64]int{}
	for _, rep := range tc.client.replies {
		if rep.OK {
			okBy[rep.ClientID]++
		}
	}
	if okBy[1] != 1 {
		t.Errorf("pre-overload command got %d OK replies, want 1", okBy[1])
	}
	// No commits ever decay the EWMA here, so the second command can only
	// ever see Busy.
	if okBy[2] != 0 {
		t.Errorf("command shed by the latency detector was served %d times", okBy[2])
	}
}

// TestRetriesExecuteOnce pins the session table's three jobs on the shared
// core: a retry of a pipelined command still in flight re-attaches instead of
// executing twice; a command shed with Busy is served when its retry comes
// after a newer one executed; and a retry buffered while a new leader
// campaigns re-attaches to the slot the campaign re-proposes.
func TestRetriesExecuteOnce(t *testing.T) {
	put := func(client, seq uint64, v string) kvstore.Command {
		return kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte(v), ClientID: client, Seq: seq}
	}
	// raw sends without the test client's Busy retry: the case decides when.
	raw := func(tc *testCluster, to ids.ID, cmd kvstore.Command) { tc.client.ep.Send(to, wire.Request{Cmd: cmd}) }
	acked := func(tc *testCluster, client, seq uint64) bool {
		for _, rep := range tc.client.replies {
			if rep.OK && rep.ClientID == client && rep.Seq == seq {
				return true
			}
		}
		return false
	}
	for _, tc := range []struct {
		name  string
		n     int
		mut   func(*Config)
		run   func(tc *testCluster)
		check func(t *testing.T, tc *testCluster)
	}{{
		name: "pipelined retry",
		n:    3,
		run: func(tc *testCluster) {
			leader := tc.cfg.Nodes[0]
			tc.sim.Schedule(5*time.Millisecond, func() {
				raw(tc, leader, put(7, 1, "a"))
				raw(tc, leader, put(7, 2, "b"))
				raw(tc, leader, put(7, 1, "a")) // the sweep re-sends what is pending
			})
			tc.sim.Run(100 * time.Millisecond)
		},
		check: func(t *testing.T, tc *testCluster) {
			for _, r := range tc.replicas {
				if v, _ := r.Store().Get(1); r.Store().Applied() != 2 || string(v) != "b" {
					t.Errorf("%v applied %d commands, key = %q; want 2 and \"b\"", r.ID(), r.Store().Applied(), v)
				}
			}
		},
	}, {
		name: "shed then newer",
		n:    3,
		mut:  func(c *Config) { c.MaxInFlight, c.MaxPending = 1, 1 },
		run: func(tc *testCluster) {
			leader := tc.cfg.Nodes[0]
			tc.sim.Schedule(5*time.Millisecond, func() {
				raw(tc, leader, put(8, 1, "x")) // fills the one-slot window
				raw(tc, leader, put(8, 2, "x")) // fills the queue
				raw(tc, leader, put(7, 1, "a")) // shed with Busy
			})
			tc.sim.Schedule(20*time.Millisecond, func() { raw(tc, leader, put(7, 2, "b")) })
			tc.sim.Schedule(40*time.Millisecond, func() { raw(tc, leader, put(7, 1, "a")) })
			tc.sim.Run(100 * time.Millisecond)
		},
		check: func(t *testing.T, tc *testCluster) {
			if tc.client.busy != 1 {
				t.Fatalf("%d Busy replies, want 1", tc.client.busy)
			}
			if !acked(tc, 7, 1) || !acked(tc, 7, 2) {
				t.Errorf("client 7: seq 1 acked %v, seq 2 acked %v; want both", acked(tc, 7, 1), acked(tc, 7, 2))
			}
		},
	}, {
		name: "retry buffered during a campaign",
		n:    5,
		run: func(tc *testCluster) {
			old, next := tc.cfg.Nodes[0], tc.cfg.Nodes[1]
			tc.sim.Run(10 * time.Millisecond)
			// The P2a reaches node 2 alone: accepted by a minority.
			tc.net.Partition([]ids.ID{old}, tc.cfg.Nodes[2:])
			tc.sim.Schedule(0, func() { raw(tc, old, put(3, 1, "a")) })
			tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
			tc.net.Crash(old)
			tc.net.HealPartition()
			tc.sim.Schedule(0, func() {
				tc.replicas[next].Campaign()
				raw(tc, next, put(3, 1, "a")) // lands in the campaign buffer
			})
			tc.sim.Run(tc.sim.Now() + time.Second)
		},
		check: func(t *testing.T, tc *testCluster) {
			for _, id := range tc.cfg.Nodes[1:] {
				if got := tc.replicas[id].Store().Applied(); got != 1 {
					t.Errorf("%v applied %d commands, want 1", id, got)
				}
			}
			if !acked(tc, 3, 1) {
				t.Error("the retried command was never acknowledged")
			}
		},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			c := newCluster(t, tc.n, tc.mut)
			tc.run(c)
			tc.check(t, c)
		})
	}
}
