package pigpaxos

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/wire"
)

type testClient struct {
	sim     *des.Sim
	ep      *netsim.Endpoint
	replies []wire.Reply
	busy    int
	sent    map[[2]uint64]sentCmd // (ClientID, Seq) → original send, for Busy retries
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
		c.busy++
		if s, ok := c.sent[[2]uint64{r.ClientID, r.Seq}]; ok {
			c.sim.Schedule(r.RetryAfter, func() { c.ep.Send(s.to, wire.Request{Cmd: s.cmd}) })
		}
	}
}

type trampoline struct{ h func(from ids.ID, m wire.Msg) }

func (tr *trampoline) OnMessage(from ids.ID, m wire.Msg) { tr.h(from, m) }

type cluster struct {
	sim      *des.Sim
	net      *netsim.Network
	cfg      config.Cluster
	replicas map[ids.ID]*Replica
	client   *testClient
}

func newCluster(t *testing.T, n int, wan bool, mut func(*Config)) *cluster {
	t.Helper()
	sim := des.New(11)
	var cc config.Cluster
	if wan {
		cc = config.NewWAN3(n)
	} else {
		cc = config.NewLAN(n)
	}
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	tc := &cluster{sim: sim, net: net, cfg: cc, replicas: make(map[ids.ID]*Replica)}
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		cfg := Config{
			Paxos:     paxos.Config{Cluster: cc, ID: id, InitialLeader: cc.Nodes[0]},
			NumGroups: 2,
		}
		if mut != nil {
			mut(&cfg)
		}
		r := New(ep, cfg)
		tr.h = r.OnMessage
		tc.replicas[id] = r
	}
	cl := &testClient{sim: sim, sent: make(map[[2]uint64]sentCmd)}
	cl.ep = net.Register(ids.NewID(999, 1), cl, true)
	tc.client = cl
	sim.Schedule(0, func() {
		for _, r := range tc.replicas {
			r.Start()
		}
	})
	return tc
}

func (tc *cluster) leader() *Replica { return tc.replicas[tc.cfg.Nodes[0]] }

func (tc *cluster) send(at time.Duration, to ids.ID, cmd kvstore.Command) {
	tc.sim.Schedule(at, func() {
		tc.client.sent[[2]uint64{cmd.ClientID, cmd.Seq}] = sentCmd{to: to, cmd: cmd}
		tc.client.ep.Send(to, wire.Request{Cmd: cmd})
	})
}

func TestElectionThroughRelays(t *testing.T) {
	tc := newCluster(t, 9, false, nil)
	tc.sim.Run(100 * time.Millisecond)
	if !tc.leader().Core().IsLeader() {
		t.Fatal("leader did not establish through relayed phase-1")
	}
	for _, id := range tc.cfg.Nodes[1:] {
		if tc.replicas[id].Core().Leader() != tc.cfg.Nodes[0] {
			t.Errorf("%v does not know the leader", id)
		}
	}
}

func TestPutGetCommits(t *testing.T) {
	tc := newCluster(t, 9, false, nil)
	leader := tc.cfg.Nodes[0]
	tc.send(5*time.Millisecond, leader, kvstore.Command{Op: kvstore.Put, Key: 3, Value: []byte("pig"), ClientID: 1, Seq: 1})
	tc.send(10*time.Millisecond, leader, kvstore.Command{Op: kvstore.Get, Key: 3, ClientID: 1, Seq: 2})
	tc.sim.Run(100 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d, want 2", len(tc.client.replies))
	}
	if !tc.client.replies[0].OK {
		t.Error("put failed")
	}
	g := tc.client.replies[1]
	if !g.OK || !g.Exists || string(g.Value) != "pig" {
		t.Errorf("get reply: %+v", g)
	}
}

func TestLeaderMessageEconomy(t *testing.T) {
	// The whole point of PigPaxos: per request the leader exchanges
	// 2r+2 messages instead of 2(N−1)+2. Measure the leader endpoint's
	// sent+received across a batch of requests and compare.
	const n, reqs = 25, 50
	run := func(groups int) float64 {
		tc := newCluster(t, n, false, func(c *Config) {
			c.NumGroups = groups
			c.Paxos.HeartbeatInterval = time.Hour // isolate request traffic
		})
		tc.sim.Run(5 * time.Millisecond) // establish leadership
		lep := tc.net.Endpoint(tc.cfg.Nodes[0])
		base := lep.Sent() + lep.Received()
		for i := 0; i < reqs; i++ {
			tc.send(tc.sim.Now()+time.Duration(i)*time.Millisecond-tc.sim.Now(), tc.cfg.Nodes[0],
				kvstore.Command{Op: kvstore.Put, Key: uint64(i), ClientID: 1, Seq: uint64(i + 1)})
		}
		tc.sim.Run(tc.sim.Now() + 200*time.Millisecond)
		if len(tc.client.replies) != reqs {
			t.Fatalf("groups=%d: replies=%d", groups, len(tc.client.replies))
		}
		return float64(lep.Sent()+lep.Received()-base) / reqs
	}
	m3 := run(3)
	// Model: 2r+2 = 8 for r=3 (§6.1, Table 1).
	if m3 < 7.5 || m3 > 9.5 {
		t.Errorf("leader messages/request with r=3: %.1f, want ≈ 8", m3)
	}
	m2 := run(2)
	if m2 < 5.5 || m2 > 7.5 {
		t.Errorf("leader messages/request with r=2: %.1f, want ≈ 6", m2)
	}
}

func TestFollowersConverge(t *testing.T) {
	tc := newCluster(t, 9, false, nil)
	leader := tc.cfg.Nodes[0]
	for i := 0; i < 30; i++ {
		tc.send(time.Duration(5+i)*time.Millisecond, leader, kvstore.Command{
			Op: kvstore.Put, Key: uint64(i % 5), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1),
		})
	}
	tc.sim.Run(500 * time.Millisecond)
	want := tc.leader().Core().Store().Checksum()
	if tc.leader().Core().Store().Applied() != 30 {
		t.Fatalf("leader applied %d", tc.leader().Core().Store().Applied())
	}
	for _, id := range tc.cfg.Nodes[1:] {
		r := tc.replicas[id].Core()
		if r.Store().Applied() != 30 || r.Store().Checksum() != want {
			t.Errorf("%v: applied=%d, diverged=%v", id, r.Store().Applied(), r.Store().Checksum() != want)
		}
	}
}

func TestFollowerFailureRelayTimesOut(t *testing.T) {
	// Figure 5a: a crashed follower makes its relay flush a partial
	// aggregate after the relay timeout; the leader still commits from
	// the other groups' votes.
	tc := newCluster(t, 9, false, func(c *Config) {
		c.NumGroups = 3
		c.RelayTimeout = 5 * time.Millisecond
	})
	tc.sim.Run(5 * time.Millisecond)
	tc.net.Crash(tc.cfg.Nodes[8]) // a follower, never the leader
	done := tc.sim.Now()
	// Several rounds so the crippled group gets a live relay at least once
	// (a round that happens to pick the dead node as relay just drops).
	const reqs = 20
	for i := 0; i < reqs; i++ {
		tc.send(time.Duration(i)*10*time.Millisecond, tc.cfg.Nodes[0],
			kvstore.Command{Op: kvstore.Put, Key: uint64(i), Value: []byte("x"), ClientID: 1, Seq: uint64(i + 1)})
	}
	tc.sim.Run(done + 800*time.Millisecond)
	okCount := 0
	for _, rep := range tc.client.replies {
		if rep.OK {
			okCount++
		}
	}
	if okCount != reqs {
		t.Fatalf("%d of %d commits despite one crashed follower", okCount, reqs)
	}
	partial := uint64(0)
	for _, r := range tc.replicas {
		partial += r.Stats().PartialFlushes
	}
	if partial == 0 {
		t.Error("the crashed follower's relay should have flushed a partial aggregate")
	}
}

func TestRelayFailureLeaderRetries(t *testing.T) {
	// Figure 5b: crash a whole group except nobody can relay it; the
	// leader must retry with new relays and still commit via the other
	// groups. Crash 3 of 8 followers (one full group under r=4 layout is
	// hard to force — instead crash whichever relay gets picked by
	// making an entire group dead).
	tc := newCluster(t, 9, false, func(c *Config) {
		c.NumGroups = 2
		c.RelayTimeout = 5 * time.Millisecond
		c.Paxos.RetryTimeout = 12 * time.Millisecond
	})
	tc.sim.Run(5 * time.Millisecond)
	// Group 0 of the leader's layout: crash every member. All relay picks
	// in that group die; the other group + leader = 5 of 9 = majority.
	g0 := tc.leader().Layout().Groups[0]
	for _, id := range g0 {
		tc.net.Crash(id)
	}
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x"), ClientID: 1, Seq: 1})
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatal("commit must survive a fully crashed relay group")
	}
}

func TestMinorityCrashStillCommits(t *testing.T) {
	// f failures in 2f+1 nodes: PigPaxos tolerance equals Paxos (§3.4).
	tc := newCluster(t, 5, false, func(c *Config) {
		c.NumGroups = 2
		c.RelayTimeout = 5 * time.Millisecond
		c.Paxos.RetryTimeout = 12 * time.Millisecond
	})
	tc.sim.Run(5 * time.Millisecond)
	tc.net.Crash(tc.cfg.Nodes[3])
	tc.net.Crash(tc.cfg.Nodes[4])
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x"), ClientID: 1, Seq: 1})
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatal("f=2 crashes in N=5 must not block commits")
	}
}

func TestMajorityCrashBlocks(t *testing.T) {
	tc := newCluster(t, 5, false, func(c *Config) {
		c.NumGroups = 2
		c.RelayTimeout = 5 * time.Millisecond
		c.Paxos.RetryTimeout = 12 * time.Millisecond
	})
	tc.sim.Run(5 * time.Millisecond)
	for _, id := range tc.cfg.Nodes[2:] {
		tc.net.Crash(id)
	}
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
	tc.sim.Run(tc.sim.Now() + time.Second)
	for _, rep := range tc.client.replies {
		if rep.OK {
			t.Fatal("commit without a majority violates safety")
		}
	}
}

// An outage heals however long it lasted. The leader keeps retransmitting an
// open slot for as long as it leads, so a quorum that comes back after any
// number of timeouts commits it and its client is answered — with no new
// proposal and no election to help. (The relay plane's own retry used to give
// up after 10 attempts, and since execution is contiguous that wedged every
// later slot behind this one.)
func TestOutageBeyondOldRetryCapHeals(t *testing.T) {
	const retry = 12 * time.Millisecond
	tc := newCluster(t, 5, false, func(c *Config) {
		c.NumGroups = 2
		c.RelayTimeout = 5 * time.Millisecond
		c.Paxos.RetryTimeout = retry
	})
	tc.sim.Run(5 * time.Millisecond)
	for _, id := range tc.cfg.Nodes[2:] {
		tc.net.Crash(id)
	}
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x"), ClientID: 1, Seq: 1})
	tc.sim.Run(tc.sim.Now() + 25*retry) // the old budget was 11 timeouts
	if len(tc.client.replies) != 0 {
		t.Fatal("commit without a majority violates safety")
	}
	for _, id := range tc.cfg.Nodes[2:] {
		tc.net.Recover(id)
	}
	tc.sim.Run(tc.sim.Now() + 2*time.Second)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatalf("replies after the majority came back: %+v", tc.client.replies)
	}
	core := tc.leader().Core()
	if e := core.Log().Get(tc.client.replies[0].Slot); e == nil || !e.Committed {
		t.Fatal("the open slot did not commit")
	}
	if got := core.Stats().Retransmits; got < 25 {
		t.Errorf("Retransmits = %d, want one per timeout of the outage (≥ 25)", got)
	}
	if core.Stats().Elections != 1 {
		t.Errorf("Elections = %d: the slot must heal without one", core.Stats().Elections)
	}
}

// Figure 5b: the core's retransmit goes out through the relay plane, which
// draws relays afresh for every fan-out. With a relay group dead (here both:
// the slot must stay open) no draw in it answers; the retransmits keep
// coming, the core counts them, and they reach the group through different
// relays.
func TestRetransmitDrawsFreshRelays(t *testing.T) {
	const retry = 12 * time.Millisecond
	tc := newCluster(t, 9, false, func(c *Config) {
		c.NumGroups = 2
		c.RelayTimeout = 5 * time.Millisecond
		c.Paxos.RetryTimeout = retry
		c.Paxos.HeartbeatInterval = time.Hour
	})
	tc.sim.Run(5 * time.Millisecond)
	lead := tc.leader()
	for _, id := range tc.cfg.Nodes[1:] {
		tc.net.Crash(id)
	}
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x"), ClientID: 1, Seq: 1})
	relays := map[ids.ID]bool{}
	for i := 0; i < 40; i++ {
		tc.sim.Run(tc.sim.Now() + retry)
		relays[lead.LastRelay(0)] = true
	}
	if got := lead.Core().Stats().Retransmits; got < 39 || got > 40 {
		t.Errorf("Retransmits = %d after 40 timeouts", got)
	}
	if len(relays) < 2 {
		t.Errorf("every fan-out drew the same relay for group 0: %v", relays)
	}
	for id := range relays {
		if !slices.Contains(lead.Layout().Groups[0], id) {
			t.Errorf("LastRelay(0) = %v is not in group 0", id)
		}
	}
}

func TestRelayRotation(t *testing.T) {
	// Random relay selection must spread relay duty across group members
	// (§3.2's hotspot-avoidance argument).
	tc := newCluster(t, 25, false, func(c *Config) {
		c.NumGroups = 3
		c.Paxos.HeartbeatInterval = time.Hour
	})
	tc.sim.Run(5 * time.Millisecond)
	for i := 0; i < 200; i++ {
		tc.send(time.Duration(i)*200*time.Microsecond, tc.cfg.Nodes[0],
			kvstore.Command{Op: kvstore.Put, Key: uint64(i), ClientID: 1, Seq: uint64(i + 1)})
	}
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	relayCounts := 0
	nodesWhoRelayed := 0
	for id, r := range tc.replicas {
		if id == tc.cfg.Nodes[0] {
			continue
		}
		if c := r.Stats().RelayRounds; c > 0 {
			nodesWhoRelayed++
			relayCounts += int(c)
		}
	}
	if nodesWhoRelayed < 20 {
		t.Errorf("only %d of 24 followers ever relayed; rotation is broken", nodesWhoRelayed)
	}
}

// turnLoop is a test loop on a substrate with event-loop turns the test
// moves by hand.
type turnLoop struct {
	*nodetest.Loop
	turn uint64
}

func (l *turnLoop) Turn() uint64 { return l.turn }

// fanOuts sends k fan-outs through r's plane, cycling through the three
// kinds that go by relay, and returns the relay each group got per fan-out.
func fanOuts(r *Replica, l *nodetest.Loop, k int) [][]ids.ID {
	ms := []wire.Msg{wire.P2a{Slot: 1}, wire.P1a{}, wire.P3{Slot: 1}}
	out := make([][]ids.ID, k)
	for i := range out {
		l.Events = l.Events[:0]
		(&pigPlane{r}).FanOut(ms[i%len(ms)])
		for _, e := range l.Events {
			out[i] = append(out[i], e.To)
		}
	}
	return out
}

// TestFanOutsInOneTurnShareRelays: on a substrate with turns the fan-outs of
// one turn share one draw per group, so their frames to each relay can share
// a write; successive turns still rotate relay duty evenly (§3.2); and on a
// substrate without turns every fan-out draws, as it always has.
func TestFanOutsInOneTurnShareRelays(t *testing.T) {
	cc := config.NewLAN(9) // two groups of four
	leader := cc.Nodes[0]
	build := func(ctx node.Context) *Replica {
		return New(ctx, Config{Paxos: paxos.Config{Cluster: cc, ID: leader, InitialLeader: leader}, NumGroups: 2})
	}
	// ref replays the draws a fan-out makes from nodetest's fixed seed.
	var ref *rand.Rand
	draw := func(r *Replica) []ids.ID {
		var relays []ids.ID
		for _, g := range r.Layout().Groups {
			relays = append(relays, g[ref.Intn(len(g))])
		}
		return relays
	}

	ref = rand.New(rand.NewSource(1))
	tl := &turnLoop{Loop: nodetest.NewLoop(leader), turn: 1}
	r := build(tl)
	want := draw(r)
	for i, got := range fanOuts(r, tl.Loop, 7) {
		if !slices.Equal(got, want) {
			t.Fatalf("fan-out %d of one turn went to %v, the turn drew %v", i, got, want)
		}
	}
	if tl.Rand().Int63() != ref.Int63() {
		t.Fatal("one turn's fan-outs took more than one draw per group")
	}

	const turns = 4000
	duty := map[ids.ID]int{}
	for i := 0; i < turns; i++ {
		tl.turn++
		want := draw(r)
		for j, got := range fanOuts(r, tl.Loop, 3) {
			if !slices.Equal(got, want) {
				t.Fatalf("turn %d fan-out %d went to %v, want the turn's draw %v", i, j, got, want)
			}
		}
		for _, id := range want {
			duty[id]++
		}
	}
	for g, group := range r.Layout().Groups {
		fair := float64(turns) / float64(len(group))
		for _, id := range group {
			if d := float64(duty[id]); d < 0.85*fair || d > 1.15*fair {
				t.Errorf("group %d: %v relayed %v of %d turns, want %.0f±15%%", g, id, d, turns, fair)
			}
		}
	}

	ref = rand.New(rand.NewSource(1))
	plain := nodetest.NewLoop(leader)
	r = build(plain)
	for i, got := range fanOuts(r, plain, 300) {
		if want := draw(r); !slices.Equal(got, want) {
			t.Fatalf("without turns, fan-out %d went to %v, want its own draw %v", i, got, want)
		}
	}
}

func TestZoneGroupingWAN(t *testing.T) {
	// §6.4: one relay group per region; per round only r−1(+leader's own
	// zone relay) messages cross the WAN from the leader.
	tc := newCluster(t, 15, true, func(c *Config) {
		c.Strategy = GroupByZone
	})
	tc.sim.Run(200 * time.Millisecond)
	if !tc.leader().Core().IsLeader() {
		t.Fatal("no leader over WAN")
	}
	layout := tc.leader().Layout()
	if layout.NumGroups() != 3 {
		t.Fatalf("zone layout has %d groups, want 3", layout.NumGroups())
	}
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("w"), ClientID: 1, Seq: 1})
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatal("WAN commit failed")
	}
}

func TestDegenerateOneGroupPerNode(t *testing.T) {
	// §3.3: with p = N−1 singleton groups PigPaxos degenerates to Paxos.
	tc := newCluster(t, 5, false, func(c *Config) {
		c.NumGroups = 4
	})
	tc.send(5*time.Millisecond, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x"), ClientID: 1, Seq: 1})
	tc.sim.Run(100 * time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatal("singleton groups must behave like Paxos")
	}
}

func TestStaleRelayP2aRejectedFast(t *testing.T) {
	tc := newCluster(t, 5, false, nil)
	tc.sim.Run(10 * time.Millisecond)
	follower := tc.replicas[tc.cfg.Nodes[2]]
	// Inject a stale relayed P2a directly.
	stale := wire.RelayP2a{
		P2a:   wire.P2a{Ballot: ids.NewBallot(0, ids.NewID(1, 4)), Slot: 50, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}},
		Peers: []ids.ID{tc.cfg.Nodes[3]},
	}
	follower.OnMessage(ids.NewID(1, 4), stale)
	if follower.Core().Log().Get(50) != nil {
		t.Error("stale relayed P2a must not be accepted")
	}
	if openAggs(follower) != 0 {
		t.Error("no aggregation may be opened for a rejected relay round")
	}
}

func TestLeaderFailoverPig(t *testing.T) {
	tc := newCluster(t, 9, false, func(c *Config) {
		c.Paxos.ElectionTimeout = 100 * time.Millisecond
		c.RelayTimeout = 10 * time.Millisecond
	})
	tc.sim.Run(10 * time.Millisecond)
	tc.net.Crash(tc.cfg.Nodes[0])
	tc.sim.Run(tc.sim.Now() + 3*time.Second)
	leaders := []ids.ID{}
	for id, r := range tc.replicas {
		if id != tc.cfg.Nodes[0] && r.Core().IsLeader() {
			leaders = append(leaders, id)
		}
	}
	if len(leaders) != 1 {
		t.Fatalf("leaders after failover: %v", leaders)
	}
	tc.send(0, leaders[0], kvstore.Command{Op: kvstore.Put, Key: 9, Value: []byte("new"), ClientID: 2, Seq: 1})
	tc.sim.Run(tc.sim.Now() + 500*time.Millisecond)
	served := false
	for _, rep := range tc.client.replies {
		if rep.OK && rep.ClientID == 2 {
			served = true
		}
	}
	if !served {
		t.Error("post-failover leader did not serve through relays")
	}
}

// Zone-aligned layout: under GroupByZone the leader's groups map 1:1 onto
// regions in ascending zone order.
func TestZoneAlignedLayoutAccessors(t *testing.T) {
	tc := newCluster(t, 9, true, func(c *Config) {
		c.Strategy = GroupByZone
	})
	layout := tc.leader().Layout() // node 1.1, zone 1
	if layout.NumGroups() != 3 {
		t.Fatalf("zone layout has %d groups, want 3", layout.NumGroups())
	}
	for g, members := range layout.Groups {
		for _, m := range members {
			if m.Zone() != g+1 {
				t.Errorf("group %d contains %v, want zone %d only", g, m, g+1)
			}
		}
	}
	// The leader's own zone group holds only its two co-residents.
	if own := layout.Groups[0]; len(own) != 2 {
		t.Errorf("leader-zone group = %v, want 2 members", own)
	}
}

// TestCampaignRetryExecutesOnce: the leader's P2a reaches one follower and
// the leader crashes; the client's retry lands in the new leader's campaign
// buffer. The campaign re-proposes the accepted slot, and the retry must
// re-attach to it rather than commit the command a second time — through
// the relay plane as through the direct one.
func TestCampaignRetryExecutesOnce(t *testing.T) {
	tc := newCluster(t, 5, false, nil)
	old, next := tc.cfg.Nodes[0], tc.cfg.Nodes[1]
	tc.sim.Run(10 * time.Millisecond)
	cmd := kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("a"), ClientID: 3, Seq: 1}
	lead := tc.leader().Core()
	if _, ok := tc.replicas[next].Core().AcceptP2a(wire.P2a{
		Ballot: lead.Ballot(), Slot: lead.Log().PeekNextSlot(), Cmds: []kvstore.Command{cmd},
	}); !ok {
		t.Fatal("follower refused the leader's P2a")
	}
	tc.net.Crash(old)
	tc.sim.Schedule(0, func() {
		tc.replicas[next].Core().Campaign()
		tc.client.ep.Send(next, wire.Request{Cmd: cmd})
	})
	tc.sim.Run(tc.sim.Now() + time.Second)
	for _, id := range tc.cfg.Nodes[1:] {
		if got := tc.replicas[id].Core().Store().Applied(); got != 1 {
			t.Errorf("%v applied %d commands, want 1", id, got)
		}
	}
	if !slices.ContainsFunc(tc.client.replies, func(r wire.Reply) bool { return r.OK && r.ClientID == 3 && r.Seq == 1 }) {
		t.Error("the retried command was never acknowledged")
	}
}
