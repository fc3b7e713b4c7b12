package epaxos

import (
	"fmt"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/wire"
)

type testClient struct {
	ep      *netsim.Endpoint
	replies []wire.Reply
}

func (c *testClient) OnMessage(from ids.ID, m wire.Msg) {
	if r, ok := m.(wire.Reply); ok {
		c.replies = append(c.replies, r)
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

func newCluster(t *testing.T, n int, mut func(*Config)) *cluster {
	t.Helper()
	sim := des.New(13)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	tc := &cluster{sim: sim, net: net, cfg: cc, replicas: make(map[ids.ID]*Replica)}
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		cfg := Config{Cluster: cc, ID: id}
		if mut != nil {
			mut(&cfg)
		}
		r := New(ep, cfg)
		tr.h = r.OnMessage
		tc.replicas[id] = r
	}
	cl := &testClient{}
	cl.ep = net.Register(ids.NewID(999, 1), cl, true)
	tc.client = cl
	// Start replicas in membership order, as the harness does: Start arms
	// the retransmit/recovery sweep.
	sim.Schedule(0, func() {
		for _, id := range cc.Nodes {
			tc.replicas[id].Start()
		}
	})
	return tc
}

func (tc *cluster) send(at time.Duration, to ids.ID, cmd kvstore.Command) {
	tc.sim.Schedule(at, func() { tc.client.ep.Send(to, wire.Request{Cmd: cmd}) })
}

func TestSingleCommandFastPath(t *testing.T) {
	tc := newCluster(t, 5, nil)
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("a"), ClientID: 1, Seq: 1})
	tc.sim.Run(50 * time.Millisecond)
	if len(tc.client.replies) != 1 || !tc.client.replies[0].OK {
		t.Fatalf("replies: %+v", tc.client.replies)
	}
	if tc.replicas[tc.cfg.Nodes[0]].Stats().FastPath != 1 {
		t.Error("a conflict-free command must take the fast path")
	}
}

// A one-member cluster is its own quorum: each command commits and executes
// on arrival, with no phase reply to wait for.
func TestSingleNodeCommitsAlone(t *testing.T) {
	tc := newCluster(t, 1, nil)
	id := tc.cfg.Nodes[0]
	tc.send(0, id, kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("a"), ClientID: 1, Seq: 1})
	tc.send(time.Millisecond, id, kvstore.Command{Op: kvstore.Get, Key: 1, ClientID: 1, Seq: 2})
	tc.sim.Run(50 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies: %+v", tc.client.replies)
	}
	put, get := tc.client.replies[0], tc.client.replies[1]
	if !put.OK || put.Seq != 1 {
		t.Errorf("put reply: %+v", put)
	}
	if !get.OK || get.Seq != 2 || !get.Exists || string(get.Value) != "a" {
		t.Errorf("get reply: %+v", get)
	}
	r := tc.replicas[id]
	if st := r.Stats(); st.Commits != 2 || st.Executions != 2 || st.Retransmits != 0 || st.Recoveries != 0 {
		t.Errorf("stats: %+v", st)
	}
	if n := r.Unexecuted(); n != 0 {
		t.Errorf("%d unexecuted instances", n)
	}
}

func TestAnyReplicaServes(t *testing.T) {
	tc := newCluster(t, 5, nil)
	for i, id := range tc.cfg.Nodes {
		tc.send(time.Duration(i)*time.Millisecond, id,
			kvstore.Command{Op: kvstore.Put, Key: uint64(100 + i), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1)})
	}
	tc.sim.Run(200 * time.Millisecond)
	if len(tc.client.replies) != 5 {
		t.Fatalf("replies = %d, want 5 (one per replica)", len(tc.client.replies))
	}
	for _, rep := range tc.client.replies {
		if !rep.OK {
			t.Errorf("reply not OK: %+v", rep)
		}
	}
}

func TestConflictTakesSlowPathAndConverges(t *testing.T) {
	tc := newCluster(t, 5, nil)
	// Two writes to the same key from different replicas at the same
	// instant: they interfere, at least one sees changed attributes.
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 7, Value: []byte("from-1"), ClientID: 1, Seq: 1})
	tc.send(0, tc.cfg.Nodes[1], kvstore.Command{Op: kvstore.Put, Key: 7, Value: []byte("from-2"), ClientID: 2, Seq: 1})
	tc.sim.Run(200 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	// All replicas must agree on the final value of key 7.
	var vals []string
	for _, id := range tc.cfg.Nodes {
		v, ok := tc.replicas[id].Store().Get(7)
		if !ok {
			t.Fatalf("%v missing key 7", id)
		}
		vals = append(vals, string(v))
	}
	for _, v := range vals[1:] {
		if v != vals[0] {
			t.Fatalf("replicas disagree on final value: %v", vals)
		}
	}
	slow := uint64(0)
	for _, r := range tc.replicas {
		slow += r.Stats().SlowPath
	}
	if slow == 0 {
		t.Error("simultaneous conflicting writes should force at least one slow path")
	}
}

func TestAllReplicasExecuteEverything(t *testing.T) {
	tc := newCluster(t, 5, nil)
	const n = 30
	for i := 0; i < n; i++ {
		leader := tc.cfg.Nodes[i%5]
		tc.send(time.Duration(i)*500*time.Microsecond, leader,
			kvstore.Command{Op: kvstore.Put, Key: uint64(i % 3), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1)})
	}
	tc.sim.Run(time.Second)
	if len(tc.client.replies) != n {
		t.Fatalf("replies = %d, want %d", len(tc.client.replies), n)
	}
	// Deterministic execution order ⇒ identical state everywhere.
	want := tc.replicas[tc.cfg.Nodes[0]].Store().Checksum()
	for _, id := range tc.cfg.Nodes {
		r := tc.replicas[id]
		if r.Store().Applied() != n {
			t.Errorf("%v executed %d of %d", id, r.Store().Applied(), n)
		}
		if r.Store().Checksum() != want {
			t.Errorf("%v diverged", id)
		}
	}
}

func TestReadObservesPriorWrite(t *testing.T) {
	tc := newCluster(t, 5, nil)
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 5, Value: []byte("w"), ClientID: 1, Seq: 1})
	// Read goes to a different replica after the write committed.
	tc.send(20*time.Millisecond, tc.cfg.Nodes[3], kvstore.Command{Op: kvstore.Get, Key: 5, ClientID: 1, Seq: 2})
	tc.sim.Run(200 * time.Millisecond)
	if len(tc.client.replies) != 2 {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	var read *wire.Reply
	for i := range tc.client.replies {
		if tc.client.replies[i].Seq == 2 {
			read = &tc.client.replies[i]
		}
	}
	if read == nil || !read.Exists || string(read.Value) != "w" {
		t.Errorf("read after write: %+v", read)
	}
}

func TestReadsDoNotConflict(t *testing.T) {
	tc := newCluster(t, 5, nil)
	// Seed a value, then concurrent reads from different replicas: all
	// fast path (reads interfere only with writes).
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 9, Value: []byte("v"), ClientID: 1, Seq: 1})
	for i := 0; i < 4; i++ {
		tc.send(30*time.Millisecond, tc.cfg.Nodes[i+1], kvstore.Command{Op: kvstore.Get, Key: 9, ClientID: 1, Seq: uint64(i + 2)})
	}
	tc.sim.Run(300 * time.Millisecond)
	slowAfterWrite := uint64(0)
	for _, r := range tc.replicas {
		slowAfterWrite += r.Stats().SlowPath
	}
	if slowAfterWrite != 0 {
		t.Errorf("concurrent reads forced %d slow paths, want 0", slowAfterWrite)
	}
	if len(tc.client.replies) != 5 {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
}

func TestExecutionBlocksOnMissingDep(t *testing.T) {
	// Craft a commit whose dependency never commits: execution must stay
	// blocked, not apply out of order.
	tc := newCluster(t, 3, nil)
	r := tc.replicas[tc.cfg.Nodes[0]]
	tc.sim.Schedule(0, func() {
		r.OnMessage(tc.cfg.Nodes[1], wire.Commit{
			Inst: wire.InstRef{Replica: tc.cfg.Nodes[1], Slot: 5},
			Cmd:  kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x")},
			Seq:  2,
			Deps: []wire.InstRef{{Replica: tc.cfg.Nodes[2], Slot: 1}}, // never commits
		})
	})
	tc.sim.Run(50 * time.Millisecond)
	if r.Store().Applied() != 0 {
		t.Error("instance with uncommitted dependency must not execute")
	}
	if r.Stats().Blocked == 0 {
		t.Error("blocked execution attempts should be counted")
	}
	// Now commit the dependency: both must execute.
	tc.sim.Schedule(0, func() {
		r.OnMessage(tc.cfg.Nodes[2], wire.Commit{
			Inst: wire.InstRef{Replica: tc.cfg.Nodes[2], Slot: 1},
			Cmd:  kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("dep")},
			Seq:  1,
		})
	})
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if r.Store().Applied() != 2 {
		t.Errorf("applied %d, want 2 after dependency commits", r.Store().Applied())
	}
	// Dependency (seq 1) executes before dependent (seq 2).
	if v, _ := r.Store().Get(1); string(v) != "x" {
		t.Errorf("final value %q, want \"x\" (dependent last)", v)
	}
}

func TestCyclicDependenciesExecuteBySeq(t *testing.T) {
	// Two instances depending on each other (an SCC): execution orders by
	// seq and proceeds — EPaxos' hallmark case.
	tc := newCluster(t, 3, nil)
	r := tc.replicas[tc.cfg.Nodes[0]]
	a := wire.InstRef{Replica: tc.cfg.Nodes[1], Slot: 1}
	b := wire.InstRef{Replica: tc.cfg.Nodes[2], Slot: 1}
	tc.sim.Schedule(0, func() {
		r.OnMessage(tc.cfg.Nodes[1], wire.Commit{
			Inst: a, Cmd: kvstore.Command{Op: kvstore.Put, Key: 2, Value: []byte("A")}, Seq: 2,
			Deps: []wire.InstRef{b},
		})
		r.OnMessage(tc.cfg.Nodes[2], wire.Commit{
			Inst: b, Cmd: kvstore.Command{Op: kvstore.Put, Key: 2, Value: []byte("B")}, Seq: 1,
			Deps: []wire.InstRef{a},
		})
	})
	tc.sim.Run(50 * time.Millisecond)
	if r.Store().Applied() != 2 {
		t.Fatalf("cycle did not execute: applied=%d", r.Store().Applied())
	}
	// seq 1 (B) first, then seq 2 (A) → final value "A".
	if v, _ := r.Store().Get(2); string(v) != "A" {
		t.Errorf("final = %q, want A (higher seq last)", v)
	}
}

func TestHighConflictStillLinearizesPerKey(t *testing.T) {
	// Hammer one key from all replicas; every replica must converge to
	// the same final value even through SCC execution.
	tc := newCluster(t, 5, nil)
	const n = 25
	for i := 0; i < n; i++ {
		tc.send(time.Duration(i)*200*time.Microsecond, tc.cfg.Nodes[i%5],
			kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte(fmt.Sprintf("v%02d", i)), ClientID: 1, Seq: uint64(i + 1)})
	}
	tc.sim.Run(2 * time.Second)
	if len(tc.client.replies) != n {
		t.Fatalf("replies = %d, want %d", len(tc.client.replies), n)
	}
	first, _ := tc.replicas[tc.cfg.Nodes[0]].Store().Get(1)
	for _, id := range tc.cfg.Nodes[1:] {
		v, _ := tc.replicas[id].Store().Get(1)
		if string(v) != string(first) {
			t.Fatalf("replicas disagree: %q vs %q", first, v)
		}
	}
}

func TestStatsCounters(t *testing.T) {
	tc := newCluster(t, 5, nil)
	tc.send(0, tc.cfg.Nodes[0], kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: 1})
	tc.sim.Run(100 * time.Millisecond)
	st := tc.replicas[tc.cfg.Nodes[0]].Stats()
	if st.Requests != 1 || st.Commits == 0 || st.Executions == 0 || st.ExecVisits == 0 {
		t.Errorf("stats not tracked: %+v", st)
	}
}

func TestInstanceGC(t *testing.T) {
	tc := newCluster(t, 3, func(c *Config) { c.gcEvery = 10 })
	const n = 60
	for i := 0; i < n; i++ {
		tc.send(time.Duration(i)*time.Millisecond, tc.cfg.Nodes[i%3],
			kvstore.Command{Op: kvstore.Put, Key: uint64(i % 2), Value: []byte{byte(i)}, ClientID: 1, Seq: uint64(i + 1)})
	}
	tc.sim.Run(2 * time.Second)
	if len(tc.client.replies) != n {
		t.Fatalf("replies = %d", len(tc.client.replies))
	}
	r := tc.replicas[tc.cfg.Nodes[0]]
	if r.Stats().GCs == 0 {
		t.Fatal("GC never ran")
	}
	// The instance space must be bounded well below the executed total.
	remaining := 0
	for i := range r.rows {
		remaining += r.rows[i].win.Len()
	}
	if remaining >= n {
		t.Errorf("instance space holds %d entries after GC, want < %d", remaining, n)
	}
	// Correctness must hold across GC: all replicas converged.
	want := r.Store().Checksum()
	for _, id := range tc.cfg.Nodes[1:] {
		if tc.replicas[id].Store().Checksum() != want {
			t.Error("replicas diverged after GC")
		}
	}
}

func TestGCFloorSatisfiesDependencies(t *testing.T) {
	// A new command depending on a GC'd instance must execute (collected
	// implies executed), not block forever.
	tc := newCluster(t, 3, func(c *Config) { c.gcEvery = 1 })
	r := tc.replicas[tc.cfg.Nodes[0]]
	a := wire.InstRef{Replica: tc.cfg.Nodes[1], Slot: 1}
	tc.sim.Schedule(0, func() {
		r.OnMessage(tc.cfg.Nodes[1], wire.Commit{
			Inst: a, Cmd: kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x")}, Seq: 1,
		})
	})
	tc.sim.Run(10 * time.Millisecond)
	if r.Stats().Executions != 1 {
		t.Fatal("seed instance did not execute")
	}
	// After gcEvery=1, instance a is collected. A dependent commit must
	// still execute.
	tc.sim.Schedule(0, func() {
		r.OnMessage(tc.cfg.Nodes[2], wire.Commit{
			Inst: wire.InstRef{Replica: tc.cfg.Nodes[2], Slot: 1},
			Cmd:  kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("y")}, Seq: 2,
			Deps: []wire.InstRef{a},
		})
	})
	tc.sim.Run(tc.sim.Now() + 50*time.Millisecond)
	if r.Store().Applied() != 2 {
		t.Fatalf("dependent on GC'd instance blocked: applied=%d", r.Store().Applied())
	}
}
