package protocol

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/shard"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// group is one consensus group of n nodes on a simulated LAN, every replica
// hosted through Host as group k of its node's dispatcher, plus a client
// endpoint that keeps what it is sent.
type group struct {
	sim     *des.Sim
	desc    shard.Descriptor
	members map[ids.ID]Member
	client  node.Context // tagged with k when the group is
	got     []wire.Msg   // as the client's endpoint received them
}

// OnMessage implements node.Handler for the client.
func (g *group) OnMessage(_ ids.ID, m wire.Msg) { g.got = append(g.got, m) }

// hostGroup hosts spec(id) on every node, group k of k+1, and starts the
// replicas at t=0.
func hostGroup(t *testing.T, n, k int, tagged bool, spec func(ids.ID) Spec) *group {
	t.Helper()
	sim := des.New(1)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	g := &group{
		sim:     sim,
		desc:    shard.Descriptor{Index: k, Members: cc.Nodes, Leader: cc.Nodes[0]},
		members: make(map[ids.ID]Member, n),
	}
	for _, id := range cc.Nodes {
		d := shard.NewDispatcher(k + 1)
		g.members[id] = Host(net.Register(id, d, false), d, g.desc, cc, tagged, spec(id))
	}
	g.client = net.Register(ids.NewID(99, 1), g, true)
	if tagged {
		g.client = shard.Wrap(g.client, k)
	}
	sim.Schedule(0, func() {
		for _, id := range cc.Nodes {
			g.members[id].Start()
		}
	})
	return g
}

// run advances the simulation by d.
func (g *group) run(d time.Duration) { g.sim.Run(g.sim.Now() + d) }

func same(s Spec) func(ids.ID) Spec { return func(ids.ID) Spec { return s } }

// put writes key=val through the planned leader once it has had time to be
// elected, runs the simulation on for a while, and fails the test unless the
// write was acknowledged.
func (g *group) put(t *testing.T, key uint64, val string) {
	t.Helper()
	g.sim.Schedule(50*time.Millisecond, func() {
		g.client.Send(g.desc.Leader, wire.Request{Cmd: kvstore.Command{Op: kvstore.Put, Key: key, Value: []byte(val), ClientID: 1, Seq: 1}})
	})
	g.run(300 * time.Millisecond)
	for _, m := range g.got {
		_, inner := shard.Unwrap(m)
		if r, ok := inner.(wire.Reply); ok && r.OK {
			return
		}
	}
	t.Fatalf("no acknowledgement of the write; client got %v", g.got)
}

func TestHostTagsTrafficOnlyWhenTagged(t *testing.T) {
	for k, tagged := range []bool{false, true} { // untagged traffic is group 0's
		g := hostGroup(t, 3, k, tagged, same(Spec{Kind: PigPaxos}))
		g.put(t, 7, "x")
		g.sim.Schedule(0, func() { g.client.Send(g.desc.Members[1], wire.QReadReq{Key: 7, RID: 1}) })
		g.run(10 * time.Millisecond)
		if len(g.got) < 2 {
			t.Fatalf("tagged=%v: client got %d messages, want a reply and a version", tagged, len(g.got))
		}
		for _, m := range g.got {
			env, isEnv := m.(wire.Sharded)
			if isEnv != tagged || (isEnv && int(env.Shard) != k) {
				t.Errorf("tagged=%v: client got %#v", tagged, m)
			}
		}
	}
}

func TestHostFillsIdentityForEachKind(t *testing.T) {
	for _, kind := range []Kind{Paxos, PigPaxos, EPaxos} {
		g := hostGroup(t, 3, 0, false, same(Spec{Kind: kind}))
		g.put(t, 7, "x")
		for _, id := range g.desc.Members {
			m := g.members[id]
			if v, ok := m.Store.Get(7); !ok || string(v) != "x" {
				t.Errorf("%v: %v never applied the write (the group is not its membership)", kind, id)
			}
			switch {
			case m.Core != nil && (m.Core.ID() != id || m.Core.Leader() != g.desc.Leader):
				t.Errorf("%v: replica on %v reads ID %v, leader %v", kind, id, m.Core.ID(), m.Core.Leader())
			case m.EPaxos != nil && m.EPaxos.ID() != id:
				t.Errorf("%v: replica on %v reads ID %v", kind, id, m.EPaxos.ID())
			}
		}
	}
}

func TestHostAnswersQuorumReadsFromStore(t *testing.T) {
	g := hostGroup(t, 3, 0, false, same(Spec{Kind: Paxos}))
	g.put(t, 7, "x")
	g.got = nil
	g.sim.Schedule(0, func() {
		for i, id := range g.desc.Members {
			g.client.Send(id, wire.QReadReq{Key: 7, RID: uint64(i + 1)})
		}
	})
	g.run(10 * time.Millisecond)
	if len(g.got) != len(g.desc.Members) {
		t.Fatalf("%d version replies from %d replicas", len(g.got), len(g.desc.Members))
	}
	for _, m := range g.got {
		r, ok := m.(wire.QReadReply)
		if !ok {
			t.Fatalf("client got %#v", m)
		}
		st := g.members[r.From].Store
		if r.Key != 7 || r.Version == 0 || r.Version != st.Version(7) || !r.Exists || string(r.Value) != "x" {
			t.Errorf("reply %+v; %v's store holds version %d", r, r.From, st.Version(7))
		}
	}
}

func TestHostKeepsTemplateStorage(t *testing.T) {
	journals := map[ids.ID]*wal.MemStorage{}
	g := hostGroup(t, 3, 0, false, func(id ids.ID) Spec {
		journals[id] = wal.NewMem()
		return Spec{Kind: PigPaxos, Pig: pigpaxos.Config{Paxos: paxos.Config{Storage: journals[id]}}}
	})
	g.put(t, 7, "x")
	for id, st := range journals {
		if st.Bytes() == 0 {
			t.Errorf("%v journaled nothing: its template storage was dropped", id)
		}
	}
}

func TestHostClampsRelayGroups(t *testing.T) {
	for _, c := range []struct{ n, want int }{{3, 2}, {5, 3}} {
		g := hostGroup(t, c.n, 0, false, same(Spec{Kind: PigPaxos, Pig: pigpaxos.Config{NumGroups: 3}}))
		for id, m := range g.members {
			if got := m.Pig.Layout().NumGroups(); got != c.want {
				t.Errorf("N=%d: %v has %d relay groups, want %d", c.n, id, got, c.want)
			}
		}
	}
}
