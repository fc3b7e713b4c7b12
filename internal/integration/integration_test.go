// Package integration holds cross-module tests: every protocol drives the
// same simulated clusters under randomized workloads and failures, and the
// recorded client histories are checked for linearizability (the guarantee
// the paper claims for Paxos and PigPaxos in §2.3) and replicas for state
// convergence.
package integration

import (
	"fmt"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/epaxos"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/linearizability"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/paxos"
	"pigpaxos/internal/pigpaxos"
	"pigpaxos/internal/wire"
)

type protocolKind int

const (
	kindPaxos protocolKind = iota
	kindPigPaxos
	kindEPaxos
)

func (k protocolKind) String() string {
	return [...]string{"paxos", "pigpaxos", "epaxos"}[k]
}

type replica interface {
	Start()
	OnMessage(from ids.ID, m wire.Msg)
}

type trampoline struct{ h func(from ids.ID, m wire.Msg) }

func (t *trampoline) OnMessage(from ids.ID, m wire.Msg) { t.h(from, m) }

// histClient issues a fixed script of operations, one at a time, recording
// start/end times into a linearizability history.
type histClient struct {
	ep      *netsim.Endpoint
	id      uint64
	hist    *linearizability.History
	targets []ids.ID
	rr      int

	script  []kvstore.Command
	pos     int
	seq     uint64
	started time.Duration
	retries int
	done    bool
}

func (c *histClient) next() {
	if c.pos >= len(c.script) {
		c.done = true
		return
	}
	cmd := c.script[c.pos]
	c.seq++
	cmd.ClientID = c.id
	cmd.Seq = c.seq
	c.script[c.pos] = cmd
	c.started = c.ep.Now()
	c.retries = 0
	c.ep.Send(c.targets[c.rr%len(c.targets)], wire.Request{Cmd: cmd})
	c.rr++
}

func (c *histClient) OnMessage(from ids.ID, m wire.Msg) {
	rep, ok := m.(wire.Reply)
	if !ok || rep.Seq != c.seq {
		return
	}
	cmd := c.script[c.pos]
	if !rep.OK {
		if !rep.Leader.IsZero() && c.retries < 20 {
			c.retries++
			c.ep.Send(rep.Leader, wire.Request{Cmd: cmd})
			return
		}
		// Give up on this op (not recorded — an incomplete op is always
		// linearizable to "never happened" for this checker's purposes).
		c.pos++
		c.next()
		return
	}
	op := linearizability.Op{
		Key:    cmd.Key,
		Start:  c.started,
		End:    c.ep.Now(),
		Client: c.id,
	}
	if cmd.Op == kvstore.Get {
		op.Kind = linearizability.Read
		if rep.Exists {
			op.Output = string(rep.Value)
		}
	} else {
		op.Kind = linearizability.Write
		op.Input = string(cmd.Value)
	}
	c.hist.Add(op)
	c.pos++
	c.next()
}

type fixture struct {
	sim      *des.Sim
	net      *netsim.Network
	cc       config.Cluster
	replicas map[ids.ID]replica
	stores   map[ids.ID]*kvstore.Store
	hist     *linearizability.History
	clients  []*histClient
}

func build(t *testing.T, kind protocolKind, n int, seed int64) *fixture {
	return buildBatched(t, kind, n, seed, 0)
}

// buildBatched is build() with leader-side batching enabled when batch > 1
// (a one-slot pipeline window forces commands to share slots).
func buildBatched(t *testing.T, kind protocolKind, n int, seed int64, batch int) *fixture {
	t.Helper()
	sim := des.New(seed)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	f := &fixture{
		sim: sim, net: net, cc: cc,
		replicas: make(map[ids.ID]replica),
		stores:   make(map[ids.ID]*kvstore.Store),
		hist:     &linearizability.History{},
	}
	pcfg := func(id ids.ID) paxos.Config {
		c := paxos.Config{Cluster: cc, ID: id, InitialLeader: cc.Nodes[0]}
		if batch > 1 {
			c.MaxBatchSize = batch
			c.MaxInFlight = 1
		}
		return c
	}
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		var rep replica
		switch kind {
		case kindPaxos:
			r := paxos.New(ep, pcfg(id), nil)
			f.stores[id] = r.Store()
			rep = r
		case kindPigPaxos:
			r := pigpaxos.New(ep, pigpaxos.Config{
				Paxos:        pcfg(id),
				NumGroups:    2,
				RelayTimeout: 10 * time.Millisecond,
			})
			f.stores[id] = r.Core().Store()
			rep = r
		case kindEPaxos:
			r := epaxos.New(ep, epaxos.Config{Cluster: cc, ID: id})
			f.stores[id] = r.Store()
			rep = r
		}
		tr.h = rep.OnMessage
		f.replicas[id] = rep
	}
	sim.Schedule(0, func() {
		for _, r := range f.replicas {
			r.Start()
		}
	})
	return f
}

// addClient attaches a scripted client. EPaxos clients round-robin over all
// replicas; the others start at the leader and follow redirects.
func (f *fixture) addClient(kind protocolKind, id uint64, script []kvstore.Command, startAt time.Duration) {
	cl := &histClient{id: id, hist: f.hist, script: script}
	if kind == kindEPaxos {
		cl.targets = f.cc.Nodes
		cl.rr = int(id)
	} else {
		cl.targets = []ids.ID{f.cc.Nodes[0]}
	}
	cl.ep = f.net.Register(ids.NewID(998, int(id)), cl, true)
	f.clients = append(f.clients, cl)
	f.sim.Schedule(startAt, cl.next)
}

func (f *fixture) run(t *testing.T, until time.Duration) {
	t.Helper()
	f.sim.Run(until)
	for i, cl := range f.clients {
		if !cl.done {
			t.Fatalf("client %d stuck at op %d/%d", i, cl.pos, len(cl.script))
		}
	}
}

// script builds a deterministic mixed workload over few hot keys so
// concurrent clients genuinely contend.
func script(client uint64, ops, keys int) []kvstore.Command {
	out := make([]kvstore.Command, 0, ops)
	for i := 0; i < ops; i++ {
		key := uint64((int(client) + i) % keys)
		if i%3 == 2 {
			out = append(out, kvstore.Command{Op: kvstore.Get, Key: key})
		} else {
			out = append(out, kvstore.Command{
				Op: kvstore.Put, Key: key,
				Value: []byte(fmt.Sprintf("c%d-%d", client, i)),
			})
		}
	}
	return out
}

func TestLinearizabilityUnderContention(t *testing.T) {
	for _, kind := range []protocolKind{kindPaxos, kindPigPaxos, kindEPaxos} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				f := build(t, kind, 5, seed)
				// 4 clients × 6 ops over 2 hot keys: heavy overlap, but
				// per-key history stays within the checker's bound.
				for c := uint64(1); c <= 4; c++ {
					f.addClient(kind, c, script(c, 6, 2), time.Duration(c)*100*time.Microsecond)
				}
				f.run(t, 5*time.Second)
				res := f.hist.Check()
				if !res.OK {
					t.Fatalf("seed %d: history not linearizable (key %d, %d ops)",
						seed, res.BadKey, f.hist.Len())
				}
			}
		})
	}
}

// Batched slots must not weaken the guarantee: commands sharing a slot
// execute in batch order and reply only after the slot commits, so the
// contended histories stay linearizable for both leader-based protocols.
func TestLinearizabilityUnderBatching(t *testing.T) {
	for _, kind := range []protocolKind{kindPaxos, kindPigPaxos} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				f := buildBatched(t, kind, 5, seed, 8)
				for c := uint64(1); c <= 4; c++ {
					f.addClient(kind, c, script(c, 6, 2), time.Duration(c)*100*time.Microsecond)
				}
				f.run(t, 5*time.Second)
				res := f.hist.Check()
				if !res.OK {
					t.Fatalf("seed %d: batched history not linearizable (key %d, %d ops)",
						seed, res.BadKey, f.hist.Len())
				}
			}
		})
	}
}

func TestLinearizabilityWithFollowerCrash(t *testing.T) {
	for _, kind := range []protocolKind{kindPaxos, kindPigPaxos} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			f := build(t, kind, 5, 7)
			for c := uint64(1); c <= 3; c++ {
				f.addClient(kind, c, script(c, 6, 2), time.Duration(c)*time.Millisecond)
			}
			// Crash a follower mid-run; the leader's quorum survives.
			f.sim.Schedule(3*time.Millisecond, func() { f.net.Crash(f.cc.Nodes[4]) })
			f.run(t, 10*time.Second)
			res := f.hist.Check()
			if !res.OK {
				t.Fatalf("crash run: history not linearizable at key %d", res.BadKey)
			}
		})
	}
}

func TestStateConvergenceAcrossProtocols(t *testing.T) {
	for _, kind := range []protocolKind{kindPaxos, kindPigPaxos, kindEPaxos} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			f := build(t, kind, 5, 11)
			for c := uint64(1); c <= 3; c++ {
				f.addClient(kind, c, script(c, 10, 4), 0)
			}
			// Long tail so heartbeat watermarks / commit broadcasts flush.
			f.run(t, 10*time.Second)
			var want uint64
			var applied uint64
			first := true
			for id, st := range f.stores {
				if first {
					want = st.Checksum()
					applied = st.Applied()
					first = false
					continue
				}
				if st.Applied() != applied {
					t.Errorf("%v applied %d, others %d", id, st.Applied(), applied)
				}
				if st.Checksum() != want {
					t.Errorf("%v state diverged", id)
				}
			}
		})
	}
}

func TestPigPaxosSurvivesRelayGroupWipeout(t *testing.T) {
	f := build(t, kindPigPaxos, 9, 13)
	// Crash an entire relay group of the leader's layout before traffic.
	pr := f.replicas[f.cc.Nodes[0]].(*pigpaxos.Replica)
	f.sim.Schedule(2*time.Millisecond, func() {
		for _, id := range pr.Layout().Groups[0] {
			f.net.Crash(id)
		}
	})
	f.addClient(kindPigPaxos, 1, script(1, 8, 3), 5*time.Millisecond)
	f.run(t, 20*time.Second)
	if !f.hist.Check().OK {
		t.Fatal("history not linearizable after group wipeout")
	}
	if f.hist.Len() != 8 {
		t.Fatalf("only %d of 8 ops completed", f.hist.Len())
	}
}

func TestEPaxosMultiLeaderHistories(t *testing.T) {
	// Clients pinned to different EPaxos command leaders hammer one key.
	f := build(t, kindEPaxos, 5, 17)
	for c := uint64(1); c <= 4; c++ {
		f.addClient(kindEPaxos, c, script(c, 5, 1), 0)
	}
	f.run(t, 5*time.Second)
	res := f.hist.Check()
	if !res.OK {
		t.Fatalf("EPaxos single-key contention not linearizable (%d ops)", f.hist.Len())
	}
}

// buildWithReadMode is build() with a paxos read-mode and heartbeat
// override. With stale set, every replica runs behind staleReads.
func buildWithReadMode(t *testing.T, mode paxos.ReadMode, stale bool, hb time.Duration, n int, seed int64) *fixture {
	t.Helper()
	sim := des.New(seed)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	f := &fixture{
		sim: sim, net: net, cc: cc,
		replicas: make(map[ids.ID]replica),
		stores:   make(map[ids.ID]*kvstore.Store),
		hist:     &linearizability.History{},
	}
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		r := paxos.New(ep, paxos.Config{
			Cluster: cc, ID: id, InitialLeader: cc.Nodes[0],
			ReadMode:          mode,
			HeartbeatInterval: hb,
		}, nil)
		f.stores[id] = r.Store()
		tr.h = r.OnMessage
		if stale {
			tr.h = staleReads(id, ep, r)
		}
		f.replicas[id] = r
	}
	sim.Schedule(0, func() {
		for _, r := range f.replicas {
			r.Start()
		}
	})
	return f
}

// staleReads answers every read from r's own store before Paxos sees it, as
// reading from any replica would (§4.3: fast, and stale on a follower that
// has not learned a completed write). No read mode does this; it is the
// negative control that shows the checker has teeth.
func staleReads(id ids.ID, ep *netsim.Endpoint, r *paxos.Replica) func(ids.ID, wire.Msg) {
	return func(from ids.ID, m wire.Msg) {
		req, ok := m.(wire.Request)
		if !ok || !req.Cmd.IsRead() {
			r.OnMessage(from, m)
			return
		}
		v, exists := r.Store().Get(req.Cmd.Key)
		ep.Send(from, wire.Reply{
			ClientID: req.Cmd.ClientID, Seq: req.Cmd.Seq, OK: true,
			Exists: exists, Value: v, Leader: id,
		})
	}
}

// addSpreadClient issues a script round-robin over ALL replicas (so stale
// reads actually come from followers).
func (f *fixture) addSpreadClient(id uint64, script []kvstore.Command, startAt time.Duration) {
	cl := &histClient{id: id, hist: f.hist, script: script, targets: f.cc.Nodes, rr: int(id)}
	cl.ep = f.net.Register(ids.NewID(998, int(id)), cl, true)
	f.clients = append(f.clients, cl)
	f.sim.Schedule(startAt, cl.next)
}

func TestLeaseReadsAreLinearizable(t *testing.T) {
	f := buildWithReadMode(t, paxos.ReadLease, false, 2*time.Millisecond, 5, 21)
	for c := uint64(1); c <= 4; c++ {
		f.addClient(kindPaxos, c, script(c, 6, 2), time.Duration(c)*200*time.Microsecond)
	}
	f.run(t, 5*time.Second)
	if res := f.hist.Check(); !res.OK {
		t.Fatalf("lease reads broke linearizability at key %d", res.BadKey)
	}
}

// The checker must catch a stale read: a read served by a follower that has
// not yet learned a completed write returns the old value after the write
// finished — a real-time violation. This is both a §4.3 demonstration and a
// self-test that the checker has teeth.
func TestReadAnyViolatesLinearizability(t *testing.T) {
	// Slow heartbeats: followers accept writes but learn commits late, so
	// their local state lags well behind completed writes.
	f := buildWithReadMode(t, paxos.ReadLog, true, time.Hour, 5, 3)
	// Writer completes its writes through the leader first...
	f.addClient(kindPaxos, 1, []kvstore.Command{
		{Op: kvstore.Put, Key: 9, Value: []byte("w1")},
		{Op: kvstore.Put, Key: 9, Value: []byte("w2")},
	}, 0)
	// ...then a reader asks a follower, long after both writes completed.
	f.addSpreadClient(2, []kvstore.Command{
		{Op: kvstore.Get, Key: 9},
		{Op: kvstore.Get, Key: 9},
	}, 100*time.Millisecond)
	f.run(t, 5*time.Second)
	if res := f.hist.Check(); res.OK {
		t.Fatal("reads from any replica after completed writes should have produced a stale, non-linearizable read")
	}
}
