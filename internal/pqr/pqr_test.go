package pqr

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/rlog"
	"pigpaxos/internal/wire"
)

// fixture: n replica stores with responders, plus one client-side reader.
type fixture struct {
	sim     *des.Sim
	net     *netsim.Network
	cc      config.Cluster
	stores  map[ids.ID]*kvstore.Store
	reader  *Reader
	results []Result
}

type replicaHandler struct {
	resp *Responder
}

func (h *replicaHandler) OnMessage(from ids.ID, m wire.Msg) {
	h.resp.OnMessage(from, m)
}

type readerHandler struct{ r *Reader }

func (h *readerHandler) OnMessage(from ids.ID, m wire.Msg) {
	if rep, ok := m.(wire.QReadReply); ok {
		h.r.OnReply(rep)
	}
}

func newFixture(t *testing.T, n int) *fixture {
	t.Helper()
	sim := des.New(5)
	cc := config.NewLAN(n)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	f := &fixture{sim: sim, net: net, cc: cc, stores: make(map[ids.ID]*kvstore.Store)}
	for _, id := range cc.Nodes {
		st := kvstore.New()
		f.stores[id] = st
		h := &replicaHandler{}
		ep := net.Register(id, h, false)
		h.resp = NewResponder(ep, st, nil, nil)
	}
	rh := &readerHandler{}
	ep := net.Register(ids.NewID(999, 1), rh, true)
	f.reader = New(ep, cc.Nodes)
	rh.r = f.reader
	return f
}

func (f *fixture) put(id ids.ID, key uint64, val string) {
	f.stores[id].Apply(kvstore.Command{Op: kvstore.Put, Key: key, Value: []byte(val)})
}

func (f *fixture) read(key uint64) {
	f.sim.Schedule(0, func() {
		f.reader.Read(key, func(r Result) { f.results = append(f.results, r) })
	})
}

func TestStableReadReturnsValue(t *testing.T) {
	f := newFixture(t, 5)
	for _, id := range f.cc.Nodes {
		f.put(id, 1, "stable")
	}
	f.read(1)
	f.sim.Run(50 * time.Millisecond)
	if len(f.results) != 1 {
		t.Fatalf("results = %d", len(f.results))
	}
	r := f.results[0]
	if r.Failed || !r.Exists || string(r.Value) != "stable" || r.Rinses != 0 {
		t.Errorf("result: %+v", r)
	}
}

func TestMissingKeyReads(t *testing.T) {
	f := newFixture(t, 5)
	f.read(42)
	f.sim.Run(50 * time.Millisecond)
	if len(f.results) != 1 || f.results[0].Exists || f.results[0].Failed {
		t.Fatalf("missing key read: %+v", f.results)
	}
}

func TestUnstableReadRinses(t *testing.T) {
	// Only one replica has the newest version: the read must rinse until
	// the write propagates, then return the new value.
	f := newFixture(t, 5)
	for _, id := range f.cc.Nodes {
		f.put(id, 1, "old")
	}
	// Newest version at a single replica (write in flight).
	f.put(f.cc.Nodes[0], 1, "new")
	f.read(1)
	// Propagate the write to the rest after 5ms (commit catching up).
	f.sim.Schedule(5*time.Millisecond, func() {
		for _, id := range f.cc.Nodes[1:] {
			f.put(id, 1, "new")
		}
	})
	f.sim.Run(200 * time.Millisecond)
	if len(f.results) != 1 {
		t.Fatalf("results = %d", len(f.results))
	}
	r := f.results[0]
	if r.Failed {
		t.Fatalf("read failed: %+v", r)
	}
	if string(r.Value) != "new" {
		t.Errorf("value = %q, want new (must not return the stale majority)", r.Value)
	}
	if r.Rinses == 0 {
		t.Error("read should have rinsed at least once")
	}
}

func TestNeverStableFails(t *testing.T) {
	f := newFixture(t, 5)
	for _, id := range f.cc.Nodes {
		f.put(id, 1, "old")
	}
	// Crash two replicas so the only reachable quorum is {1,2,3}, and put
	// a newer version on replicas 1-2 that never reaches replica 3: every
	// read round observes disagreement and must keep rinsing until it
	// gives up.
	f.put(f.cc.Nodes[0], 1, "forever-uncommitted")
	f.put(f.cc.Nodes[1], 1, "forever-uncommitted")
	f.net.Crash(f.cc.Nodes[3])
	f.net.Crash(f.cc.Nodes[4])
	f.read(1)
	f.sim.Run(time.Second)
	if len(f.results) != 1 {
		t.Fatalf("results = %d", len(f.results))
	}
	if !f.results[0].Failed {
		t.Errorf("read of a never-stabilizing key must fail: %+v", f.results[0])
	}
	if f.results[0].Rinses != maxRinses {
		t.Errorf("read gave up after %d rinses, want every one of the %d allowed", f.results[0].Rinses, maxRinses)
	}
}

func TestQuorumReachedWithMinorityCrashed(t *testing.T) {
	f := newFixture(t, 5)
	for _, id := range f.cc.Nodes {
		f.put(id, 1, "v")
	}
	f.net.Crash(f.cc.Nodes[3])
	f.net.Crash(f.cc.Nodes[4])
	f.read(1)
	f.sim.Run(100 * time.Millisecond)
	if len(f.results) != 1 || f.results[0].Failed {
		t.Fatalf("read must succeed with 3 of 5 alive: %+v", f.results)
	}
}

func TestReadFailsWithMajorityCrashed(t *testing.T) {
	f := newFixture(t, 5)
	for _, id := range f.cc.Nodes {
		f.put(id, 1, "v")
	}
	for _, id := range f.cc.Nodes[2:] {
		f.net.Crash(id)
	}
	f.read(1)
	f.sim.Run(time.Second)
	if len(f.results) != 1 || !f.results[0].Failed {
		t.Fatalf("read without quorum must fail: %+v", f.results)
	}
}

func TestConcurrentReadsIndependent(t *testing.T) {
	f := newFixture(t, 5)
	for _, id := range f.cc.Nodes {
		f.put(id, 1, "a")
		f.put(id, 2, "b")
	}
	f.read(1)
	f.read(2)
	f.sim.Run(100 * time.Millisecond)
	if len(f.results) != 2 {
		t.Fatalf("results = %d", len(f.results))
	}
	vals := map[string]bool{}
	for _, r := range f.results {
		vals[string(r.Value)] = true
	}
	if !vals["a"] || !vals["b"] {
		t.Errorf("reads mixed up: %+v", f.results)
	}
}

// arrivals records each QReadReply a client endpoint receives, by RID, with
// its arrival time.
type arrivals struct {
	sim *des.Sim
	got map[uint64]wire.QReadReply
	at  map[uint64]time.Duration
}

func (a *arrivals) OnMessage(_ ids.ID, m wire.Msg) {
	if rep, ok := m.(wire.QReadReply); ok {
		a.got[rep.RID], a.at[rep.RID] = rep, a.sim.Now()
	}
}

// A replica holds a probe back while its log has accepted, but not executed,
// a write to the key; answers with that write once it executes it; answers a
// probe for a key with no write pending at once; and gives a probe up,
// unanswered, once the reader's round is over.
func TestResponderWaitsForAcceptedWrites(t *testing.T) {
	sim := des.New(5)
	cc := config.NewLAN(3)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	st, log := kvstore.New(), rlog.New()
	h := &replicaHandler{}
	h.resp = NewResponder(net.Register(cc.Nodes[0], h, false), st, log, nil)
	a := &arrivals{sim: sim, got: map[uint64]wire.QReadReply{}, at: map[uint64]time.Duration{}}
	client := net.Register(ids.NewID(999, 1), a, true)

	b := ids.NewBallot(1, cc.Nodes[0])
	committed := []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: []byte("new")}}
	log.Accept(1, b, committed)
	log.Accept(2, b, []kvstore.Command{{Op: kvstore.Put, Key: 2, Value: []byte("never")}})
	sim.Schedule(0, func() {
		client.Send(cc.Nodes[0], wire.QReadReq{Key: 1, RID: 1})
		client.Send(cc.Nodes[0], wire.QReadReq{Key: 3, RID: 2})
		client.Send(cc.Nodes[0], wire.QReadReq{Key: 2, RID: 3})
	})
	const executeAt = 5 * time.Millisecond
	sim.Schedule(executeAt, func() {
		log.Commit(1, b, committed)
		log.ExecuteReady(st, nil)
	})
	sim.RunUntilIdle()

	if r, ok := a.got[1]; !ok || a.at[1] < executeAt || r.Version != 1 || string(r.Value) != "new" {
		t.Errorf("probe of the accepted write: %+v at %v, want version 1 after %v", r, a.at[1], executeAt)
	}
	if _, ok := a.got[2]; !ok || a.at[2] >= executeAt {
		t.Errorf("probe of an untouched key answered at %v (ok=%v), want at once", a.at[2], ok)
	}
	if r, ok := a.got[3]; ok {
		t.Errorf("probe of a write that never executes answered %+v", r)
	}
}
