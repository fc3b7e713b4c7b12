package shard

import (
	"math/rand"
	"testing"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

func TestRouterRange(t *testing.T) {
	for _, s := range []int{1, 2, 4, 8, 13} {
		r := NewRouter(s)
		for key := uint64(0); key < 10000; key++ {
			k := r.Shard(key)
			if k < 0 || k >= s {
				t.Fatalf("S=%d key=%d: shard %d out of range", s, key, k)
			}
		}
	}
}

func TestRouterDeterministic(t *testing.T) {
	a, b := NewRouter(8), NewRouter(8)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		key := rng.Uint64()
		if a.Shard(key) != b.Shard(key) {
			t.Fatalf("routers disagree on key %d", key)
		}
	}
}

// Sequential key spaces (the workload generator's common case) must spread
// evenly — the splitmix64 finalizer, not the raw modulus, carries this.
func TestRouterBalance(t *testing.T) {
	const keys = 100000
	for _, s := range []int{2, 4, 8} {
		r := NewRouter(s)
		counts := make([]int, s)
		for key := uint64(0); key < keys; key++ {
			counts[r.Shard(key)]++
		}
		want := keys / s
		for k, c := range counts {
			if c < want*9/10 || c > want*11/10 {
				t.Errorf("S=%d shard %d holds %d keys, want %d±10%%", s, k, c, want)
			}
		}
	}
}

func TestRouterZeroValue(t *testing.T) {
	var r Router
	if r.Shard(12345) != 0 || r.Shards() != 1 {
		t.Fatalf("zero-value router must route everything to shard 0")
	}
	if NewRouter(0).Shards() != 1 || NewRouter(-3).Shards() != 1 {
		t.Fatalf("NewRouter must clamp to 1 shard")
	}
}

// Satellite: the router hot path allocates zero per op, same discipline as
// the wire codec assertions.
func TestRouterZeroAllocs(t *testing.T) {
	r := NewRouter(8)
	var sink int
	allocs := testing.AllocsPerRun(1000, func() {
		sink += r.Shard(uint64(sink) * 2654435761)
	})
	if allocs != 0 {
		t.Fatalf("Router.Shard allocates %.1f/op, want 0", allocs)
	}
	_ = sink
}

func TestPlanDisjointWhenDivisible(t *testing.T) {
	cc := config.NewLAN(12)
	m := Plan(cc, 4)
	if err := m.Validate(cc); err != nil {
		t.Fatal(err)
	}
	seen := make(map[ids.ID]int)
	for _, d := range m.Shards {
		if len(d.Members) != 3 {
			t.Fatalf("shard %d has %d members, want 3", d.Index, len(d.Members))
		}
		for _, mem := range d.Members {
			seen[mem]++
		}
	}
	for id, c := range seen {
		if c != 1 {
			t.Errorf("node %v replicates %d shards; 12 nodes / 4 shards should be disjoint", id, c)
		}
	}
}

func TestPlanLeaderSpreading(t *testing.T) {
	cc := config.NewLAN(6)
	m := Plan(cc, 4) // overlapping blocks of 3 over 6 nodes
	if err := m.Validate(cc); err != nil {
		t.Fatal(err)
	}
	duty := make(map[ids.ID]int)
	for _, d := range m.Shards {
		duty[d.Leader]++
	}
	for id, c := range duty {
		if c > 1 {
			t.Errorf("node %v leads %d of 4 shards over 6 nodes; greedy spread should cap at 1", id, c)
		}
	}
}

func TestPlanSmallCluster(t *testing.T) {
	cc := config.NewLAN(3)
	m := Plan(cc, 4)
	if err := m.Validate(cc); err != nil {
		t.Fatal(err)
	}
	for _, d := range m.Shards {
		if len(d.Members) != 3 {
			t.Fatalf("shard %d: want full 3-node membership, got %d", d.Index, len(d.Members))
		}
	}
}

func TestPlanDeterministic(t *testing.T) {
	cc := config.NewWAN3(9)
	a, b := Plan(cc, 4), Plan(cc, 4)
	for k := range a.Shards {
		if a.Shards[k].Leader != b.Shards[k].Leader {
			t.Fatalf("shard %d leaders differ across identical plans", k)
		}
		for i := range a.Shards[k].Members {
			if a.Shards[k].Members[i] != b.Shards[k].Members[i] {
				t.Fatalf("shard %d membership differs across identical plans", k)
			}
		}
	}
}

func TestLeaderPlacementFlip(t *testing.T) {
	cc := config.NewWAN3(9)
	d := Plan(cc, 1).Shards[0]
	flipped, ok := LeaderPlacementFlip(cc, d, config.ZoneOregon)
	if !ok {
		t.Fatal("flip to a populated zone must succeed")
	}
	if z := cc.ZoneOf(flipped.Leader); z != config.ZoneOregon {
		t.Fatalf("flipped leader in zone %d, want Oregon", z)
	}
	if _, ok := LeaderPlacementFlip(cc, d, 99); ok {
		t.Fatal("flip to an absent zone must fail")
	}
}

func TestMapOfAndShardsOn(t *testing.T) {
	cc := config.NewLAN(12)
	m := Plan(cc, 4)
	for key := uint64(0); key < 100; key++ {
		if got, want := m.Of(key).Index, m.Router.Shard(key); got != want {
			t.Fatalf("Of(%d).Index=%d, router says %d", key, got, want)
		}
	}
	for _, id := range cc.Nodes {
		if n := len(m.ShardsOn(id)); n != 1 {
			t.Fatalf("node %v hosts %d shards in a disjoint plan, want 1", id, n)
		}
	}
}

// recorder captures dispatched messages.
type recorder struct {
	from ids.ID
	msgs []wire.Msg
}

func (r *recorder) OnMessage(from ids.ID, m wire.Msg) {
	r.from = from
	r.msgs = append(r.msgs, m)
}

func TestDispatcherRouting(t *testing.T) {
	d := NewDispatcher(4)
	recs := make([]*recorder, 4)
	for k := range recs {
		recs[k] = &recorder{}
		d.Register(k, recs[k])
	}
	src := ids.NewID(1, 7)
	inner := wire.Request{Cmd: kvstore.Command{Op: kvstore.Put, Key: 9, ClientID: 7, Seq: 1}}

	d.OnMessage(src, wire.Sharded{Shard: 2, Inner: inner})
	d.OnMessage(src, wire.Sharded{Shard: 3, Inner: inner})
	d.OnMessage(src, inner)                                // untagged → shard 0
	d.OnMessage(src, wire.Sharded{Shard: 9, Inner: inner}) // out of range → dropped
	for k, want := range []int{1, 0, 1, 1} {
		if len(recs[k].msgs) != want {
			t.Fatalf("shard %d saw %d msgs, want %d", k, len(recs[k].msgs), want)
		}
	}
	if recs[2].from != src {
		t.Fatalf("dispatcher must preserve sender")
	}
	if _, ok := recs[2].msgs[0].(wire.Request); !ok {
		t.Fatalf("handler must see the unwrapped inner message, got %T", recs[2].msgs[0])
	}
}

func TestDispatcherUnregisteredShardDropped(t *testing.T) {
	d := NewDispatcher(2)
	rec := &recorder{}
	d.Register(0, rec)
	d.OnMessage(ids.NewID(1, 1), wire.Sharded{Shard: 1, Inner: wire.Heartbeat{}})
	if len(rec.msgs) != 0 {
		t.Fatal("traffic for an unregistered shard must be dropped, not misrouted")
	}
}

func TestDispatcherZeroAllocs(t *testing.T) {
	d := NewDispatcher(4)
	rec := &recorder{msgs: make([]wire.Msg, 0, 1<<20)}
	for k := 0; k < 4; k++ {
		d.Register(k, rec)
	}
	src := ids.NewID(1, 1)
	// Boxed once, as the decoder hands it over: the pin is on unwrapping.
	var env wire.Msg = wire.Sharded{Shard: 2, Inner: wire.Heartbeat{Ballot: 7}}
	allocs := testing.AllocsPerRun(1000, func() {
		d.OnMessage(src, env)
	})
	if allocs != 0 {
		t.Fatalf("Dispatcher.OnMessage allocates %.1f/op, want 0", allocs)
	}
}

// counter counts the messages dispatched to it.
type counter int

func (c *counter) OnMessage(ids.ID, wire.Msg) { *c++ }

// BenchmarkDispatcher times the demultiplexing every inbound message of a
// live member pays, tagged (a sharded member) and untagged (a single-shard
// member, pigserver's), and pins it at zero allocations.
func BenchmarkDispatcher(b *testing.B) {
	d := NewDispatcher(4)
	var n counter
	for k := 0; k < 4; k++ {
		d.Register(k, &n)
	}
	src := ids.NewID(1, 1)
	for _, c := range []struct {
		name string
		msg  wire.Msg // boxed once, as the decoder hands it over
	}{
		{"tagged", wire.Sharded{Shard: 2, Inner: wire.Heartbeat{Ballot: 7}}},
		{"untagged", wire.Heartbeat{Ballot: 7}},
	} {
		b.Run(c.name, func(b *testing.B) {
			if allocs := testing.AllocsPerRun(100, func() { d.OnMessage(src, c.msg) }); allocs != 0 {
				b.Fatalf("Dispatcher.OnMessage allocates %.1f/op, want 0", allocs)
			}
			b.ReportAllocs()
			for b.Loop() {
				d.OnMessage(src, c.msg)
			}
		})
	}
}

// sendRecorder records what a wrapped context sends.
type sendRecorder struct {
	node.Context
	to   []ids.ID
	msgs []wire.Msg
}

func (s *sendRecorder) ID() ids.ID { return ids.NewID(1, 1) }
func (s *sendRecorder) Send(to ids.ID, m wire.Msg) {
	s.to = append(s.to, to)
	s.msgs = append(s.msgs, m)
}
func (s *sendRecorder) Broadcast(to []ids.ID, m wire.Msg) {
	for _, id := range to {
		s.Send(id, m)
	}
}

func TestWrapTagsSends(t *testing.T) {
	rec := &sendRecorder{}
	ctx := Wrap(rec, 3)
	dst := ids.NewID(1, 2)
	ctx.Send(dst, wire.Heartbeat{Ballot: 1})
	ctx.Broadcast([]ids.ID{dst, ids.NewID(1, 3)}, wire.Heartbeat{Ballot: 2})
	if len(rec.msgs) != 3 {
		t.Fatalf("want 3 sends, got %d", len(rec.msgs))
	}
	for i, m := range rec.msgs {
		sm, ok := m.(wire.Sharded)
		if !ok {
			t.Fatalf("send %d: not a Sharded envelope: %T", i, m)
		}
		if sm.Shard != 3 {
			t.Fatalf("send %d tagged shard %d, want 3", i, sm.Shard)
		}
		if _, ok := sm.Inner.(wire.Heartbeat); !ok {
			t.Fatalf("send %d: inner %T, want Heartbeat", i, sm.Inner)
		}
	}
	if ctx.ID() != rec.ID() {
		t.Fatal("Wrap must pass through identity")
	}
}

// turnRecorder is a sendRecorder on a substrate with event-loop turns.
type turnRecorder struct {
	sendRecorder
	turn uint64
}

func (t *turnRecorder) Turn() uint64 { return t.turn }

// A shard's replicas must see the node's turns (PigPaxos draws its relays
// once per turn), and a substrate without turns must not grow one.
func TestWrapForwardsTurns(t *testing.T) {
	rec := &turnRecorder{turn: 7}
	ctx := Wrap(rec, 2)
	turns, ok := ctx.(node.Turns)
	if !ok {
		t.Fatal("Wrap hid the inner context's node.Turns")
	}
	if turns.Turn() != 7 {
		t.Fatalf("Turn() = %d, want 7", turns.Turn())
	}
	rec.turn++
	if turns.Turn() != 8 {
		t.Fatalf("Turn() = %d after the inner turn moved to 8", turns.Turn())
	}
	ctx.Send(ids.NewID(1, 2), wire.Heartbeat{Ballot: 1})
	if sm, ok := rec.msgs[0].(wire.Sharded); !ok || sm.Shard != 2 {
		t.Fatalf("a turn-aware wrapper must still tag sends: %#v", rec.msgs[0])
	}

	cc := config.NewLAN(3)
	ep := netsim.New(des.New(1), cc, netsim.DefaultOptions()).Register(cc.Nodes[0], &recorder{}, false)
	if _, ok := Wrap(ep, 1).(node.Turns); ok {
		t.Fatal("wrapping a simulator endpoint must not implement node.Turns")
	}
}
