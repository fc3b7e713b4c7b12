package epaxos

import (
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/slots"
	"pigpaxos/internal/wire"
)

// A late duplicate Commit for an instance GC already collected must not
// re-open it: the command executed here long ago, and executing it again
// would roll the key back on this replica only. A Prepare for a collected
// slot gets no answer — "none" would invite the recoverer to anchor a no-op
// over a command that already executed.
func TestCollectedInstanceStaysCollected(t *testing.T) {
	cc := config.NewLAN(3)
	ctx := nodetest.NewLoop(cc.Nodes[0])
	r := New(ctx, Config{Cluster: cc, ID: cc.Nodes[0], gcEvery: 1})
	owner := cc.Nodes[1]
	commit := func(slot uint64, v string) wire.Commit {
		c := wire.Commit{
			Inst: wire.InstRef{Replica: owner, Slot: slot}, Seq: slot,
			Cmd: kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte(v), ClientID: 7, Seq: slot},
		}
		if slot > 1 {
			c.Deps = []wire.InstRef{{Replica: owner, Slot: slot - 1}}
		}
		return c
	}
	first := commit(1, "1")
	r.OnMessage(owner, first)
	for s := uint64(2); s <= 300; s++ {
		r.OnMessage(owner, commit(s, "2"))
	}
	r.OnMessage(owner, first) // late duplicate of slot 1
	r.OnMessage(cc.Nodes[2], wire.Prepare{Ballot: ids.NewBallot(1, cc.Nodes[2]), Inst: wire.InstRef{Replica: owner, Slot: 2}})

	if v, _ := r.Store().Get(1); string(v) != "2" {
		t.Errorf("key = %q after the late duplicate, want \"2\"", v)
	}
	if a, e := r.Store().Applied(), r.Stats().Executions; a != 300 || e != 300 {
		t.Errorf("applied %d, executions %d; want 300 each", a, e)
	}
	for _, rep := range nodetest.SentOf[wire.PrepareReply](ctx) {
		if rep.OK && rep.Status == wire.InstNone {
			t.Errorf("Prepare for a collected slot answered InstNone: %+v", rep)
		}
	}
	if n := r.Unexecuted(); n != 0 {
		t.Errorf("%d unexecuted instances", n)
	}
}

// GC may run in the middle of an execution pass and slide a row's window past
// the slot the pass visits next: the pass must skip the collected cells. Here
// one pass executes a two-instance cycle, collecting after each execution.
func TestGCInsideExecutionPass(t *testing.T) {
	cc := config.NewLAN(3)
	r := New(nodetest.NewLoop(cc.Nodes[0]), Config{Cluster: cc, ID: cc.Nodes[0], gcEvery: 1})
	owner := cc.Nodes[1]
	commit := func(slot, dep uint64) wire.Commit {
		return wire.Commit{
			Inst: wire.InstRef{Replica: owner, Slot: slot}, Seq: slot,
			Cmd:  kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte{byte(slot)}, ClientID: 7, Seq: slot},
			Deps: []wire.InstRef{{Replica: owner, Slot: dep}},
		}
	}
	r.OnMessage(owner, commit(2, 1)) // blocked on slot 1
	r.OnMessage(owner, commit(1, 2)) // closes the cycle: one pass executes both
	if st := r.Stats(); st.Executions != 2 || st.GCs != 2 {
		t.Fatalf("executions %d, GCs %d; want 2 each", st.Executions, st.GCs)
	}
	if v, _ := r.Store().Get(1); string(v) != "\x02" {
		t.Errorf("key = %q, want the higher-seq write", v)
	}
	checkInstanceSpace(t, r)
}

// Messages naming a non-member row, a slot slots.MaxAhead or more above a
// row's floor, or a slot of this replica's own row it has not opened yet, are
// dropped before anything is sized by them: no reply, no instance, no
// commit. (A peer that opened an own slot early would have the next request
// overwrite it — an executed instance executing again.)
func TestOutOfBoundsMessagesDropped(t *testing.T) {
	cc := config.NewLAN(3)
	stranger := ids.NewID(9, 9)
	far := uint64(slots.MaxAhead)
	cmd := kvstore.Command{Op: kvstore.Put, Key: 1, Value: []byte("x"), ClientID: 1, Seq: 1}
	for _, tc := range []struct {
		name string
		m    wire.Msg
	}{
		{"prepare/non-member row", wire.Prepare{Ballot: ids.NewBallot(1, cc.Nodes[1]), Inst: wire.InstRef{Replica: stranger, Slot: 1}}},
		{"preaccept/far slot", wire.PreAccept{Ballot: ids.NewBallot(0, cc.Nodes[1]), Inst: wire.InstRef{Replica: cc.Nodes[1], Slot: 1 << 62}, Cmd: cmd, Seq: 1}},
		{"preaccept/first slot past the bound", wire.PreAccept{Ballot: ids.NewBallot(0, cc.Nodes[1]), Inst: wire.InstRef{Replica: cc.Nodes[1], Slot: far}, Cmd: cmd, Seq: 1}},
		{"commit/non-member dep", wire.Commit{Inst: wire.InstRef{Replica: cc.Nodes[1], Slot: 1}, Cmd: cmd, Seq: 1, Deps: []wire.InstRef{{Replica: stranger, Slot: 1}}}},
		{"commit/far dep", wire.Commit{Inst: wire.InstRef{Replica: cc.Nodes[1], Slot: 1}, Cmd: cmd, Seq: 1, Deps: []wire.InstRef{{Replica: cc.Nodes[2], Slot: 1 << 40}}}},
		{"commit/own slot never opened", wire.Commit{Inst: wire.InstRef{Replica: cc.Nodes[0], Slot: 1}, Cmd: cmd, Seq: 1}},
		{"accept/far dep", wire.Accept{Ballot: ids.NewBallot(0, cc.Nodes[1]), Inst: wire.InstRef{Replica: cc.Nodes[1], Slot: 1}, Cmd: cmd, Seq: 1, Deps: []wire.InstRef{{Replica: cc.Nodes[2], Slot: ^uint64(0)}}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := nodetest.NewLoop(cc.Nodes[0])
			r := New(ctx, Config{Cluster: cc, ID: cc.Nodes[0]})
			r.OnMessage(cc.Nodes[1], tc.m)
			if len(ctx.Events) != 0 {
				t.Errorf("answered: %+v", ctx.Events)
			}
			if st := r.Stats(); st.Commits != 0 || r.Unexecuted() != 0 {
				t.Errorf("opened an instance: commits %d, unexecuted %d", st.Commits, r.Unexecuted())
			}
		})
	}
}

// FuzzEPaxosOnMessage feeds one replica well-formed message streams — any
// sender, member rows and strangers, slots near the floor and far past the
// bound, every phase and reply — interleaved with clock advances that fire
// its sweep and execution retries. Nothing may panic, no row may cover more
// than slots.MaxAhead slots, the live count must match the instance space
// (present unexecuted cells, of which Unexecuted reports those past
// statusNone), and every cell must keep the invariants the driver relies on
// (see checkInstanceSpace).
func FuzzEPaxosOnMessage(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{1, 1, 1, 0, 2, 1, 3, 1, 5, 2, 1, 2, 6, 0, 1, 1, 9, 200, 8, 2, 3})
	f.Add([]byte{3, 1, 1, 0, 0, 5, 0, 3, 2, 1, 2, 0, 5, 2, 4, 9, 250, 9, 250, 7, 1, 1})
	f.Add([]byte{6, 2, 2, 1, 0, 1, 0, 9, 255, 4, 3, 250, 1, 8, 3, 251, 0, 2, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		cc := config.NewLAN(3)
		ctx := nodetest.NewLoop(cc.Nodes[0])
		r := New(ctx, Config{Cluster: cc, ID: cc.Nodes[0], gcEvery: 2})
		g := msgGen{data: data, cc: cc}
		for !g.done() {
			if from, m := g.next(); m != nil {
				r.OnMessage(from, m)
			} else {
				ctx.Advance(time.Duration(g.byte()) * time.Millisecond)
			}
			ctx.Events = ctx.Events[:0]
			checkInstanceSpace(t, r)
		}
	})
}

// checkInstanceSpace checks the live count and, per cell, the invariants the
// driver's code relies on: a driven instance is uncommitted, in a phase, and
// promised to no ballot above its own round (so a refusal that tops the round
// tops every ballot seen, and promote alone handles it); a preparing one is
// driven; and the recovery clock runs only while the instance is uncommitted
// (commit stops it, and nothing restarts it).
func checkInstanceSpace(t *testing.T, r *Replica) {
	t.Helper()
	live, none := 0, 0
	for i := range r.rows {
		rw := &r.rows[i]
		if rw.win.Len() > slots.MaxAhead {
			t.Fatalf("row %v covers %d slots", rw.id, rw.win.Len())
		}
		for s := rw.win.Base(); s < rw.win.End(); s++ {
			in := rw.win.At(s)
			switch {
			case !in.drive.IsZero() && (in.bal != in.drive || in.phase() == phaseNone):
				t.Fatalf("driven %v.%d: ballot %v, drive %v, status %d", rw.id, s, in.bal, in.drive, in.status)
			case in.preparing && in.drive.IsZero():
				t.Fatalf("%v.%d prepares with no ballot to drive", rw.id, s)
			case in.block.on && in.status >= statusCommitted:
				t.Fatalf("%v.%d: recovery clock running on a committed instance", rw.id, s)
			}
			if in.present && in.status < statusExecuted {
				live++
				if in.status == statusNone {
					none++
				}
			}
		}
	}
	if live != r.live || r.Unexecuted() != live-none {
		t.Fatalf("live %d, unexecuted %d; the instance space holds %d live, %d of them opened by a Prepare alone",
			r.live, r.Unexecuted(), live, none)
	}
}

// msgGen decodes fuzz bytes into messages for one replica of cc.
type msgGen struct {
	data []byte
	cc   config.Cluster
}

func (g *msgGen) done() bool { return len(g.data) == 0 }

func (g *msgGen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

// id picks a member, a stranger or the zero ID.
func (g *msgGen) id() ids.ID {
	switch b := int(g.byte()) % (g.cc.N() + 2); {
	case b < g.cc.N():
		return g.cc.Nodes[b]
	case b == g.cc.N():
		return ids.NewID(9, 9)
	default:
		return 0
	}
}

// slot is mostly a small slot, sometimes one far past the bound — never one
// just inside it, which a row would legitimately allocate a MaxAhead ring for.
func (g *msgGen) slot() uint64 {
	switch b := g.byte(); {
	case b < 248:
		return uint64(b % 32)
	case b < 252:
		return slots.MaxAhead + uint64(b)
	default:
		return 1<<62 + uint64(b)
	}
}

func (g *msgGen) ref() wire.InstRef { return wire.InstRef{Replica: g.id(), Slot: g.slot()} }

func (g *msgGen) deps() []wire.InstRef {
	var deps []wire.InstRef
	for n := g.byte() % 3; n > 0; n-- {
		deps = append(deps, g.ref())
	}
	return deps
}

func (g *msgGen) ballot() ids.Ballot { return ids.NewBallot(int(g.byte()%3), g.id()) }

func (g *msgGen) cmd() kvstore.Command {
	b := g.byte()
	c := kvstore.Command{Op: kvstore.Put, Key: uint64(b % 4), Value: []byte{b}, ClientID: uint64(b>>2) % 3, Seq: uint64(b>>4) % 8}
	if b&1 == 1 {
		c.Op, c.Value = kvstore.Get, nil
	}
	return c
}

// next returns the next message and its sender, or a nil message for a
// clock advance.
func (g *msgGen) next() (ids.ID, wire.Msg) {
	kind, from := g.byte()%10, g.id()
	switch kind {
	case 0:
		return ids.NewID(999, 1), wire.Request{Cmd: g.cmd()}
	case 1:
		return from, wire.PreAccept{Ballot: g.ballot(), Inst: g.ref(), Cmd: g.cmd(), Seq: uint64(g.byte() % 8), Deps: g.deps()}
	case 2:
		return from, wire.PreAcceptReply{Inst: g.ref(), From: from, OK: g.byte()&1 == 0, Ballot: g.ballot(), Seq: uint64(g.byte() % 8), Deps: g.deps(), Changed: g.byte()&1 == 0}
	case 3:
		return from, wire.Accept{Ballot: g.ballot(), Inst: g.ref(), Cmd: g.cmd(), Seq: uint64(g.byte() % 8), Deps: g.deps()}
	case 4:
		return from, wire.AcceptReply{Inst: g.ref(), From: from, OK: g.byte()&1 == 0, Ballot: g.ballot()}
	case 5:
		return from, wire.Commit{Inst: g.ref(), Cmd: g.cmd(), Seq: uint64(g.byte() % 8), Deps: g.deps()}
	case 6:
		return from, wire.Prepare{Ballot: g.ballot(), Inst: g.ref()}
	case 7:
		return from, wire.PrepareReply{Inst: g.ref(), From: from, OK: g.byte()&1 == 0, Ballot: g.ballot(),
			Status: g.byte() % 4, VBallot: g.ballot(), Cmd: g.cmd(), Seq: uint64(g.byte() % 8), Deps: g.deps()}
	case 8:
		return from, wire.Heartbeat{From: from, Commit: g.slot()}
	default:
		return from, nil
	}
}
