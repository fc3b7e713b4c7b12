package epaxos

import (
	"bytes"
	"testing"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node/nodetest"
	"pigpaxos/internal/wire"
)

// TestStorePinsOnlyWhatTheLogPins: the store borrows every Put's value and
// gc returns the loans of the instances it collects (see kvstore). After
// gc, no live cell may alias the bytes of a collected command, so rewriting
// all of them leaves the store as it was. Instances 1–20 write keys 1–20
// once each, so their newest values are collected ones; 21–40 overwrite
// key 0, whose newest value stays in the instance space.
func TestStorePinsOnlyWhatTheLogPins(t *testing.T) {
	cc := config.NewLAN(benchN)
	ctx := &stepCtx{Null: nodetest.New(cc.Nodes[0])}
	r := New(ctx, Config{Cluster: cc, ID: cc.Nodes[0], gcEvery: 8})
	r.Start()
	const n, size = 40, 8
	chunk := bytes.Repeat([]byte{'v'}, n*size) // one read chunk, carved
	bySlot := map[uint64]kvstore.Command{}
	for i := uint64(1); i <= n; i++ {
		key := i
		if i > 20 {
			key = 0
		}
		cmd := kvstore.Command{Op: kvstore.Put, Key: key, Value: chunk[(i-1)*size : i*size : i*size], ClientID: 1, Seq: i}
		r.OnMessage(ids.NewID(999, 1), wire.Request{Cmd: cmd})
		pa := ctx.pa
		bySlot[pa.Inst.Slot] = cmd
		for _, id := range cc.Nodes[1:4] {
			r.OnMessage(id, wire.PreAcceptReply{
				Inst: pa.Inst, From: id, OK: true, Ballot: pa.Ballot, Seq: pa.Seq, Deps: pa.Deps,
			})
		}
	}
	floor := r.row(cc.Nodes[0]).win.Base()
	if r.Stats().Executions != n || floor <= 21 {
		t.Fatalf("%d executions, row floor %d: want all %d executed and keys 1-20 collected", r.Stats().Executions, floor, n)
	}
	before := r.Store().Serialize(nil)
	for slot, cmd := range bySlot {
		if slot < floor {
			copy(cmd.Value, "scribble")
		}
	}
	if !bytes.Equal(r.Store().Serialize(nil), before) {
		t.Fatalf("rewriting the commands collected below slot %d changed the store", floor)
	}
}
