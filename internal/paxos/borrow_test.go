package paxos

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
// the log returns the loan when it drops the entry (see kvstore). A follower
// drops executed entries when maybeCompact runs and when a snapshot lands;
// after either, no live cell may alias the bytes of a command it dropped, so
// rewriting all of them leaves the store as it was. Slots 1–20 write keys
// 1–20 once each, so their newest values are dropped ones; slots 21–40
// overwrite key 0, whose newest value stays in the log.
func TestStorePinsOnlyWhatTheLogPins(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  func(*Config, *nodetest.Loop)
	}{
		{"maybeCompact", func(c *Config, _ *nodetest.Loop) { c.CompactEvery, c.CompactRetain = 8, 4 }},
		{"snapshot", func(c *Config, loop *nodetest.Loop) {
			disk := loop.NewDisk()
			disk.Held = true
			c.Storage, c.SnapshotEvery = disk, 8
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cc := config.NewLAN(3)
			leader, b := cc.Nodes[0], ids.NewBallot(1, cc.Nodes[0])
			loop := nodetest.NewLoop(cc.Nodes[1])
			cfg := Config{Cluster: cc, ID: cc.Nodes[1], InitialLeader: leader, MaxPending: -1}
			tc.cfg(&cfg, loop)
			r := New(loop, cfg, nil)
			land := func() {
				if disk, ok := cfg.Storage.(*nodetest.Disk); ok {
					for disk.Flying() {
						disk.Complete()
					}
				}
			}
			const slots, size = 40, 8
			chunk := bytes.Repeat([]byte{'v'}, slots*size) // one read chunk, carved
			batches := make([][]kvstore.Command, slots+1)
			for s := uint64(1); s <= slots; s++ {
				key := s
				if s > 20 {
					key = 0
				}
				v := chunk[(s-1)*size : s*size : s*size]
				batches[s] = []kvstore.Command{{Op: kvstore.Put, Key: key, Value: v, ClientID: 1, Seq: s}}
				r.OnMessage(leader, wire.P2a{Ballot: b, Slot: s, Cmds: batches[s], Commit: s})
				land()
			}
			r.OnMessage(leader, wire.Heartbeat{Ballot: b, From: leader, Commit: slots + 1})
			land()
			floor := r.Log().FirstSlot()
			if r.Log().ExecuteCursor() != slots+1 || floor <= 21 {
				t.Fatalf("cursor %d, floor %d: want every slot executed and keys 1-20 dropped", r.Log().ExecuteCursor(), floor)
			}
			before := r.Store().Serialize(nil)
			for s := uint64(1); s < floor; s++ {
				for _, cmd := range batches[s] {
					copy(cmd.Value, "scribble")
				}
			}
			if !bytes.Equal(r.Store().Serialize(nil), before) {
				t.Fatalf("rewriting the commands dropped below slot %d changed the store", floor)
			}
		})
	}
}
