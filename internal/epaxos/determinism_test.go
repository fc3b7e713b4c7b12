package epaxos

import (
	"reflect"
	"testing"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/netsim"
	"pigpaxos/internal/wire"
)

// loadClient drives a closed-loop contended workload against one replica,
// recording replies (the deterministic stand-in for the harness clients).
type loadClient struct {
	ep      *netsim.Endpoint
	target  ids.ID
	id      uint64
	seq     uint64
	ops     int
	replies int
}

func (c *loadClient) next() {
	if c.replies >= c.ops {
		return
	}
	c.seq++
	// Two hot keys so interference (and dependency growth) is guaranteed.
	cmd := kvstore.Command{Op: kvstore.Put, Key: c.seq % 2, Value: []byte{byte(c.id), byte(c.seq)}, ClientID: c.id, Seq: c.seq}
	if c.seq%3 == 0 {
		cmd = kvstore.Command{Op: kvstore.Get, Key: c.seq % 2, ClientID: c.id, Seq: c.seq}
	}
	c.ep.Send(c.target, wire.Request{Cmd: cmd})
}

func (c *loadClient) OnMessage(from ids.ID, m wire.Msg) {
	if r, ok := m.(wire.Reply); ok && r.Seq == c.seq {
		c.replies++
		c.next()
	}
}

// determinismRun executes a fixed contended workload and returns everything
// timing-sensitive: per-replica stats, store checksums, and the network
// counters.
func determinismRun(seed int64) (map[ids.ID]Stats, map[ids.ID]uint64, uint64, uint64) {
	sim := des.New(seed)
	cc := config.NewLAN(5)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	replicas := make(map[ids.ID]*Replica)
	for _, id := range cc.Nodes {
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		r := New(ep, Config{Cluster: cc, ID: id})
		tr.h = r.OnMessage
		replicas[id] = r
	}
	for i, id := range cc.Nodes {
		cl := &loadClient{target: id, id: uint64(i + 1), ops: 40}
		cl.ep = net.Register(ids.NewID(999, i+1), cl, true)
		sim.Schedule(time.Duration(i)*20*time.Microsecond, cl.next)
	}
	sim.Run(2 * time.Second)
	stats := make(map[ids.ID]Stats)
	sums := make(map[ids.ID]uint64)
	for _, id := range cc.Nodes {
		stats[id] = replicas[id].Stats()
		sums[id] = replicas[id].Store().Checksum()
	}
	return stats, sums, net.MessagesSent(), net.MessagesDelivered()
}

// Regression for the fig8 map-order nondeterminism: EPaxos dependency sets
// and execution sweeps once came from Go map iteration, so equal seeds
// produced different CPU charges and different numbers. Every pass now walks
// the instance rows in (replica, slot) order, so two runs at one seed must
// agree on every counter.
func TestSeedDeterminismUnderContention(t *testing.T) {
	stats1, sums1, sent1, del1 := determinismRun(17)
	for run := 0; run < 3; run++ {
		stats2, sums2, sent2, del2 := determinismRun(17)
		if !reflect.DeepEqual(stats1, stats2) {
			t.Fatalf("same seed gave different stats:\n%v\n%v", stats1, stats2)
		}
		if !reflect.DeepEqual(sums1, sums2) {
			t.Fatalf("same seed gave different final states")
		}
		if sent1 != sent2 || del1 != del2 {
			t.Fatalf("same seed gave different message counts: %d/%d vs %d/%d", sent1, del1, sent2, del2)
		}
	}
}

// Dependency sets on the wire are sorted by (replica, slot): attributes walks
// the rows in ID order.
func TestAttributesSortedDeps(t *testing.T) {
	sim := des.New(1)
	cc := config.NewLAN(5)
	net := netsim.New(sim, cc, netsim.DefaultOptions())
	var preAccepts []wire.PreAccept
	for i, id := range cc.Nodes {
		i := i
		tr := &trampoline{}
		ep := net.Register(id, tr, false)
		r := New(ep, Config{Cluster: cc, ID: id})
		tr.h = func(from ids.ID, m wire.Msg) {
			if pa, ok := m.(wire.PreAccept); ok && i == 1 {
				preAccepts = append(preAccepts, pa)
			}
			r.OnMessage(from, m)
		}
	}
	cl := &testClient{}
	cl.ep = net.Register(ids.NewID(999, 1), cl, true)
	// Seed interference on one key from several rows, then issue a command
	// whose deps must span multiple rows.
	for i, id := range cc.Nodes {
		cmd := kvstore.Command{Op: kvstore.Put, Key: 7, Value: []byte{1}, ClientID: uint64(i + 1), Seq: 1}
		func(to ids.ID, c kvstore.Command) {
			sim.Schedule(time.Duration(i)*5*time.Millisecond, func() { cl.ep.Send(to, wire.Request{Cmd: c}) })
		}(id, cmd)
	}
	sim.Run(100 * time.Millisecond)
	if len(preAccepts) == 0 {
		t.Fatal("no PreAccepts observed")
	}
	multi := 0
	for _, pa := range preAccepts {
		if len(pa.Deps) > 1 {
			multi++
		}
		for i := 1; i < len(pa.Deps); i++ {
			a, b := pa.Deps[i-1], pa.Deps[i]
			if a.Replica > b.Replica || (a.Replica == b.Replica && a.Slot >= b.Slot) {
				t.Fatalf("unsorted deps on the wire: %v", pa.Deps)
			}
		}
	}
	if multi == 0 {
		t.Fatal("workload never produced a multi-row dependency set; test is vacuous")
	}
}
