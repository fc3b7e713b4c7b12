package netsim

import (
	"testing"

	"pigpaxos/internal/config"
	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// Send/receive is the innermost loop of every experiment: each simulated
// message pays CPU-cost accounting at both endpoints plus two scheduled
// events. These benchmarks guard that per-message overhead, which bounds
// how large a batching sweep stays affordable in wall-clock time.

type sink struct{ n int }

func (s *sink) OnMessage(from ids.ID, m wire.Msg) { s.n++ }

func benchNet(b *testing.B) (*des.Sim, *Endpoint, *Endpoint, *sink) {
	b.Helper()
	sim := des.New(1)
	cc := config.NewLAN(2)
	net := New(sim, cc, DefaultOptions())
	recv := &sink{}
	a := net.Register(cc.Nodes[0], &sink{}, false)
	z := net.Register(cc.Nodes[1], recv, false)
	return sim, a, z, recv
}

// Messages are pre-boxed as wire.Msg, as protocols hold them, so the
// benches measure the substrate rather than call-site interface boxing.

func BenchmarkSendReceiveSmall(b *testing.B) {
	sim, a, z, _ := benchNet(b)
	var m wire.Msg = wire.P2b{Ballot: 7, From: a.ID(), Slot: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(z.ID(), m)
		sim.RunUntilIdle()
	}
}

func BenchmarkSendReceiveBatch16(b *testing.B) {
	sim, a, z, _ := benchNet(b)
	cmds := make([]kvstore.Command, 16)
	for i := range cmds {
		cmds[i] = kvstore.Command{Op: kvstore.Put, Key: uint64(i), Value: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	}
	var m wire.Msg = wire.P2a{Ballot: 7, Slot: 1, Cmds: cmds}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a.Send(z.ID(), m)
		sim.RunUntilIdle()
	}
}

// BenchmarkFanOut25 is one leader round on the paper's 25-node cluster:
// 24 unicasts and 24 deliveries through the full cost model.
func BenchmarkFanOut25(b *testing.B) {
	sim := des.New(1)
	cc := config.NewLAN(25)
	net := New(sim, cc, DefaultOptions())
	leader := net.Register(cc.Nodes[0], &sink{}, false)
	for _, id := range cc.Nodes[1:] {
		net.Register(id, &sink{}, false)
	}
	var m wire.Msg = wire.P2a{Ballot: 7, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, id := range cc.Nodes[1:] {
			leader.Send(id, m)
		}
		sim.RunUntilIdle()
	}
}

// BenchmarkBroadcast25 is the same round through the Broadcast API (what
// the protocols now call); the cost model charges identically.
func BenchmarkBroadcast25(b *testing.B) {
	sim := des.New(1)
	cc := config.NewLAN(25)
	net := New(sim, cc, DefaultOptions())
	leader := net.Register(cc.Nodes[0], &sink{}, false)
	for _, id := range cc.Nodes[1:] {
		net.Register(id, &sink{}, false)
	}
	var m wire.Msg = wire.P2a{Ballot: 7, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		leader.Broadcast(cc.Nodes[1:], m)
		sim.RunUntilIdle()
	}
}

// BenchmarkSaturatedEndpoint is a leader's CPU under the paper's load: 24
// senders each put 84 messages on the wire at once, so about 2,000
// deliveries queue behind one endpoint's CPU before the simulator drains
// them. Senders have unmetered CPUs so that the whole backlog forms at the
// receiver. One op is one message sent, arrived and handled.
func BenchmarkSaturatedEndpoint(b *testing.B) {
	const senders, perSender = 24, 84
	sim := des.New(1)
	cc := config.NewLAN(senders + 1)
	net := New(sim, cc, DefaultOptions())
	recv := &sink{}
	dst := net.Register(cc.Nodes[0], recv, false)
	from := make([]*Endpoint, senders)
	for i, id := range cc.Nodes[1:] {
		from[i] = net.Register(id, &sink{}, true)
	}
	var m wire.Msg = wire.P2b{Ballot: 7, From: from[0].ID(), Slot: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		from[i%senders].Send(dst.ID(), m)
		if (i+1)%(senders*perSender) == 0 {
			sim.RunUntilIdle()
		}
	}
	sim.RunUntilIdle()
	if recv.n != b.N {
		b.Fatalf("%d of %d messages handled", recv.n, b.N)
	}
}
