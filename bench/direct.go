package main

import (
	"fmt"
	"os"
	"sync/atomic"
	"time"

	"pigpaxos/internal/des"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/rlog"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// Direct calls price one layer at a time through its public functions, with
// nothing of the rest of the stack in the way. Each reports a median over
// rounds, so one descheduled round does not move it.

const directRounds = 9

// medianRounds runs fn directRounds times; fn returns one reading.
func medianRounds(fn func() float64) float64 {
	v := make([]float64, directRounds)
	for i := range v {
		v[i] = fn()
	}
	return median(v)
}

func batch16(valueSize int) []kvstore.Command {
	cmds := make([]kvstore.Command, 16)
	for i := range cmds {
		cmds[i] = kvstore.Command{Op: kvstore.Put, Key: uint64(i * 61), Value: makeValue(valueSize, uint64(i+1)), ClientID: uint64(i + 1), Seq: 1}
	}
	return cmds
}

// rlogSlotNs is Accept+Commit+ExecuteReady for one 16-command slot.
func rlogSlotNs(valueSize int) float64 {
	cmds := batch16(valueSize)
	b := ids.NewBallot(1, ids.NewID(1, 1))
	return medianRounds(func() float64 {
		const slots = 4096
		l, sm := rlog.New(), kvstore.New()
		t0 := time.Now()
		for i := 0; i < slots; i++ {
			s := l.NextSlot()
			l.Accept(s, b, cmds)
			l.Commit(s, b, cmds)
			l.ExecuteReady(sm, nil)
		}
		return float64(time.Since(t0)) / slots
	})
}

// kvstoreApplyNs is one Put applied to a 1000-key store.
func kvstoreApplyNs(valueSize int) float64 {
	v := makeValue(valueSize, 1)
	return medianRounds(func() float64 {
		const ops = 50000
		sm := kvstore.New()
		t0 := time.Now()
		for i := 0; i < ops; i++ {
			sm.Apply(kvstore.Command{Op: kvstore.Put, Key: uint64(i % genKeys), Value: v})
		}
		return float64(time.Since(t0)) / ops
	})
}

// walDirect appends 16-command accept records to a temp-dir FileStorage and
// fsyncs after each: ns per Append, and the median Sync in microseconds.
func walDirect(valueSize int) (appendNs, syncUsP50 float64, err error) {
	dir, err := os.MkdirTemp("", "pigbench-waldirect-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	st, err := wal.OpenFile(dir)
	if err != nil {
		return 0, 0, err
	}
	defer st.Close()
	cmds := batch16(valueSize)
	b := ids.NewBallot(1, ids.NewID(1, 1))
	const syncs = 120
	var appends, syncT []float64
	for i := 0; i < syncs; i++ {
		t0 := time.Now()
		if err := st.Append(wal.Record{Kind: wal.KindAccept, Ballot: b, Slot: uint64(i + 1), Cmds: cmds}); err != nil {
			return 0, 0, err
		}
		t1 := time.Now()
		if _, err := st.Sync(); err != nil {
			return 0, 0, err
		}
		appends = append(appends, float64(t1.Sub(t0)))
		syncT = append(syncT, float64(time.Since(t1))/1e3)
	}
	return median(appends), median(syncT), nil
}

// bareNode is a TCPNode with a benchmark handler and no replica.
type bareNode struct {
	tn *transport.TCPNode
	fn atomic.Pointer[func(from ids.ID, m wire.Msg)]
}

func (b *bareNode) OnMessage(from ids.ID, m wire.Msg) {
	if fn := b.fn.Load(); fn != nil {
		(*fn)(from, m)
	}
}

func (b *bareNode) handle(fn func(from ids.ID, m wire.Msg)) { b.fn.Store(&fn) }

// bareNodes starts n connected TCPNodes on loopback.
func bareNodes(n int) ([]*bareNode, error) {
	nodes := make([]*bareNode, n)
	addrs := make(map[ids.ID]string)
	for i := range nodes {
		b := &bareNode{}
		tn, err := transport.ListenTCP(ids.NewID(1, i+1), "127.0.0.1:0", make(map[ids.ID]string), b)
		if err != nil {
			closeBare(nodes)
			return nil, err
		}
		b.tn = tn
		nodes[i] = b
		addrs[tn.ID()] = tn.Addr()
	}
	for _, b := range nodes {
		for id, a := range addrs {
			b.tn.RegisterAddr(id, a)
		}
	}
	return nodes, nil
}

func closeBare(nodes []*bareNode) {
	for _, b := range nodes {
		if b != nil {
			b.tn.Close()
		}
	}
}

var _ node.Handler = (*bareNode)(nil)

// transportResult is the bare transport's cost between TCPNodes.
type transportResult struct {
	pingpongRttUs      float64
	streamMsgsS        float64 // 64-byte frames
	streamMBs          float64 // 1 KiB frames
	broadcastNsPerPeer float64
}

const (
	streamWindow   = 512 // frames in flight, half the transport's outbound queue
	streamAckEvery = 128
)

// stream pushes count messages m from a to b under a credit window (the
// transport drops when a peer's queue is full) and returns messages per
// second.
func stream(a, b *bareNode, m wire.Msg, count int) float64 {
	credits := make(chan struct{}, streamWindow/streamAckEvery+1)
	got := 0
	b.handle(func(from ids.ID, _ wire.Msg) {
		got++
		if got%streamAckEvery == 0 {
			b.tn.Send(from, wire.P2b{Slot: uint64(got)})
		}
	})
	a.handle(func(ids.ID, wire.Msg) { credits <- struct{}{} })
	t0 := time.Now()
	inflight := 0
	for sent := 0; sent < count; sent++ {
		for inflight >= streamWindow {
			<-credits
			inflight -= streamAckEvery
		}
		a.tn.Send(b.tn.ID(), m)
		inflight++
	}
	for inflight >= streamAckEvery {
		<-credits
		inflight -= streamAckEvery
	}
	return float64(count) / time.Since(t0).Seconds()
}

func transportDirect() (transportResult, error) {
	var r transportResult
	nodes, err := bareNodes(5)
	if err != nil {
		return r, err
	}
	defer closeBare(nodes)
	a, b := nodes[0], nodes[1]

	// Ping-pong: one small message each way, one at a time.
	pong := make(chan struct{}, 1)
	b.handle(func(from ids.ID, m wire.Msg) { b.tn.Send(from, m) })
	a.handle(func(ids.ID, wire.Msg) { pong <- struct{}{} })
	ping := wire.P2b{Ballot: ids.NewBallot(1, a.tn.ID()), From: a.tn.ID(), Slot: 1}
	rtt := func() bool {
		a.tn.Send(b.tn.ID(), ping)
		select {
		case <-pong:
			return true
		case <-time.After(patience):
			return false
		}
	}
	if !rtt() { // dials the connection
		return r, fmt.Errorf("transport ping-pong: no reply in %v", patience)
	}
	var rtts []float64
	for i := 0; i < 2000; i++ {
		t0 := time.Now()
		if !rtt() {
			return r, fmt.Errorf("transport ping-pong: no reply in %v", patience)
		}
		rtts = append(rtts, float64(time.Since(t0))/1e3)
	}
	r.pingpongRttUs = median(rtts)

	small := wire.P2a{Ballot: ping.Ballot, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: makeValue(8, 1), ClientID: 1, Seq: 1}}}
	large := wire.P2a{Ballot: ping.Ballot, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: makeValue(1024, 1), ClientID: 1, Seq: 1}}}
	r.streamMsgsS = medianRounds(func() float64 { return stream(a, b, small, 20000) })
	frame := float64(8 + 1 + large.Size()) // transport header + type tag + body
	r.streamMBs = medianRounds(func() float64 { return stream(a, b, large, 10000) }) * frame / 1e6

	// Broadcast: the time the caller spends in Broadcast per recipient (one
	// encode, four enqueues), with the peers draining between bursts.
	peers := []ids.ID{nodes[1].tn.ID(), nodes[2].tn.ID(), nodes[3].tn.ID(), nodes[4].tn.ID()}
	got := make([]atomic.Int64, len(peers))
	for i, p := range nodes[1:] {
		i := i
		p.handle(func(ids.ID, wire.Msg) { got[i].Add(1) })
	}
	a.handle(nil)
	var want int64
	drained := func() bool {
		deadline := time.Now().Add(patience)
		for i := range got {
			for got[i].Load() < want {
				if time.Now().After(deadline) {
					return false
				}
				time.Sleep(100 * time.Microsecond)
			}
		}
		return true
	}
	want = 1
	a.tn.Broadcast(peers, small) // dials everyone
	if !drained() {
		return r, fmt.Errorf("transport broadcast: peers did not receive")
	}
	ok := true
	r.broadcastNsPerPeer = medianRounds(func() float64 {
		want += streamAckEvery
		t0 := time.Now()
		for i := 0; i < streamAckEvery; i++ {
			a.tn.Broadcast(peers, small)
		}
		d := time.Since(t0)
		ok = ok && drained()
		return float64(d) / float64(streamAckEvery*len(peers))
	})
	if !ok {
		return r, fmt.Errorf("transport broadcast: peers did not receive")
	}
	return r, nil
}

// desEventsPerWallS runs 64 self-re-arming timers through the simulator.
func desEventsPerWallS(seed int64) float64 {
	return medianRounds(func() float64 {
		const events = 400000
		sim := des.New(seed)
		var arm func()
		arm = func() {
			sim.Schedule(time.Duration(1+sim.Rand().Intn(1000))*time.Microsecond, arm)
		}
		for i := 0; i < 64; i++ {
			arm()
		}
		t0 := time.Now()
		for sim.Executed() < events {
			sim.Run(sim.Now() + time.Millisecond)
		}
		return float64(sim.Executed()) / time.Since(t0).Seconds()
	})
}
