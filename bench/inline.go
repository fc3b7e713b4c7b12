package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"pigpaxos/internal/config"
	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// The inline pass runs a workload's replicas on a benchmark-owned
// single-goroutine substrate: FIFO delivery, every message through
// wire.Encode→wire.Decode, timers with a positive delay parked forever. No
// sockets, no goroutine hand-off, no clock: what is left is protocol and
// codec work, so its counts repeat exactly per seed and its times price the
// core alone.

const (
	inlineSessions  = 64   // outstanding client commands, as on the tcp plane
	inlineCodecKeep = 4096 // messages captured for the codec replay
	inlineMaxTypes  = 64   // wire.Type is a small tag; table size with headroom
)

// inlineEvent is one queued delivery: a message, or a zero-delay callback.
type inlineEvent struct {
	from ids.ID
	to   *inlineNode
	msg  wire.Msg
	fn   func()
}

type inlineNet struct {
	nodes map[ids.ID]*inlineNode
	queue []inlineEvent // ring buffer
	head  int
	count int
	rng   *rand.Rand
	now   time.Duration // one virtual microsecond per delivery
	buf   []byte        // encode scratch

	msgs, bytes uint64

	capture bool
	kept    []wire.Msg
	keptEnc [][]byte
}

// inlineNode is the node.Context one replica (or the client) runs on.
type inlineNode struct {
	net  *inlineNet
	id   ids.ID
	h    node.Handler
	sent uint64
	// ns[t] is handler time spent on messages of wire type t.
	ns [inlineMaxTypes]int64
}

// parked is the Timer for a callback that never fires.
type parked struct{}

func (parked) Stop() bool { return true }

// zeroTimer guards a zero-delay callback queued behind pending deliveries.
type zeroTimer struct{ stopped bool }

func (t *zeroTimer) Stop() bool {
	was := t.stopped
	t.stopped = true
	return !was
}

func newInlineNet(seed int64) *inlineNet {
	return &inlineNet{
		nodes: make(map[ids.ID]*inlineNode),
		queue: make([]inlineEvent, 1024),
		rng:   rand.New(rand.NewSource(seed)),
	}
}

func (n *inlineNet) register(id ids.ID) *inlineNode {
	nd := &inlineNode{net: n, id: id}
	n.nodes[id] = nd
	return nd
}

func (n *inlineNet) push(ev inlineEvent) {
	if n.count == len(n.queue) {
		grown := make([]inlineEvent, 2*len(n.queue))
		for i := 0; i < n.count; i++ {
			grown[i] = n.queue[(n.head+i)%len(n.queue)]
		}
		n.queue, n.head = grown, 0
	}
	n.queue[(n.head+n.count)%len(n.queue)] = ev
	n.count++
}

// step delivers the oldest event; it reports false when the queue is empty.
func (n *inlineNet) step() bool {
	if n.count == 0 {
		return false
	}
	ev := n.queue[n.head]
	n.queue[n.head] = inlineEvent{}
	n.head = (n.head + 1) % len(n.queue)
	n.count--
	n.now += time.Microsecond
	if ev.fn != nil {
		ev.fn()
		return true
	}
	n.buf = wire.Encode(n.buf[:0], ev.msg)
	n.msgs++
	n.bytes += uint64(len(n.buf))
	m, used, err := wire.Decode(n.buf)
	if err != nil || used != len(n.buf) {
		panic(fmt.Sprintf("inline: %v round trip: used %d of %d: %v", ev.msg.Type(), used, len(n.buf), err))
	}
	if n.capture && len(n.kept) < inlineCodecKeep {
		n.kept = append(n.kept, m)
		n.keptEnc = append(n.keptEnc, append([]byte(nil), n.buf...))
	}
	t0 := time.Now()
	ev.to.h.OnMessage(ev.from, m)
	ev.to.ns[m.Type()] += int64(time.Since(t0))
	return true
}

func (n *inlineNet) drain() {
	for n.step() {
	}
}

// ID implements node.Context.
func (nd *inlineNode) ID() ids.ID { return nd.id }

// Send implements node.Context. A message to an unknown node is dropped.
func (nd *inlineNode) Send(to ids.ID, m wire.Msg) {
	dst := nd.net.nodes[to]
	if dst == nil {
		return
	}
	nd.sent++
	nd.net.push(inlineEvent{from: nd.id, to: dst, msg: m})
}

// Broadcast implements node.Context.
func (nd *inlineNode) Broadcast(to []ids.ID, m wire.Msg) {
	for _, id := range to {
		nd.Send(id, m)
	}
}

// After implements node.Context: only zero-delay callbacks ever run, in FIFO
// order with deliveries. Heartbeats, retransmits and relay time-outs are
// parked, so the pass measures the fault-free steady state only.
func (nd *inlineNode) After(d time.Duration, fn func()) node.Timer {
	if d > 0 {
		return parked{}
	}
	t := &zeroTimer{}
	nd.net.push(inlineEvent{to: nd, fn: func() {
		if !t.stopped {
			fn()
		}
	}})
	return t
}

// Now implements node.Context.
func (nd *inlineNode) Now() time.Duration { return nd.net.now }

// Rand implements node.Context.
func (nd *inlineNode) Rand() *rand.Rand { return nd.net.rng }

// Work implements node.Context.
func (nd *inlineNode) Work(time.Duration) {}

func (nd *inlineNode) total() int64 {
	var s int64
	for _, v := range nd.ns {
		s += v
	}
	return s
}

// relayNs is handler time in relay-plane messages: what a follower spends
// being a relay (forwarding, collecting votes, aggregating) on top of being
// an acceptor.
func (nd *inlineNode) relayNs() int64 {
	return nd.ns[wire.TRelayP2a] + nd.ns[wire.TRelayP1a] + nd.ns[wire.TRelayP3] +
		nd.ns[wire.TP2b] + nd.ns[wire.TP1b] + nd.ns[wire.TAggP2b] + nd.ns[wire.TAggP1b]
}

// countingStorage adds up the journal bytes a replica appends. (MemStorage's
// own footprint shrinks at every snapshot, so it cannot be differenced.)
type countingStorage struct {
	*wal.MemStorage
	bytes uint64
}

// Append implements wal.Storage.
func (c *countingStorage) Append(rec wal.Record) error {
	c.bytes += uint64(walFrameBytes(rec))
	return c.MemStorage.Append(rec)
}

// walFrameBytes is the size of rec's journal frame as package wal documents
// it: u32 length, u32 CRC, then the record as its wire message (a promise is
// a P1a, an accept a P2a, a commit a P3) with the one-byte type tag.
func walFrameBytes(rec wal.Record) int {
	const header = 8
	switch rec.Kind {
	case wal.KindPromise:
		return header + 1 + wire.P1a{}.Size()
	case wal.KindAccept:
		return header + 1 + wire.P2a{Cmds: rec.Cmds}.Size()
	default:
		return header + 1 + wire.P3{Cmds: rec.Cmds}.Size()
	}
}

// inlineClient drives inlineSessions closed-loop sessions from one node.
type inlineClient struct {
	nd     *inlineNode
	leader ids.ID
	w      spec
	rng    *rand.Rand
	value  []byte
	seq    []uint64 // per session
	done   int
	failed int
	paused bool // acks are counted but not followed by a new command
}

func (c *inlineClient) issue(session int) {
	c.seq[session]++
	cmd := kvstore.Command{
		Op: kvstore.Put, Key: uint64(c.rng.Intn(1000)), Value: c.value,
		ClientID: uint64(session + 1), Seq: c.seq[session],
	}
	if !c.w.writeOnly && c.rng.Intn(2) == 0 {
		cmd.Op, cmd.Value = kvstore.Get, nil
	}
	c.nd.Send(c.leader, wire.Request{Cmd: cmd})
}

// OnMessage implements node.Handler.
func (c *inlineClient) OnMessage(_ ids.ID, m wire.Msg) {
	rep, ok := m.(wire.Reply)
	if !ok || !rep.OK || rep.Seq != c.seq[rep.ClientID-1] {
		c.failed++ // Busy, redirect or stale: none may happen here
		return
	}
	c.done++
	if !c.paused {
		c.issue(int(rep.ClientID - 1))
	}
}

// inlineResult is one configuration's inline pass.
type inlineResult struct {
	ops int

	leaderMsgsPerOp  float64 // sent by the leader
	clusterMsgsPerOp float64 // sent by anyone, client included
	bytesPerOp       float64
	allocsPerOp      float64
	batchMean        float64
	walSyncsPerOp    float64
	walBytesPerOp    float64

	leaderNsPerOp   float64 // medians over chunks
	followerNsPerOp float64 // per follower
	relayNsPerOp    float64 // summed over relays

	encodeNsPerMsg     float64
	decodeNsPerMsg     float64
	decodeAllocsPerMsg float64

	failed int
}

// runInline builds w's replicas on the inline substrate, elects node 1 and
// runs a warm-up plus chunks chunks of closed-loop ops: 25,000 per chunk, a
// fifth of that on a 25-node cluster where an op costs ten times the messages.
func runInline(w spec, seed int64, chunks int) inlineResult {
	chunk := 25000
	if w.n > 5 {
		chunk = 5000
	}
	warm := chunk * 2 / 5
	net := newInlineNet(seed)
	cc := config.Cluster{Nodes: members(w.n)}
	var stores []*countingStorage
	var reps []replica
	var nds []*inlineNode
	for _, id := range cc.Nodes {
		nd := net.register(id)
		var st wal.Storage
		if w.durable {
			cs := &countingStorage{MemStorage: wal.NewMem()}
			stores = append(stores, cs)
			st = cs
		}
		rep := buildReplica(w, cc, id, nd, st)
		nd.h = rep
		reps = append(reps, rep)
		nds = append(nds, nd)
	}
	for _, r := range reps {
		r.Start()
	}
	net.drain() // phase 1 completes: node 1 leads

	cl := &inlineClient{
		nd: net.register(ids.NewID(9, 1)), leader: cc.Nodes[0], w: w,
		rng: rand.New(rand.NewSource(seed ^ 0x5eed)), value: makeValue(w.valueSize, 0),
		seq: make([]uint64, inlineSessions),
	}
	cl.nd.h = cl
	// runTo runs the closed loop until target ops are done, then lets the
	// outstanding ones finish too: at every boundary the cluster is idle, so
	// messages and ops between two boundaries belong to each other exactly.
	runTo := func(target int) {
		cl.paused = false
		for s := 0; s < inlineSessions; s++ {
			cl.issue(s)
		}
		for cl.done < target && net.step() {
		}
		cl.paused = true
		net.drain()
	}
	runTo(warm / 2)
	net.capture = true
	runTo(warm)
	net.capture = false

	type snap struct {
		leader, followers, relay int64
	}
	take := func() snap {
		s := snap{leader: nds[0].total()}
		for _, nd := range nds[1:] {
			s.followers += nd.total()
			s.relay += nd.relayNs()
		}
		return s
	}
	walTotals := func() (syncs, bytes uint64) {
		for _, st := range stores {
			syncs += st.Syncs()
			bytes += st.bytes
		}
		return
	}

	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	msgs0, bytes0, leader0 := net.msgs, net.bytes, nds[0].sent
	stats0 := reps[0].core().Stats()
	syncs0, wbytes0 := walTotals()
	var leaderNs, followerNs, relayNs []float64
	prev, done0 := take(), cl.done
	for c := 1; c <= chunks; c++ {
		before := cl.done
		runTo(done0 + c*chunk)
		cur, n := take(), float64(cl.done-before)
		leaderNs = append(leaderNs, float64(cur.leader-prev.leader)/n)
		followerNs = append(followerNs, float64(cur.followers-prev.followers)/n/float64(w.n-1))
		relayNs = append(relayNs, float64(cur.relay-prev.relay)/n)
		prev = cur
	}
	runtime.ReadMemStats(&ms1)
	ops := float64(cl.done - done0)
	stats1 := reps[0].core().Stats()
	syncs1, wbytes1 := walTotals()

	res := inlineResult{
		ops:              cl.done - done0,
		leaderMsgsPerOp:  float64(nds[0].sent-leader0) / ops,
		clusterMsgsPerOp: float64(net.msgs-msgs0) / ops,
		bytesPerOp:       float64(net.bytes-bytes0) / ops,
		allocsPerOp:      float64(ms1.Mallocs-ms0.Mallocs) / ops,
		walSyncsPerOp:    float64(syncs1-syncs0) / ops,
		walBytesPerOp:    float64(wbytes1-wbytes0) / ops,
		leaderNsPerOp:    median(leaderNs),
		followerNsPerOp:  median(followerNs),
		relayNsPerOp:     median(relayNs),
		failed:           cl.failed,
	}
	if b := stats1.Batches - stats0.Batches; b > 0 {
		res.batchMean = float64(stats1.BatchedCmds-stats0.BatchedCmds) / float64(b)
	}
	if cl.done < done0+chunks*chunk {
		res.failed += done0 + chunks*chunk - cl.done // the cluster wedged
	}
	res.encodeNsPerMsg, res.decodeNsPerMsg, res.decodeAllocsPerMsg = codecReplay(net.kept, net.keptEnc)
	return res
}

// codecReplay times wire.Encode and wire.Decode in bulk over the message mix
// the pass captured: per-call timers would cost as much as a small encode.
func codecReplay(msgs []wire.Msg, enc [][]byte) (encNs, decNs, decAllocs float64) {
	if len(msgs) == 0 {
		return 0, 0, 0
	}
	const rounds = 40
	var buf []byte
	var encT, decT []float64
	var ms0, ms1 runtime.MemStats
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for _, m := range msgs {
			buf = wire.Encode(buf[:0], m)
		}
		encT = append(encT, float64(time.Since(t0))/float64(len(msgs)))
	}
	runtime.ReadMemStats(&ms0)
	for r := 0; r < rounds; r++ {
		t0 := time.Now()
		for _, b := range enc {
			if _, _, err := wire.Decode(b); err != nil {
				panic(err)
			}
		}
		decT = append(decT, float64(time.Since(t0))/float64(len(enc)))
	}
	runtime.ReadMemStats(&ms1)
	return median(encT), median(decT), float64(ms1.Mallocs-ms0.Mallocs) / float64(rounds*len(enc))
}
