package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wal"
	"pigpaxos/internal/wire"
)

// Tracing is done from outside the program: the benchmark owns the
// node.Handler it gives the transport, the node.Context it gives the replica
// and the wal.Storage it puts in the config, so it wraps all three and
// records a span around every call that crosses them. Spans live in
// preallocated per-node buffers (one writer each: the node's event loop) and
// are written out when the run ends.

type spanKind uint8

const (
	spanHandler   spanKind = iota + 1 // OnMessage callback
	spanTimer                         // After callback
	spanSend                          // Context.Send
	spanBroadcast                     // Context.Broadcast
	spanAppend                        // Storage.Append
	spanSync                          // Storage.Sync
)

var spanKindNames = [...]string{"", "handler", "timer", "send", "broadcast", "append", "sync"}

// span is one timed call. Times are nanoseconds since the tracer's epoch.
// parent indexes the same node's buffer (-1 for a callback, which is a
// root); child spans are the calls a callback made.
type span struct {
	start, end  int64
	slot        uint64
	client, seq uint32
	parent      int32
	kind        spanKind
	typ         uint8 // wire.Type of the message handled or sent
}

func (s span) dur() int64 { return s.end - s.start }

const spanCap = 1 << 19 // per node; a full buffer stops recording and says so

// nodeTrace is one node's span buffer, written only by its event loop.
type nodeTrace struct {
	t       *tracer
	spans   []span
	cur     int32 // open callback span, -1 outside callbacks
	dropped int
}

// reqSpan is the root span of one request, kept by the generator.
type reqSpan struct {
	client, seq uint32
	due, ack    int64 // ack 0 until acknowledged
	slot        uint64
}

// genTrace holds the request roots; both reader goroutines and the sender
// write it.
type genTrace struct {
	t    *tracer
	mu   sync.Mutex
	reqs []reqSpan
	idx  map[uint64]int32
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool
	nodes []*nodeTrace
	gen   *genTrace
}

func newTracer(n int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := 0; i < n; i++ {
		t.nodes = append(t.nodes, &nodeTrace{t: t, spans: make([]span, 0, spanCap), cur: -1})
	}
	t.gen = &genTrace{t: t, reqs: make([]reqSpan, 0, 1<<18), idx: make(map[uint64]int32, 1<<18)}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// open starts a span and returns its index, or -1 when not recording.
func (nt *nodeTrace) open(kind spanKind, m wire.Msg) int32 {
	if !nt.t.on.Load() {
		return -1
	}
	if len(nt.spans) == cap(nt.spans) {
		nt.dropped++
		return -1
	}
	s := span{kind: kind, parent: nt.cur}
	if kind == spanHandler || kind == spanTimer {
		s.parent = -1
	}
	if m != nil {
		s.typ = uint8(m.Type())
		s.slot, s.client, s.seq = describe(m)
	}
	s.start = nt.t.now()
	nt.spans = append(nt.spans, s)
	return int32(len(nt.spans) - 1)
}

func (nt *nodeTrace) close(i int32) {
	if i >= 0 {
		nt.spans[i].end = nt.t.now()
	}
}

// describe extracts what joins a message to a request: its slot, and for
// client traffic the session and sequence number.
func describe(m wire.Msg) (slot uint64, client, seq uint32) {
	switch v := m.(type) {
	case wire.Request:
		return 0, uint32(v.Cmd.ClientID), uint32(v.Cmd.Seq)
	case wire.Reply:
		return v.Slot, uint32(v.ClientID), uint32(v.Seq)
	case wire.P2a:
		return v.Slot, 0, 0
	case wire.P2b:
		return v.Slot, 0, 0
	case wire.P3:
		return v.Slot, 0, 0
	case wire.RelayP2a:
		return v.P2a.Slot, 0, 0
	case wire.AggP2b:
		return v.Slot, 0, 0
	case wire.RelayP3:
		return v.P3.Slot, 0, 0
	}
	return 0, 0, 0
}

// tracedHandler wraps the node.Handler handed to transport.ListenTCP.
type tracedHandler struct {
	inner node.Handler
	nt    *nodeTrace
}

// OnMessage implements node.Handler.
func (h *tracedHandler) OnMessage(from ids.ID, m wire.Msg) {
	i := h.nt.open(spanHandler, m)
	h.nt.cur = i
	h.inner.OnMessage(from, m)
	h.nt.cur = -1
	h.nt.close(i)
}

// tracedCtx wraps the node.Context handed to the replica.
type tracedCtx struct {
	node.Context
	nt *nodeTrace
}

// Send implements node.Context.
func (c *tracedCtx) Send(to ids.ID, m wire.Msg) {
	i := c.nt.open(spanSend, m)
	c.Context.Send(to, m)
	c.nt.close(i)
}

// Broadcast implements node.Context.
func (c *tracedCtx) Broadcast(to []ids.ID, m wire.Msg) {
	i := c.nt.open(spanBroadcast, m)
	c.Context.Broadcast(to, m)
	c.nt.close(i)
}

// After implements node.Context; the callback runs on the event loop.
func (c *tracedCtx) After(d time.Duration, fn func()) node.Timer {
	return c.Context.After(d, func() {
		i := c.nt.open(spanTimer, nil)
		c.nt.cur = i
		fn()
		c.nt.cur = -1
		c.nt.close(i)
	})
}

// tracedStorage wraps the wal.Storage put in the replica's config.
type tracedStorage struct {
	wal.Storage
	nt *nodeTrace
}

// Append implements wal.Storage.
func (s *tracedStorage) Append(rec wal.Record) error {
	i := s.nt.open(spanAppend, nil)
	err := s.Storage.Append(rec)
	s.nt.close(i)
	return err
}

// Sync implements wal.Storage.
func (s *tracedStorage) Sync() (bool, error) {
	i := s.nt.open(spanSync, nil)
	ok, err := s.Storage.Sync()
	s.nt.close(i)
	return ok, err
}

func reqKey(client, seq uint64) uint64 { return client<<32 | seq&0xffffffff }

// sent opens the root span of a request at the instant it was due.
func (gt *genTrace) sent(client, seq uint64, dueAbs int64) {
	if !gt.t.on.Load() {
		return
	}
	gt.mu.Lock()
	if len(gt.reqs) < cap(gt.reqs) {
		gt.idx[reqKey(client, seq)] = int32(len(gt.reqs))
		gt.reqs = append(gt.reqs, reqSpan{client: uint32(client), seq: uint32(seq), due: dueAbs})
	}
	gt.mu.Unlock()
}

// acked closes a request's root span and records the slot it committed in,
// which joins it to the replicas' spans.
func (gt *genTrace) acked(client, seq, slot uint64, ackAbs int64) {
	gt.mu.Lock()
	if i, ok := gt.idx[reqKey(client, seq)]; ok {
		gt.reqs[i].ack, gt.reqs[i].slot = ackAbs, slot
	}
	gt.mu.Unlock()
}

// reset forgets every request root; call it between traced phases.
func (gt *genTrace) reset() {
	gt.mu.Lock()
	gt.reqs = gt.reqs[:0]
	clear(gt.idx)
	gt.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the time its child spans
// cover. Children of one callback never overlap (one event loop), so the
// covered time is the plain sum.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.parent >= 0 {
			self[s.parent] -= s.dur()
		}
	}
	return self
}

// loopUse is where one node's event loop spent a window of time.
type loopUse struct {
	busy      int64 // callbacks, children included
	self      int64 // callbacks minus children: protocol work
	send      int64 // Send and Broadcast
	walSync   int64
	walAppend int64
}

// loopUsage sums the spans that started inside [from,to).
func loopUsage(spans []span, from, to int64) loopUse {
	var u loopUse
	self := selfTimes(spans)
	for i, s := range spans {
		if s.start < from || s.start >= to || s.end == 0 {
			continue
		}
		switch s.kind {
		case spanHandler, spanTimer:
			u.busy += s.dur()
			u.self += self[i]
		case spanSend, spanBroadcast:
			u.send += s.dur()
		case spanSync:
			u.walSync += s.dur()
		case spanAppend:
			u.walAppend += s.dur()
		}
	}
	return u
}

// stageBudget is one request's latency, cut at the points the benchmark can
// see from outside the leader.
type stageBudget struct {
	ingress    int64 // due → leader starts handling the Request
	batchWait  int64 // → leader sends the slot's P2a / RelayP2a
	replicate  int64 // → start of the leader callback that applies the slot
	applyReply int64 // → leader sends the Reply
	egress     int64 // → generator reads the Reply
}

func (b stageBudget) total() int64 {
	return b.ingress + b.batchWait + b.replicate + b.applyReply + b.egress
}

// joinStages joins request roots to the leader's spans: the Request handler
// by (client, seq), the first P2a or RelayP2a send by the slot wire.Reply
// reported, the Reply send by (client, seq) and through its parent the
// callback that applied the slot. Requests with a missing piece are skipped
// and counted.
func joinStages(reqs []reqSpan, leader []span, from, to int64) (out []stageBudget, skipped int) {
	type cs struct{ client, seq uint32 }
	handler := make(map[cs]int32)
	reply := make(map[cs]int32)
	propose := make(map[uint64]int32)
	for i, s := range leader {
		switch {
		case s.kind == spanHandler && wire.Type(s.typ) == wire.TRequest:
			k := cs{s.client, s.seq}
			if _, dup := handler[k]; !dup {
				handler[k] = int32(i)
			}
		case (s.kind == spanSend || s.kind == spanBroadcast) && wire.Type(s.typ) == wire.TReply:
			reply[cs{s.client, s.seq}] = int32(i)
		case (s.kind == spanSend || s.kind == spanBroadcast) &&
			(wire.Type(s.typ) == wire.TP2a || wire.Type(s.typ) == wire.TRelayP2a):
			if _, dup := propose[s.slot]; !dup {
				propose[s.slot] = int32(i)
			}
		}
	}
	for _, r := range reqs {
		if r.due < from || r.due >= to || r.ack == 0 {
			continue
		}
		k := cs{r.client, r.seq}
		h, ok1 := handler[k]
		rp, ok2 := reply[k]
		p, ok3 := propose[r.slot]
		if !ok1 || !ok2 || !ok3 || leader[rp].parent < 0 {
			skipped++
			continue
		}
		apply := leader[leader[rp].parent]
		b := stageBudget{
			ingress:    leader[h].start - r.due,
			batchWait:  leader[p].start - leader[h].start,
			replicate:  apply.start - leader[p].start,
			applyReply: leader[rp].start - apply.start,
			egress:     r.ack - leader[rp].start,
		}
		out = append(out, b)
	}
	return out, skipped
}

// stageMedians returns the median of each stage and of the total, in
// microseconds.
func stageMedians(b []stageBudget) (ingress, batchWait, replicate, applyReply, egress, total float64) {
	col := func(f func(stageBudget) int64) float64 {
		v := make([]float64, len(b))
		for i, x := range b {
			v[i] = float64(f(x)) / 1e3
		}
		return median(v)
	}
	return col(func(x stageBudget) int64 { return x.ingress }),
		col(func(x stageBudget) int64 { return x.batchWait }),
		col(func(x stageBudget) int64 { return x.replicate }),
		col(func(x stageBudget) int64 { return x.applyReply }),
		col(func(x stageBudget) int64 { return x.egress }),
		col(stageBudget.total)
}

const traceFileSpans = 20000 // per node: the file is for reading, not for re-analysis

// spanRecord is one span in the trace file. Node -1 is the generator, whose
// spans are the request roots.
type spanRecord struct {
	Node    int    `json:"node"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Kind    string `json:"kind"`
	Msg     string `json:"msg,omitempty"`
	Slot    uint64 `json:"slot"`
	Client  uint32 `json:"client"`
	Seq     uint32 `json:"seq"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeTrace dumps the spans that started in [from,to) as one JSON document,
// the first traceFileSpans per node and as many request roots.
func (t *tracer) writeTrace(path, workload string, from, to int64) error {
	var recs []spanRecord
	for n, nt := range t.nodes {
		written := 0
		for i, s := range nt.spans {
			if s.start < from || s.start >= to || written == traceFileSpans {
				continue
			}
			written++
			r := spanRecord{Node: n, ID: i, Parent: s.parent, Kind: spanKindNames[s.kind],
				Slot: s.slot, Client: s.client, Seq: s.seq, StartNs: s.start, EndNs: s.end}
			if s.typ != 0 {
				r.Msg = wire.Type(s.typ).String()
			}
			recs = append(recs, r)
		}
	}
	reqs := append([]reqSpan(nil), t.gen.reqs...)
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].due < reqs[j].due })
	written := 0
	for i, r := range reqs {
		if r.due < from || r.due >= to || written == traceFileSpans {
			continue
		}
		written++
		recs = append(recs, spanRecord{Node: -1, ID: i, Parent: -1, Kind: "request",
			Slot: r.slot, Client: r.client, Seq: r.seq, StartNs: r.due, EndNs: r.ack})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	err = json.NewEncoder(w).Encode(struct {
		Workload    string       `json:"workload"`
		EpochUnixNs int64        `json:"epoch_unix_ns"`
		Spans       []spanRecord `json:"spans"`
	}{workload, t.epoch.UnixNano(), recs})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
