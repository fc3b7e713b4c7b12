package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/transport"
	"pigpaxos/internal/wire"
)

// The load generator is the benchmark's own: raw transport frames on
// genConns connections, genSessions logical client sessions multiplexed over
// them, every session on its own key range so it can check what it reads,
// raw per-op samples kept for exact percentiles.

const (
	genConns    = 2 // = nproc on the reference box; never more
	genSessions = 64
	genKeys     = 1000
	genRing     = 1024 // outstanding ops one session can track
	// preloadRounds sizes the set-up: 8000 Puts are 0.15-0.4 s on the
	// reference box. The walk is pipelined (64 outstanding), not one round
	// trip at a time: a lone request's dozen-odd goroutine wake-ups each wait
	// for the hypervisor to hand an idle CPU back, and a thousand sequential
	// fsyncs time the disk; neither says anything about the code.
	preloadRounds = 8
)

// pendingOp is one in-flight request of a session.
type pendingOp struct {
	seq    uint64
	due    int64 // ns since phase start: scheduled (open loop) or sent (closed)
	key    int   // index into the session's keys
	expect uint64
	get    bool
	live   bool
}

type session struct {
	id   uint64 // ClientID
	conn *genConn
	keys []uint64
	// last[i] stamps the newest Put issued on keys[i]; the log orders one
	// connection's requests as sent, so a later Get must return exactly it.
	last []uint64
	seq  uint64
	ring []pendingOp
	rng  *rand.Rand
	out  int // outstanding
	// A scripted walk (walkKeys): ops still to issue, the next key, Get or Put.
	script    int
	cursor    int
	scriptGet bool
}

type genConn struct {
	sender ids.ID
	c      net.Conn
	br     *bufio.Reader

	mu    sync.Mutex // guards bw, the sessions on this connection, and the tallies
	bw    *bufio.Writer
	dirty bool
	value []byte // scratch the next Put's value is built in

	samples []sample
	failed  int
	issued  int
}

// generator modes: what the reader does when an ack arrives.
const (
	modeIdle   int32 = iota
	modeClosed       // issue the session's next op
	modeOpen         // record only
	modeScript       // issue the next op of the session's walk over its keys
)

type generator struct {
	w        spec
	conns    []*genConn
	sessions []*session
	base     uint64 // ClientID of session 0

	mode     atomic.Int32
	epoch    time.Time    // fixed at dial; phase clocks are offsets from it
	origin   atomic.Int64 // ns after epoch the current phase started
	deadline atomic.Int64 // closed loop: no new ops at or after this ns
	wg       sync.WaitGroup

	scriptLeft atomic.Int64  // scripted walk: ops not yet settled
	scriptDone chan struct{} // signalled when scriptLeft reaches zero

	tr *genTrace // nil unless the run is traced

	vmu        sync.Mutex
	violations []string
}

// stamp identifies one write: the first eight bytes of its value.
func stamp(clientID, seq uint64) uint64 { return clientID<<32 | seq }

// makeValue builds a size-byte value carrying stamp: the stamp, then a fixed
// filler so a 1 KiB value costs its bytes on the wire and in the journal.
func makeValue(size int, st uint64) []byte {
	return fillValue(make([]byte, size), st)
}

func fillValue(v []byte, st uint64) []byte {
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], st)
	n := copy(v, s[:])
	for i := n; i < len(v); i++ {
		v[i] = byte(i*131 + 7)
	}
	return v
}

func valueStamp(v []byte) uint64 {
	var s [8]byte
	copy(s[:], v)
	return binary.LittleEndian.Uint64(s[:])
}

// dialGenerator connects genConns connections to addr and spreads the
// sessions and the key space over them.
func dialGenerator(addr string, w spec, seed int64, base uint64, tr *genTrace) (*generator, error) {
	g := &generator{w: w, base: base, scriptDone: make(chan struct{}, 1), tr: tr, epoch: time.Now()}
	if tr != nil {
		g.epoch = tr.t.epoch // one clock for request roots and replica spans
	}
	for i := 0; i < genConns; i++ {
		c, err := net.DialTimeout("tcp", addr, patience)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("generator: dial %s: %w", addr, err)
		}
		gc := &genConn{
			sender: ids.NewID(900, i+1), c: c,
			br: bufio.NewReaderSize(c, 64<<10), bw: bufio.NewWriterSize(c, 64<<10),
			value:   make([]byte, w.valueSize),
			samples: make([]sample, 0, 1<<18),
		}
		g.conns = append(g.conns, gc)
	}
	for s := 0; s < genSessions; s++ {
		ss := &session{
			id: base + uint64(s), conn: g.conns[s%genConns],
			ring: make([]pendingOp, genRing),
			rng:  rand.New(rand.NewSource(childSeed(seed, 1000+s))),
		}
		for k := s; k < genKeys; k += genSessions {
			ss.keys = append(ss.keys, uint64(k))
		}
		ss.last = make([]uint64, len(ss.keys))
		g.sessions = append(g.sessions, ss)
	}
	for _, gc := range g.conns {
		g.wg.Add(1)
		go g.readLoop(gc)
	}
	return g, nil
}

// close drops the connections and waits for the readers.
func (g *generator) close() {
	for _, gc := range g.conns {
		gc.c.Close()
	}
	g.wg.Wait()
}

func (g *generator) violate(format string, a ...any) {
	g.vmu.Lock()
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, a...))
	}
	g.vmu.Unlock()
}

// violationList returns what the generator has flagged so far.
func (g *generator) violationList() []string {
	g.vmu.Lock()
	defer g.vmu.Unlock()
	return append([]string(nil), g.violations...)
}

// since is nanoseconds since the current phase began.
func (g *generator) since() int64 { return int64(time.Since(g.epoch)) - g.origin.Load() }

// issueLocked writes one request for ss; gc.mu is held. keyIdx < 0 draws the
// key and the operation from the session's seeded source.
func (g *generator) issueLocked(ss *session, due int64, keyIdx int, forceGet, forcePut bool) {
	gc := ss.conn
	if keyIdx < 0 {
		keyIdx = ss.rng.Intn(len(ss.keys))
	}
	get := forceGet || (!forcePut && !g.w.writeOnly && ss.rng.Intn(2) == 0)
	ss.seq++
	slot := &ss.ring[ss.seq%genRing]
	gc.issued++
	if slot.live {
		// The session ran out of tracking room: the older op is lost to us.
		gc.failed++
		ss.out--
	}
	*slot = pendingOp{seq: ss.seq, due: due, key: keyIdx, get: get, live: true}
	ss.out++
	cmd := kvstore.Command{Op: kvstore.Put, Key: ss.keys[keyIdx], ClientID: ss.id, Seq: ss.seq}
	if get {
		cmd.Op = kvstore.Get
		slot.expect = ss.last[keyIdx]
	} else {
		st := stamp(ss.id, ss.seq)
		cmd.Value = fillValue(gc.value, st)
		ss.last[keyIdx] = st
	}
	if g.tr != nil {
		g.tr.sent(ss.id, ss.seq, g.origin.Load()+due)
	}
	if err := transport.WriteFrame(gc.bw, gc.sender, wire.Request{Cmd: cmd}); err != nil {
		g.violate("generator write: %v", err)
	}
	gc.dirty = true
}

func (gc *genConn) flushLocked() error {
	if !gc.dirty {
		return nil
	}
	gc.dirty = false
	return gc.bw.Flush()
}

// readLoop consumes acks on one connection for the generator's lifetime.
func (g *generator) readLoop(gc *genConn) {
	defer g.wg.Done()
	for {
		_, m, err := transport.ReadFrame(gc.br)
		if err != nil {
			return // closed
		}
		now := g.since()
		switch v := m.(type) {
		case wire.Reply:
			g.onReply(gc, v, now)
		case wire.Busy:
			// The benchmark offers loads the cluster must take; a shed
			// request is a failed one, not something to retry.
			g.settle(gc, v.ClientID, v.Seq, now, func(*session, *pendingOp) bool { return false })
		}
		if g.mode.Load() != modeOpen && gc.br.Buffered() == 0 {
			// The reader issued the follow-up ops itself; the open loop's
			// sender flushes its own.
			gc.mu.Lock()
			err := gc.flushLocked()
			gc.mu.Unlock()
			if err != nil {
				return
			}
		}
	}
}

// settle retires the pending op (clientID, seq); ok decides pass or fail.
func (g *generator) settle(gc *genConn, clientID, seq uint64, now int64, ok func(*session, *pendingOp) bool) {
	idx := clientID - g.base
	if idx >= uint64(len(g.sessions)) {
		return
	}
	ss := g.sessions[idx]
	gc.mu.Lock()
	defer gc.mu.Unlock()
	op := &ss.ring[seq%genRing]
	if !op.live || op.seq != seq {
		return // duplicate or already written off
	}
	op.live = false
	ss.out--
	passed := ok(ss, op)
	if passed {
		gc.samples = append(gc.samples, sample{due: op.due, ack: now})
	} else {
		gc.failed++
	}
	switch g.mode.Load() {
	case modeClosed:
		if passed && now < g.deadline.Load() {
			g.issueLocked(ss, now, -1, false, false)
		}
	case modeScript:
		g.nextScripted(ss, now)
		if g.scriptLeft.Add(-1) == 0 {
			g.scriptDone <- struct{}{}
		}
	}
}

// nextScripted issues the next op of ss's walk, if any is left; gc.mu is held.
func (g *generator) nextScripted(ss *session, now int64) {
	if ss.script == 0 {
		return
	}
	ss.script--
	g.issueLocked(ss, now, ss.cursor, ss.scriptGet, !ss.scriptGet)
	ss.cursor = (ss.cursor + 1) % len(ss.keys)
}

func (g *generator) onReply(gc *genConn, rep wire.Reply, now int64) {
	if g.tr != nil {
		g.tr.acked(rep.ClientID, rep.Seq, rep.Slot, g.origin.Load()+now)
	}
	g.settle(gc, rep.ClientID, rep.Seq, now, func(ss *session, op *pendingOp) bool {
		if !rep.OK {
			g.violate("session %d seq %d: not served (leader hint %v)", ss.id, op.seq, rep.Leader)
			return false
		}
		if op.get && op.expect != 0 {
			if !rep.Exists || len(rep.Value) != g.w.valueSize || valueStamp(rep.Value) != op.expect {
				g.violate("session %d seq %d: read of key %d returned stamp %#x (exists=%v, %d bytes), want %#x",
					ss.id, op.seq, ss.keys[op.key], valueStamp(rep.Value), rep.Exists, len(rep.Value), op.expect)
				return false
			}
		}
		return true
	})
}

// phase is what one load phase measured.
type phase struct {
	samples  []sample // due/ack in ns since the phase started
	origin   int64    // when the phase started, ns on the generator's clock
	dur      time.Duration
	issued   int
	failed   int
	lateness []float64 // open loop: send − due, microseconds
	dues     []int64   // open loop: when each request was due, ns
}

// begin resets the tallies and starts a phase clock.
func (g *generator) begin(mode int32) {
	for _, gc := range g.conns {
		gc.mu.Lock()
		gc.samples = gc.samples[:0]
		gc.failed, gc.issued = 0, 0
		gc.mu.Unlock()
	}
	g.origin.Store(int64(time.Since(g.epoch)))
	g.mode.Store(mode)
}

// finish waits for outstanding ops (up to patience), writes off the rest as
// timed out, and collects the phase.
func (g *generator) finish(d time.Duration) phase {
	deadline := time.Now().Add(patience)
	for time.Now().Before(deadline) && g.outstanding() > 0 {
		time.Sleep(time.Millisecond)
	}
	g.mode.Store(modeIdle)
	p := phase{dur: d, origin: g.origin.Load()}
	for _, gc := range g.conns {
		gc.mu.Lock()
		p.samples = append(p.samples, gc.samples...)
		p.issued += gc.issued
		p.failed += gc.failed
		gc.mu.Unlock()
	}
	for _, ss := range g.sessions {
		ss.conn.mu.Lock()
		for i := range ss.ring {
			if ss.ring[i].live {
				ss.ring[i].live = false
				ss.out--
				p.failed++
				g.violate("session %d seq %d: no ack within %v of the phase end", ss.id, ss.ring[i].seq, patience)
			}
		}
		ss.conn.mu.Unlock()
	}
	sort.Slice(p.samples, func(i, j int) bool { return p.samples[i].ack < p.samples[j].ack })
	return p
}

func (g *generator) outstanding() int {
	n := 0
	for _, ss := range g.sessions {
		ss.conn.mu.Lock()
		n += ss.out
		ss.conn.mu.Unlock()
	}
	return n
}

// closedLoop keeps one op outstanding per session for d.
func (g *generator) closedLoop(d time.Duration) phase {
	g.deadline.Store(int64(d))
	g.begin(modeClosed)
	for _, gc := range g.conns {
		gc.mu.Lock()
		for _, ss := range g.sessions {
			if ss.conn == gc {
				g.issueLocked(ss, g.since(), -1, false, false)
			}
		}
		if err := gc.flushLocked(); err != nil {
			g.violate("generator flush: %v", err)
		}
		gc.mu.Unlock()
	}
	time.Sleep(d)
	return g.finish(d)
}

// openLoop sends seeded Poisson arrivals at rate/s for d, whatever the
// cluster does; each op is timed from the instant it was due.
func (g *generator) openLoop(d time.Duration, rate float64, seed int64) phase {
	rng := rand.New(rand.NewSource(seed))
	type arrival struct {
		at      int64
		session int
	}
	var arr []arrival
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		arr = append(arr, arrival{at: int64(t * 1e9), session: rng.Intn(genSessions)})
	}
	lateness := make([]float64, 0, len(arr))
	dues := make([]int64, 0, len(arr))
	g.begin(modeOpen)
	flush := func() {
		for _, gc := range g.conns {
			gc.mu.Lock()
			if err := gc.flushLocked(); err != nil {
				g.violate("generator flush: %v", err)
			}
			gc.mu.Unlock()
		}
	}
	for i, a := range arr {
		// nanosleep, not time.Sleep: the Go timer rounds a wait up to the
		// next millisecond whenever the processors are idle, which at these
		// rates is most of the time. And no yield-spin on top: a goroutine
		// that never blocks keeps its processor from polling the network, and
		// every hop of the cluster then waits for the other one.
		for wait := a.at - g.since(); wait > 0; wait = a.at - g.since() {
			ts := syscall.NsecToTimespec(wait)
			syscall.Nanosleep(&ts, nil) // an early return only costs a lap
		}
		ss := g.sessions[a.session]
		ss.conn.mu.Lock()
		now := g.since()
		g.issueLocked(ss, a.at, -1, false, false)
		ss.conn.mu.Unlock()
		lateness = append(lateness, float64(now-a.at)/1e3)
		dues = append(dues, a.at)
		if i+1 == len(arr) || arr[i+1].at > g.since() {
			flush()
		}
	}
	if rest := d - time.Duration(g.since()); rest > 0 {
		time.Sleep(rest)
	}
	p := g.finish(d)
	p.lateness, p.dues = lateness, dues
	return p
}

// walkKeys has every session walk its own keys in order, rounds times over,
// one op outstanding per session: all Puts or all Gets.
func (g *generator) walkKeys(rounds int, get bool) (phase, error) {
	select {
	case <-g.scriptDone: // left by a walk that gave up waiting
	default:
	}
	g.begin(modeScript)
	total := 0
	for _, ss := range g.sessions {
		total += rounds * len(ss.keys)
	}
	g.scriptLeft.Store(int64(total))
	for _, gc := range g.conns {
		gc.mu.Lock()
		for _, ss := range g.sessions {
			if ss.conn == gc {
				ss.script, ss.cursor, ss.scriptGet = rounds*len(ss.keys), 0, get
				g.nextScripted(ss, g.since())
			}
		}
		err := gc.flushLocked()
		gc.mu.Unlock()
		if err != nil {
			g.finish(0)
			return phase{}, fmt.Errorf("generator flush: %w", err)
		}
	}
	var err error
	select {
	case <-g.scriptDone:
	case <-time.After(patience):
		err = fmt.Errorf("walk over the keys: %d of %d ops unsettled after %v", g.scriptLeft.Load(), total, patience)
	}
	return g.finish(time.Duration(g.since())), err
}

// preload Puts every key preloadRounds times: the set-up's fixed work, and
// the reason every later Get has a stamp to check.
func (g *generator) preload() (phase, error) { return g.walkKeys(preloadRounds, false) }

// verify Gets every key once and compares it with the last value its
// session wrote (read-your-writes, also on write-only workloads).
func (g *generator) verify() (phase, error) { return g.walkKeys(1, true) }

// echoServer answers generator requests from a local map: the generator's
// own ceiling is measured against it.
type echoServer struct {
	ln net.Listener
	wg sync.WaitGroup

	mu    sync.Mutex
	data  map[uint64][]byte
	conns []net.Conn
}

func startEcho() (*echoServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &echoServer{ln: ln, data: make(map[uint64][]byte)}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			e.mu.Lock()
			e.conns = append(e.conns, c)
			e.mu.Unlock()
			e.wg.Add(1)
			go e.serve(c)
		}
	}()
	return e, nil
}

func (e *echoServer) serve(c net.Conn) {
	defer e.wg.Done()
	br, bw := bufio.NewReaderSize(c, 64<<10), bufio.NewWriterSize(c, 64<<10)
	self := ids.NewID(1, 1)
	for {
		_, m, err := transport.ReadFrame(br)
		if err != nil {
			return
		}
		req, ok := m.(wire.Request)
		if !ok {
			continue
		}
		rep := wire.Reply{ClientID: req.Cmd.ClientID, Seq: req.Cmd.Seq, OK: true, Leader: self, Slot: req.Cmd.Seq}
		e.mu.Lock()
		if req.Cmd.Op == kvstore.Get {
			rep.Value, rep.Exists = e.data[req.Cmd.Key]
		} else {
			e.data[req.Cmd.Key] = req.Cmd.Value // ReadFrame's decode owns a fresh copy
			rep.Exists = true
		}
		e.mu.Unlock()
		if transport.WriteFrame(bw, self, rep) != nil {
			return
		}
		if br.Buffered() == 0 && bw.Flush() != nil {
			return
		}
	}
}

func (e *echoServer) close() {
	e.ln.Close()
	e.mu.Lock()
	for _, c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// selfOps measures the generator's closed-loop ceiling against the echo
// server: a cluster result above a third of it would be the tester's own
// limit.
func selfOps(w spec, seed int64, d time.Duration) (float64, error) {
	e, err := startEcho()
	if err != nil {
		return 0, err
	}
	defer e.close()
	g, err := dialGenerator(e.ln.Addr().String(), w, seed, 1<<20, nil)
	if err != nil {
		return 0, err
	}
	defer g.close()
	p := g.closedLoop(d)
	if v := g.violationList(); p.failed > 0 || len(v) > 0 {
		return 0, fmt.Errorf("generator self-check: %d failed ops %v", p.failed, v)
	}
	return median(segmentRates(p.samples, int64(d), 10)), nil
}
