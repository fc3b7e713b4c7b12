// Package transport runs replicas and clients (internal/client) on real
// sockets: TCPNode implements node.Context over length-prefixed frames, one
// event loop (mailbox) per node. A dial-only node (DialTCP) opens no port and
// hears its peers over the connections it made, which is what a client is.
// A failed connection is not reported: an unreachable peer is a silent one.
//
// Turns. The loop takes its mailbox a batch at a time, and each batch is one
// turn (node.Turns): what a replica sends to a peer in one turn is written
// to its socket with one call, so the fewer peers a turn's messages go to,
// the fewer writes they cost. Stats counts those calls.
//
// Ownership of message contents. A message to a peer is encoded at Send, so
// the sender may reuse what it references once Send returns; a self-send is
// handed over by reference. A message from a peer owns everything it
// references — its values alias the connection's read chunks and its slices
// the connection's decode arena, neither ever rewritten — so a handler may
// keep a command batch or a value without copying; a chunk is collected when
// the last message decoded from it is dropped. That is the first link of one
// ownership chain: the transport decodes bytes that are never rewritten, the
// log holds them, and the state machine borrows a Put's value until the log
// drops its entry (see kvstore). ReadFrame, for tools and tests that speak
// frames over a raw connection, returns fresh copies.
package transport

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// Frame format on TCP connections:
//
//	[4-byte little-endian body length][4-byte sender ID][encoded message]
//
// where "encoded message" is wire.Encode output (1-byte type + body). The
// body length covers the sender ID and encoded message.
const (
	frameHeader  = 4
	maxFrameSize = 16 << 20 // 16 MiB guards against corrupt streams

	// outboxBound is how many bytes may wait for a peer's writer before
	// Send drops (the network is allowed to lose messages; protocols
	// retry). An outbox below the bound takes one more frame whatever its
	// size, so a single frame of up to maxFrameSize always fits.
	outboxBound = 4 << 20
	// outboxKeep is the largest buffer a peer keeps between writes: one
	// giant frame must not pin megabytes per peer for the node's lifetime.
	outboxKeep = 1 << 20
	// chunkSize is the unit in which a connection's inbound bytes are
	// allocated. The allocator serves a size class only up to 32 KiB less
	// its 8-byte malloc header, maxSmallAlloc; anything larger is a large
	// object that takes the heap lock and a span of its own. 28 KiB is the
	// 28,672-byte size class, two to a span with nothing left over.
	chunkSize   = 28 << 10
	dialTimeout = 2 * time.Second

	// maxSmallAlloc is the runtime's maxSmallSize − mallocHeaderSize.
	maxSmallAlloc = 32<<10 - 8
)

// A chunk must stay a small allocation: this fails to compile otherwise.
const _ uint = maxSmallAlloc - chunkSize

// appendFrame appends m, framed as sent by sender, to b.
func appendFrame(b []byte, sender ids.ID, m wire.Msg) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length, backpatched below
	b = binary.LittleEndian.AppendUint32(b, uint32(sender))
	b = wire.Encode(b, m)
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-frameHeader))
	return b
}

// WriteFrame writes one framed message from sender to w.
func WriteFrame(w io.Writer, sender ids.ID, m wire.Msg) error {
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	*buf = appendFrame(*buf, sender, m)
	_, err := w.Write(*buf)
	return err
}

// frameSize validates a frame's length prefix.
func frameSize(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr)
	if n < 4 || n > maxFrameSize {
		return 0, fmt.Errorf("transport: bad frame size %d", n)
	}
	return int(n), nil
}

// parseFrame decodes a frame body. With a nil s the message is a fresh copy;
// otherwise it aliases body and s and owns what it aliases (wire.DecodeInto).
func parseFrame(body []byte, s *wire.Scratch) (ids.ID, wire.Msg, error) {
	sender := ids.ID(binary.LittleEndian.Uint32(body))
	m, used, err := wire.DecodeInto(s, body[4:])
	if err != nil {
		return 0, nil, err
	}
	if used != len(body)-4 {
		return 0, nil, fmt.Errorf("transport: frame has %d trailing bytes", len(body)-4-used)
	}
	return sender, m, nil
}

// ReadFrame reads one framed message from r. The message owns its contents;
// nothing it references is shared with r or with other messages.
func ReadFrame(r io.Reader) (ids.ID, wire.Msg, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n, err := frameSize(hdr[:])
	if err != nil {
		return 0, nil, err
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, err
	}
	return parseFrame(body, nil)
}

// inbound is the read side of one connection. Bytes are read straight into
// append-only chunks that are never rewritten, and every frame a read
// completes is decoded in place: the messages alias the chunk and the arena
// and own what they alias, so a handler may keep a command batch or a value
// for as long as it likes. A chunk is collected once the last message decoded
// from it is dropped — for a replica, when the log is compacted past it.
type inbound struct {
	buf   []byte // current chunk; buf[r:w] is read but not yet decoded
	r, w  int
	arena wire.Scratch
}

// read does one Read on src and appends to out every frame it completed.
// Frames decoded before an error are still returned.
func (in *inbound) read(src io.Reader, out []envelope) ([]envelope, error) {
	// Room for a length prefix or, when the prefix of the pending frame is
	// here (read validated it), for all of that frame.
	need := frameHeader
	if in.w-in.r >= frameHeader {
		need += int(binary.LittleEndian.Uint32(in.buf[in.r:]))
	}
	if in.r+need > len(in.buf) {
		chunk := make([]byte, max(chunkSize, need))
		in.w = copy(chunk, in.buf[in.r:in.w])
		in.r, in.buf = 0, chunk
	}
	n, err := src.Read(in.buf[in.w:])
	in.w += n
	for in.w-in.r >= frameHeader {
		size, ferr := frameSize(in.buf[in.r:])
		if ferr != nil {
			return out, ferr
		}
		end := in.r + frameHeader + size
		if end > in.w {
			break
		}
		from, m, ferr := parseFrame(in.buf[in.r+frameHeader:end], &in.arena)
		if ferr != nil {
			return out, ferr
		}
		out = append(out, envelope{from: from, msg: m})
		in.r = end
	}
	return out, err
}

// TCPNode is a live node reachable over TCP. It implements node.Context;
// a single event-loop goroutine serializes handler calls and timers, and a
// writer goroutine per peer empties that peer's outbox, so Send never blocks
// the event loop — a peer that never answers its dial costs its own writer
// 2 seconds, not the replica.
//
// Messages move in batches at every hand-off: a reader pushes all the frames
// of one read into the mailbox at once, the loop takes the whole mailbox (one
// turn, see node.Turns), and a writer takes its peer's whole outbox and
// issues one Write.
type TCPNode struct {
	mailbox
	addrs map[ids.ID]string

	ln      net.Listener    // nil on a dial-only node
	ctx     context.Context // canceled at Close; aborts in-flight dials
	cancel  context.CancelFunc
	once    sync.Once
	closing atomic.Bool // set before Close sweeps connections
	wg      sync.WaitGroup

	connMu sync.Mutex
	peers  map[ids.ID]*peer
	conns  map[net.Conn]struct{} // every live conn (accepted or dialed)

	writes, reads, frames atomic.Uint64 // see Stats
}

// Stats counts what a node's connections cost in system calls: the unit of
// the transport's per-message overhead, whatever the frames carry.
type Stats struct {
	Writes uint64 // Write calls, each carrying a peer's whole outbox
	Reads  uint64 // Read calls
	Frames uint64 // frames those reads decoded
}

// Stats returns the node's socket counters since it started. Safe from any
// goroutine.
func (n *TCPNode) Stats() Stats {
	return Stats{Writes: n.writes.Load(), Reads: n.reads.Load(), Frames: n.frames.Load()}
}

// peer is the outbound side of one neighbor: an outbox of encoded frames,
// contiguous in one buffer, and a writer goroutine that swaps the buffer for
// an empty one and writes it out whole.
type peer struct {
	n  *TCPNode
	id ids.ID

	mu      sync.Mutex
	wake    sync.Cond // the writer waits here for frames or stop
	out     []byte    // frames no writer has taken yet
	writing bool      // the writer holds frames it has not finished writing
	stopped bool      // node closed or peer reaped: the writer exits
	c       net.Conn
	dialed  bool // we dialed it (vs a reverse route from an inbound conn)
}

// DialTCP starts a node that only dials: no listener, no accept loop, no
// port. Its peers answer over the connections it opened (connections are
// full-duplex), which is all a client needs. addrs maps every node it may
// send to to its host:port; connections are dialed lazily by the peer's
// writer and redialed after failures.
func DialTCP(id ids.ID, addrs map[ids.ID]string, h node.Handler) *TCPNode {
	ctx, cancel := context.WithCancel(context.Background())
	n := &TCPNode{
		addrs:  addrs,
		ctx:    ctx,
		cancel: cancel,
		peers:  make(map[ids.ID]*peer),
		conns:  make(map[net.Conn]struct{}),
	}
	n.init(id, h)
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		n.run()
	}()
	return n
}

// ListenTCP starts a node that also listens on addr: peers that cannot be
// dialed (clients behind ephemeral ports) reach it, and are answered over
// the connections they opened.
func ListenTCP(id ids.ID, addr string, addrs map[ids.ID]string, h node.Handler) (*TCPNode, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	n := DialTCP(id, addrs, h)
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the listener's bound address (useful with ":0"). Only a
// listening node has one.
func (n *TCPNode) Addr() string { return n.ln.Addr().String() }

// Close shuts the node down and waits for its goroutines. Frames still in
// an outbox are dropped; call Drain first for a graceful shutdown that
// writes them out. Armed timers are stopped and never run.
func (n *TCPNode) Close() {
	n.once.Do(func() {
		n.closing.Store(true)
		n.close()
		n.cancel()
		if n.ln != nil {
			n.ln.Close()
		}
		// Sweep every live connection — accepted or dialed — so every
		// readLoop unblocks. Peers' installed conns are a subset of this
		// set; a freshly accepted conn that never sent a frame is not in
		// any peer record but still holds a readLoop.
		n.connMu.Lock()
		for c := range n.conns {
			c.Close()
		}
		for _, p := range n.peers {
			p.mu.Lock()
			p.stop()
			p.mu.Unlock()
		}
		n.connMu.Unlock()
	})
	n.wg.Wait()
}

// Drain waits up to timeout for every peer's outbox to empty and its writer
// to fall idle, so frames already sent (replies to clients, final protocol
// messages) reach the socket before Close drops the connections. It reports
// whether that happened within the deadline. New sends during a drain keep
// it honest: Drain observes live state, it does not freeze it.
func (n *TCPNode) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for {
		idle := true
		n.connMu.Lock()
		for _, p := range n.peers {
			p.mu.Lock()
			idle = len(p.out) == 0 && !p.writing
			p.mu.Unlock()
			if !idle {
				break
			}
		}
		n.connMu.Unlock()
		if idle {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
}

// trackConn registers a live connection for Close's sweep. It reports false
// when the node is already closing — the caller must close the conn and
// not start a readLoop for it. A true return guarantees Close's sweep will
// see the conn: closing is set before the sweep takes connMu, so a track
// that observed closing==false is ordered before the sweep.
func (n *TCPNode) trackConn(c net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closing.Load() {
		return false
	}
	n.conns[c] = struct{}{}
	return true
}

func (n *TCPNode) untrackConn(c net.Conn) {
	n.connMu.Lock()
	delete(n.conns, c)
	n.connMu.Unlock()
}

func (n *TCPNode) acceptLoop() {
	defer n.wg.Done()
	for {
		c, err := n.ln.Accept()
		if err != nil {
			if n.closing.Load() {
				return
			}
			continue
		}
		if !n.trackConn(c) {
			c.Close()
			continue
		}
		n.wg.Add(1)
		go n.readLoop(c)
	}
}

// readLoop feeds the mailbox from one tracked connection until it dies,
// one push per read. A full mailbox makes it wait, and TCP flow control
// passes the wait on to the sender.
func (n *TCPNode) readLoop(c net.Conn) {
	defer n.wg.Done()
	defer func() {
		c.Close()
		n.untrackConn(c)
	}()
	var in inbound
	var batch []envelope
	registered := false
	for {
		var err error
		batch, err = in.read(c, batch[:0])
		n.reads.Add(1)
		if len(batch) > 0 {
			n.frames.Add(uint64(len(batch)))
			if !registered {
				// Remember the inbound connection as a reverse route so
				// replies reach peers we cannot dial (e.g. clients behind
				// ephemeral ports).
				from := batch[0].from
				n.registerReverse(from, c)
				defer n.clearReverse(from, c)
				registered = true
			}
			if !n.push(true, batch...) {
				return
			}
			clear(batch) // the mailbox has them; do not hold them across the next Read
		}
		if err != nil {
			return
		}
	}
}

// peerFor returns the peer record for id, creating it when create is set
// or when id has a configured address. nil means the peer is unreachable
// (no address, no reverse route).
func (n *TCPNode) peerFor(id ids.ID, create bool) *peer {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	p, ok := n.peers[id]
	if ok {
		return p
	}
	if n.closing.Load() {
		return nil // shutting down: no new writers
	}
	if !create {
		if _, known := n.addrs[id]; !known {
			return nil
		}
	}
	p = &peer{n: n, id: id}
	p.wake.L = &p.mu
	n.peers[id] = p
	n.wg.Add(1)
	go p.writeLoop()
	return p
}

// registerReverse installs conn as the outbound route to id. A fresh
// inbound connection replaces a previous reverse route (the peer
// reconnected) but never displaces a healthy dialed connection.
func (n *TCPNode) registerReverse(id ids.ID, c net.Conn) {
	p := n.peerFor(id, true)
	if p == nil {
		return // node is shutting down
	}
	p.mu.Lock()
	if p.c == nil || !p.dialed {
		if p.c != nil && p.c != c {
			p.c.Close()
		}
		p.c = c
		p.dialed = false
	}
	p.mu.Unlock()
}

// clearReverse drops a reverse route when its connection dies, so a later
// reconnect (or dial) can take its place. Peers with no configured address
// (ephemeral clients known only through their inbound connection) are
// reaped entirely — record, outbox and writer goroutine — so churning
// clients cannot grow the peer table without bound.
func (n *TCPNode) clearReverse(id ids.ID, c net.Conn) {
	n.connMu.Lock()
	p := n.peers[id]
	_, hasAddr := n.addrs[id]
	n.connMu.Unlock()
	if p == nil {
		return
	}
	p.mu.Lock()
	mine := p.c == c
	if mine {
		p.c = nil
		p.dialed = false
	}
	p.mu.Unlock()
	if !mine || hasAddr {
		return
	}
	n.connMu.Lock()
	p.mu.Lock()
	// Re-check under both locks: a reconnect may have installed a fresh
	// route while we were deciding.
	if p.c == nil && n.peers[id] == p {
		delete(n.peers, id)
		p.stop()
	}
	p.mu.Unlock()
	n.connMu.Unlock()
}

// Send implements node.Context. It encodes m straight into the peer's
// outbox and returns: dial latency, slow peers and write syscalls are paid
// by the peer's writer goroutine, never by the caller, which may be the
// event loop or any other goroutine. A full outbox drops the frame (the
// network is allowed to lose messages; protocols retry).
func (n *TCPNode) Send(to ids.ID, m wire.Msg) {
	if to == n.id {
		n.push(false, envelope{from: n.id, msg: m})
	} else if p := n.peerFor(to, false); p != nil {
		p.enqueue(m, nil)
	}
}

// Broadcast implements node.Context: m is encoded exactly once and the
// frame's bytes are appended to every recipient's outbox — for frames of
// tens of bytes to a kilobyte a copy is cheaper than sharing would be.
func (n *TCPNode) Broadcast(to []ids.ID, m wire.Msg) {
	var frame *[]byte
	for _, id := range to {
		if id == n.id {
			n.Send(id, m) // self-delivery through the mailbox
			continue
		}
		p := n.peerFor(id, false)
		if p == nil {
			continue
		}
		if frame == nil {
			frame = wire.GetBuf()
			*frame = appendFrame(*frame, n.id, m)
		}
		p.enqueue(nil, *frame)
	}
	wire.PutBuf(frame)
}

// enqueue appends one frame to the outbox — the given bytes, or m encoded in
// place when frame is nil — and wakes the writer if the outbox was empty.
func (p *peer) enqueue(m wire.Msg, frame []byte) {
	p.mu.Lock()
	if len(p.out) >= outboxBound || p.stopped {
		p.mu.Unlock()
		return // full: drop, like a congested network
	}
	wake := len(p.out) == 0
	if frame != nil {
		p.out = append(p.out, frame...)
	} else {
		p.out = appendFrame(p.out, p.n.id, m)
	}
	p.mu.Unlock()
	if wake {
		p.wake.Signal()
	}
}

// stop makes the writer exit and the outbox refuse frames. Caller holds
// p.mu.
func (p *peer) stop() {
	p.stopped, p.out = true, nil
	p.wake.Signal()
}

// recycle empties an outbox buffer for reuse, unless it grew past what is
// worth keeping.
func recycle(b []byte) []byte {
	if cap(b) > outboxKeep {
		return nil
	}
	return b[:0]
}

// writeLoop takes the whole outbox whenever it is non-empty and writes it
// with one call, so frames sent while a write is in the kernel share the
// next one. Connection setup happens here, off the event loop.
func (p *peer) writeLoop() {
	defer p.n.wg.Done()
	var buf []byte // the half of the double buffer Send is not filling
	for {
		p.mu.Lock()
		p.writing = false
		for len(p.out) == 0 && !p.stopped {
			p.wake.Wait()
		}
		if p.stopped {
			p.mu.Unlock()
			return
		}
		buf, p.out = p.out, recycle(buf)
		p.writing = true
		p.mu.Unlock()

		c := p.ensureConn()
		if c == nil {
			// Unreachable: drop these frames and everything sent while
			// the dial ran, so a flood at a dead peer does not serialize
			// dial timeouts.
			p.mu.Lock()
			p.out = recycle(p.out)
			p.mu.Unlock()
		} else {
			p.n.writes.Add(1)
			if _, err := c.Write(buf); err != nil {
				p.dropConn(c)
			}
		}
	}
}

// ensureConn returns the current connection, dialing if none exists. The
// dial happens without holding p.mu so reverse-route registration is never
// blocked behind a slow dial.
func (p *peer) ensureConn() net.Conn {
	p.mu.Lock()
	c := p.c
	p.mu.Unlock()
	if c != nil {
		return c
	}

	p.n.connMu.Lock()
	addr, ok := p.n.addrs[p.id]
	p.n.connMu.Unlock()
	if !ok {
		return nil
	}
	d := net.Dialer{Timeout: dialTimeout}
	c, err := d.DialContext(p.n.ctx, "tcp", addr)
	if err != nil {
		return nil
	}
	if !p.n.trackConn(c) {
		// Close ran while we were dialing; installing now would leak a
		// conn (and its readLoop) that the sweep never closes, hanging
		// wg.Wait. Tracking before install guarantees the sweep sees it.
		c.Close()
		return nil
	}
	p.mu.Lock()
	if p.c != nil {
		// A reverse route arrived while we dialed; prefer it.
		existing := p.c
		p.mu.Unlock()
		c.Close()
		p.n.untrackConn(c)
		return existing
	}
	p.c = c
	p.dialed = true
	p.mu.Unlock()
	// Connections are full-duplex: read replies sent back over this
	// socket (peers prefer an existing route over dialing back).
	p.n.wg.Add(1)
	go p.n.readLoop(c)
	return c
}

// dropConn discards a failed connection so the next frame redials.
func (p *peer) dropConn(c net.Conn) {
	c.Close()
	p.mu.Lock()
	if p.c == c {
		p.c = nil
		p.dialed = false
	}
	p.mu.Unlock()
}

// RegisterAddr adds (or updates) a peer address after startup — used for
// clients that connect with ephemeral identities.
func (n *TCPNode) RegisterAddr(id ids.ID, addr string) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.addrs == nil {
		n.addrs = make(map[ids.ID]string)
	}
	n.addrs[id] = addr
}

var _ node.Context = (*TCPNode)(nil)
