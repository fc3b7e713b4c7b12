package transport

import (
	"net"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// blackholeListener accepts connections and never reads from them: the
// archetypal dead peer. Once the kernel socket buffers fill, a synchronous
// writer would block forever.
func blackholeListener(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var conns []net.Conn
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			conns = append(conns, c) // hold open, never read
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	return ln.Addr().String(), func() {
		close(done)
		ln.Close()
		for _, c := range conns {
			c.Close()
		}
	}
}

// TestDeadPeerDoesNotStallInbound is the tentpole's transport regression:
// a replica whose handler fans out to an unresponsive peer must keep
// handling inbound messages at full speed. Before the async writers, the
// event loop itself dialed and flushed inside Send, so one wedged peer
// (dial timeout or full TCP buffer) froze the whole replica.
func TestDeadPeerDoesNotStallInbound(t *testing.T) {
	deadAddr, stopDead := blackholeListener(t)
	defer stopDead()
	deadID := ids.NewID(7, 7)

	// Replica under test: every inbound Request triggers a large send to
	// the dead peer plus a reply to the requester.
	tr := &trampolineT{}
	srv, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", map[ids.ID]string{deadID: deadAddr}, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	big := wire.P2a{Ballot: 1, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, 1<<20)}}}
	tr.h = func(from ids.ID, m wire.Msg) {
		if req, ok := m.(wire.Request); ok {
			srv.Send(deadID, big) // would wedge a synchronous writer
			srv.Send(from, wire.Reply{ClientID: req.Cmd.ClientID, Seq: req.Cmd.Seq, OK: true})
		}
	}

	cl := &collector{}
	client, err := ListenTCP(ids.NewID(999, 1), "127.0.0.1:0", map[ids.ID]string{srv.ID(): srv.Addr()}, cl)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	const n = 32 // 32 MiB at the dead peer: far beyond any socket buffer
	start := time.Now()
	for i := 1; i <= n; i++ {
		client.Send(srv.ID(), wire.Request{Cmd: kvstore.Command{Op: kvstore.Put, Key: 1, ClientID: 1, Seq: uint64(i)}})
	}
	waitFor(t, func() bool { return cl.count() >= n }, "inbound handling stalled behind a dead peer")
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Errorf("handling %d requests took %v with a dead peer in the fan-out", n, elapsed)
	}
}

// TestSendToUnreachableAddrReturnsImmediately: Send must never block the
// caller, even when the peer's address refuses connections.
func TestSendToUnreachableAddrReturnsImmediately(t *testing.T) {
	// A listener we close immediately: connection refused thereafter.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refusedAddr := ln.Addr().String()
	ln.Close()

	srv, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", map[ids.ID]string{ids.NewID(7, 7): refusedAddr}, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	for i := 0; i < 5000; i++ {
		srv.Send(ids.NewID(7, 7), wire.P1a{Ballot: 1})
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("5000 sends to an unreachable peer took %v; Send must enqueue-and-return", elapsed)
	}
}

// TestTCPBroadcast: one Broadcast call reaches every listed peer
// (including self) with the message intact.
func TestTCPBroadcast(t *testing.T) {
	ids3 := []ids.ID{ids.NewID(1, 1), ids.NewID(1, 2), ids.NewID(1, 3)}
	addrs := make(map[ids.ID]string)
	cols := make(map[ids.ID]*collector)
	nodes := make(map[ids.ID]*TCPNode)
	for _, id := range ids3 {
		c := &collector{}
		n, err := ListenTCP(id, "127.0.0.1:0", addrs, c)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		cols[id], nodes[id] = c, n
		addrs[id] = n.Addr()
	}
	for _, n := range nodes {
		for id, a := range addrs {
			n.RegisterAddr(id, a)
		}
	}
	want := wire.P2a{Ballot: 5, Slot: 9, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 3, Value: []byte("bcast")}}}
	nodes[ids3[0]].Broadcast(ids3, want)
	for _, id := range ids3 {
		id := id
		waitFor(t, func() bool { return cols[id].count() == 1 }, "broadcast recipient missed the message")
		cols[id].mu.Lock()
		got, ok := cols[id].got[0].(wire.P2a)
		cols[id].mu.Unlock()
		if !ok || got.Slot != 9 || len(got.Cmds) != 1 || string(got.Cmds[0].Value) != "bcast" {
			t.Errorf("node %v got %+v", id, got)
		}
	}
}

// TestEphemeralPeerReaped: a client known only through its inbound
// connection must not leave a peer record (outbox + writer goroutine)
// behind after it disconnects — churning clients would otherwise grow the
// peer table and goroutine count without bound.
func TestEphemeralPeerReaped(t *testing.T) {
	srv, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := 0; i < 20; i++ {
		clID := ids.NewID(900, i+1)
		cl, err := ListenTCP(clID, "127.0.0.1:0", map[ids.ID]string{srv.ID(): srv.Addr()}, &collector{})
		if err != nil {
			t.Fatal(err)
		}
		cl.Send(srv.ID(), wire.P1a{Ballot: 1}) // creates a reverse-route peer at srv
		waitFor(t, func() bool {
			srv.connMu.Lock()
			_, ok := srv.peers[clID]
			srv.connMu.Unlock()
			return ok
		}, "reverse-route peer never appeared")
		cl.Close()
		waitFor(t, func() bool {
			srv.connMu.Lock()
			_, ok := srv.peers[clID]
			srv.connMu.Unlock()
			return !ok
		}, "ephemeral peer record not reaped after disconnect")
	}
}

// TestBroadcastWithDeadRecipient: a broadcast's encode-once bytes must
// reach the live recipient intact over many rounds while a dead
// co-recipient's outbox fills and drops.
func TestBroadcastWithDeadRecipient(t *testing.T) {
	deadAddr, stopDead := blackholeListener(t)
	defer stopDead()
	deadID := ids.NewID(7, 7)

	live := &collector{}
	liveNode, err := ListenTCP(ids.NewID(1, 2), "127.0.0.1:0", nil, live)
	if err != nil {
		t.Fatal(err)
	}
	defer liveNode.Close()

	src, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", map[ids.ID]string{
		deadID:        deadAddr,
		liveNode.ID(): liveNode.Addr(),
	}, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	const rounds = 200
	m := wire.P2a{Ballot: 2, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, 4096)}}}
	for i := 0; i < rounds; i++ {
		src.Broadcast([]ids.ID{deadID, liveNode.ID()}, m)
	}
	// The live peer must receive most frames; the dead peer's outbox may
	// drop overflow, but that must never corrupt the live peer's frames.
	waitFor(t, func() bool { return live.count() >= rounds/2 }, "live recipient starved by dead co-recipient")
	live.mu.Lock()
	defer live.mu.Unlock()
	for _, got := range live.got {
		p, ok := got.(wire.P2a)
		if !ok || len(p.Cmds) != 1 || len(p.Cmds[0].Value) != 4096 {
			t.Fatalf("corrupt broadcast frame: %+v", got)
		}
	}
}
