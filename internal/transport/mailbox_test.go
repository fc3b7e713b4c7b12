package transport

import (
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/node"
	"pigpaxos/internal/wire"
)

// TestCloseReleasesArmedTimers: an armed timer holds its callback, and the
// callback holds the replica and its log. Closing a node must stop its
// timers, or every closed replica stays reachable until its longest timer
// fires (the election timer: seconds to a minute). Ten listening and ten
// dial-only nodes arm a one-hour timer over a 4 MiB buffer and close; the
// buffers must be collectable at once.
func TestCloseReleasesArmedTimers(t *testing.T) {
	const nodes, size = 10, 4 << 20
	var freed atomic.Int32
	arm := func(ctx node.Context) {
		buf := make([]byte, size)
		runtime.SetFinalizer(&buf[0], func(*byte) { freed.Add(1) })
		ctx.After(time.Hour, func() { _ = buf[0] })
	}
	for i := 0; i < nodes; i++ {
		dn := DialTCP(ids.NewID(2, i+1), nil, nil)
		arm(dn)
		dn.Close()
		tn, err := ListenTCP(ids.NewID(1, i+1), "127.0.0.1:0", nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		arm(tn)
		tn.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for freed.Load() < 2*nodes {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d timer-held buffers collected after close: closed nodes leak their armed timers", freed.Load(), 2*nodes)
		}
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTimerStopAfterFire: Stop from the loop wins against a callback that
// has fired and is queued behind the running handler.
func TestTimerStopAfterFire(t *testing.T) {
	n := DialTCP(ids.NewID(1, 1), nil, nil)
	defer n.Close()
	ran := make(chan bool, 1)
	n.After(0, func() {
		late := false
		tm := n.After(time.Millisecond, func() { late = true })
		time.Sleep(20 * time.Millisecond) // the timer fires into the mailbox meanwhile
		stopped := tm.Stop()
		n.After(0, func() { ran <- stopped && !late })
	})
	if !<-ran {
		t.Error("a timer stopped on the loop after firing still ran its callback")
	}
}

// TestSelfSendAtMailboxBound: two connections flood a node whose handler
// answers every message with a Send to itself, so the mailbox sits at its
// bound with both readers waiting for room. The loop's own push must not
// wait with them — it is the only one who can make room.
func TestSelfSendAtMailboxBound(t *testing.T) {
	const perConn = 4 * mailboxBound
	self := ids.NewID(1, 1)
	var loopback atomic.Pointer[TCPNode]
	var flood, echoed int // event loop only
	done := make(chan struct{})
	srv, err := ListenTCP(self, "127.0.0.1:0", nil, handlerFunc(func(from ids.ID, m wire.Msg) {
		if from == self {
			echoed++
		} else {
			flood++
			loopback.Load().Send(self, m)
		}
		if flood == 2*perConn && echoed == 2*perConn {
			close(done)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	loopback.Store(srv)
	for c := 0; c < 2; c++ {
		conn, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		var stream []byte
		for i := 0; i < perConn; i++ {
			stream = appendFrame(stream, ids.NewID(9, c+1), wire.Request{Cmd: kvstore.Command{Op: kvstore.Get, Key: uint64(i)}})
		}
		go conn.Write(stream) // fails when the test closes conn; the wait below reports it
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("event loop wedged: a self-send waited for room in its own full mailbox")
	}
}

// TestTurnAdvancesOncePerBatch: every message and timer the loop takes in
// one swap of the queue sees one Turn, and the next swap a larger one. A
// blocked callback holds the loop while the test queues a batch behind it.
func TestTurnAdvancesOncePerBatch(t *testing.T) {
	const k = 16
	self := ids.NewID(1, 1)
	var n *TCPNode
	var turns []uint64 // event loop only until a batch is over
	n = DialTCP(self, nil, handlerFunc(func(ids.ID, wire.Msg) { turns = append(turns, n.Turn()) }))
	defer n.Close()
	var _ node.Turns = n

	var prev uint64
	for b := 0; b < 3; b++ {
		hold, held := make(chan struct{}), make(chan struct{})
		n.After(0, func() { close(held); <-hold })
		<-held
		for i := 0; i < k; i++ {
			n.push(false, envelope{from: self, msg: wire.Heartbeat{}})
			n.After(0, func() { turns = append(turns, n.Turn()) })
		}
		done := make(chan []uint64)
		n.After(0, func() { done <- append(turns, n.Turn()); turns = nil })
		close(hold)
		got := <-done
		if len(got) != 2*k+1 {
			t.Fatalf("batch %d: %d callbacks ran, want %d", b, len(got), 2*k+1)
		}
		for i, turn := range got {
			if turn != got[0] {
				t.Fatalf("batch %d: callback %d saw turn %d, the first saw %d", b, i, turn, got[0])
			}
		}
		if got[0] <= prev {
			t.Fatalf("batch %d: turn %d does not follow the previous batch's %d", b, got[0], prev)
		}
		prev = got[0]
	}
}

// TestStatsCountCalls: the counters move once per socket call and once per
// decoded frame, whatever the frames' size. Frames sent in one turn to one
// peer leave in at most as many writes as frames.
func TestStatsCountCalls(t *testing.T) {
	const k = 32
	got := make(chan struct{}, k)
	srv, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", nil, handlerFunc(func(ids.ID, wire.Msg) { got <- struct{}{} }))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cl := DialTCP(ids.NewID(9, 1), map[ids.ID]string{srv.ID(): srv.Addr()}, nil)
	defer cl.Close()
	big := make([]byte, 4<<10)
	cl.After(0, func() {
		for i := 0; i < k; i++ {
			cl.Send(srv.ID(), wire.Request{Cmd: kvstore.Command{Op: kvstore.Put, Key: uint64(i), Value: big}})
		}
	})
	for i := 0; i < k; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d frames arrived", i, k)
		}
	}
	if s := srv.Stats(); s.Frames != k || s.Reads == 0 || s.Reads > 2*k {
		t.Errorf("server %+v: want %d frames in 1..%d reads", s, k, 2*k)
	}
	if s := cl.Stats(); s.Writes == 0 || s.Writes > k {
		t.Errorf("client %+v: want 1..%d writes for %d frames", s, k, k)
	}
}
