package transport

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

type collector struct {
	mu  sync.Mutex
	got []wire.Msg
}

func (c *collector) OnMessage(from ids.ID, m wire.Msg) {
	c.mu.Lock()
	c.got = append(c.got, m)
	c.mu.Unlock()
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.got)
}

func waitFor(t *testing.T, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

func TestLocalTimerFiresAndStops(t *testing.T) {
	n1 := DialTCP(ids.NewID(1, 1), nil, &collector{})
	defer n1.Close()
	var mu sync.Mutex
	fired := 0
	n1.After(10*time.Millisecond, func() { mu.Lock(); fired++; mu.Unlock() })
	tm := n1.After(10*time.Millisecond, func() { mu.Lock(); fired += 100; mu.Unlock() })
	if !tm.Stop() {
		t.Error("Stop should succeed before firing")
	}
	waitFor(t, func() bool { mu.Lock(); defer mu.Unlock(); return fired > 0 }, "timer never fired")
	time.Sleep(30 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired != 1 {
		t.Errorf("fired = %d, want 1 (stopped timer must not run)", fired)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	want := wire.P2a{Ballot: 9, Slot: 4, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: []byte("xyz")}}}
	if err := WriteFrame(&buf, ids.NewID(2, 3), want); err != nil {
		t.Fatal(err)
	}
	from, m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if from != ids.NewID(2, 3) {
		t.Errorf("from = %v", from)
	}
	got, ok := m.(wire.P2a)
	if !ok || got.Slot != 4 || len(got.Cmds) != 1 || string(got.Cmds[0].Value) != "xyz" {
		t.Errorf("got %+v", m)
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	// Oversized length prefix.
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("oversized frame must error")
	}
	// Truncated body.
	buf.Reset()
	buf.Write([]byte{16, 0, 0, 0, 1, 2})
	if _, _, err := ReadFrame(&buf); err == nil {
		t.Error("truncated frame must error")
	}
}

func TestTCPRoundTrip(t *testing.T) {
	c1, c2 := &collector{}, &collector{}
	id1, id2 := ids.NewID(1, 1), ids.NewID(1, 2)
	n1, err := ListenTCP(id1, "127.0.0.1:0", map[ids.ID]string{}, c1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	n2, err := ListenTCP(id2, "127.0.0.1:0", map[ids.ID]string{}, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer n2.Close()
	n1.RegisterAddr(id2, n2.Addr())
	n2.RegisterAddr(id1, n1.Addr())

	n1.Send(id2, wire.P1a{Ballot: 3})
	waitFor(t, func() bool { return c2.count() == 1 }, "n2 did not receive")
	n2.Send(id1, wire.P2b{Ballot: 3, From: id2, Slot: 1})
	waitFor(t, func() bool { return c1.count() == 1 }, "n1 did not receive")
}

func TestTCPSelfSend(t *testing.T) {
	c := &collector{}
	n, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", nil, c)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Send(n.ID(), wire.P1a{Ballot: 1})
	waitFor(t, func() bool { return c.count() == 1 }, "self-send lost")
}

func TestTCPUnknownPeerDropped(t *testing.T) {
	n, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", nil, &collector{})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Send(ids.NewID(7, 7), wire.P1a{Ballot: 1}) // no addr: drop silently
}

func TestTCPReconnectAfterPeerRestart(t *testing.T) {
	c1 := &collector{}
	id1, id2 := ids.NewID(1, 1), ids.NewID(1, 2)
	n1, err := ListenTCP(id1, "127.0.0.1:0", map[ids.ID]string{}, c1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()

	c2 := &collector{}
	n2, err := ListenTCP(id2, "127.0.0.1:0", map[ids.ID]string{}, c2)
	if err != nil {
		t.Fatal(err)
	}
	addr2 := n2.Addr()
	n1.RegisterAddr(id2, addr2)
	n1.Send(id2, wire.P1a{Ballot: 1})
	waitFor(t, func() bool { return c2.count() == 1 }, "first delivery")

	// Restart peer on the same port.
	n2.Close()
	c2b := &collector{}
	n2b, err := ListenTCP(id2, addr2, map[ids.ID]string{}, c2b)
	if err != nil {
		t.Fatal(err)
	}
	defer n2b.Close()
	// The first send after restart may hit the dead connection and drop;
	// subsequent sends must get through on a fresh dial.
	waitFor(t, func() bool {
		n1.Send(id2, wire.P1a{Ballot: 2})
		return c2b.count() > 0
	}, "no delivery after peer restart")
}

type trampolineT struct {
	mu sync.Mutex
	h  func(from ids.ID, m wire.Msg)
}

func (t *trampolineT) OnMessage(from ids.ID, m wire.Msg) {
	t.mu.Lock()
	h := t.h
	t.mu.Unlock()
	if h != nil {
		h(from, m)
	}
}

func TestTCPReverseRouteForUndialableClient(t *testing.T) {
	// A client with no listener of its own: the server must answer over
	// the client's inbound connection.
	srvC := &collector{}
	srv, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", nil, srvC)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// Echo server: reply to every P1a with a P1b over the reverse route.
	tr := &trampolineT{}
	srv2, err := ListenTCP(ids.NewID(1, 2), "127.0.0.1:0", nil, tr)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	tr.h = func(from ids.ID, m wire.Msg) {
		if _, ok := m.(wire.P1a); ok {
			srv2.Send(from, wire.P1b{Ballot: 1, From: srv2.ID()})
		}
	}
	clC := &collector{}
	client, err := ListenTCP(ids.NewID(999, 1), "127.0.0.1:0", map[ids.ID]string{ids.NewID(1, 2): srv2.Addr()}, clC)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Send(ids.NewID(1, 2), wire.P1a{Ballot: 1})
	waitFor(t, func() bool { return clC.count() == 1 }, "no reply over reverse route")
}
