package transport

import (
	"fmt"
	"io"
	"runtime"
	"sync/atomic"
	"testing"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// BenchmarkWriteFrame measures the outbound frame path in isolation:
// pooled buffer, one encode, one Write. Steady state allocates nothing.
func BenchmarkWriteFrame(b *testing.B) {
	var m wire.Msg = wire.P2a{Ballot: 7, Slot: 3, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, 128)}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteFrame(io.Discard, ids.NewID(1, 1), m); err != nil {
			b.Fatal(err)
		}
	}
}

// loopReader replays one encoded frame forever, so the read path can be
// benchmarked without a socket.
type loopReader struct {
	frame []byte
	off   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	if r.off == len(r.frame) {
		r.off = 0
	}
	n := copy(p, r.frame[r.off:])
	r.off += n
	return n, nil
}

// BenchmarkInboundRead measures the inbound frame path without a socket:
// read into the chunk, decode in place. Per frame only the message's
// interface box allocates; chunks and arena amortize to nothing.
func BenchmarkInboundRead(b *testing.B) {
	var m wire.Msg = wire.P2a{Ballot: 7, Slot: 3, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, 128)}}}
	src := &loopReader{frame: appendFrame(nil, ids.NewID(1, 1), m)}
	var in inbound
	var batch []envelope
	b.ReportAllocs()
	for got := 0; got < b.N; got += len(batch) {
		var err error
		if batch, err = in.read(src, batch[:0]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTCPSend drives the full live hot path over loopback in bursts:
// encode into the outbox, one Write per outbox by the peer writer, chunked
// read, decode in place, one mailbox push per read, handler dispatch. It
// sends 512 frames, then spins on Gosched until half have arrived — a
// stop-and-go pattern whose reading is the burst's trip through four
// goroutine wake-ups next to a spinning goroutine (which on two processors
// keeps the scheduler from polling the network), not the cost per message.
// BenchmarkTCPStream is the sustained rate.
func BenchmarkTCPSend(b *testing.B) {
	var got atomic.Int64
	recvID, sendID := ids.NewID(1, 2), ids.NewID(1, 1)
	recv, err := ListenTCP(recvID, "127.0.0.1:0", nil, handlerFunc(func(ids.ID, wire.Msg) { got.Add(1) }))
	if err != nil {
		b.Fatal(err)
	}
	defer recv.Close()
	send, err := ListenTCP(sendID, "127.0.0.1:0", map[ids.ID]string{recvID: recv.Addr()}, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer send.Close()
	var m wire.Msg = wire.P2b{Ballot: 7, From: sendID, Slot: 3}
	b.ReportAllocs()
	sent := int64(0)
	for i := 0; i < b.N; i++ {
		send.Send(recvID, m)
		sent++
		if sent%512 == 0 {
			// Keep the bounded outbox from overflowing (drops would make
			// the wait below spin forever).
			for got.Load() < sent-256 {
				runtime.Gosched()
			}
		}
	}
	for got.Load() < sent {
		runtime.Gosched()
	}
}

type handlerFunc func(ids.ID, wire.Msg)

func (f handlerFunc) OnMessage(from ids.ID, m wire.Msg) { f(from, m) }

// benchMesh starts n connected nodes; handle(i) is node i's handler.
func benchMesh(b *testing.B, n int, handle func(i int) handlerFunc) []*TCPNode {
	b.Helper()
	nodes := make([]*TCPNode, n)
	for i := range nodes {
		tn, err := ListenTCP(ids.NewID(1, i+1), "127.0.0.1:0", map[ids.ID]string{}, handle(i))
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(tn.Close)
		nodes[i] = tn
	}
	for _, tn := range nodes {
		for _, peer := range nodes {
			tn.RegisterAddr(peer.ID(), peer.Addr())
		}
	}
	return nodes
}

// BenchmarkTCPStream pushes frames one way under a credit window (512 in
// flight, an ack every 128), the way the repository benchmark's
// transport.stream_* metrics do: sustained one-way message and byte rates
// with both directions of the connection in use.
func BenchmarkTCPStream(b *testing.B) {
	for _, size := range []int{64, 1024} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			const window, ackEvery = 512, 128
			credits := make(chan struct{}, window/ackEvery+1)
			var nodes []*TCPNode
			got := 0 // receiver's event loop only
			nodes = benchMesh(b, 2, func(i int) handlerFunc {
				if i == 0 {
					return func(ids.ID, wire.Msg) { credits <- struct{}{} }
				}
				return func(from ids.ID, _ wire.Msg) {
					if got++; got%ackEvery == 0 {
						nodes[1].Send(from, wire.P2b{Slot: uint64(got)})
					}
				}
			})
			// A framed P2a with one command is 64 bytes plus its value.
			var m wire.Msg = wire.P2a{Ballot: 7, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, size-64), ClientID: 1, Seq: 1}}}
			if n := len(appendFrame(nil, nodes[0].ID(), m)); n != size {
				b.Fatalf("frame is %d bytes, want %d", n, size)
			}
			b.SetBytes(int64(size))
			b.ReportAllocs()
			b.ResetTimer()
			inflight := 0
			for i := 0; i < b.N; i++ {
				for inflight >= window {
					<-credits
					inflight -= ackEvery
				}
				nodes[0].Send(nodes[1].ID(), m)
				inflight++
			}
			for inflight >= ackEvery {
				<-credits
				inflight -= ackEvery
			}
		})
	}
}

// BenchmarkTCPBroadcast4 measures one Broadcast of a small P2a to four
// peers end to end: one encode, four outbox appends, four writers, four
// receiving loops. Every 64 broadcasts it waits for the slowest peer, so no
// outbox overflows.
func BenchmarkTCPBroadcast4(b *testing.B) {
	var got [4]atomic.Int64
	nodes := benchMesh(b, 5, func(i int) handlerFunc {
		if i == 0 {
			return func(ids.ID, wire.Msg) {}
		}
		return func(ids.ID, wire.Msg) { got[i-1].Add(1) }
	})
	peers := make([]ids.ID, 0, 4)
	for _, tn := range nodes[1:] {
		peers = append(peers, tn.ID())
	}
	var m wire.Msg = wire.P2a{Ballot: 7, Slot: 1, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, 8), ClientID: 1, Seq: 1}}}
	wait := func(n int64) {
		for i := range got {
			for got[i].Load() < n {
				runtime.Gosched()
			}
		}
	}
	b.ReportAllocs()
	for i := 1; i <= b.N; i++ {
		nodes[0].Broadcast(peers, m)
		if i%64 == 0 {
			wait(int64(i))
		}
	}
	wait(int64(b.N))
}
