package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
	"pigpaxos/internal/wire"
)

// The differential tests hold inbound.read — chunked reads, decode in place,
// frames carried over chunk boundaries — against ReadFrame, the slow obvious
// model: one frame at a time, exact reads, fresh copies.

// outcome classifies how a stream ended: "" at a frame boundary,
// "truncated" inside a frame, otherwise the rejection.
func outcome(err error, midFrame bool) string {
	switch {
	case errors.Is(err, io.ErrUnexpectedEOF), err == io.EOF && midFrame:
		return "truncated"
	case err == io.EOF:
		return ""
	}
	return err.Error()
}

func viaReadFrame(stream []byte) ([]envelope, string) {
	r := bytes.NewReader(stream)
	var got []envelope
	for {
		rest := r.Len()
		from, m, err := ReadFrame(r)
		if err != nil {
			// ReadFull reports a body cut at its first byte as a plain EOF.
			return got, outcome(err, rest > 0)
		}
		got = append(got, envelope{from: from, msg: m})
	}
}

func viaInbound(src io.Reader) ([]envelope, string) {
	var in inbound
	var got []envelope
	for {
		var err error
		if got, err = in.read(src, got); err != nil {
			return got, outcome(err, in.r != in.w)
		}
	}
}

// chopReader serves b in reads of at most the given sizes, cycling through
// them; a zero size is skipped.
type chopReader struct {
	b     []byte
	sizes []int
	i     int
}

func (c *chopReader) Read(p []byte) (int, error) {
	if len(c.b) == 0 {
		return 0, io.EOF
	}
	n := len(p)
	for range c.sizes {
		s := c.sizes[c.i%len(c.sizes)]
		c.i++
		if s > 0 {
			n = min(n, s)
			break
		}
	}
	n = copy(p[:n], c.b)
	c.b = c.b[n:]
	return n, nil
}

func checkFraming(t testing.TB, stream []byte, sizes ...int) {
	t.Helper()
	want, wantEnd := viaReadFrame(stream)
	got, gotEnd := viaInbound(&chopReader{b: stream, sizes: sizes})
	if gotEnd != wantEnd {
		t.Fatalf("reads of %v: stream ended %q, ReadFrame says %q", sizes, gotEnd, wantEnd)
	}
	if len(got) != len(want) {
		t.Fatalf("reads of %v: %d messages, ReadFrame says %d", sizes, len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("reads of %v: message %d\n got %+v\nwant %+v", sizes, i, got[i], want[i])
		}
	}
}

func framingMsgs() []wire.Msg {
	b := ids.NewBallot(3, ids.NewID(1, 2))
	cmds := []kvstore.Command{
		{Op: kvstore.Put, Key: 1, Value: []byte("alpha"), ClientID: 7, Seq: 1},
		{Op: kvstore.Get, Key: 2, ClientID: 7, Seq: 2},
		{Op: kvstore.Put, Key: 3, Value: bytes.Repeat([]byte{0xab}, 40), ClientID: 8, Seq: 1},
	}
	return []wire.Msg{
		wire.Request{Cmd: cmds[0]},
		wire.P2b{Ballot: b, From: ids.NewID(1, 3), Slot: 9},
		wire.P2a{Ballot: b, Slot: 9, Cmds: cmds, Commit: 8},
		wire.Sharded{Shard: 4, Inner: wire.RelayP2a{P2a: wire.P2a{Ballot: b, Slot: 10, Cmds: cmds[:1]}, Peers: []ids.ID{ids.NewID(1, 4), ids.NewID(1, 5)}, Timeout: time.Second}},
		wire.Sharded{Shard: 65535, Inner: wire.AggP2b{Ballot: b, Relay: ids.NewID(1, 2), Slot: 10, Acks: []ids.ID{ids.NewID(1, 2), ids.NewID(1, 4)}}},
		wire.SnapInstall{Ballot: b, Floor: 128, Data: bytes.Repeat([]byte("snap"), 8)},
		wire.Sharded{Shard: 1, Inner: wire.SnapInstall{Ballot: b, Floor: 64, Data: []byte("s")}},
		wire.AggP1b{Ballot: b, Relay: ids.NewID(1, 2), Replies: []wire.P1b{{Ballot: b, From: ids.NewID(1, 3), Floor: 2,
			Entries: []wire.SlotEntry{{Slot: 5, Ballot: b, Committed: true, Cmds: cmds[1:]}}}}},
		wire.Reply{ClientID: 7, Seq: 1, OK: true, Exists: true, Value: []byte("v"), Leader: ids.NewID(1, 1), Slot: 9},
		wire.Heartbeat{Ballot: b, From: ids.NewID(1, 1), Commit: 42},
	}
}

func framedStream(msgs ...wire.Msg) []byte {
	var s []byte
	for i, m := range msgs {
		s = appendFrame(s, ids.NewID(1, i%5+1), m)
	}
	return s
}

// rawFrame frames an arbitrary body under an arbitrary length prefix.
func rawFrame(length uint32, body ...byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, length), body...)
}

// framingCases are streams that end in every way a stream can: cleanly,
// inside a header, inside a body, and on each kind of rejection, with good
// frames in front so that delivery up to the bad one is compared too.
func framingCases() map[string][]byte {
	good := framedStream(framingMsgs()...)
	p2b := wire.Encode(binary.LittleEndian.AppendUint32(nil, uint32(ids.NewID(1, 1))), wire.P2b{Slot: 1})
	with := func(tail []byte) []byte { return append(append([]byte(nil), good...), tail...) }
	return map[string][]byte{
		"clean":          good,
		"empty":          nil,
		"cut in header":  with(rawFrame(uint32(len(p2b)))[:2]),
		"cut in body":    with(rawFrame(uint32(len(p2b)), p2b[:7]...)),
		"cut at body":    with(rawFrame(uint32(len(p2b)))),
		"zero length":    with(rawFrame(0)),
		"short length":   with(rawFrame(3, 1, 2, 3)),
		"oversized":      with(rawFrame(maxFrameSize + 1)),
		"trailing bytes": with(append(rawFrame(uint32(len(p2b)+2), p2b...), 0, 0)),
		"unknown type":   with(rawFrame(5, 1, 0, 0, 0, 0xff)),
		"short message":  with(rawFrame(uint32(len(p2b)-1), p2b[:len(p2b)-1]...)),
		"sender only":    with(rawFrame(4, 1, 0, 0, 0)),
		"good after bad": with(append(rawFrame(0), good...)),
	}
}

func TestFramingMatchesReadFrame(t *testing.T) {
	cases := framingCases()
	good := cases["clean"]
	for name, stream := range cases {
		t.Run(name, func(t *testing.T) {
			checkFraming(t, stream, 1)           // one byte at a time
			checkFraming(t, stream, len(stream)) // all in one read
			checkFraming(t, stream, 7, 1, 64)
			// Chopped in two at every offset; where the good frames lead,
			// "clean" has covered the cuts inside them.
			cut := 0
			if name != "clean" && bytes.HasPrefix(stream, good) {
				cut = len(good) - frameHeader
			}
			for ; cut <= len(stream); cut++ {
				checkFraming(t, stream, cut, len(stream))
			}
		})
	}
}

func TestFramingManyFramesInOneRead(t *testing.T) {
	var msgs []wire.Msg
	for i := 0; i < 500; i++ {
		msgs = append(msgs, wire.P2b{Ballot: 7, From: ids.NewID(1, 2), Slot: uint64(i)})
	}
	stream := framedStream(msgs...)
	if len(stream) >= chunkSize {
		t.Fatalf("stream of %d bytes does not fit one read", len(stream))
	}
	checkFraming(t, stream, len(stream))
}

// TestFramingAcrossChunks: frames that straddle a chunk boundary, that
// exactly fill a chunk, and that are larger than a chunk — up to the largest
// frame the transport accepts — arrive intact however the reads fall.
func TestFramingAcrossChunks(t *testing.T) {
	filler := func(frame int) wire.Msg { // a SnapInstall whose frame is exactly that long
		m := wire.SnapInstall{Ballot: 1, Floor: 1}
		pad := frame - len(appendFrame(nil, 1, m))
		m.Data = bytes.Repeat([]byte{0x5a}, pad)
		return m
	}
	small := framingMsgs()
	streams := map[string][]byte{
		"straddle":       framedStream(filler(chunkSize-10), small[2], small[3], filler(chunkSize-3), small[1]),
		"exact fill":     framedStream(filler(chunkSize), small[1], filler(chunkSize/2), filler(chunkSize/2), small[0]),
		"over a chunk":   framedStream(small[0], filler(3*chunkSize+17), small[2]),
		"largest frame":  framedStream(small[1], filler(frameHeader+maxFrameSize), small[2]),
		"one too large":  framedStream(small[1], filler(frameHeader+maxFrameSize+1), small[2]),
		"header at edge": framedStream(filler(chunkSize-2), small[4], small[5]),
	}
	for name, stream := range streams {
		t.Run(name, func(t *testing.T) {
			checkFraming(t, stream, len(stream))
			checkFraming(t, stream, chunkSize-1, 1, 2)
			if len(stream) > 4*chunkSize {
				return // the 16 MiB streams: two passes are enough
			}
			checkFraming(t, stream, chunkSize)
			checkFraming(t, stream, 4093)
			for _, at := range []int{chunkSize - 11, chunkSize - 4, chunkSize - 1, chunkSize, chunkSize + 1} {
				checkFraming(t, stream, at, 1, 1, 1, 1, 1, 1, len(stream))
			}
		})
	}
}

// FuzzReadLoopFraming: for any byte stream and any way of cutting it into
// reads, the read loop delivers what ReadFrame delivers and stops where and
// why ReadFrame stops.
func FuzzReadLoopFraming(f *testing.F) {
	for _, stream := range framingCases() {
		f.Add(stream, uint16(1), uint16(0))
		f.Add(stream, uint16(len(stream)), uint16(3))
		f.Add(stream, uint16(9), uint16(250))
	}
	f.Fuzz(func(t *testing.T, stream []byte, a, b uint16) {
		// A length prefix may promise megabytes the input does not hold; both
		// readers would allocate them only to report "truncated", and the
		// fuzzer would spend its time zeroing memory. Large frames are
		// TestFramingAcrossChunks' business.
		for rest := stream; len(rest) >= frameHeader; {
			n := binary.LittleEndian.Uint32(rest)
			if n > 1<<20 && n <= maxFrameSize {
				t.Skip()
			}
			if n < 4 || int(n) > len(rest)-frameHeader {
				break
			}
			rest = rest[frameHeader+n:]
		}
		checkFraming(t, stream, int(a), int(b))
	})
}

// TestInboundOneAllocPerMessage pins the steady-state cost of the inbound
// path: per message the interface box, plus a read chunk and a command
// arena chunk every few hundred messages.
func TestInboundOneAllocPerMessage(t *testing.T) {
	const msgs = 20000
	one := appendFrame(nil, ids.NewID(1, 2), wire.P2b{Ballot: 7, From: ids.NewID(1, 2), Slot: 3})
	one = appendFrame(one, ids.NewID(1, 2), wire.P2a{Ballot: 7, Slot: 3, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: make([]byte, 8), ClientID: 1, Seq: 1}}})
	stream := bytes.Repeat(one, msgs/2)
	run := func(in *inbound, batch []envelope) []envelope {
		src := bytes.NewReader(stream)
		got := 0
		for got < msgs {
			var err error
			if batch, err = in.read(src, batch[:0]); err != nil {
				t.Fatal(err)
			}
			got += len(batch)
		}
		return batch
	}
	var in inbound
	batch := run(&in, nil) // warm up: grow the batch slice
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(&in, batch)
	runtime.ReadMemStats(&after)
	if per := float64(after.Mallocs-before.Mallocs) / msgs; per > 1.05 {
		t.Errorf("inbound path allocates %.3f per message, want <= 1 (the interface box) plus amortized chunks", per)
	}
}

// TestRetainedMessageSurvivesLaterTraffic: a handler may keep what it is
// handed. The first message's command batch and value are retained while
// 10 MiB more arrive on the same connection; they must read back unchanged
// (and, under -race, the reader must never have written where they live).
func TestRetainedMessageSurvivesLaterTraffic(t *testing.T) {
	type kept struct {
		cmds  []kvstore.Command
		value []byte
	}
	first := make(chan kept, 1)
	count := 0 // event loop only
	done := make(chan struct{})
	const later = 10 << 10 // frames of a little over 1 KiB
	rx, err := ListenTCP(ids.NewID(1, 2), "127.0.0.1:0", nil, handlerFunc(func(_ ids.ID, m wire.Msg) {
		if count++; count == 1 {
			p := m.(wire.P2a)
			first <- kept{cmds: p.Cmds, value: p.Cmds[0].Value}
		} else if count == 1+later {
			close(done)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer rx.Close()
	tx, err := ListenTCP(ids.NewID(1, 1), "127.0.0.1:0", map[ids.ID]string{rx.ID(): rx.Addr()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Close()

	want := []kvstore.Command{
		{Op: kvstore.Put, Key: 11, Value: []byte("keep me intact"), ClientID: 5, Seq: 1},
		{Op: kvstore.Put, Key: 12, Value: []byte("and me"), ClientID: 5, Seq: 2},
	}
	tx.Send(rx.ID(), wire.P2a{Ballot: 1, Slot: 1, Cmds: want})
	got := <-first
	noise := wire.P2a{Ballot: 1, Slot: 2, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 1, Value: bytes.Repeat([]byte{0xee}, 1024), ClientID: 6, Seq: 1}}}
	for i := 0; i < later; i++ {
		tx.Send(rx.ID(), noise)
		if i%256 == 255 { // stay under the outbox bound
			if !tx.Drain(5 * time.Second) {
				t.Fatal("sender did not drain")
			}
		}
	}
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("later traffic not delivered")
	}
	if !reflect.DeepEqual(got.cmds, want) || string(got.value) != "keep me intact" {
		t.Errorf("retained batch changed under later traffic:\n got %+v\nwant %+v", got.cmds, want)
	}
}
