package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

func roundTrip(t *testing.T, m Msg) Msg {
	t.Helper()
	enc := Encode(nil, m)
	if len(enc) != m.Size()+1 {
		t.Errorf("%v: Size()=%d but encoded body=%d", m.Type(), m.Size(), len(enc)-1)
	}
	got, n, err := Decode(enc)
	if err != nil {
		t.Fatalf("%v: decode: %v", m.Type(), err)
	}
	if n != len(enc) {
		t.Errorf("%v: consumed %d of %d bytes", m.Type(), n, len(enc))
	}
	return got
}

func checkEqual(t *testing.T, m Msg) {
	t.Helper()
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got, m) {
		t.Errorf("%v round-trip mismatch:\n got %+v\nwant %+v", m.Type(), got, m)
	}
}

func sampleCmd() kvstore.Command {
	return kvstore.Command{Op: kvstore.Put, Key: 77, Value: []byte("abc"), ClientID: 5, Seq: 9}
}

func sampleBatch(n int) []kvstore.Command {
	out := make([]kvstore.Command, n)
	for i := range out {
		out[i] = kvstore.Command{Op: kvstore.Put, Key: uint64(i), Value: []byte{byte(i)}, ClientID: 5, Seq: uint64(i + 1)}
	}
	return out
}

func TestRoundTripAllTypes(t *testing.T) {
	b := ids.NewBallot(3, ids.NewID(1, 2))
	id1, id2 := ids.NewID(1, 4), ids.NewID(2, 1)
	msgs := []Msg{
		Request{Cmd: sampleCmd()},
		Reply{ClientID: 1, Seq: 2, OK: true, Exists: true, Value: []byte("v"), Leader: id1, Slot: 7},
		Reply{ClientID: 1, Seq: 2}, // zero-variant
		P1a{Ballot: b},
		P1a{Ballot: b, From: 42},
		P1b{Ballot: b, From: id1, Entries: []SlotEntry{{Slot: 3, Ballot: b, Cmds: []kvstore.Command{sampleCmd()}}}},
		P1b{Ballot: b, From: id1, Entries: []SlotEntry{{Slot: 5, Ballot: b, Committed: true, Cmds: sampleBatch(2)}}},
		P1b{Ballot: b, From: id1},
		P2a{Ballot: b, Slot: 10, Cmds: []kvstore.Command{sampleCmd()}, Commit: 9},
		P2a{Ballot: b, Slot: 11, Cmds: sampleBatch(5), Commit: 9},
		P2a{Ballot: b, Slot: 12, Commit: 9}, // no-op filler slot
		P2b{Ballot: b, From: id2, Slot: 10},
		P3{Ballot: b, Slot: 4, Cmds: []kvstore.Command{sampleCmd()}},
		P3{Ballot: b, Slot: 5, Cmds: sampleBatch(3)},
		RelayP1a{P1a: P1a{Ballot: b}, Peers: []ids.ID{id1, id2}},
		AggP1b{Ballot: b, Relay: id1, Replies: []P1b{{Ballot: b, From: id2}}},
		RelayP2a{P2a: P2a{Ballot: b, Slot: 1, Cmds: sampleBatch(4)}, Peers: []ids.ID{id2}, Timeout: 50 * time.Millisecond},
		AggP2b{Ballot: b, Relay: id1, Slot: 1, Acks: []ids.ID{id1, id2}, Partial: true},
		RelayP3{P3: P3{Ballot: b, Slot: 2, Cmds: []kvstore.Command{sampleCmd()}}, Peers: []ids.ID{id1}},
		PreAccept{Ballot: b, Inst: InstRef{Replica: id1, Slot: 3}, Cmd: sampleCmd(), Seq: 4, Deps: []InstRef{{Replica: id2, Slot: 1}}},
		PreAcceptReply{Inst: InstRef{Replica: id1, Slot: 3}, From: id2, OK: true, Ballot: b, Seq: 5, Deps: []InstRef{{Replica: id1, Slot: 2}}, Changed: true},
		Accept{Ballot: b, Inst: InstRef{Replica: id1, Slot: 3}, Cmd: sampleCmd(), Seq: 4, Deps: nil},
		AcceptReply{Inst: InstRef{Replica: id1, Slot: 3}, From: id2, OK: false, Ballot: b},
		Commit{Inst: InstRef{Replica: id1, Slot: 3}, Cmd: sampleCmd(), Seq: 4, Deps: []InstRef{{Replica: id2, Slot: 9}}},
		QReadReq{Key: 8, RID: 99},
		QReadReply{Key: 8, RID: 99, From: id1, Version: 3, Exists: true, Value: []byte("x")},
		Heartbeat{Ballot: b, From: id1, Commit: 42},
		HeartbeatAck{Ballot: b, From: id2},
	}
	for _, m := range msgs {
		checkEqual(t, m)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode(nil); err == nil {
		t.Error("empty buffer must error")
	}
	if _, _, err := Decode([]byte{0xff}); err == nil {
		t.Error("unknown type must error")
	}
	if _, _, err := Decode([]byte{byte(TP2a), 1, 2}); err == nil {
		t.Error("truncated body must error")
	}
}

func TestDecodeTruncationNeverPanics(t *testing.T) {
	// Every prefix of every valid encoding must decode cleanly or error.
	full := Encode(nil, P1b{
		Ballot: ids.NewBallot(1, ids.NewID(1, 1)), From: ids.NewID(1, 2),
		Entries: []SlotEntry{{Slot: 1, Ballot: 2, Cmds: sampleBatch(2)}},
	})
	for i := 1; i < len(full); i++ {
		_, _, err := Decode(full[:i])
		if err == nil {
			t.Errorf("prefix of %d/%d bytes decoded without error", i, len(full))
		}
	}
}

func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		n := rng.Intn(64)
		buf := make([]byte, n)
		rng.Read(buf)
		Decode(buf) // must not panic; errors are fine
	}
}

func TestTypeString(t *testing.T) {
	if TP2a.String() != "P2a" {
		t.Errorf("TP2a.String() = %q", TP2a.String())
	}
	if Type(200).String() != "Type(200)" {
		t.Errorf("unknown type string: %q", Type(200).String())
	}
}

func TestEncodeAppends(t *testing.T) {
	prefix := []byte{9, 9, 9}
	out := Encode(prefix, P1a{Ballot: 5})
	if len(out) != 3+1+8+8 || out[0] != 9 {
		t.Error("Encode must append to dst")
	}
}

// Property: P2a with a random command batch round-trips and Size matches.
func TestP2aProperty(t *testing.T) {
	f := func(bn uint16, slot, key, cl, seq uint64, commit uint64, val []byte, op uint8, extra uint8) bool {
		batch := []kvstore.Command{{Op: kvstore.Op(op % 3), Key: key, Value: val, ClientID: cl, Seq: seq}}
		for i := 0; i < int(extra%8); i++ {
			batch = append(batch, kvstore.Command{Op: kvstore.Put, Key: uint64(i), ClientID: cl, Seq: seq + uint64(i) + 1})
		}
		m := P2a{
			Ballot: ids.NewBallot(int(bn), ids.NewID(1, 1)),
			Slot:   slot,
			Cmds:   batch,
			Commit: commit,
		}
		enc := Encode(nil, m)
		if len(enc) != m.Size()+1 {
			return false
		}
		got, _, err := Decode(enc)
		if err != nil {
			return false
		}
		g := got.(P2a)
		if len(m.Cmds[0].Value) == 0 {
			m.Cmds[0].Value = nil // decoder normalizes empty to nil
		}
		return reflect.DeepEqual(g, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: AggP2b with random ack lists round-trips.
func TestAggP2bProperty(t *testing.T) {
	f := func(slot uint64, nodes []uint8, partial bool) bool {
		if len(nodes) > 100 {
			nodes = nodes[:100]
		}
		acks := make([]ids.ID, 0, len(nodes))
		for _, n := range nodes {
			acks = append(acks, ids.NewID(1, int(n)+1))
		}
		if len(acks) == 0 {
			acks = nil
		}
		m := AggP2b{Ballot: 7, Relay: ids.NewID(1, 1), Slot: slot, Acks: acks, Partial: partial}
		enc := Encode(nil, m)
		if len(enc) != m.Size()+1 {
			return false
		}
		got, _, err := Decode(enc)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: streams of concatenated messages decode one-by-one.
func TestStreamDecodeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var all []Msg
		var buf []byte
		for i := 0; i < 10; i++ {
			var m Msg
			switch rng.Intn(4) {
			case 0:
				m = P1a{Ballot: ids.Ballot(rng.Uint64())}
			case 1:
				m = P2b{Ballot: ids.Ballot(rng.Uint64()), From: ids.NewID(1, 1+rng.Intn(9)), Slot: rng.Uint64()}
			case 2:
				m = Heartbeat{Ballot: 1, From: ids.NewID(1, 1), Commit: rng.Uint64()}
			default:
				m = QReadReq{Key: rng.Uint64(), RID: rng.Uint64()}
			}
			all = append(all, m)
			buf = Encode(buf, m)
		}
		for _, want := range all {
			got, n, err := Decode(buf)
			if err != nil || !reflect.DeepEqual(got, want) {
				return false
			}
			buf = buf[n:]
		}
		return len(buf) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEncodeP2a(b *testing.B) {
	// Pre-boxed as Msg (as protocols hold messages) so the bench measures
	// encoding, not call-site interface conversion.
	var m Msg = P2a{Ballot: 77, Slot: 123, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 42, Value: make([]byte, 128)}}}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func BenchmarkDecodeP2a(b *testing.B) {
	m := P2a{Ballot: 77, Slot: 123, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 42, Value: make([]byte, 128)}}}
	enc := Encode(nil, m)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeP2aBatch16(b *testing.B) {
	var m Msg = P2a{Ballot: 77, Slot: 123, Cmds: sampleBatch(16)}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], m)
	}
}

func TestCatchupRoundTrip(t *testing.T) {
	checkEqual(t, CatchupReq{From: 3, To: 9})
	checkEqual(t, CatchupReply{
		Ballot: ids.NewBallot(2, ids.NewID(1, 1)),
		Entries: []SlotEntry{
			{Slot: 3, Ballot: 5, Cmds: []kvstore.Command{sampleCmd()}},
			{Slot: 4, Ballot: 5, Cmds: sampleBatch(3)},
		},
	})
	checkEqual(t, CatchupReply{Ballot: 1})
}
