package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

func sampleMsgs() []Msg {
	b := ids.NewBallot(3, ids.NewID(1, 2))
	id1, id2 := ids.NewID(1, 4), ids.NewID(2, 1)
	return []Msg{
		Request{Cmd: sampleCmd()},
		Reply{ClientID: 1, Seq: 2, OK: true, Exists: true, Value: []byte("v"), Leader: id1, Slot: 7},
		Busy{ClientID: 1, Seq: 3, Leader: id1, RetryAfter: 20 * time.Millisecond},
		P1a{Ballot: b, From: 42},
		P1b{Ballot: b, From: id1, Entries: []SlotEntry{{Slot: 5, Ballot: b, Committed: true, Cmds: sampleBatch(2)}}},
		P1b{Ballot: b, From: id1},
		P2a{Ballot: b, Slot: 11, Cmds: sampleBatch(5), Commit: 9},
		P2a{Ballot: b, Slot: 12, Commit: 9},
		P2b{Ballot: b, From: id2, Slot: 10},
		P3{Ballot: b, Slot: 5, Cmds: sampleBatch(3)},
		RelayP1a{P1a: P1a{Ballot: b}, Peers: []ids.ID{id1, id2}},
		AggP1b{Ballot: b, Relay: id1, Replies: []P1b{
			{Ballot: b, From: id2},
			{Ballot: b, From: id1, Entries: []SlotEntry{{Slot: 3, Ballot: b, Cmds: sampleBatch(1)}}},
		}},
		RelayP2a{P2a: P2a{Ballot: b, Slot: 1, Cmds: sampleBatch(4)}, Peers: []ids.ID{id2}, Timeout: 50 * time.Millisecond},
		AggP2b{Ballot: b, Relay: id1, Slot: 1, Acks: []ids.ID{id1, id2}, Partial: true},
		RelayP3{P3: P3{Ballot: b, Slot: 2, Cmds: []kvstore.Command{sampleCmd()}}, Peers: []ids.ID{id1}},
		PreAccept{Ballot: b, Inst: InstRef{Replica: id1, Slot: 3}, Cmd: sampleCmd(), Seq: 4, Deps: []InstRef{{Replica: id2, Slot: 1}}},
		PreAcceptReply{Inst: InstRef{Replica: id1, Slot: 3}, From: id2, OK: true, Ballot: b, Seq: 5, Deps: []InstRef{{Replica: id1, Slot: 2}}, Changed: true},
		Accept{Ballot: b, Inst: InstRef{Replica: id1, Slot: 3}, Cmd: sampleCmd(), Seq: 4},
		AcceptReply{Inst: InstRef{Replica: id1, Slot: 3}, From: id2, OK: false, Ballot: b},
		Commit{Inst: InstRef{Replica: id1, Slot: 3}, Cmd: sampleCmd(), Seq: 4, Deps: []InstRef{{Replica: id2, Slot: 9}}},
		Prepare{Ballot: b, Inst: InstRef{Replica: id1, Slot: 3}},
		PrepareReply{Inst: InstRef{Replica: id1, Slot: 3}, From: id2, OK: true, Ballot: b,
			Status: InstAccepted, VBallot: b, Cmd: sampleCmd(), Seq: 4, Deps: []InstRef{{Replica: id2, Slot: 9}}},
		PrepareReply{Inst: InstRef{Replica: id1, Slot: 4}, From: id2, OK: false, Ballot: b},
		QReadReq{Key: 8, RID: 99},
		QReadReply{Key: 8, RID: 99, From: id1, Version: 3, Exists: true, Value: []byte("x")},
		Heartbeat{Ballot: b, From: id1, Commit: 42},
		HeartbeatAck{Ballot: b, From: id2},
		CatchupReq{From: 3, To: 9},
		CatchupReply{Ballot: b, Entries: []SlotEntry{{Slot: 3, Ballot: 5, Cmds: sampleBatch(3)}}},
		SnapInstall{Ballot: b, Floor: 128, Data: []byte("snapshot blob")},
		Sharded{Shard: 0, Inner: Request{Cmd: sampleCmd()}},
		Sharded{Shard: 3, Inner: P2a{Ballot: b, Slot: 11, Cmds: sampleBatch(2), Commit: 9}},
		Sharded{Shard: 65535, Inner: AggP2b{Ballot: b, Relay: id1, Slot: 1, Acks: []ids.ID{id1, id2}}},
	}
}

// TestDecodeIntoMatchesDecode: the aliasing decoder must produce the same
// message as the copying decoder, for every type, with one Scratch serving
// the whole stream as it does on a connection.
func TestDecodeIntoMatchesDecode(t *testing.T) {
	var s Scratch
	for _, m := range sampleMsgs() {
		enc := Encode(nil, m)
		want, wn, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: Decode: %v", m.Type(), err)
		}
		got, gn, err := DecodeInto(&s, enc)
		if err != nil {
			t.Fatalf("%v: DecodeInto: %v", m.Type(), err)
		}
		if gn != wn {
			t.Errorf("%v: DecodeInto consumed %d, Decode consumed %d", m.Type(), gn, wn)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%v mismatch:\n got %+v\nwant %+v", m.Type(), got, want)
		}
	}
}

// TestDecodeIntoOwnership pins who owns what. Every message decoded from a
// long stream through one Scratch stays intact while thousands more follow
// (chunks are replaced, never rewritten); byte strings alias the input where
// Decode copies; and an alias is capped, so appending to it cannot reach the
// next field of the input.
func TestDecodeIntoOwnership(t *testing.T) {
	b := ids.NewBallot(2, ids.NewID(1, 1))
	kinds := []Msg{
		P3{Ballot: b, Slot: 1, Cmds: sampleBatch(3)},
		AggP2b{Ballot: b, Relay: ids.NewID(1, 2), Slot: 1, Acks: []ids.ID{ids.NewID(1, 3), ids.NewID(1, 4)}},
		CatchupReply{Ballot: b, Entries: []SlotEntry{
			{Slot: 1, Ballot: b, Committed: true, Cmds: sampleBatch(2)},
			{Slot: 2, Ballot: b, Cmds: sampleBatch(1)},
		}},
		AggP1b{Ballot: b, Relay: ids.NewID(1, 2), Replies: []P1b{{Ballot: b, From: ids.NewID(1, 3), Entries: []SlotEntry{{Slot: 4, Ballot: b, Cmds: sampleBatch(2)}}}}},
		Commit{Inst: InstRef{Replica: ids.NewID(1, 1), Slot: 3}, Cmd: sampleCmd(), Seq: 4, Deps: []InstRef{{Replica: ids.NewID(1, 2), Slot: 9}}},
	}
	const rounds = 3 * arenaChunk // every arena rolls over several times
	var want []Msg
	var buf []byte
	for i := 0; i < rounds; i++ {
		m := kinds[i%len(kinds)]
		want = append(want, m)
		buf = Encode(buf, m)
	}
	var s Scratch
	var got []Msg
	for rest := buf; len(rest) > 0; {
		m, n, err := DecodeInto(&s, rest)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, m)
		rest = rest[n:]
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("stream[%d] no longer intact:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	enc := Encode(nil, Reply{ClientID: 1, Seq: 2, OK: true, Value: []byte("abcd"), Leader: ids.NewID(1, 1), Slot: 7})
	aliased, _, _ := DecodeInto(&s, enc)
	copied, _, _ := Decode(enc)
	at := bytes.Index(enc, []byte("abcd"))
	enc[at] = 'X'
	if v := aliased.(Reply).Value; string(v) != "Xbcd" {
		t.Errorf("DecodeInto value %q does not alias its input", v)
	}
	if v := copied.(Reply).Value; string(v) != "abcd" {
		t.Errorf("Decode value %q aliases its input", v)
	}
	after := append([]byte(nil), enc[at+4:]...)
	_ = append(aliased.(Reply).Value, "overrun"...)
	if !bytes.Equal(enc[at+4:], after) {
		t.Error("appending to an aliased value wrote into the input behind it")
	}
}

func hotMsgs() []Msg {
	b := ids.NewBallot(7, ids.NewID(1, 1))
	return []Msg{
		P2a{Ballot: b, Slot: 123, Cmds: sampleBatch(16), Commit: 120},
		P2b{Ballot: b, From: ids.NewID(1, 3), Slot: 123},
		P3{Ballot: b, Slot: 123, Cmds: sampleBatch(16)},
		AggP2b{Ballot: b, Relay: ids.NewID(1, 2), Slot: 123, Acks: []ids.ID{ids.NewID(1, 2), ids.NewID(1, 3), ids.NewID(1, 4)}, Partial: false},
		Prepare{Ballot: b, Inst: InstRef{Replica: ids.NewID(1, 2), Slot: 77}},
		PrepareReply{Inst: InstRef{Replica: ids.NewID(1, 2), Slot: 77}, From: ids.NewID(1, 3),
			OK: true, Ballot: b, Status: InstPreAccepted, VBallot: b, Cmd: sampleCmd(), Seq: 9,
			Deps: []InstRef{{Replica: ids.NewID(1, 4), Slot: 5}, {Replica: ids.NewID(1, 5), Slot: 2}}},
		Sharded{Shard: 5, Inner: P2a{Ballot: b, Slot: 124, Cmds: sampleBatch(16), Commit: 121}},
		Sharded{Shard: 5, Inner: P2b{Ballot: b, From: ids.NewID(1, 4), Slot: 124}},
		Busy{ClientID: 9, Seq: 4, Leader: ids.NewID(1, 1), RetryAfter: 5 * time.Millisecond},
	}
}

// TestHotPathZeroAllocs is the acceptance gate for the pooled codec:
// steady-state encoding of the hot-path messages must not allocate.
func TestHotPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not pool under -race; allocation counts are meaningless")
	}
	msgs := hotMsgs()
	buf := GetBuf()
	defer PutBuf(buf)
	encode := func() {
		for _, m := range msgs {
			*buf = Encode((*buf)[:0], m)
		}
	}
	encode() // warm up: grow the buffer to steady state
	if allocs := testing.AllocsPerRun(200, encode); allocs != 0 {
		t.Errorf("steady-state hot-path encode allocates %.2f allocs/op, want 0", allocs)
	}
}

// TestDecodeIntoOneAllocPerMessage pins the inbound half: decoding with
// ownership allocates the interface box of each message (two under a Sharded
// envelope, which boxes its inner message as well) and nothing else but a
// fresh arena chunk every arenaChunk elements.
func TestDecodeIntoOneAllocPerMessage(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool does not pool under -race; allocation counts are meaningless")
	}
	var encs [][]byte
	boxes := 0
	for _, m := range hotMsgs() {
		encs = append(encs, Encode(nil, m))
		boxes++
		if m.Type() == TSharded {
			boxes++
		}
	}
	var s Scratch
	decode := func() {
		for _, enc := range encs {
			if _, _, err := DecodeInto(&s, enc); err != nil {
				t.Fatal(err)
			}
		}
	}
	decode()
	const runs = 400
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		decode()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.Mallocs-before.Mallocs) / runs
	// 48 commands and 5 IDs/refs a run: a command chunk every ~10 runs.
	if limit := float64(boxes) + 0.25; perRun > limit {
		t.Errorf("DecodeInto allocates %.2f per %d messages, want <= %.1f", perRun, len(encs), limit)
	}
}

// TestCountClampPanics: entry counts beyond uint16 must panic loudly
// instead of truncating silently into a corrupt frame.
func TestCountClampPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic on oversized count", name)
			}
		}()
		fn()
	}
	bigIDs := make([]ids.ID, 70000)
	mustPanic("putIDs", func() { Encode(nil, AggP2b{Acks: bigIDs}) })
	bigRefs := make([]InstRef, 70000)
	mustPanic("putInstRefs", func() { Encode(nil, Commit{Deps: bigRefs}) })
	bigEntries := make([]SlotEntry, 70000)
	mustPanic("P1b entries", func() { Encode(nil, P1b{Entries: bigEntries}) })
	mustPanic("CatchupReply entries", func() { Encode(nil, CatchupReply{Entries: bigEntries}) })
	bigReplies := make([]P1b, 70000)
	mustPanic("AggP1b replies", func() { Encode(nil, AggP1b{Replies: bigReplies}) })
	bigCmds := make([]kvstore.Command, 70000)
	mustPanic("putCmds", func() { Encode(nil, P2a{Cmds: bigCmds}) })
}

func TestTypeStringNoAlloc(t *testing.T) {
	if allocs := testing.AllocsPerRun(100, func() { _ = TP2a.String() }); allocs != 0 {
		t.Errorf("Type.String allocates %.2f allocs/op, want 0", allocs)
	}
}

func BenchmarkDecodeIntoP2a(b *testing.B) {
	m := P2a{Ballot: 77, Slot: 123, Cmds: []kvstore.Command{{Op: kvstore.Put, Key: 42, Value: make([]byte, 128)}}}
	enc := Encode(nil, m)
	var s Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeInto(&s, enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeIntoP2aBatch16(b *testing.B) {
	m := P2a{Ballot: 77, Slot: 123, Cmds: sampleBatch(16)}
	enc := Encode(nil, m)
	var s Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, err := DecodeInto(&s, enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRoundTripPooled is the codec-level hot path end to end: encode
// into pooled scratch, decode with ownership. The message is
// pre-boxed as Msg, as it is everywhere in the protocols, so the bench
// measures the codec rather than call-site interface conversion.
func BenchmarkRoundTripPooled(b *testing.B) {
	var m Msg = P2a{Ballot: 77, Slot: 123, Cmds: sampleBatch(16), Commit: 120}
	var s Scratch
	buf := GetBuf()
	defer PutBuf(buf)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		*buf = Encode((*buf)[:0], m)
		if _, _, err := DecodeInto(&s, *buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSizeHot times Size over hotMsgs: netsim charges every simulated
// send by it, so it runs once per message on the simulator's hot path.
func BenchmarkSizeHot(b *testing.B) {
	msgs := hotMsgs()
	b.ReportAllocs()
	n := 0
	for i := 0; i < b.N; i++ {
		for _, m := range msgs {
			n += m.Size()
		}
	}
	if n == 0 {
		b.Fatal("no bytes sized")
	}
}

// TestP2aAppendMatchesCoder pins P2a's hand-written append to its code walk,
// the one reference layout: on random messages both must give the same bytes.
func TestP2aAppendMatchesCoder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	value := func() []byte {
		switch rng.Intn(3) {
		case 0:
			return nil
		case 1:
			return []byte{}
		}
		v := make([]byte, rng.Intn(300))
		rng.Read(v)
		return v
	}
	batch := func() []kvstore.Command {
		if rng.Intn(4) == 0 {
			return nil
		}
		v := make([]kvstore.Command, rng.Intn(20))
		for i := range v {
			v[i] = kvstore.Command{Op: kvstore.Op(rng.Intn(3)), Key: rng.Uint64(), Value: value(), ClientID: rng.Uint64(), Seq: rng.Uint64()}
		}
		return v
	}
	for i := 0; i < 2000; i++ {
		m := P2a{Ballot: ids.Ballot(rng.Uint64()), Slot: rng.Uint64(), Cmds: batch(), Commit: rng.Uint64()}
		enc := encoder(nil)
		m.code(&enc)
		if got := m.append(nil); !bytes.Equal(got, enc.b) {
			t.Fatalf("append gives\n %x\nthe code walk\n %x", got, enc.b)
		}
	}
}
