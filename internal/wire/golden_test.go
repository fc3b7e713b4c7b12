package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pigpaxos/internal/ids"
	"pigpaxos/internal/kvstore"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_hex.txt from the current codec")

const goldenPath = "testdata/golden_hex.txt"

type goldenEntry struct {
	name string
	m    Msg
}

// goldenMsgs is the pinned corpus: every message type with its lists full,
// nil and empty (a non-nil list of length 0 encodes as nil and decodes as
// nil), byte strings nil, empty and set, every type once more inside a
// Sharded envelope, and the four record shapes the WAL journals.
func goldenMsgs() []goldenEntry {
	b := ids.NewBallot(3, ids.NewID(1, 2))
	id1, id2 := ids.NewID(1, 4), ids.NewID(2, 1)
	ref1, ref2 := InstRef{Replica: id1, Slot: 3}, InstRef{Replica: id2, Slot: 1<<40 + 9}
	cmd := kvstore.Command{Op: kvstore.Put, Key: 77, Value: []byte("abc"), ClientID: 5, Seq: 9}
	get := kvstore.Command{Op: kvstore.Get, Key: 1<<63 + 1, ClientID: 6, Seq: 1}
	emptyVal := kvstore.Command{Op: kvstore.Put, Key: 2, Value: []byte{}, ClientID: 7, Seq: 3}
	cmds := []kvstore.Command{cmd, get, emptyVal}
	entry := SlotEntry{Slot: 5, Ballot: b, Committed: true, Cmds: cmds}
	p1b := P1b{Ballot: b, From: id1, Floor: 4, Entries: []SlotEntry{entry, {Slot: 6, Ballot: b - 1}}}

	base := []goldenEntry{
		{"Request", Request{Cmd: cmd}},
		{"Request/get", Request{Cmd: get}},
		{"Request/empty-value", Request{Cmd: emptyVal}},
		{"Reply", Reply{ClientID: 1, Seq: 2, OK: true, Exists: true, Value: []byte("v"), Leader: id1, Slot: 7}},
		{"Reply/empty-value", Reply{ClientID: 1, Seq: 2, OK: true, Value: []byte{}}},
		{"Busy", Busy{ClientID: 1, Seq: 3, Leader: id1, RetryAfter: 20 * time.Millisecond}},
		{"P1a", P1a{Ballot: b, From: 42}},
		{"P1b", p1b},
		{"P1b/empty-entries", P1b{Ballot: b, From: id1, Entries: []SlotEntry{}}},
		{"P1b/empty-batch", P1b{Ballot: b, From: id1, Entries: []SlotEntry{{Slot: 1, Cmds: []kvstore.Command{}}}}},
		{"P2a", P2a{Ballot: b, Slot: 11, Cmds: cmds, Commit: 9}},
		{"P2a/empty-batch", P2a{Ballot: b, Slot: 12, Cmds: []kvstore.Command{}, Commit: 9}},
		{"P2b", P2b{Ballot: b, From: id2, Slot: 10}},
		{"P3", P3{Ballot: b, Slot: 5, Cmds: cmds}},
		{"P3/empty-batch", P3{Ballot: b, Slot: 5, Cmds: []kvstore.Command{}}},
		{"RelayP1a", RelayP1a{P1a: P1a{Ballot: b, From: 8}, Peers: []ids.ID{id1, id2}}},
		{"RelayP1a/empty-peers", RelayP1a{P1a: P1a{Ballot: b}, Peers: []ids.ID{}}},
		{"AggP1b", AggP1b{Ballot: b, Relay: id1, Replies: []P1b{p1b, {Ballot: b, From: id2}}}},
		{"AggP1b/empty-replies", AggP1b{Ballot: b, Relay: id1, Replies: []P1b{}}},
		{"RelayP2a", RelayP2a{P2a: P2a{Ballot: b, Slot: 1, Cmds: cmds, Commit: 1}, Peers: []ids.ID{id2}, Timeout: 50 * time.Millisecond}},
		{"RelayP2a/empty-lists", RelayP2a{P2a: P2a{Ballot: b, Cmds: []kvstore.Command{}}, Peers: []ids.ID{}}},
		{"AggP2b", AggP2b{Ballot: b, Relay: id1, Slot: 1, Acks: []ids.ID{id1, id2}, Partial: true}},
		{"AggP2b/empty-acks", AggP2b{Ballot: b, Relay: id1, Slot: 1, Acks: []ids.ID{}}},
		{"RelayP3", RelayP3{P3: P3{Ballot: b, Slot: 2, Cmds: cmds}, Peers: []ids.ID{id1}}},
		{"RelayP3/empty-lists", RelayP3{P3: P3{Ballot: b, Cmds: []kvstore.Command{}}, Peers: []ids.ID{}}},
		{"PreAccept", PreAccept{Ballot: b, Inst: ref1, Cmd: cmd, Seq: 4, Deps: []InstRef{ref2, ref1}}},
		{"PreAccept/empty-deps", PreAccept{Ballot: b, Inst: ref1, Cmd: emptyVal, Deps: []InstRef{}}},
		{"PreAcceptReply", PreAcceptReply{Inst: ref1, From: id2, OK: true, Ballot: b, Seq: 5, Deps: []InstRef{ref2}, Changed: true}},
		{"Accept", Accept{Ballot: b, Inst: ref1, Cmd: cmd, Seq: 4, Deps: []InstRef{ref2}}},
		{"AcceptReply", AcceptReply{Inst: ref1, From: id2, OK: true, Ballot: b}},
		{"Commit", Commit{Inst: ref1, Cmd: cmd, Seq: 4, Deps: []InstRef{ref2}}},
		{"Commit/empty-deps", Commit{Inst: ref1, Cmd: cmd, Deps: []InstRef{}}},
		{"QReadReq", QReadReq{Key: 8, RID: 99}},
		{"QReadReply", QReadReply{Key: 8, RID: 99, From: id1, Version: 3, Exists: true, Value: []byte("x")}},
		{"QReadReply/empty-value", QReadReply{Key: 8, RID: 99, From: id1, Value: []byte{}}},
		{"Heartbeat", Heartbeat{Ballot: b, From: id1, Commit: 42}},
		{"CatchupReq", CatchupReq{From: 3, To: 9}},
		{"CatchupReply", CatchupReply{Ballot: b, Entries: []SlotEntry{entry, {Slot: 6, Ballot: 5}}}},
		{"CatchupReply/empty-entries", CatchupReply{Ballot: b, Entries: []SlotEntry{}}},
		{"HeartbeatAck", HeartbeatAck{Ballot: b, From: id2}},
		{"Prepare", Prepare{Ballot: b, Inst: ref2}},
		{"PrepareReply", PrepareReply{Inst: ref1, From: id2, OK: true, Ballot: b, Status: InstAccepted, VBallot: b - 1, Cmd: cmd, Seq: 4, Deps: []InstRef{ref2}}},
		{"SnapInstall", SnapInstall{Ballot: b, Floor: 128, Data: []byte("snapshot blob")}},
		{"SnapInstall/empty-data", SnapInstall{Ballot: b, Floor: 128, Data: []byte{}}},
		{"Sharded", Sharded{Shard: 65535, Inner: P2b{Ballot: b, From: id2, Slot: 10}}},
		// The WAL's four record payloads (internal/wal: promise, accept,
		// commit, commit-by-reference).
		{"WAL/promise", P1a{Ballot: b}},
		{"WAL/accept", P2a{Ballot: b, Slot: 11, Cmds: cmds}},
		{"WAL/commit", P3{Ballot: b, Slot: 11, Cmds: cmds}},
		{"WAL/commit-ref", P2b{Ballot: b, Slot: 11}},
	}
	out := base
	for t := TRequest; t < maxType; t++ {
		if t == TSharded {
			continue
		}
		out = append(out, goldenEntry{"zero/" + t.String(), zeroMsg(t)})
	}
	seen := map[Type]bool{}
	for _, e := range base {
		if t := e.m.Type(); t != TSharded && !seen[t] {
			seen[t] = true
			out = append(out, goldenEntry{"Sharded/" + e.name, Sharded{Shard: uint16(t), Inner: e.m}})
		}
	}
	return out
}

// zeroMsg is the zero value of type t: every list nil, every string empty.
func zeroMsg(t Type) Msg {
	for _, m := range []Msg{
		Request{}, Reply{}, Busy{}, P1a{}, P1b{}, P2a{}, P2b{}, P3{},
		RelayP1a{}, AggP1b{}, RelayP2a{}, AggP2b{}, RelayP3{},
		PreAccept{}, PreAcceptReply{}, Accept{}, AcceptReply{}, Commit{},
		QReadReq{}, QReadReply{}, Heartbeat{}, CatchupReq{}, CatchupReply{},
		HeartbeatAck{}, Prepare{}, PrepareReply{}, SnapInstall{},
	} {
		if m.Type() == t {
			return m
		}
	}
	panic(fmt.Sprintf("no zero message for %v", t))
}

// goldenLine renders one corpus entry: name, Size, the Encode bytes in hex,
// and the message Decode gives back in Go syntax (which tells a nil list
// from an empty one).
func goldenLine(t *testing.T, e goldenEntry) string {
	t.Helper()
	enc := Encode(nil, e.m)
	got, n, err := Decode(enc)
	if err != nil || n != len(enc) {
		t.Fatalf("%s: Decode consumed %d of %d bytes: %v", e.name, n, len(enc), err)
	}
	return fmt.Sprintf("%s %d %x %#v", e.name, e.m.Size(), enc, got)
}

// TestGoldenCorpus pins the wire format: each corpus message must encode to
// the recorded bytes, report Size()+1 == len, and come back from both Decode
// and DecodeInto as the recorded message. Run with -update to rewrite the
// file after an intended format change.
func TestGoldenCorpus(t *testing.T) {
	entries := goldenMsgs()
	if *update {
		var out bytes.Buffer
		for _, e := range entries {
			out.WriteString(goldenLine(t, e) + "\n")
		}
		if err := os.WriteFile(goldenPath, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want := readGolden(t)
	if len(want) != len(entries) {
		t.Fatalf("%s has %d entries, corpus has %d (run with -update after an intended change)", goldenPath, len(want), len(entries))
	}
	seen := map[Type]bool{}
	var s Scratch
	for i, e := range entries {
		seen[e.m.Type()] = true
		if got := goldenLine(t, e); got != want[i] {
			t.Errorf("entry %d changed:\n got %s\nwant %s", i, got, want[i])
			continue
		}
		enc := Encode(nil, e.m)
		if len(enc) != e.m.Size()+1 {
			t.Errorf("%s: Size()=%d but encoded body=%d", e.name, e.m.Size(), len(enc)-1)
		}
		canon := nilEmpty(e.m)
		copied, _, _ := Decode(enc)
		if !reflect.DeepEqual(copied, canon) {
			t.Errorf("%s: Decode gave %#v, want %#v", e.name, copied, canon)
		}
		aliased, n, err := DecodeInto(&s, enc)
		if err != nil || n != len(enc) || !reflect.DeepEqual(aliased, canon) {
			t.Errorf("%s: DecodeInto gave %#v (%d bytes, %v), want %#v", e.name, aliased, n, err, canon)
		}
	}
	for ty := TRequest; ty < maxType; ty++ {
		if !seen[ty] {
			t.Errorf("corpus has no %v", ty)
		}
	}
}

// readGolden returns the corpus lines of testdata/golden_hex.txt.
func readGolden(t testing.TB) []string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// goldenEncodings returns the recorded Encode bytes of every corpus entry.
func goldenEncodings(t testing.TB) [][]byte {
	var out [][]byte
	for _, line := range readGolden(t) {
		f := strings.SplitN(line, " ", 4)
		if len(f) != 4 {
			t.Fatalf("malformed corpus line %q", line)
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			t.Fatalf("malformed size in %q", line)
		}
		enc, err := hex.DecodeString(f[2])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, enc)
	}
	return out
}

// nilEmpty returns m as the decoders produce it: every empty slice nil.
func nilEmpty(m Msg) Msg {
	v := reflect.New(reflect.TypeOf(m)).Elem()
	v.Set(reflect.ValueOf(m))
	canonical(v)
	return v.Interface().(Msg)
}

func canonical(v reflect.Value) {
	switch v.Kind() {
	case reflect.Slice:
		if v.Len() == 0 {
			v.Set(reflect.Zero(v.Type()))
			return
		}
		if v.Type().Elem().Kind() == reflect.Uint8 {
			return
		}
		c := reflect.MakeSlice(v.Type(), v.Len(), v.Len())
		reflect.Copy(c, v)
		for i := 0; i < c.Len(); i++ {
			canonical(c.Index(i))
		}
		v.Set(c)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			canonical(v.Field(i))
		}
	case reflect.Interface:
		if !v.IsNil() {
			v.Set(reflect.ValueOf(nilEmpty(v.Elem().Interface().(Msg))))
		}
	}
}
