package sessions

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"pigpaxos/internal/wire"
)

// reply is the reply a replica would cache for seq: a function of the
// command, so two tables that executed the same commands cache the same.
func reply(client, seq uint64) wire.Reply {
	return wire.Reply{ClientID: client, Seq: seq, OK: true, Value: []byte(fmt.Sprint(seq)), Slot: seq}
}

// execute is what a replica does at the point of apply.
func execute(t *Table, client, seq uint64) bool {
	cached, fresh := t.Execute(client, seq)
	if fresh && cached != nil {
		*cached = reply(client, seq)
	}
	return fresh
}

// TestVerdicts walks one client through every verdict.
func TestVerdicts(t *testing.T) {
	tb := New()
	admit := func(seq uint64, want Verdict, wantReply bool) {
		t.Helper()
		v, cached := tb.Admit(7, seq)
		if v != want || (cached != nil) != wantReply {
			t.Fatalf("Admit(7, %d) = %v, reply %v; want %v, reply %v", seq, v, cached != nil, want, wantReply)
		}
		if wantReply && cached.Seq != seq {
			t.Fatalf("Admit(7, %d) answered with the reply of %d", seq, cached.Seq)
		}
	}
	admit(1, Fresh, false) // an unknown client
	tb.MarkAdmitted(7, 1)
	tb.MarkAdmitted(7, 2)
	tb.MarkAdmitted(7, 2)
	admit(1, Pending, false)
	admit(2, Pending, false)
	// Seq 2 executes first: the leader shed 1 and a retry brings it later.
	if !execute(tb, 7, 2) {
		t.Fatal("seq 2 is fresh")
	}
	admit(1, Pending, false)
	admit(2, Executed, true)
	if !execute(tb, 7, 1) {
		t.Fatal("seq 1, executed after 2, is fresh")
	}
	admit(1, Executed, false) // executed, but only the newest's reply is kept
	if execute(tb, 7, 1) || execute(tb, 7, 2) {
		t.Fatal("a seq executed twice must be skipped the second time")
	}
	admit(3, Fresh, false)

	// Executing 2+Window retires 2 and everything below it.
	if !execute(tb, 7, 2+Window) {
		t.Fatal("seq 2+Window is fresh")
	}
	admit(1, Stale, false)
	admit(2, Stale, false)
	admit(3, Fresh, false)
	admit(2+Window, Executed, true)
	// Below the window nothing is known: every replica applies it.
	if !execute(tb, 7, 2) {
		t.Fatal("a seq below the window is reported fresh")
	}
	// A jump retires what it passes over: after 1 and 2+Window, 1+Window —
	// passed over, and sharing 1's bit — is fresh.
	execute(tb, 9, 1)
	execute(tb, 9, 2+Window)
	if !execute(tb, 9, 1+Window) {
		t.Fatal("seq 1+Window, passed over by a jump and never executed, is not fresh")
	}

	// Client 0 has no session.
	tb.MarkAdmitted(0, 1)
	if v, _ := tb.Admit(0, 1); v != Fresh {
		t.Fatalf("client 0: %v, want Fresh", v)
	}
	if cached, fresh := tb.Execute(0, 1); !fresh || cached != nil {
		t.Fatal("client 0's commands all execute, and nothing is cached")
	}
	if cached, fresh := tb.Execute(0, 1); !fresh || cached != nil {
		t.Fatal("client 0's commands all execute, and nothing is cached")
	}
}

// TestExecutePrunesAdmitted: the admitted set holds only what is admitted
// and neither executed nor below the window, so it stays bounded and
// allocates nothing once warm.
func TestExecutePrunesAdmitted(t *testing.T) {
	tb := New()
	tb.MarkAdmitted(3, 1) // never executes: the client gave up on it
	for s := uint64(2); s <= 2+Window; s++ {
		tb.MarkAdmitted(3, s)
		execute(tb, 3, s)
	}
	if n := len(tb.clients[3].admitted); n != 0 {
		t.Fatalf("admitted set holds %d seqs, want 0", n)
	}
	next := uint64(3 + Window)
	if allocs := testing.AllocsPerRun(1000, func() {
		tb.MarkAdmitted(3, next)
		tb.Admit(3, next)
		if cached, fresh := tb.Execute(3, next); fresh && cached != nil {
			*cached = wire.Reply{ClientID: 3, Seq: next, OK: true}
		}
		next++
	}); allocs != 0 {
		t.Fatalf("steady state allocates %.1f per command, want 0", allocs)
	}
}

// executions decodes fuzz bytes into a multiset of (client, seq) executions
// over three clients, listed in ascending seq per client, then lets the
// second byte stream swap neighbours whose seqs are less than Window apart
// (or belong to different clients): every order reached that way keeps each
// seq before anything Window or more above it, as a client whose seqs in
// flight span at most Window does.
func executions(seqs, swaps []byte) [][2]uint64 {
	var out [][2]uint64
	next := [3]uint64{1, 1, 1}
	for _, b := range seqs {
		c := uint64(b % 3)
		step := uint64(b/3) % 8
		if step == 7 {
			step = Window / 2
		}
		next[c] += step // step 0 repeats the seq: a duplicate
		out = append(out, [2]uint64{c + 1, next[c]})
	}
	for i := 0; i+1 < len(swaps); i += 2 {
		if len(out) < 2 {
			break
		}
		j := int(binary.LittleEndian.Uint16(swaps[i:])) % (len(out) - 1)
		a, b := out[j], out[j+1]
		if a[0] != b[0] || max(a[1], b[1])-min(a[1], b[1]) < Window {
			out[j], out[j+1] = b, a
		}
	}
	return out
}

// FuzzTableOrderIndependent: two execution orders of one multiset of seqs,
// in which no seq executes after one Window or more above it, give every
// execution the same verdict, every later request the same admission
// verdict, and byte-identical snapshots.
func FuzzTableOrderIndependent(f *testing.F) {
	f.Add([]byte{3, 4, 0, 1, 2, 21, 22, 23, 5, 3}, []byte{0, 0, 1, 0, 2, 0}, []byte{5, 0, 3, 0})
	f.Add([]byte{0, 21, 21, 3}, []byte{}, []byte{2, 0}) // 257 after 258: its bit was 1's
	f.Add(bytes.Repeat([]byte{24, 3, 25, 0}, 40), bytes.Repeat([]byte{7, 0, 9, 0}, 30), []byte{1, 2, 3, 4})
	f.Fuzz(func(t *testing.T, seqs, swapsA, swapsB []byte) {
		verdicts := func(order [][2]uint64) (*Table, map[[2]uint64][]bool) {
			tb, got := New(), map[[2]uint64][]bool{}
			for _, e := range order {
				got[e] = append(got[e], execute(tb, e[0], e[1]))
			}
			return tb, got
		}
		ta, va := verdicts(executions(seqs, swapsA))
		tb, vb := verdicts(executions(seqs, swapsB))
		if fmt.Sprint(va) != fmt.Sprint(vb) {
			t.Fatalf("execution verdicts differ:\n%v\n%v", va, vb)
		}
		if a, b := ta.Encode(nil), tb.Encode(nil); !bytes.Equal(a, b) {
			t.Fatalf("snapshots differ:\n%x\n%x", a, b)
		}
		for c := uint64(1); c <= 3; c++ {
			for s := uint64(0); s < 8*Window; s++ {
				v1, r1 := ta.Admit(c, s)
				v2, r2 := tb.Admit(c, s)
				if v1 != v2 || (r1 == nil) != (r2 == nil) {
					t.Fatalf("Admit(%d, %d) = %v / %v", c, s, v1, v2)
				}
			}
		}
	})
}

// sample is a table with three clients: a dense one past the window, a
// sparse one, and one only admitted (which the snapshot leaves out).
func sample() *Table {
	tb := New()
	for s := uint64(1); s <= Window+40; s++ {
		execute(tb, 1, s)
	}
	for _, s := range []uint64{9, 3, 4} {
		execute(tb, 5, s)
	}
	tb.MarkAdmitted(8, 1)
	return tb
}

func TestSnapshotRoundTrip(t *testing.T) {
	src := sample()
	blob := src.Encode([]byte("prefix"))[len("prefix"):]
	if len(blob) != src.EncodedSize() {
		t.Fatalf("Encode appended %d bytes, EncodedSize says %d", len(blob), src.EncodedSize())
	}
	got, n, err := Decode(append(blob, 0xEE), false)
	if err != nil || n != len(blob) {
		t.Fatalf("Decode = %d, %v; want %d, nil", n, err, len(blob))
	}
	if !bytes.Equal(got.Encode(nil), blob) {
		t.Fatal("re-encoding a decoded table changed its bytes")
	}
	if len(got.clients) != 2 {
		t.Fatalf("decoded %d clients, want 2 (the admitted-only one stays out)", len(got.clients))
	}
	for c := uint64(1); c <= 8; c++ {
		for s := uint64(0); s <= 2*Window; s++ {
			v1, r1 := src.Admit(c, s)
			v2, r2 := got.Admit(c, s)
			if c == 8 && s == 1 {
				v1 = Fresh // admitted at the source, which is its own business
			}
			if v1 != v2 || (r1 == nil) != (r2 == nil) || (r1 != nil && r1.Seq != r2.Seq) {
				t.Fatalf("Admit(%d, %d): source %v, restored %v", c, s, v1, v2)
			}
		}
	}
}

// TestDecodeHostile: a section from a peer that does not parse — cut short
// anywhere, with a count of four billion, a reply longer than the bytes
// left, or a client listed twice — is an error, never a panic, and a count
// is not believed before the bytes are there to back it.
func TestDecodeHostile(t *testing.T) {
	good := sample().Encode(nil)
	for n := 0; n < len(good); n++ {
		if _, _, err := Decode(good[:n], false); err == nil {
			t.Fatalf("truncated at %d of %d: no error", n, len(good))
		}
	}
	huge := func(off int) []byte {
		b := bytes.Clone(good)
		binary.LittleEndian.PutUint32(b[off:], 0xFFFFFFFF)
		return b
	}
	replyAt := 4 + 8 + 8 + 8*Window/64 // the first client's reply length
	first := good[4 : replyAt+4+int(binary.LittleEndian.Uint32(good[replyAt:]))]
	twice := append(append(binary.LittleEndian.AppendUint32(nil, 2), first...), first...)
	for name, data := range map[string][]byte{
		"four billion clients":     huge(0),
		"four billion reply bytes": huge(replyAt),
		"client listed twice":      twice,
	} {
		var err error
		if allocs := testing.AllocsPerRun(1, func() { _, _, err = Decode(data, false) }); allocs > 100 {
			t.Errorf("%s: %.0f allocations", name, allocs)
		}
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestDecodeHighWater: the older layout kept each client's newest seq and
// reply only; every seq at or below the newest counts as executed, and a
// client listed with nothing executed is no client.
func TestDecodeHighWater(t *testing.T) {
	var b []byte
	b = binary.LittleEndian.AppendUint32(b, 3)
	for _, c := range [][2]uint64{{0, 0}, {4, 9}, {6, Window + 30}} {
		rep := wire.Encode(nil, reply(c[0], c[1]))
		b = binary.LittleEndian.AppendUint64(b, c[0])
		b = binary.LittleEndian.AppendUint64(b, c[1])
		b = binary.LittleEndian.AppendUint32(b, uint32(len(rep)))
		b = append(b, rep...)
	}
	tb, n, err := Decode(b, true)
	if err != nil || n != len(b) {
		t.Fatalf("Decode = %d, %v; want %d, nil", n, err, len(b))
	}
	if len(tb.clients) != 2 {
		t.Fatalf("%d clients, want 2", len(tb.clients))
	}
	for _, tc := range []struct {
		client, seq uint64
		want        Verdict
		reply       bool
	}{
		{4, 1, Executed, false}, {4, 9, Executed, true}, {4, 10, Fresh, false},
		{6, 30, Stale, false}, {6, 31, Executed, false}, {6, Window + 30, Executed, true},
		{6, Window + 31, Fresh, false}, {0, 1, Fresh, false},
	} {
		v, cached := tb.Admit(tc.client, tc.seq)
		if v != tc.want || (cached != nil) != tc.reply || (cached != nil && cached.Seq != tc.seq) {
			t.Errorf("Admit(%d, %d) = %v %v, want %v (reply %v)", tc.client, tc.seq, v, cached, tc.want, tc.reply)
		}
	}
}
