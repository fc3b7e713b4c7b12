package kvstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestPutGet(t *testing.T) {
	s := New()
	s.Apply(Command{Op: Put, Key: 1, Value: []byte("hello")})
	r := s.Apply(Command{Op: Get, Key: 1})
	if !r.Exists || string(r.Value) != "hello" {
		t.Errorf("Get after Put: got %+v", r)
	}
}

func TestGetMissing(t *testing.T) {
	s := New()
	r := s.Apply(Command{Op: Get, Key: 42})
	if r.Exists {
		t.Error("missing key should not exist")
	}
}

func TestDelete(t *testing.T) {
	s := New()
	s.Apply(Command{Op: Put, Key: 1, Value: []byte("x")})
	r := s.Apply(Command{Op: Delete, Key: 1})
	if !r.Exists {
		t.Error("delete of live key should report it existed")
	}
	if _, ok := s.Get(1); ok {
		t.Error("key should be gone after delete")
	}
	r = s.Apply(Command{Op: Delete, Key: 1})
	if r.Exists {
		t.Error("second delete should report missing")
	}
}

// TestPutBorrowsWithoutAllocating: a Put keeps the command's bytes as they
// are — once the key has a cell, applying one allocates nothing.
func TestPutBorrowsWithoutAllocating(t *testing.T) {
	s := New()
	cmds := make([]Command, 64)
	for i := range cmds {
		cmds[i] = Command{Op: Put, Key: uint64(i % 8), Value: make([]byte, 1024)}
		s.Apply(cmds[i])
	}
	i := 0
	if n := testing.AllocsPerRun(1000, func() {
		s.Apply(cmds[i%len(cmds)])
		i++
	}); n != 0 {
		t.Errorf("%.1f allocs per Put on an existing key, want 0", n)
	}
}

// TestReadsNeverShareCommandBytes: whichever read path a value leaves by,
// it is the store's own copy, never the bytes of the command it came from —
// and the copy is made once per write, not once per read.
func TestReadsNeverShareCommandBytes(t *testing.T) {
	for _, read := range []struct {
		name string
		get  func(s *Store, key uint64) []byte
	}{
		{"Apply(Get)", func(s *Store, key uint64) []byte { return s.Apply(Command{Op: Get, Key: key}).Value }},
		{"Get", func(s *Store, key uint64) []byte { v, _ := s.Get(key); return v }},
	} {
		s := New()
		cmd := Command{Op: Put, Key: 1, Value: []byte("abc")}
		s.Apply(cmd)
		v := read.get(s, 1)
		if overlaps(v, cmd.Value) {
			t.Fatalf("%s handed out the command's own bytes", read.name)
		}
		if again := read.get(s, 1); &again[0] != &v[0] {
			t.Errorf("%s copied the value a second time for the same write", read.name)
		}
		cmd.Value[0] = 'z' // the log dropped the Put, and its bytes were reused
		if got, _ := s.Get(1); string(got) != "abc" || string(v) != "abc" {
			t.Errorf("%s: rewriting the command's bytes reached the store (%q) or the reader (%q)", read.name, got, v)
		}
	}
}

// TestReturnCopiesOnlyTheExactLoan: Return gives a cell a private copy only
// while the cell still holds exactly the returned command's bytes. A value
// overwritten since, one carved from the same buffer, one with equal
// contents elsewhere, or one already read is left as it is.
func TestReturnCopiesOnlyTheExactLoan(t *testing.T) {
	buf := []byte("aaaabbbb")
	a, b := buf[:4:4], buf[4:]
	old := []byte("dddd")
	s := New()
	s.Apply(Command{Op: Put, Key: 1, Value: a})
	s.Apply(Command{Op: Put, Key: 2, Value: b})
	s.Apply(Command{Op: Put, Key: 3, Value: []byte("cccc")})
	s.Apply(Command{Op: Get, Key: 3}) // key 3 holds its own copy already
	s.Apply(Command{Op: Put, Key: 4, Value: old})
	s.Apply(Command{Op: Put, Key: 4, Value: []byte("eeee")})
	noCopy := []Command{
		{Op: Put, Key: 1, Value: b},              // another loan from the same buffer
		{Op: Put, Key: 1, Value: []byte("aaaa")}, // equal bytes, elsewhere
		{Op: Put, Key: 1, Value: buf[:3]},        // a prefix of the loan
		{Op: Put, Key: 3, Value: []byte("cccc")}, // a cell that owns its value
		{Op: Put, Key: 4, Value: old},            // overwritten since
		{Op: Put, Key: 9, Value: a},              // a key never written
		{Op: Delete, Key: 2},                     // not a Put
	}
	three := s.cells[3].value
	s.Return(slices.Values(noCopy))
	if !s.cells[1].borrowed || !s.cells[2].borrowed || !s.cells[4].borrowed || &s.cells[3].value[0] != &three[0] {
		t.Fatal("Return copied a value that was not exactly the one returned")
	}
	s.Return(slices.Values([]Command{{Op: Put, Key: 1, Value: a}}))
	copy(buf, "xxxx") // the Put was dropped: its bytes are reused
	if v, _ := s.Get(1); string(v) != "aaaa" || !s.cells[2].borrowed {
		t.Errorf("key 1 = %q after its loan was returned, want aaaa; key 2 must still borrow", v)
	}
}

// overlaps reports whether a and b share any byte.
func overlaps(a, b []byte) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	pa, pb := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return pa < pb+uintptr(len(b)) && pb < pa+uintptr(len(a))
}

func TestVersionTracking(t *testing.T) {
	s := New()
	if s.Version(7) != 0 {
		t.Error("fresh key should have version 0")
	}
	s.Apply(Command{Op: Put, Key: 7, Value: []byte("a")})
	s.Apply(Command{Op: Put, Key: 7, Value: []byte("b")})
	if s.Version(7) != 2 {
		t.Errorf("version = %d, want 2", s.Version(7))
	}
	s.Apply(Command{Op: Get, Key: 7})
	if s.Version(7) != 2 {
		t.Error("reads must not bump the version")
	}
	s.Apply(Command{Op: Delete, Key: 7})
	if s.Version(7) != 3 {
		t.Error("delete is a write and must bump the version")
	}
}

func TestAppliedCounter(t *testing.T) {
	s := New()
	for i := 0; i < 5; i++ {
		s.Apply(Command{Op: Put, Key: uint64(i)})
	}
	if s.Applied() != 5 {
		t.Errorf("Applied = %d, want 5", s.Applied())
	}
	if s.Len() != 5 {
		t.Errorf("Len = %d, want 5", s.Len())
	}
}

func TestCommandEmpty(t *testing.T) {
	if !(Command{}).Empty() {
		t.Error("zero command should be Empty")
	}
	if (Command{Op: Put, Key: 1}).Empty() {
		t.Error("put is not empty")
	}
}

func TestConflictsWith(t *testing.T) {
	w1 := Command{Op: Put, Key: 1}
	w2 := Command{Op: Put, Key: 1}
	r1 := Command{Op: Get, Key: 1}
	r2 := Command{Op: Get, Key: 1}
	other := Command{Op: Put, Key: 2}
	if !w1.ConflictsWith(w2) {
		t.Error("two writes to same key conflict")
	}
	if !w1.ConflictsWith(r1) || !r1.ConflictsWith(w1) {
		t.Error("read-write on same key conflicts, both directions")
	}
	if r1.ConflictsWith(r2) {
		t.Error("two reads never conflict")
	}
	if w1.ConflictsWith(other) {
		t.Error("different keys never conflict")
	}
}

func TestOpString(t *testing.T) {
	if Get.String() != "GET" || Put.String() != "PUT" || Delete.String() != "DELETE" {
		t.Error("Op.String mismatch")
	}
	if Op(9).String() != "OP(9)" {
		t.Error("unknown op should format numerically")
	}
}

func TestChecksumConvergence(t *testing.T) {
	// Two stores that apply the same sequence in the same order converge.
	a, b := New(), New()
	rng := rand.New(rand.NewSource(1))
	var cmds []Command
	for i := 0; i < 500; i++ {
		cmds = append(cmds, Command{
			Op:    Op(rng.Intn(3)),
			Key:   uint64(rng.Intn(20)),
			Value: []byte{byte(rng.Intn(256))},
		})
	}
	for _, c := range cmds {
		a.Apply(c)
		b.Apply(c)
	}
	if a.Checksum() != b.Checksum() {
		t.Error("same sequence must yield same checksum")
	}
}

func TestChecksumDetectsDivergence(t *testing.T) {
	a, b := New(), New()
	a.Apply(Command{Op: Put, Key: 1, Value: []byte("x")})
	b.Apply(Command{Op: Put, Key: 1, Value: []byte("y")})
	if a.Checksum() == b.Checksum() {
		t.Error("different values should (overwhelmingly) differ in checksum")
	}
}

func TestConcurrentAccess(t *testing.T) {
	s := New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				put := Command{Op: Put, Key: uint64(g*1000 + i), Value: []byte{1}}
				s.Apply(put)
				s.Get(uint64(g*1000 + i))
				s.Version(uint64(i))
				s.Return(slices.Values([]Command{put}))
			}
		}(g)
	}
	wg.Wait()
	if s.Len() != 8*200 {
		t.Errorf("Len = %d, want %d", s.Len(), 8*200)
	}
}

// Property: after PUT(k, v), GET(k) observes exactly v.
func TestPutGetProperty(t *testing.T) {
	s := New()
	f := func(k uint64, v []byte) bool {
		s.Apply(Command{Op: Put, Key: k, Value: v})
		got, ok := s.Get(k)
		return ok && bytes.Equal(got, v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: conflict relation is symmetric.
func TestConflictSymmetryProperty(t *testing.T) {
	f := func(k1, k2 uint8, o1, o2 uint8) bool {
		a := Command{Op: Op(o1 % 3), Key: uint64(k1 % 4)}
		b := Command{Op: Op(o2 % 3), Key: uint64(k2 % 4)}
		return a.ConflictsWith(b) == b.ConflictsWith(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkApplyPut(b *testing.B) {
	s := New()
	cmd := Command{Op: Put, Key: 1, Value: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cmd.Key = uint64(i % 1000)
		s.Apply(cmd)
	}
}

func BenchmarkApplyGet(b *testing.B) {
	s := New()
	s.Apply(Command{Op: Put, Key: 1, Value: make([]byte, 64)})
	cmd := Command{Op: Get, Key: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Apply(cmd)
	}
}

// parentSnapshot is Serialize's output for snapshotScript, produced by the
// two-map store (data + version) this one replaced. Snapshots are journaled
// and shipped between replicas, so the bytes are a format, not an
// implementation detail.
const parentSnapshot = "0a00000000000000" +
	"07000000" +
	"01000000000000000100000000000000" + "02000000000000000200000000000000" +
	"03000000000000000200000000000000" + "04000000000000000100000000000000" +
	"05000000000000000100000000000000" + "07000000000000000100000000000000" +
	"09000000000000000100000000000000" +
	"05000000" +
	"0100000000000000" + "02000000" + "01ab" +
	"0300000000000000" + "05000000" + "7468726565" +
	"0400000000000000" + "02000000" + "04ab" +
	"0500000000000000" + "02000000" + "05ab" +
	"0700000000000000" + "00000000"

const parentChecksum uint64 = 0xc2ad62feb68cb0da

// snapshotScript leaves a deleted key (2), a key deleted without ever being
// written (9: a version and no data), an overwritten key (3) and an empty
// value (7).
func snapshotScript(s *Store) {
	for k := uint64(1); k <= 5; k++ {
		s.Apply(Command{Op: Put, Key: k, Value: []byte{byte(k), 0xab}})
	}
	s.Apply(Command{Op: Delete, Key: 2})
	s.Apply(Command{Op: Delete, Key: 9})
	s.Apply(Command{Op: Put, Key: 3, Value: []byte("three")})
	s.Apply(Command{Op: Get, Key: 4})
	s.Apply(Command{Op: Put, Key: 7, Value: nil})
}

func TestSnapshotBytesPinned(t *testing.T) {
	want, err := hex.DecodeString(parentSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	s := New()
	snapshotScript(s)
	if got := s.Serialize(nil); !bytes.Equal(got, want) {
		t.Fatalf("Serialize moved:\n got %x\nwant %x", got, want)
	}
	if got := s.Checksum(); got != parentChecksum {
		t.Fatalf("Checksum %#x, want %#x", got, parentChecksum)
	}
	// Round trip: a store restored from the parent's bytes is the same store.
	r := New()
	n, err := r.Restore(want)
	if err != nil || n != len(want) {
		t.Fatalf("Restore consumed %d of %d: %v", n, len(want), err)
	}
	if got := r.Serialize(nil); !bytes.Equal(got, want) {
		t.Fatalf("round trip moved:\n got %x\nwant %x", got, want)
	}
	if r.Checksum() != parentChecksum || r.Len() != 5 || r.Applied() != 10 {
		t.Fatalf("restored: checksum %#x len %d applied %d", r.Checksum(), r.Len(), r.Applied())
	}
	for key, v := range map[uint64]uint64{2: 2, 9: 1, 3: 2, 8: 0} {
		if got := r.Version(key); got != v {
			t.Errorf("restored Version(%d) = %d, want %d", key, got, v)
		}
	}
	if _, ok := r.Get(2); ok {
		t.Error("deleted key 2 came back live")
	}
	if v, ok := r.Get(7); !ok || len(v) != 0 {
		t.Errorf("empty value of key 7 restored as %q, %v", v, ok)
	}
}

// TestSerializeMergesNewKeys: a store captured again and again, with keys
// first written, overwritten and deleted in between and a restore midway,
// serializes each time to the bytes a store sorting its keys afresh does,
// and to exactly SerializedSize of them.
func TestSerializeMergesNewKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := New()
	for round := 0; round < 200; round++ {
		for i := rng.Intn(5); i > 0; i-- {
			cmd := Command{Op: Put, Key: uint64(rng.Intn(500)), Value: make([]byte, rng.Intn(4))}
			if rng.Intn(4) == 0 {
				cmd.Op = Delete
			}
			s.Apply(cmd)
		}
		got := s.Serialize(nil)
		if len(got) != s.SerializedSize() {
			t.Fatalf("round %d: %d bytes, SerializedSize %d", round, len(got), s.SerializedSize())
		}
		fresh := New()
		if _, err := fresh.Restore(got); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if want := fresh.Serialize(nil); !bytes.Equal(got, want) {
			t.Fatalf("round %d: the kept order serialized\n%x\nsorting afresh\n%x", round, got, want)
		}
		if round == 100 {
			s.Restore(got)
		}
	}
}

// FuzzRestore: bytes from a peer never panic Restore, never size an
// allocation by a count the bytes left cannot back (the four-billion seeds
// would otherwise ask for a map of that many cells), and either restore the
// store or leave it as it was. Adopt then moves a restored state, whole,
// into a store that is already handed out.
func FuzzRestore(f *testing.F) {
	src := New()
	snapshotScript(src)
	good := src.Serialize(nil)
	f.Add(good)
	for n := 0; n < len(good); n++ {
		f.Add(good[:n])
	}
	cells := int(binary.LittleEndian.Uint32(good[8:]))
	for _, off := range []int{8, 8 + 4 + 16*cells} { // the cell count, the value count
		huge := bytes.Clone(good)
		copy(huge[off:], []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(huge)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New()
		s.Apply(Command{Op: Put, Key: 77, Value: []byte("mine")})
		before := s.Serialize(nil)
		n, err := s.Restore(data)
		if err != nil {
			if !bytes.Equal(s.Serialize(nil), before) {
				t.Fatalf("rejected (%v) yet the store changed", err)
			}
			return
		}
		if n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		restored := s.Serialize(nil)
		held := New()
		held.Adopt(s)
		if !bytes.Equal(held.Serialize(nil), restored) {
			t.Fatal("Adopt did not carry the restored state over")
		}
	})
}

// FuzzStoreOwnership runs a random sequence of Put, Get (both paths),
// Delete, Return and Serialize→Restore against a map model that copies
// every value. Put values are carved from shared chunks, as the transport
// carves them from its read chunks, and a Put may reuse a value still on
// loan, as a generator's shared payload does. After every step the fuzzer
// scribbles over every buffer whose ownership has passed back to it: each
// blob Serialize handed out, and each returned command's value once no loan
// shares its bytes. The store must still agree with the model, byte for
// byte; every value a read handed out must still read as it did (the store
// never rewrites one in place) and share no byte with a value on loan.
func FuzzStoreOwnership(f *testing.F) {
	f.Add([]byte{0, 1, 3, 4, 0, 0, 6, 0})
	f.Add([]byte{0, 1, 3, 0, 1, 5, 4, 0, 2, 1, 0, 3, 4, 1, 6, 0})
	f.Add([]byte{0, 2, 8, 0, 2, 0, 7, 0, 4, 0, 0, 1, 2, 1, 1, 5, 5, 0, 4, 1, 3, 1})
	f.Add([]byte{0, 0, 9, 0, 0, 9, 0, 0, 9, 4, 0, 4, 0, 4, 0, 2, 0, 5, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		ops = ops[:min(len(ops), 300)] // the checks after each step are quadratic
		model := map[uint64]*mcell{}
		var applied uint64
		s := New()
		var chunk []byte
		var loans, returned []Command // values on loan to s; values given back
		var blobs [][]byte
		type read struct{ got, want []byte }
		var reads []read
		next := func() byte {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		write := func(key uint64) *mcell {
			c := model[key]
			if c == nil {
				c = &mcell{}
				model[key] = c
			}
			c.version++
			applied++
			return c
		}
		for step := 0; len(ops) > 0; step++ {
			op, key := next()%7, uint64(next()%4)
			switch op {
			case 0: // Put a fresh value carved from the chunk, or reuse a loaned one
				n := int(next() % 12)
				var v []byte
				if n == 11 && len(loans) > 0 {
					v = loans[len(loans)-1].Value
				} else {
					if len(chunk) < n {
						chunk = make([]byte, 64)
					}
					v, chunk = chunk[:n:n], chunk[n:]
					for i := range v {
						v[i] = byte(step + i)
					}
				}
				cmd := Command{Op: Put, Key: key, Value: v}
				s.Apply(cmd)
				loans = append(loans, cmd)
				c := write(key)
				c.value, c.live = bytes.Clone(v), true
			case 1, 2: // read through Apply(Get) or Get
				var got []byte
				var ok bool
				if op == 1 {
					r := s.Apply(Command{Op: Get, Key: key})
					got, ok = r.Value, r.Exists
					applied++
				} else {
					got, ok = s.Get(key)
				}
				c := model[key]
				if want := c != nil && c.live; ok != want || ok && !bytes.Equal(got, c.value) {
					t.Fatalf("step %d: read %d = %q, %v; model %+v", step, key, got, ok, c)
				}
				reads = append(reads, read{got, bytes.Clone(got)})
			case 3:
				s.Apply(Command{Op: Delete, Key: key})
				c := write(key)
				c.value, c.live = nil, false
			case 4: // the log drops up to three commands: their loans come back
				if len(loans) == 0 {
					continue
				}
				i := int(next()) % len(loans)
				j := min(len(loans), i+1+int(next()%3))
				s.Return(slices.Values(loans[i:j]))
				returned = append(returned, loans[i:j]...)
				loans = slices.Delete(loans, i, j)
			case 5:
				blob := s.Serialize(nil)
				if _, err := s.Restore(blob); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				blobs = append(blobs, blob)
			case 6:
				blobs = append(blobs, s.Serialize(nil))
			}
			for _, b := range blobs {
				scribble(b, step)
			}
			for _, cmd := range returned {
				if !slices.ContainsFunc(loans, func(l Command) bool { return overlaps(l.Value, cmd.Value) }) {
					scribble(cmd.Value, step)
				}
			}
			for _, r := range reads {
				if !bytes.Equal(r.got, r.want) {
					t.Fatalf("step %d: a value read as %q now reads %q", step, r.want, r.got)
				}
				for _, l := range loans {
					if overlaps(r.got, l.Value) {
						t.Fatalf("step %d: a value read as %q shares bytes with a loan", step, r.want)
					}
				}
			}
			if got, want := s.Serialize(nil), modelBytes(applied, model); !bytes.Equal(got, want) {
				t.Fatalf("step %d: store serializes as\n%x\nmodel\n%x", step, got, want)
			}
		}
	})
}

// modelBytes is Serialize's layout written from the fuzz model.
func modelBytes(applied uint64, model map[uint64]*mcell) []byte {
	keys := slices.Sorted(maps.Keys(model))
	b := binary.LittleEndian.AppendUint64(nil, applied)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	live := 0
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, model[k].version)
		if model[k].live {
			live++
		}
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(live))
	for _, k := range keys {
		if c := model[k]; c.live {
			b = binary.LittleEndian.AppendUint64(b, k)
			b = binary.LittleEndian.AppendUint32(b, uint32(len(c.value)))
			b = append(b, c.value...)
		}
	}
	return b
}

// mcell is one key of FuzzStoreOwnership's model.
type mcell struct {
	value   []byte
	live    bool
	version uint64
}

func scribble(b []byte, step int) {
	for i := range b {
		b[i] = ^byte(step + i)
	}
}
