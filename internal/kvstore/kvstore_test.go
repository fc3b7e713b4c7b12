package kvstore

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
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

func TestPutCopiesValue(t *testing.T) {
	s := New()
	buf := []byte("abc")
	s.Apply(Command{Op: Put, Key: 1, Value: buf})
	buf[0] = 'z'
	v, _ := s.Get(1)
	if string(v) != "abc" {
		t.Error("store must copy values, caller mutation leaked in")
	}
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
				s.Apply(Command{Op: Put, Key: uint64(g*1000 + i), Value: []byte{1}})
				s.Get(uint64(g*1000 + i))
				s.Version(uint64(i))
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
