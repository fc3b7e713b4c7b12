// Package kvstore implements the in-memory key-value state machine that all
// protocols replicate, equivalent to Paxi's StateMachine: a map of byte-
// string keys to versioned byte-string values, mutated by applying committed
// commands in log order.
package kvstore

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Op enumerates the command operations the state machine understands.
type Op uint8

const (
	// Get reads the current value of a key.
	Get Op = iota
	// Put overwrites the value of a key.
	Put
	// Delete removes a key.
	Delete
)

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o {
	case Get:
		return "GET"
	case Put:
		return "PUT"
	case Delete:
		return "DELETE"
	default:
		return fmt.Sprintf("OP(%d)", uint8(o))
	}
}

// IsRead reports whether the operation leaves the state machine unchanged.
func (o Op) IsRead() bool { return o == Get }

// Command is one state machine operation. ClientID/Seq identify the request
// for at-most-once semantics and reply routing.
type Command struct {
	Op       Op
	Key      uint64
	Value    []byte
	ClientID uint64
	Seq      uint64
}

// Empty reports whether the command is the zero command (an empty log slot).
func (c Command) Empty() bool {
	return c.Op == Get && c.Key == 0 && c.Value == nil && c.ClientID == 0 && c.Seq == 0
}

// IsRead reports whether the command is a read-only operation.
func (c Command) IsRead() bool { return c.Op.IsRead() }

// ConflictsWith reports whether two commands must be ordered with respect to
// each other: they touch the same key and at least one of them writes. This
// is the conflict relation EPaxos uses on its dependency attributes.
func (c Command) ConflictsWith(o Command) bool {
	if c.Key != o.Key {
		return false
	}
	return !c.IsRead() || !o.IsRead()
}

// String implements fmt.Stringer.
func (c Command) String() string {
	return fmt.Sprintf("%s k=%d len=%d cl=%d seq=%d", c.Op, c.Key, len(c.Value), c.ClientID, c.Seq)
}

// Result is the outcome of applying one command.
type Result struct {
	Exists bool
	Value  []byte
}

// cell is everything the store knows about one key. A deleted key keeps its
// cell: its write-version still matters to quorum reads.
type cell struct {
	value   []byte
	live    bool   // the key holds a value (which may be empty)
	version uint64 // writes applied to the key, deletes included
}

// Store is the replicated key-value state machine. It is safe for concurrent
// use; protocols apply committed commands through Apply and serve local
// reads through Get.
type Store struct {
	mu      sync.RWMutex
	cells   map[uint64]*cell
	live    int    // cells holding a value
	applied uint64 // total commands applied, for metrics/tests
}

// New creates an empty store.
func New() *Store {
	return &Store{cells: make(map[uint64]*cell)}
}

// written returns key's cell for a write, creating it on the key's first.
func (s *Store) written(key uint64) *cell {
	c := s.cells[key]
	if c == nil {
		c = &cell{}
		s.cells[key] = c
	}
	c.version++
	return c
}

// Apply executes cmd against the state machine and returns its result.
func (s *Store) Apply(cmd Command) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	switch cmd.Op {
	case Get:
		if c := s.cells[cmd.Key]; c != nil && c.live {
			return Result{Exists: true, Value: c.value}
		}
		return Result{}
	case Put:
		// Copy so callers may reuse their buffers.
		v := make([]byte, len(cmd.Value))
		copy(v, cmd.Value)
		c := s.written(cmd.Key)
		if !c.live {
			c.live = true
			s.live++
		}
		c.value = v
		return Result{Exists: true, Value: nil}
	case Delete:
		c := s.written(cmd.Key)
		was := c.live
		if was {
			c.live, c.value = false, nil
			s.live--
		}
		return Result{Exists: was}
	default:
		return Result{}
	}
}

// Get reads the current value of key without going through the log. Used by
// local/leased read paths and tests.
func (s *Store) Get(key uint64) (value []byte, ok bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.cells[key]; c != nil && c.live {
		return c.value, true
	}
	return nil, false
}

// Version returns the write-version of a key (number of writes applied to
// it), used by Paxos Quorum Reads to compare replica freshness.
func (s *Store) Version(key uint64) uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if c := s.cells[key]; c != nil {
		return c.version
	}
	return 0
}

// Len returns the number of live keys.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.live
}

// Applied returns the total number of commands applied.
func (s *Store) Applied() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.applied
}

// Checksum folds the full store state into a single value. Two replicas that
// applied the same command sequence have equal checksums; tests use it to
// assert state machine convergence.
func (s *Store) Checksum() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var h uint64 = 14695981039346656037 // FNV offset basis
	// XOR per-key hashes so iteration order does not matter.
	var acc uint64
	for k, c := range s.cells {
		if !c.live {
			continue
		}
		kh := h
		kh = fnvMix(kh, k)
		for _, b := range c.value {
			kh = (kh ^ uint64(b)) * 1099511628211
		}
		kh = fnvMix(kh, c.version)
		acc ^= kh
	}
	return acc
}

// Serialize appends the full store state to b in a deterministic layout
// (keys sorted ascending), so every replica serializes identical state to
// identical bytes — snapshots can be compared and shipped between nodes.
// The layout is a version section covering every key ever written,
// including keys whose data was deleted (their write-versions still matter
// to quorum reads), then a data section covering the live ones.
func (s *Store) Serialize(b []byte) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b = binary.LittleEndian.AppendUint64(b, s.applied)
	keys := make([]uint64, 0, len(s.cells))
	for k := range s.cells {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b = binary.LittleEndian.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, s.cells[k].version)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(s.live))
	for _, k := range keys {
		c := s.cells[k]
		if !c.live {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(c.value)))
		b = append(b, c.value...)
	}
	return b
}

// Restore replaces the store's contents with a state previously produced by
// Serialize, returning the number of bytes consumed. b may come from a peer:
// on any error the store is left as it was, and no count read from b sizes
// an allocation before it is checked against the bytes that remain.
func (s *Store) Restore(b []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	off := 0
	u64 := func() (uint64, bool) {
		if off+8 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint64(b[off:])
		off += 8
		return v, true
	}
	u32 := func() (uint32, bool) {
		if off+4 > len(b) {
			return 0, false
		}
		v := binary.LittleEndian.Uint32(b[off:])
		off += 4
		return v, true
	}
	fail := func() (int, error) {
		return 0, fmt.Errorf("kvstore: truncated snapshot at offset %d", off)
	}
	applied, ok := u64()
	if !ok {
		return fail()
	}
	nVer, ok := u32()
	if !ok || int(nVer) > (len(b)-off)/16 {
		return fail()
	}
	cells := make(map[uint64]*cell, nVer)
	for i := uint32(0); i < nVer; i++ {
		k, ok1 := u64()
		v, ok2 := u64()
		if !ok1 || !ok2 {
			return fail()
		}
		cells[k] = &cell{version: v}
	}
	nData, ok := u32()
	if !ok || int(nData) > (len(b)-off)/12 {
		return fail()
	}
	live := 0
	for i := uint32(0); i < nData; i++ {
		k, ok1 := u64()
		n, ok2 := u32()
		if !ok1 || !ok2 || off+int(n) > len(b) {
			return fail()
		}
		v := make([]byte, n)
		copy(v, b[off:off+int(n)])
		off += int(n)
		c := cells[k]
		if c == nil { // Serialize never writes data without a version
			c = &cell{}
			cells[k] = c
		}
		if !c.live {
			c.live = true
			live++
		}
		c.value = v
	}
	s.applied = applied
	s.cells, s.live = cells, live
	return off, nil
}

// Adopt replaces the store's contents with o's; o must not be used again.
// It is how a snapshot that had more to validate than the store's own
// section lands in a store whose pointer is already handed out: Restore
// into a scratch store, check the rest, then Adopt.
func (s *Store) Adopt(o *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells, s.live, s.applied = o.cells, o.live, o.applied
}

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * 1099511628211
		x >>= 8
	}
	return h
}
