// Package kvstore implements the in-memory key-value state machine that all
// protocols replicate, equivalent to Paxi's StateMachine: a map of byte-
// string keys to versioned byte-string values, mutated by applying committed
// commands in log order.
//
// Ownership of values. A value is written once, by whoever builds the
// command, and never rewritten: the transport decodes a peer's bytes into
// chunks it never reuses, the log holds the command, and the store borrows
// its value until the log drops it. Apply(Put) keeps cmd.Value as it is and
// marks the key's cell borrowed. A borrowed value never leaves the store:
// Apply(Get) and Get first give the cell a private copy, at most once per
// write. And when the log drops an executed command it hands it to Return,
// which copies the value of a cell still holding exactly those bytes, so the
// store pins only what the log pins. Values the store hands out are shared
// and read-only.
package kvstore

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"
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
	value    []byte
	live     bool   // the key holds a value (which may be empty)
	borrowed bool   // value is a Put's own bytes, on loan from the log
	version  uint64 // writes applied to the key, deletes included
}

// own gives c a private copy of a borrowed value and returns the value.
func (c *cell) own() []byte {
	if c.borrowed {
		c.value, c.borrowed = bytes.Clone(c.value), false
	}
	return c.value
}

// keyed is a cell with its key, an element of the store's sorted order.
type keyed struct {
	key uint64
	c   *cell
}

// Store is the replicated key-value state machine. It is safe for concurrent
// use; protocols apply committed commands through Apply and serve local
// reads through Get.
type Store struct {
	mu        sync.RWMutex
	cells     map[uint64]*cell
	live      int    // cells holding a value
	liveBytes int    // the values' lengths, summed
	applied   uint64 // total commands applied, for metrics/tests

	// The cells in ascending key order, kept for Serialize: sorted as of the
	// last one, plus the cells first written since in added. Until ordered
	// (a fresh, restored or adopted store) there is no order yet and the
	// first Serialize sorts the map.
	sorted, added []keyed
	ordered       bool
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
		if s.ordered {
			s.added = append(s.added, keyed{key, c})
		}
	}
	c.version++
	return c
}

// Apply executes cmd against the state machine and returns its result. A
// Put borrows cmd.Value (see the package comment): nobody may rewrite it,
// and the log that holds cmd hands it to Return when it drops it.
func (s *Store) Apply(cmd Command) Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applied++
	switch cmd.Op {
	case Get:
		if c := s.cells[cmd.Key]; c != nil && c.live {
			return Result{Exists: true, Value: c.own()}
		}
		return Result{}
	case Put:
		c := s.written(cmd.Key)
		if !c.live {
			c.live = true
			s.live++
		}
		s.liveBytes += len(cmd.Value) - len(c.value)
		if len(cmd.Value) == 0 {
			c.value, c.borrowed = []byte{}, false // an empty value pins nothing
		} else {
			c.value, c.borrowed = cmd.Value, true
		}
		return Result{Exists: true, Value: nil}
	case Delete:
		c := s.written(cmd.Key)
		was := c.live
		if was {
			s.liveBytes -= len(c.value)
			c.live, c.value, c.borrowed = false, nil, false
			s.live--
		}
		return Result{Exists: was}
	default:
		return Result{}
	}
}

// Return ends the loans of the commands cmds yields, which the log is
// dropping: a key whose cell still holds exactly a dropped Put's bytes gets
// a private copy of them. Every other command costs a map lookup at most,
// and one call takes the lock once, however many commands it returns.
func (s *Store) Return(cmds iter.Seq[Command]) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for cmd := range cmds {
		if cmd.Op != Put || len(cmd.Value) == 0 {
			continue
		}
		if c := s.cells[cmd.Key]; c != nil && c.borrowed && len(c.value) == len(cmd.Value) && &c.value[0] == &cmd.Value[0] {
			c.own()
		}
	}
}

// Get reads the current value of key without going through the log. Used by
// local/leased read paths and tests.
func (s *Store) Get(key uint64) (value []byte, ok bool) {
	s.mu.Lock() // a borrowed value is copied before it leaves
	defer s.mu.Unlock()
	if c := s.cells[key]; c != nil && c.live {
		return c.own(), true
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

// SerializedSize is the number of bytes Serialize appends.
func (s *Store) SerializedSize() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.serializedSize()
}

func (s *Store) serializedSize() int {
	return 8 + 4 + 16*len(s.cells) + 4 + 12*s.live + s.liveBytes
}

// Serialize appends the full store state to b in a deterministic layout
// (keys sorted ascending), so every replica serializes identical state to
// identical bytes — snapshots can be compared and shipped between nodes.
// The layout is a version section covering every key ever written,
// including keys whose data was deleted (their write-versions still matter
// to quorum reads), then a data section covering the live ones. b grows at
// most once, to the exact size; the walk is over the kept key order, so a
// capture costs one pass over the keys plus sorting the ones that are new.
func (s *Store) Serialize(b []byte) []byte {
	s.mu.Lock() // the key order is merged in place
	defer s.mu.Unlock()
	order := s.order()
	b = slices.Grow(b, s.serializedSize())
	b = binary.LittleEndian.AppendUint64(b, s.applied)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(order)))
	for _, e := range order {
		b = binary.LittleEndian.AppendUint64(b, e.key)
		b = binary.LittleEndian.AppendUint64(b, e.c.version)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(s.live))
	for _, e := range order {
		if !e.c.live {
			continue
		}
		b = binary.LittleEndian.AppendUint64(b, e.key)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(e.c.value)))
		b = append(b, e.c.value...)
	}
	return b
}

// order brings the kept key order up to date and returns it. The cells
// written first since the last call are sorted alone and merged in from the
// back, in place: O(n + k log k) for k new keys among n, where sorting the
// map afresh would cost O(n log n) every time.
func (s *Store) order() []keyed {
	byKey := func(a, b keyed) int { return cmp.Compare(a.key, b.key) }
	if !s.ordered {
		s.sorted = s.sorted[:0]
		for k, c := range s.cells {
			s.sorted = append(s.sorted, keyed{k, c})
		}
		slices.SortFunc(s.sorted, byKey)
		s.ordered = true
		return s.sorted
	}
	if len(s.added) == 0 {
		return s.sorted
	}
	slices.SortFunc(s.added, byKey)
	n, k := len(s.sorted), len(s.added)
	s.sorted = slices.Grow(s.sorted, k)[:n+k]
	i, j := n-1, k-1
	for w := n + k - 1; j >= 0; w-- {
		if i >= 0 && s.sorted[i].key > s.added[j].key {
			s.sorted[w], i = s.sorted[i], i-1
		} else {
			s.sorted[w], j = s.added[j], j-1
		}
	}
	clear(s.added) // drop the cell pointers the merge copied
	s.added = s.added[:0]
	return s.sorted
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
	live, liveBytes := 0, 0
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
		liveBytes += len(v) - len(c.value)
		c.value = v
	}
	s.applied = applied
	s.cells, s.live, s.liveBytes = cells, live, liveBytes
	s.dropOrder()
	return off, nil
}

// Adopt replaces the store's contents with o's; o must not be used again.
// It is how a snapshot that had more to validate than the store's own
// section lands in a store whose pointer is already handed out: Restore
// into a scratch store, check the rest, then Adopt.
func (s *Store) Adopt(o *Store) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.cells, s.live, s.liveBytes, s.applied = o.cells, o.live, o.liveBytes, o.applied
	s.dropOrder()
}

// dropOrder forgets the kept key order of cells that were replaced.
func (s *Store) dropOrder() {
	s.sorted, s.added, s.ordered = nil, nil, false
}

func fnvMix(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (x & 0xff)) * 1099511628211
		x >>= 8
	}
	return h
}
